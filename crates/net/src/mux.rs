//! Multiplexed UDP cluster runtime: thousands of nodes, a handful of
//! threads — optionally sharded across sockets, processes, and hosts.
//!
//! The paper's Figure 1 gives every node an active thread (one exchange
//! per cycle) and a passive thread (answering exchanges). Taken
//! literally — one OS thread and one socket per node — that caps
//! real-network experiments at about a hundred nodes per host. This
//! module realizes both behaviors per *virtual* node instead: the active
//! one is a timer-wheel deadline, the passive one a delivered datagram.
//! It hosts N virtual nodes inside one process behind a small fixed
//! **socket set** on `workers + readers + 1` OS threads:
//!
//! * `readers` sockets, each owned by one *reader* thread
//!   ([`MuxClusterConfig::with_readers`]; 1 is a single socket moving
//!   every datagram). Local vnode `i` is homed on socket
//!   `i % readers`: its datagrams arrive there and its outbound frames
//!   leave from there, preserving per-vnode datagram ordering. Each
//!   reader routes by the virtual-node id in the mux frame
//!   ([`crate::codec::decode_mux_datagram`]) and — on the batched I/O
//!   backend ([`crate::batch::IoBackend`]) — drains up to
//!   [`crate::batch::BATCH`] datagrams per `recvmmsg` syscall;
//! * a *timer* thread drives one [`ShardedTimerWheel`] shard per reader
//!   (each wheel holds only its socket's vnodes, and each shard has its
//!   own schedule inbox, so the wheel path is never a single global
//!   lock) over every node's self-reported deadline
//!   ([`GossipNode::next_deadline`] merged with its directory's
//!   [`PeerDirectory::next_deadline`]): cycle boundaries,
//!   pending-exchange timeouts, joiner activations, membership gossip;
//! * `workers` worker threads execute the per-node state machines. No
//!   thread ever blocks on an exchange: a node that initiated one simply
//!   parks a timeout deadline in the wheel and yields its worker — the
//!   pending exchange is a timer-guarded continuation inside the sans-io
//!   [`GossipNode`]. Outbound frames accumulate per home socket in a
//!   [`crate::batch::SendBatch`] while the work queue is hot and flush
//!   as one `sendmmsg` burst; kernel-refused sends are counted in
//!   [`TrafficCounts::send_errors`] instead of being silently dropped.
//!
//! # Cross-host sharding
//!
//! The mux wire frame is address-agnostic: it routes by *cluster-wide*
//! virtual-node id. A [`PeerTable`] maps contiguous vnode-id ranges to
//! shard socket addresses, so a cluster can be split over multiple
//! sockets, processes, or hosts ([`MuxClusterConfig::sharded`]): each
//! process hosts one range and transmits frames for foreign vnodes to
//! the owning shard's socket. Same-seed determinism is preserved — node
//! state is a function of the cluster-wide id, not of shard layout — so
//! a sharded and an unsharded cluster draw identical peer sequences.
//!
//! # Membership
//!
//! `GETNEIGHBOR()` is served by a per-vnode [`PeerDirectory`]
//! ([`MuxClusterConfig::with_directory`]): a [`DirectorySpec::Static`]
//! table by default, or NEWSCAST gossip ([`DirectorySpec::Gossip`]) whose
//! view exchanges and join/introduce bootstrap travel as mux frames
//! through the same socket, timer wheel, and worker pool as the
//! aggregation traffic. Gossip introducers must be named by node id
//! ([`crate::directory::Introducer::Node`]) — mux frames route by id.
//!
//! Every datagram still crosses the kernel's UDP stack (loopback or
//! otherwise), so the runtime exercises the real codec, real sockets, and
//! real timing — only the thread-per-node cost model is gone. A node's
//! protocol behavior is a function of its cluster-wide id and the seed:
//! peer randomness is drawn lazily per *initiated exchange*
//! ([`GossipNode::poll_sampler`]), so same-seed clusters select the same
//! peer sequence per node whatever their reader, backend, or shard
//! layout.
//!
//! # Timer entries
//!
//! Each vnode has at most one *live* wheel entry: the deadline recorded
//! in its `next_wake`. A wake whose deadline is not the live one was
//! superseded by an earlier re-park and is dropped unprocessed. Such a
//! stale entry fires once and dies, so the wheel's fire rate follows the
//! protocol's deadlines however many deliveries or client RPCs pull a
//! deadline earlier.
//!
//! # Examples
//!
//! ```no_run
//! use epidemic_aggregation::{InstanceSpec, NodeConfig};
//! use epidemic_net::cluster::Cluster;
//! use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
//!
//! let node_config = NodeConfig::builder()
//!     .gamma(10)
//!     .cycle_length(50)
//!     .timeout(20)
//!     .instance(InstanceSpec::AVERAGE)
//!     .build()?;
//! // 1024 gossip nodes, two reader sockets, 4 + 2 + 1 OS threads.
//! let cluster = MuxCluster::spawn(
//!     MuxClusterConfig::new(1024, node_config)
//!         .with_workers(4)
//!         .with_readers(2),
//!     |i| i as f64,
//! )?;
//! std::thread::sleep(std::time::Duration::from_millis(1_200));
//! let reports = cluster.take_all_reports();
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::{IoBackend, RecvBatch, SendBatch, BATCH};
use crate::cluster::{Cluster, TrafficCell, TrafficCounts};
use crate::codec::{
    decode_datagram, decode_mux_datagram, encode_mux_catalog_frame, encode_mux_directory_frame,
    encode_mux_frame, encode_mux_piggyback_frame, encode_mux_query_frame, encode_rpc_response,
    piggyback_trailer_len, WirePayload,
};
use crate::directory::{
    Destination, DirectoryMessage, DirectoryPayload, DirectorySpec, GossipDirectory, Introducer,
    PeerDirectory, StaticDirectory,
};
use crate::timer::ShardedTimerWheel;
use epidemic_aggregation::node::GossipNode;
use epidemic_aggregation::{EpochReport, NodeConfig};
use epidemic_common::stats::OnlineStats;
use epidemic_common::NodeId;
use epidemic_query::{
    QueryDescriptor, QueryError, QueryEstimate, QueryOutbound, QueryPlane, QueryPlaneConfig,
};
use epidemic_telemetry::{Counter, Gauge, Histogram, MetricsServer, Registry, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Maps cluster-wide virtual-node ids to shard socket addresses.
///
/// Shard `s` owns the contiguous id range [`PeerTable::shard_range`] and
/// publishes its full reader socket *set* ([`PeerTable::shard_sockets`]);
/// a frame for any vnode is transmitted to the destination vnode's home
/// socket within the owning shard's set — `sets[s][(vnode - start) %
/// sets[s].len()]`, the same `local % readers` homing rule the receiving
/// shard uses — so cross-shard traffic fans across every reader instead
/// of piling onto the first socket. A single-shard, single-socket table
/// is the degenerate case every one-process cluster uses implicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerTable {
    /// Range boundaries: shard `s` owns `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    /// Reader socket set per shard; `sets[s][0]` is the shard's
    /// advertised primary address.
    sets: Vec<Vec<SocketAddr>>,
}

impl PeerTable {
    /// One shard owning every vnode `0..total` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn single(total: usize, addr: SocketAddr) -> Self {
        PeerTable::split(total, vec![addr])
    }

    /// Splits `0..total` into `addrs.len()` near-even contiguous ranges,
    /// in shard order (earlier shards get the larger ranges when the
    /// split is uneven). Each shard publishes a single socket; use
    /// [`PeerTable::split_sets`] to publish multi-reader socket sets.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or `total < addrs.len()`.
    pub fn split(total: usize, addrs: Vec<SocketAddr>) -> Self {
        PeerTable::split_sets(total, addrs.into_iter().map(|a| vec![a]).collect())
    }

    /// Splits `0..total` into `sets.len()` near-even contiguous ranges,
    /// publishing each shard's full reader socket set so senders can fan
    /// cross-shard frames across it.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty, any set is empty, or
    /// `total < sets.len()`.
    pub fn split_sets(total: usize, sets: Vec<Vec<SocketAddr>>) -> Self {
        assert!(!sets.is_empty(), "peer table needs at least one shard");
        assert!(
            sets.iter().all(|set| !set.is_empty()),
            "every shard needs at least one socket"
        );
        assert!(
            total >= sets.len(),
            "fewer vnodes ({total}) than shards ({})",
            sets.len()
        );
        let shards = sets.len();
        let base = total / shards;
        let remainder = total % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut next = 0;
        for s in 0..shards {
            starts.push(next);
            next += base + usize::from(s < remainder);
        }
        starts.push(next);
        debug_assert_eq!(next, total);
        PeerTable { starts, sets }
    }

    /// Binds (and immediately releases) `shards` loopback sockets on
    /// ephemeral ports and splits `0..total` across them — the
    /// same-host convenience for multi-process experiments and tests.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn loopback_split(total: usize, shards: usize) -> io::Result<Self> {
        Ok(PeerTable::split(
            total,
            crate::cluster::reserve_loopback_addrs(shards)?,
        ))
    }

    /// Like [`PeerTable::loopback_split`], but publishes `readers`
    /// loopback sockets per shard, so every shard spawns a multi-reader
    /// socket set and cross-shard senders fan across it.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    ///
    /// # Panics
    ///
    /// Panics if `readers == 0`.
    pub fn loopback_split_readers(total: usize, shards: usize, readers: usize) -> io::Result<Self> {
        assert!(readers > 0, "need at least one reader per shard");
        let flat = crate::cluster::reserve_loopback_addrs(shards * readers)?;
        Ok(PeerTable::split_sets(
            total,
            flat.chunks(readers).map(<[SocketAddr]>::to_vec).collect(),
        ))
    }

    /// Cluster-wide virtual-node count.
    pub fn total(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sets.len()
    }

    /// The vnode-id range shard `shard` owns.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// The advertised (primary) socket address of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_addr(&self, shard: usize) -> SocketAddr {
        self.sets[shard][0]
    }

    /// The full published reader socket set of shard `shard`, primary
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_sockets(&self, shard: usize) -> &[SocketAddr] {
        &self.sets[shard]
    }

    /// The owning shard of `vnode`, or `None` for an out-of-range id.
    pub fn shard_of(&self, vnode: usize) -> Option<usize> {
        if vnode >= self.total() {
            return None;
        }
        // starts is sorted; find the last boundary at or below vnode.
        Some(match self.starts.binary_search(&vnode) {
            Ok(s) => s,
            Err(insertion) => insertion - 1,
        })
    }

    /// The socket address frames for `vnode` should be sent to — the
    /// vnode's home socket within its shard's published set — or `None`
    /// for an out-of-range id.
    pub fn addr_of(&self, vnode: usize) -> Option<SocketAddr> {
        let s = self.shard_of(vnode)?;
        let set = &self.sets[s];
        Some(set[(vnode - self.starts[s]) % set.len()])
    }
}

/// Configuration of a multiplexed cluster (or one shard of one): vnode
/// count, protocol parameters, membership directory, I/O layout (reader
/// sockets, syscall batching), and shard layout.
#[derive(Debug, Clone)]
pub struct MuxClusterConfig {
    /// Cluster-wide vnode count.
    n: usize,
    /// `(table, local shard)` for sharded deployments; `None` hosts all
    /// of `0..n` behind an ephemeral loopback socket set.
    sharding: Option<(PeerTable, usize)>,
    node_config: NodeConfig,
    seed: u64,
    /// Worker-thread count; `None` resolves core-aware at spawn.
    workers: Option<usize>,
    /// Reader socket/thread count; `None` resolves core-aware at spawn.
    readers: Option<usize>,
    io: IoBackend,
    directory: DirectorySpec,
    /// Per-vnode protocol event ring capacity; 0 disables tracing.
    trace_capacity: usize,
    /// Address to serve the Prometheus-text `/metrics` endpoint on.
    metrics_addr: Option<SocketAddr>,
    /// `false` stubs the whole metrics registry out (disconnected
    /// handles) — the A/B switch for measuring instrumentation overhead.
    telemetry: bool,
    /// Query-plane parameters shared by every vnode (catalog gossip
    /// cadence, rumor boost, COUNT leader concurrency).
    query: QueryPlaneConfig,
    /// Address to serve client query RPCs on (wire tags 13/14); `None`
    /// disables the listener.
    rpc_addr: Option<SocketAddr>,
}

impl MuxClusterConfig {
    /// Describes a cluster of `n` virtual nodes behind a loopback socket
    /// set. Thread counts resolve core-aware at spawn unless overridden:
    /// readers default to `(cores / 4).clamp(1, 4)` (so small machines
    /// keep the original single-reader layout) and workers to
    /// `(cores - readers - 1).clamp(1, 8)`. The I/O backend defaults to
    /// [`IoBackend::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, node_config: NodeConfig) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        MuxClusterConfig {
            n,
            sharding: None,
            node_config,
            seed: 0xC0FFEE,
            workers: None,
            readers: None,
            io: IoBackend::auto(),
            directory: DirectorySpec::Static,
            trace_capacity: 0,
            metrics_addr: None,
            telemetry: true,
            query: QueryPlaneConfig::default(),
            rpc_addr: None,
        }
    }

    /// Describes ONE shard of a cross-socket cluster: this process hosts
    /// `table.shard_range(local_shard)` and binds
    /// `table.shard_addr(local_shard)`; frames for foreign vnodes go to
    /// the owning shard's address. Every shard must be spawned with the
    /// same table, protocol config, and seed.
    ///
    /// # Panics
    ///
    /// Panics if `local_shard` is out of range.
    pub fn sharded(table: PeerTable, local_shard: usize, node_config: NodeConfig) -> Self {
        assert!(
            local_shard < table.shard_count(),
            "shard {local_shard} out of range ({} shards)",
            table.shard_count()
        );
        let mut config = MuxClusterConfig::new(table.total(), node_config);
        config.sharding = Some((table, local_shard));
        config
    }

    /// Overrides the randomness seed shared by the cluster: every node's
    /// state is a function of its cluster-wide id and this seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = Some(workers);
        self
    }

    /// Overrides the reader socket/thread count. `1` moves every datagram
    /// through a single socket; larger counts home local
    /// vnode `i` on socket `i % readers` (clamped at spawn to the local
    /// vnode count — extra sockets would never receive anything).
    ///
    /// # Panics
    ///
    /// Panics if `readers == 0`.
    pub fn with_readers(mut self, readers: usize) -> Self {
        assert!(readers > 0, "need at least one reader");
        self.readers = Some(readers);
        self
    }

    /// Overrides the datagram I/O backend (default: [`IoBackend::auto`],
    /// i.e. syscall batching wherever the platform supports it).
    pub fn with_io(mut self, io: IoBackend) -> Self {
        self.io = io;
        self
    }

    /// Selects the membership directory every vnode runs (default:
    /// [`DirectorySpec::Static`]).
    pub fn with_directory(mut self, directory: DirectorySpec) -> Self {
        self.directory = directory;
        self
    }

    /// Enables protocol event tracing with a bounded ring of `capacity`
    /// events per vnode (per plane); drain with
    /// [`MuxCluster::take_trace`]. Default: disabled.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Serves the registry as a Prometheus-text `/metrics` endpoint on
    /// `addr` for the cluster's lifetime (port 0 picks an ephemeral
    /// port; read it back via [`MuxCluster::metrics_addr`]).
    pub fn with_metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Stubs out the metrics registry entirely: every counter, gauge,
    /// and histogram becomes a disconnected no-op handle. This is the
    /// control leg for measuring instrumentation overhead;
    /// [`MuxCluster::syscall_counts`] reads zero in this mode.
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = false;
        self
    }

    /// Overrides the query-plane parameters every vnode runs (default:
    /// [`QueryPlaneConfig::default`]).
    pub fn with_query_config(mut self, query: QueryPlaneConfig) -> Self {
        self.query = query;
        self
    }

    /// Serves client query RPCs (install/remove/submit/read, wire tags
    /// 13/14) on a dedicated UDP listener at `addr` (port 0 picks an
    /// ephemeral port; read it back via [`MuxCluster::rpc_addr`]).
    /// Requests are routed round-robin over the shard's vnodes — every
    /// node holds the aggregate, so any node is a valid endpoint.
    pub fn with_rpc_addr(mut self, addr: SocketAddr) -> Self {
        self.rpc_addr = Some(addr);
        self
    }

    /// Cluster-wide number of virtual nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the cluster would be empty (never: `new` rejects
    /// `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// What kind of frame a queued send is — decides which traffic-plane
/// ledger its bytes land on at flush time.
#[derive(Debug, Clone, Copy)]
enum FrameKind {
    Aggregation,
    Membership,
    /// An aggregation frame carrying a membership trailer of this many
    /// bytes; the trailer bytes are charged to the membership plane.
    Piggybacked {
        trailer: u32,
    },
    /// A query-plane frame: catalog gossip or a named-query exchange.
    Query,
}

/// One unit of protocol work, executed by whichever worker claims it.
/// Node indices are local (shard-relative).
#[derive(Debug)]
enum Work {
    /// A timer deadline fired for the node: `(node, deadline)`, the
    /// deadline it was parked for.
    Wake(u32, u64),
    /// A datagram arrived for the node.
    Deliver(u32, WirePayload),
}

/// FIFO work queue the reader and timer threads feed and the workers
/// drain.
#[derive(Debug, Default)]
struct WorkQueue {
    items: Mutex<VecDeque<Work>>,
    available: Condvar,
    /// `worker.queue_depth` — sampled on every push, so a scrape sees
    /// how far the workers are falling behind the reader/timer threads.
    depth: Gauge,
}

impl WorkQueue {
    fn push(&self, work: Work) {
        let mut items = self.items.lock().unwrap();
        items.push_back(work);
        self.depth.set(items.len() as f64);
        drop(items);
        self.available.notify_one();
    }

    /// Pops the next item if one is immediately available — lets a worker
    /// keep filling its send batches while the queue is hot without ever
    /// sleeping on frames it has not flushed yet.
    fn try_pop(&self) -> Option<Work> {
        self.items.lock().unwrap().pop_front()
    }

    /// Pops the next item, blocking until one arrives or `stop` is set.
    fn pop(&self, stop: &AtomicBool) -> Option<Work> {
        let mut items = self.items.lock().unwrap();
        loop {
            if let Some(work) = items.pop_front() {
                return Some(work);
            }
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _timeout) = self
                .available
                .wait_timeout(items, Duration::from_millis(50))
                .unwrap();
            items = guard;
        }
    }
}

/// A virtual node: the sans-io state machine, its membership directory,
/// and the earliest timer deadline already parked for it.
#[derive(Debug)]
struct VNode {
    gossip: GossipNode,
    directory: Box<dyn PeerDirectory>,
    /// The node's multi-tenant query plane: catalog replica plus one
    /// gossip instance per live named query.
    plane: QueryPlane,
    /// Deadline of the node's one live wheel entry, or `u64::MAX` when
    /// none is parked (mid-wake, or nothing due). A wake for any other
    /// deadline is stale and dropped, so superseded entries die instead
    /// of re-parking.
    next_wake: u64,
}

impl VNode {
    /// The earliest tick any plane needs a wake-up at.
    fn deadline(&self) -> u64 {
        self.gossip
            .next_deadline()
            .min(self.directory.next_deadline())
            .min(self.plane.next_deadline())
    }
}

/// Cumulative kernel-boundary crossings of a running cluster — the
/// denominator of the syscalls-per-datagram metric the batch backends
/// exist to shrink. Backed by the `io.recv_syscalls` / `io.send_syscalls`
/// registry counters, so both read zero under
/// [`MuxClusterConfig::without_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallCounts {
    /// Receive syscalls issued by the reader threads (`recvmmsg` or
    /// `recv_from`, including calls that ended in a read timeout).
    pub recv_calls: u64,
    /// Send syscalls issued by the worker threads (`sendmmsg` or
    /// `send_to`).
    pub send_calls: u64,
}

#[derive(Debug)]
struct Shared {
    /// The reader socket set; local vnode `i` is homed on socket
    /// `i % sockets.len()`. Socket 0 is the shard's advertised address.
    sockets: Vec<UdpSocket>,
    /// Local address of each reader socket, in socket order.
    reader_addrs: Vec<SocketAddr>,
    io: IoBackend,
    stop: AtomicBool,
    /// Cluster-wide id of local node 0.
    base: usize,
    table: PeerTable,
    nodes: Vec<Mutex<VNode>>,
    work: WorkQueue,
    /// Schedule requests `(deadline_ms, local node)` bound for the timer
    /// thread's wheel, one inbox per reader shard (indexed like the
    /// sockets, by `node % readers`) so workers on different shards never
    /// contend on one lock.
    timer_inboxes: Vec<Mutex<Vec<(u64, u32)>>>,
    /// Per-local-node traffic accounting.
    traffic: Vec<TrafficCell>,
    /// The unified metrics registry every handle below is connected to
    /// (or [`Registry::disabled`] under `without_telemetry`).
    registry: Registry,
    /// `io.recv_syscalls{backend=…}` — reader-thread kernel crossings.
    recv_calls: Counter,
    /// `io.send_syscalls{backend=…}` — worker-thread kernel crossings.
    send_calls: Counter,
    /// `io.recv_timeouts` — the subset of recv syscalls that returned
    /// empty-handed (read-timeout wakeups for the stop-flag check).
    recv_timeouts: Counter,
    /// `agg.exchanges` — push-pull exchanges initiated by local vnodes.
    agg_exchanges: Counter,
    /// `membership.delta_bytes` — wire bytes of delta-encoded view
    /// frames plus piggybacked membership trailers.
    delta_bytes: Counter,
    /// `timer.fire_lag_us` — how late the wheel fired each deadline.
    fire_lag: Histogram,
    /// `io.syscalls_per_datagram` — refreshed by the timer thread's
    /// maintenance tick.
    syscalls_per_datagram: Gauge,
    /// `membership.view_mean_size` — sampled round-robin over vnodes.
    view_mean_size: Gauge,
    /// `membership.view_dead_fraction` — stale-entry share of the same
    /// sampled view.
    view_dead_fraction: Gauge,
    /// Derives `epoch.variance_reduction_rho` / `epoch.estimate_drift`
    /// from the epoch reports passing through [`MuxCluster::take_reports`].
    rho: Mutex<RhoTracker>,
    /// `rpc.requests` — client RPC datagrams the listener served.
    rpc_requests: Counter,
    /// `rpc.rejects` — the subset answered with a non-`Ok` status.
    rpc_rejects: Counter,
    /// Derives `epoch.estimate_drift{query=…}` per named query from the
    /// completed query epochs the workers drain.
    query_drift: Mutex<QueryDriftTracker>,
    /// Per-reader-socket datagram arrivals (total, from-remote-shard) —
    /// the observable proof that cross-shard senders fan across the whole
    /// published socket set.
    socket_recvs: Vec<SocketRecvCell>,
    start: Instant,
}

/// Folds per-epoch estimate snapshots into the paper's convergence
/// figure: the observed per-cycle variance reduction factor
/// ρ = (var_E / var_0)^(1/γ) (Eq. (3) run backwards), published as the
/// `epoch.variance_reduction_rho` gauge next to the theoretical
/// 1/(2√e) ≈ 0.3033 bound in `epoch.rho_theory`.
#[derive(Debug)]
struct RhoTracker {
    /// Variance of the spawn-time local values — the var_0 every epoch
    /// restarts from (each epoch re-seeds estimates from local values).
    var0: f64,
    gamma: f64,
    /// Per-epoch estimate accumulators, pruned to a recent window so a
    /// long-running cluster holds O(1) state.
    epochs: Vec<(u64, OnlineStats)>,
    rho: Gauge,
    drift: Gauge,
}

impl RhoTracker {
    /// Number of recent epochs kept live in the window.
    const WINDOW: u64 = 4;

    fn observe(&mut self, epoch: u64, estimate: f64) {
        let stats = match self.epochs.iter_mut().find(|(e, _)| *e == epoch) {
            Some((_, s)) => s,
            None => {
                self.epochs.push((epoch, OnlineStats::new()));
                &mut self.epochs.last_mut().unwrap().1
            }
        };
        stats.push(estimate);
        // Publish from the newest epoch with at least two estimates —
        // a single report has no variance to speak of.
        if let Some((_, s)) = self
            .epochs
            .iter()
            .filter(|(_, s)| s.count() >= 2)
            .max_by_key(|(e, _)| *e)
        {
            let var_e = s.population_variance();
            if self.var0 > 0.0 && var_e > 0.0 {
                self.rho.set((var_e / self.var0).powf(1.0 / self.gamma));
            }
            self.drift.set(s.spread());
        }
        if let Some(newest) = self.epochs.iter().map(|(e, _)| *e).max() {
            self.epochs
                .retain(|(e, _)| *e + RhoTracker::WINDOW > newest);
        }
    }
}

/// The per-query twin of [`RhoTracker`]'s drift gauge: for every named
/// query, publishes `epoch.estimate_drift{query=…}` — the spread of the
/// newest completed epoch's estimates across local vnodes.
#[derive(Debug)]
struct QueryDriftTracker {
    registry: Registry,
    queries: BTreeMap<String, (Vec<(u64, OnlineStats)>, Gauge)>,
}

impl QueryDriftTracker {
    fn observe(&mut self, query: &str, epoch: u64, estimate: f64) {
        let registry = &self.registry;
        let (epochs, gauge) = self.queries.entry(query.to_string()).or_insert_with(|| {
            (
                Vec::new(),
                registry.gauge_with("epoch.estimate_drift", &[("query", query)]),
            )
        });
        let stats = match epochs.iter_mut().find(|(e, _)| *e == epoch) {
            Some((_, s)) => s,
            None => {
                epochs.push((epoch, OnlineStats::new()));
                &mut epochs.last_mut().unwrap().1
            }
        };
        stats.push(estimate);
        // Publish from the newest epoch with at least two estimates —
        // a single report has no spread to speak of.
        if let Some((_, s)) = epochs
            .iter()
            .filter(|(_, s)| s.count() >= 2)
            .max_by_key(|(e, _)| *e)
        {
            gauge.set(s.spread());
        }
        if let Some(newest) = epochs.iter().map(|(e, _)| *e).max() {
            epochs.retain(|(e, _)| *e + RhoTracker::WINDOW > newest);
        }
    }
}

/// Atomic twin of [`SocketRecvCounts`], one per reader socket.
#[derive(Debug, Default)]
struct SocketRecvCell {
    datagrams: AtomicU64,
    remote_datagrams: AtomicU64,
}

/// Datagram arrivals on one reader socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketRecvCounts {
    /// Every datagram this socket received.
    pub datagrams: u64,
    /// The subset whose source address was NOT one of this shard's own
    /// sockets — i.e. cross-shard traffic.
    pub remote_datagrams: u64,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Parks local node `index`'s next deadline in the wheel unless an
    /// earlier (or equal) entry is already live. Called under the node's
    /// lock by everything that may move its deadline: workers after each
    /// step, and client calls (install, remove, RPC) — which therefore
    /// never queue a wake of their own.
    fn park(&self, index: usize, vnode: &mut VNode) {
        let deadline = vnode.deadline();
        if deadline < vnode.next_wake {
            vnode.next_wake = deadline;
            let inbox = &self.timer_inboxes[index % self.timer_inboxes.len()];
            inbox.lock().unwrap().push((deadline, index as u32));
        }
    }

    /// Home socket of local vnode `local`.
    fn socket_of(&self, local: usize) -> usize {
        local % self.sockets.len()
    }

    /// Where a frame for cluster-wide vnode `vnode` must be sent: a local
    /// vnode's home socket, a foreign vnode's shard address (its shard's
    /// socket 0 — every reader routes by frame id, so landing on the
    /// primary socket is always correct), or `None` for an out-of-range
    /// id.
    fn dest_addr(&self, vnode: usize) -> Option<SocketAddr> {
        if let Some(local) = vnode.checked_sub(self.base) {
            if local < self.nodes.len() {
                return Some(self.reader_addrs[self.socket_of(local)]);
            }
        }
        self.table.addr_of(vnode)
    }
}

/// Handle to a running multiplexed cluster (or one shard of one).
///
/// Dropping the handle shuts the cluster down (all threads exit within
/// one poll interval).
#[derive(Debug)]
pub struct MuxCluster {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The `/metrics` HTTP endpoint, when configured; shut down (and its
    /// thread joined) when the cluster handle drops.
    metrics: Option<MetricsServer>,
    /// Bound address of the client RPC listener, when configured.
    rpc_addr: Option<SocketAddr>,
}

impl MuxCluster {
    /// Binds the shard's socket set, builds its virtual nodes with local
    /// values `values(id)` (`id` is the *cluster-wide* vnode id), and
    /// starts the reader, timer, and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, timeout setup).
    pub fn spawn(
        config: MuxClusterConfig,
        values: impl Fn(usize) -> f64,
    ) -> io::Result<MuxCluster> {
        let MuxClusterConfig {
            n,
            sharding,
            node_config,
            seed,
            workers,
            readers,
            io,
            directory,
            trace_capacity,
            metrics_addr,
            telemetry,
            query,
            rpc_addr,
        } = config;
        // Mux membership is id-routed: a join aimed at an address (or at
        // a vnode outside the cluster) could never be framed, and with no
        // introducers at all nobody ever joins anybody — either way the
        // cluster silently fails to bootstrap. Reject it up front.
        if let DirectorySpec::Gossip(g) = &directory {
            if g.introducers.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "gossip directory needs at least one introducer",
                ));
            }
            for intro in &g.introducers {
                match *intro {
                    Introducer::Node(id) if (id as usize) < n => {}
                    Introducer::Node(id) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("introducer vnode {id} outside the cluster (n = {n})"),
                        ))
                    }
                    Introducer::Addr(addr) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!(
                                "mux introducers must be vnode ids (frames route by id), \
                                 got address {addr}"
                            ),
                        ))
                    }
                }
            }
        }
        let (primary, table, local_range, local_shard) = match sharding {
            None => {
                let socket = UdpSocket::bind(("127.0.0.1", 0))?;
                let addr = socket.local_addr()?;
                (socket, PeerTable::single(n, addr), 0..n, 0)
            }
            Some((table, shard)) => {
                let socket = UdpSocket::bind(table.shard_addr(shard))?;
                let range = table.shard_range(shard);
                (socket, table, range, shard)
            }
        };
        let base = local_range.start;
        // Core-aware thread-count resolution; explicit overrides win.
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(2);
        // Every published shard socket MUST be bound — other shards fan
        // cross-shard frames across the full advertised set — so the
        // reader count can only grow past the published set, never below.
        let published = table.shard_sockets(local_shard).to_vec();
        let readers = readers
            .unwrap_or((cores / 4).clamp(1, 4))
            .clamp(1, local_range.len())
            .max(published.len());
        let workers = workers.unwrap_or(cores.saturating_sub(readers + 1).clamp(1, 8));
        // Readers beyond the published set bind ephemeral ports on the
        // shard's advertised IP; they receive only locally-homed traffic
        // (cross-shard senders know nothing about them), which is
        // correct — readers route by frame id.
        let mut sockets = vec![primary];
        for addr in &published[1..] {
            sockets.push(UdpSocket::bind(*addr)?);
        }
        for _ in published.len()..readers {
            sockets.push(UdpSocket::bind((sockets[0].local_addr()?.ip(), 0))?);
        }
        let mut reader_addrs = Vec::with_capacity(readers);
        for socket in &sockets {
            socket.set_read_timeout(Some(Duration::from_millis(20)))?;
            reader_addrs.push(socket.local_addr()?);
        }
        let registry = if telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        };
        // Bind the scrape endpoint before the protocol threads start, so
        // a bind failure leaks nothing.
        let metrics = match metrics_addr {
            Some(addr) => Some(MetricsServer::bind(addr, registry.clone())?),
            None => None,
        };
        let mut spawn_stats = OnlineStats::new();
        let nodes: Vec<Mutex<VNode>> = local_range
            .clone()
            .map(|global| {
                let id = NodeId::new(global as u64);
                let mut dir: Box<dyn PeerDirectory> = match &directory {
                    DirectorySpec::Static => Box::new(StaticDirectory::id_routed(n, id, seed)),
                    DirectorySpec::Gossip(g) => Box::new(GossipDirectory::id_routed(id, g, seed)),
                };
                let value = values(global);
                spawn_stats.push(value);
                let mut gossip = GossipNode::founder(id, node_config.clone(), value, seed);
                if trace_capacity > 0 {
                    gossip.set_trace_capacity(trace_capacity);
                    dir.set_trace_capacity(trace_capacity);
                }
                Mutex::new(VNode {
                    gossip,
                    directory: dir,
                    plane: QueryPlane::new(id, query, seed, registry.clone()),
                    // The priming wake below is the node's live entry.
                    next_wake: 0,
                })
            })
            .collect();
        let local_n = nodes.len();
        let backend = &[("backend", io.as_str())];
        registry
            .gauge("epoch.rho_theory")
            .set(0.5 / std::f64::consts::E.sqrt());
        let work = WorkQueue {
            depth: registry.gauge("worker.queue_depth"),
            ..WorkQueue::default()
        };
        let shared = Arc::new(Shared {
            sockets,
            reader_addrs,
            io,
            stop: AtomicBool::new(false),
            base,
            table,
            nodes,
            work,
            timer_inboxes: (0..readers).map(|_| Mutex::new(Vec::new())).collect(),
            traffic: (0..local_n).map(|_| TrafficCell::default()).collect(),
            recv_calls: registry.counter_with("io.recv_syscalls", backend),
            send_calls: registry.counter_with("io.send_syscalls", backend),
            recv_timeouts: registry.counter("io.recv_timeouts"),
            agg_exchanges: registry.counter("agg.exchanges"),
            delta_bytes: registry.counter("membership.delta_bytes"),
            fire_lag: registry.histogram("timer.fire_lag_us"),
            syscalls_per_datagram: registry.gauge("io.syscalls_per_datagram"),
            view_mean_size: registry.gauge("membership.view_mean_size"),
            view_dead_fraction: registry.gauge("membership.view_dead_fraction"),
            rho: Mutex::new(RhoTracker {
                var0: spawn_stats.population_variance(),
                gamma: f64::from(node_config.gamma()),
                epochs: Vec::new(),
                rho: registry.gauge("epoch.variance_reduction_rho"),
                drift: registry.gauge("epoch.estimate_drift"),
            }),
            rpc_requests: registry.counter("rpc.requests"),
            rpc_rejects: registry.counter("rpc.rejects"),
            query_drift: Mutex::new(QueryDriftTracker {
                registry: registry.clone(),
                queries: BTreeMap::new(),
            }),
            registry,
            socket_recvs: (0..readers).map(|_| SocketRecvCell::default()).collect(),
            start: Instant::now(),
        });
        // Prime every node with an initial wake so its first deadline is
        // computed and parked (and gossip directories send their joins).
        for i in 0..local_n {
            shared.work.push(Work::Wake(i as u32, 0));
        }

        // Bind the client RPC listener (if any) before the protocol
        // threads start, so a bind failure leaks nothing.
        let rpc_socket = match rpc_addr {
            Some(addr) => {
                let socket = UdpSocket::bind(addr)?;
                socket.set_read_timeout(Some(Duration::from_millis(20)))?;
                Some(socket)
            }
            None => None,
        };
        let rpc_addr = match &rpc_socket {
            Some(socket) => Some(socket.local_addr()?),
            None => None,
        };

        let mut threads =
            Vec::with_capacity(workers + readers + 1 + usize::from(rpc_socket.is_some()));
        let cycle = node_config.cycle_length();
        let spawned = (|| -> io::Result<()> {
            for k in 0..readers {
                let reader_shared = Arc::clone(&shared);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("mux-reader-{k}"))
                        .spawn(move || reader_loop(&reader_shared, k))?,
                );
            }
            let timer_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mux-timer".into())
                    .spawn(move || timer_loop(&timer_shared, cycle))?,
            );
            for k in 0..workers {
                let worker_shared = Arc::clone(&shared);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("mux-worker-{k}"))
                        .spawn(move || worker_loop(&worker_shared))?,
                );
            }
            if let Some(socket) = rpc_socket {
                let rpc_shared = Arc::clone(&shared);
                threads.push(
                    std::thread::Builder::new()
                        .name("mux-rpc".into())
                        .spawn(move || rpc_loop(&rpc_shared, &socket))?,
                );
            }
            Ok(())
        })();
        if let Err(e) = spawned {
            // A later spawn failed (e.g. thread exhaustion): stop and
            // join whatever already started instead of leaking detached
            // threads that would pin the socket and node state forever.
            shared.stop.store(true, Ordering::Relaxed);
            shared.work.available.notify_all();
            for handle in threads {
                let _ = handle.join();
            }
            return Err(e);
        }
        Ok(MuxCluster {
            shared,
            threads,
            metrics,
            rpc_addr,
        })
    }

    /// The bound address of the client RPC listener, if one was
    /// configured with [`MuxClusterConfig::with_rpc_addr`]. Clients send
    /// encoded [`epidemic_query::RpcRequest`] datagrams (wire tag 13)
    /// here and receive tag-14 responses from the same socket.
    pub fn rpc_addr(&self) -> Option<SocketAddr> {
        self.rpc_addr
    }

    /// The shard's advertised socket address (socket 0 of the reader set
    /// — the one the peer table publishes to other shards).
    pub fn addr(&self) -> SocketAddr {
        self.shared.reader_addrs[0]
    }

    /// Number of reader sockets (and reader threads) this shard runs.
    pub fn reader_count(&self) -> usize {
        self.shared.sockets.len()
    }

    /// The datagram I/O backend the cluster is moving bytes with.
    pub fn io_backend(&self) -> IoBackend {
        self.shared.io
    }

    /// Cumulative send/receive syscall counts across all threads since
    /// spawn — divide by [`TrafficCounts`] datagram totals for the
    /// syscalls-per-datagram figure the batched backend exists to shrink.
    pub fn syscall_counts(&self) -> SyscallCounts {
        SyscallCounts {
            recv_calls: self.shared.recv_calls.get(),
            send_calls: self.shared.send_calls.get(),
        }
    }

    /// The cluster's metrics registry — scrape it in-process with
    /// [`Registry::render_prometheus`], or read individual series with
    /// [`Registry::counter_value`] / [`Registry::gauge_value`].
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The bound address of the `/metrics` HTTP endpoint, if one was
    /// configured with [`MuxClusterConfig::with_metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// Drains the protocol event trace of local node `index` (both the
    /// aggregation and the membership plane); empty unless the cluster
    /// was spawned with [`MuxClusterConfig::with_trace`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn take_trace(&self, index: usize) -> Vec<TraceEvent> {
        let mut vnode = self.shared.nodes[index].lock().unwrap();
        let mut events = vnode.gossip.take_trace();
        events.extend(vnode.directory.take_trace());
        events
    }

    /// Datagram arrivals per reader socket (indexed like
    /// [`Cluster::addrs`]), with the cross-shard subset counted
    /// separately — the receiver-side evidence that remote senders fan
    /// across the whole published socket set.
    pub fn socket_recv_counts(&self) -> Vec<SocketRecvCounts> {
        self.shared
            .socket_recvs
            .iter()
            .map(|cell| SocketRecvCounts {
                datagrams: cell.datagrams.load(Ordering::Relaxed),
                remote_datagrams: cell.remote_datagrams.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Number of virtual nodes hosted by THIS handle (the local shard).
    pub fn len(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Returns `true` if this handle hosts no nodes (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.shared.nodes.is_empty()
    }

    /// Cluster-wide virtual-node count (across all shards).
    pub fn total_len(&self) -> usize {
        self.shared.table.total()
    }

    /// OS threads the cluster runs on: `workers + readers + 1` (the
    /// reader set plus one timer thread), plus one more when the client
    /// RPC listener is enabled.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Drains the epoch reports local node `index` produced since the
    /// last call.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn take_reports(&self, index: usize) -> Vec<EpochReport> {
        let reports = self.shared.nodes[index]
            .lock()
            .unwrap()
            .gossip
            .take_reports();
        // Fold the drained estimates into the convergence-health gauges:
        // every report is one node's end-of-epoch estimate, so the
        // cross-node variance of one epoch's reports against the spawn
        // variance yields the observed per-cycle ρ.
        if self.shared.registry.is_enabled() && !reports.is_empty() {
            let mut rho = self.shared.rho.lock().unwrap();
            for r in &reports {
                if let Some(est) = r.scalar(0) {
                    rho.observe(r.epoch, est);
                }
            }
        }
        reports
    }

    /// Updates local node `index`'s local value (takes effect at its next
    /// epoch).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_local_value(&self, index: usize, value: f64) {
        self.shared.nodes[index]
            .lock()
            .unwrap()
            .gossip
            .set_local_value(value);
    }

    /// Datagram counts of local node `index`, split by plane.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn datagram_counts(&self, index: usize) -> TrafficCounts {
        self.shared.traffic[index].snapshot()
    }

    /// Stops all threads and waits for them to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work.available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Cluster for MuxCluster {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn node_id(&self, index: usize) -> NodeId {
        assert!(index < self.len(), "node index out of range");
        NodeId::new((self.shared.base + index) as u64)
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.shared.reader_addrs.clone()
    }

    fn take_reports(&self, index: usize) -> Vec<EpochReport> {
        MuxCluster::take_reports(self, index)
    }

    fn set_local_value(&self, index: usize, value: f64) {
        MuxCluster::set_local_value(self, index, value);
    }

    fn datagram_counts(&self, index: usize) -> TrafficCounts {
        MuxCluster::datagram_counts(self, index)
    }

    fn take_trace(&self, index: usize) -> Vec<TraceEvent> {
        MuxCluster::take_trace(self, index)
    }

    fn install_query(&self, index: usize, descriptor: QueryDescriptor) -> Result<(), QueryError> {
        let now = self.shared.now_ms();
        let mut vnode = self.shared.nodes[index].lock().unwrap();
        let result = vnode.plane.install(descriptor, now);
        // A fresh install must start gossiping before the node's next
        // parked deadline.
        self.shared.park(index, &mut vnode);
        result
    }

    fn remove_query(&self, index: usize, name: &str) -> Result<(), QueryError> {
        let now = self.shared.now_ms();
        let mut vnode = self.shared.nodes[index].lock().unwrap();
        let result = vnode.plane.remove(name, now);
        self.shared.park(index, &mut vnode);
        result
    }

    fn submit_query(&self, index: usize, name: &str, value: f64) -> Result<(), QueryError> {
        let now = self.shared.now_ms();
        self.shared.nodes[index]
            .lock()
            .unwrap()
            .plane
            .submit(name, value, now)
    }

    fn query_estimate(&self, index: usize, name: &str) -> Result<QueryEstimate, QueryError> {
        self.shared.nodes[index]
            .lock()
            .unwrap()
            .plane
            .estimate(name)
    }

    fn shutdown(self) {
        MuxCluster::shutdown(self);
    }
}

/// The trait's provided methods, also reachable without importing
/// [`Cluster`] (existing call sites predate the trait).
impl MuxCluster {
    /// Drains every local node's epoch reports, indexed by local node.
    pub fn take_all_reports(&self) -> Vec<Vec<EpochReport>> {
        (0..self.len()).map(|i| self.take_reports(i)).collect()
    }
}

impl Drop for MuxCluster {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Blocks on reader socket `reader` and routes datagrams to state
/// machines, draining up to [`BATCH`] per syscall on the batched backend.
fn reader_loop(shared: &Shared, reader: usize) {
    let socket = &shared.sockets[reader];
    let mut batch = RecvBatch::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match batch.recv(socket, shared.io) {
            Ok(count) => {
                shared.recv_calls.inc();
                let socket_cell = &shared.socket_recvs[reader];
                for i in 0..count {
                    socket_cell.datagrams.fetch_add(1, Ordering::Relaxed);
                    // A source address outside our own socket set means
                    // another shard sent this — count it against this
                    // socket so cross-shard fan-out is observable.
                    if let Some(src) = batch.src(i) {
                        if !shared.reader_addrs.contains(&src) {
                            socket_cell.remote_datagrams.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let Ok((to, payload)) = decode_mux_datagram(batch.datagram(i)) else {
                        continue; // corrupt datagram: drop, stay alive
                    };
                    let Some(local) = to.index().checked_sub(shared.base) else {
                        continue; // foreign shard's vnode: misrouted, drop
                    };
                    if local < shared.nodes.len() {
                        // A piggybacked frame is an aggregation datagram
                        // (its membership trailer is charged in bytes on
                        // the send side, not as a datagram).
                        match &payload {
                            WirePayload::Directory(_) => {
                                shared.traffic[local].count_received(true);
                            }
                            WirePayload::Catalog { .. } | WirePayload::Query { .. } => {
                                shared.traffic[local].count_query_received();
                            }
                            _ => shared.traffic[local].count_received(false),
                        }
                        shared.work.push(Work::Deliver(local as u32, payload));
                    }
                }
            }
            // Read timeout (or spurious wake): re-check the stop flag.
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                shared.recv_calls.inc();
                shared.recv_timeouts.inc();
                continue;
            }
            Err(_) => continue,
        }
    }
}

/// Owns the timer wheels (one shard per reader): drains each shard's
/// schedule inbox, fires due deadlines as [`Work::Wake`] items.
fn timer_loop(shared: &Shared, cycle_ms: u64) {
    let mut wheel = ShardedTimerWheel::for_cycle(shared.timer_inboxes.len(), cycle_ms.max(1));
    let mut scratch: Vec<(u64, u32)> = Vec::new();
    let mut ticks = 0u64;
    let mut health_cursor = 0usize;
    while !shared.stop.load(Ordering::Relaxed) {
        for inbox in &shared.timer_inboxes {
            std::mem::swap(&mut scratch, &mut inbox.lock().unwrap());
            // Tokens route to wheel shard `node % shards` — the same
            // shard whose inbox they arrived through.
            for (deadline, node) in scratch.drain(..) {
                wheel.schedule(deadline, node);
            }
        }
        let now = shared.now_ms();
        wheel.advance_entries(now, |deadline, node| {
            shared.fire_lag.record(now.saturating_sub(deadline) * 1_000);
            shared.work.push(Work::Wake(node, deadline));
        });
        ticks += 1;
        // The wheel ticks every millisecond; derived gauges only need to
        // move on scrape timescales, so refresh them every ~quarter
        // second instead of on every tick.
        if ticks % 256 == 0 {
            refresh_derived_gauges(shared, now, &mut health_cursor);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Recomputes the gauges that are ratios or samples over shared state:
/// `io.syscalls_per_datagram` from the syscall counters and traffic
/// cells, and the `membership.view_*` health pair from one vnode's
/// directory per call (round-robin, skipping vnodes a worker holds
/// locked — a gauge sample must never stall the protocol path).
fn refresh_derived_gauges(shared: &Shared, now: u64, health_cursor: &mut usize) {
    if !shared.registry.is_enabled() {
        return;
    }
    let syscalls = shared.recv_calls.get() + shared.send_calls.get();
    let datagrams: u64 = shared
        .traffic
        .iter()
        .map(|cell| {
            let counts = cell.snapshot();
            counts.sent() + counts.received()
        })
        .sum();
    if datagrams > 0 {
        shared
            .syscalls_per_datagram
            .set(syscalls as f64 / datagrams as f64);
    }
    for _ in 0..shared.nodes.len().min(8) {
        let index = *health_cursor % shared.nodes.len();
        *health_cursor += 1;
        let Ok(vnode) = shared.nodes[index].try_lock() else {
            continue;
        };
        if let Some(health) = vnode.directory.view_health(now) {
            shared.view_mean_size.set(health.mean_size);
            shared.view_dead_fraction.set(health.dead_entry_fraction);
        }
        break;
    }
}

/// Executes per-node protocol steps until shutdown. Outbound frames are
/// queued per home socket and flushed as one burst (`sendmmsg` on the
/// batched backend) once the work queue runs dry or [`BATCH`] frames have
/// accumulated — frames never wait on a sleeping worker.
fn worker_loop(shared: &Shared) {
    let mut dir_out: Vec<DirectoryMessage> = Vec::new();
    // One send batch per reader socket; meta = (local node, frame kind).
    let mut pending: Vec<SendBatch<(u32, FrameKind)>> = (0..shared.sockets.len())
        .map(|_| SendBatch::new())
        .collect();
    while let Some(mut work) = shared.work.pop(&shared.stop) {
        let mut queued = 0usize;
        loop {
            queued += step_vnode(shared, work, &mut dir_out, &mut pending);
            if queued >= BATCH {
                break;
            }
            match shared.work.try_pop() {
                Some(next) => work = next,
                None => break,
            }
        }
        flush_pending(shared, &mut pending);
    }
}

/// Runs one unit of work against its vnode, queueing outbound frames on
/// the vnode's home-socket batch. Returns how many frames were queued.
fn step_vnode(
    shared: &Shared,
    work: Work,
    dir_out: &mut Vec<DirectoryMessage>,
    pending: &mut [SendBatch<(u32, FrameKind)>],
) -> usize {
    let (index, is_wake) = match &work {
        Work::Wake(i, _) => (*i as usize, true),
        Work::Deliver(i, _) => (*i as usize, false),
    };
    let mut vnode = shared.nodes[index].lock().unwrap();
    let now = shared.now_ms();
    let mut query_out: Vec<QueryOutbound> = Vec::new();
    let outbound = match work {
        // An earlier re-park superseded this entry: the live one fires
        // on its own, so a stale wake must not re-park a second.
        Work::Wake(_, deadline) if deadline != vnode.next_wake => return 0,
        Work::Wake(..) => {
            // This wake consumes the node's live wheel entry.
            vnode.next_wake = u64::MAX;
            let VNode {
                gossip,
                directory,
                plane,
                ..
            } = &mut *vnode;
            let out = gossip.poll_sampler(now, directory);
            query_out = plane.poll(now, directory);
            directory.poll(now, dir_out);
            out
        }
        Work::Deliver(_, WirePayload::Aggregation(msg)) => vnode.gossip.handle(&msg, now),
        Work::Deliver(_, WirePayload::Piggybacked(msg, pb)) => {
            let VNode {
                gossip, directory, ..
            } = &mut *vnode;
            directory.absorb_piggyback(&pb, None, now);
            gossip.handle(&msg, now)
        }
        Work::Deliver(_, WirePayload::Directory(payload)) => {
            vnode.directory.handle(&payload, None, now, dir_out);
            None
        }
        Work::Deliver(_, WirePayload::Catalog { entries, .. }) => {
            // Merging may install/remove queries, which moves the plane
            // deadline; the parking below picks that up.
            vnode.plane.handle_catalog(&entries, now);
            None
        }
        Work::Deliver(_, WirePayload::Query { query, message }) => {
            if let Some(reply) = vnode.plane.handle_aggregation(&query, &message, now) {
                query_out.push(reply);
            }
            None
        }
        // Client RPC rides the dedicated listener socket (`rpc_loop`);
        // one arriving as a mux frame is misrouted and dropped.
        Work::Deliver(_, WirePayload::Rpc(_) | WirePayload::RpcReply(_)) => None,
    };
    // Completed query epochs feed the per-query drift gauges (drained
    // unconditionally so a disabled registry never accumulates them).
    let query_epochs = vnode.plane.take_epochs();
    // An outbound aggregation frame is a free ride for membership news:
    // ask the directory for a trailer worth attaching (None in steady
    // state, and always None for a static directory).
    let piggyback = outbound
        .as_ref()
        .and_then(|out| vnode.directory.piggyback(out.to, now));
    shared.traffic[index].set_join_retries(vnode.directory.join_retries());
    // After a wake `next_wake` is `u64::MAX`, so this always re-parks.
    shared.park(index, &mut vnode);
    drop(vnode);
    if is_wake && outbound.is_some() {
        shared.agg_exchanges.inc();
    }
    if shared.registry.is_enabled() && !query_epochs.is_empty() {
        let mut drift = shared.query_drift.lock().unwrap();
        for e in &query_epochs {
            if let Some(est) = e.estimate {
                drift.observe(&e.query, e.epoch, est);
            }
        }
    }
    let batch = &mut pending[shared.socket_of(index)];
    let before = batch.len();
    if let Some(out) = outbound {
        if let Some(target) = shared.dest_addr(out.to.index()) {
            let (frame, kind) = match &piggyback {
                Some(pb) => {
                    let trailer = piggyback_trailer_len(pb) as u32;
                    shared.delta_bytes.add(u64::from(trailer));
                    (
                        encode_mux_piggyback_frame(out.to, &out.message, pb),
                        FrameKind::Piggybacked { trailer },
                    )
                }
                None => (
                    encode_mux_frame(out.to, &out.message),
                    FrameKind::Aggregation,
                ),
            };
            batch.push(frame, target, (index as u32, kind));
        }
    }
    for msg in dir_out.drain(..) {
        // Mux membership is id-routed; address destinations cannot be
        // framed (no vnode id to route by) and are dropped.
        let Destination::Node(to) = msg.to else {
            continue;
        };
        let Some(target) = shared.dest_addr(to.index()) else {
            continue;
        };
        let frame = encode_mux_directory_frame(to, &msg.payload);
        if matches!(msg.payload, DirectoryPayload::View { delta: true, .. }) {
            shared.delta_bytes.add(frame.len() as u64);
        }
        batch.push(frame, target, (index as u32, FrameKind::Membership));
    }
    let from = NodeId::new((shared.base + index) as u64);
    for out in query_out {
        let (to, frame) = match out {
            QueryOutbound::Aggregation { to, query, message } => {
                (to, encode_mux_query_frame(to, &query, &message))
            }
            QueryOutbound::Catalog { to, entries } => {
                (to, encode_mux_catalog_frame(to, from, &entries))
            }
        };
        let Some(target) = shared.dest_addr(to.index()) else {
            continue;
        };
        batch.push(frame, target, (index as u32, FrameKind::Query));
    }
    batch.len() - before
}

/// Transmits every queued frame, charging each sender's traffic cell on
/// success and its `send_errors` on kernel refusal.
fn flush_pending(shared: &Shared, pending: &mut [SendBatch<(u32, FrameKind)>]) {
    for (s, batch) in pending.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let syscalls = batch.flush(&shared.sockets[s], shared.io, |&(node, kind), len, ok| {
            let cell = &shared.traffic[node as usize];
            if !ok {
                cell.count_send_error();
                return;
            }
            match kind {
                FrameKind::Aggregation => cell.count_sent(false, len),
                FrameKind::Membership => cell.count_sent(true, len),
                FrameKind::Piggybacked { trailer } => {
                    cell.count_piggybacked_sent(len, trailer as usize)
                }
                FrameKind::Query => cell.count_query_sent(len),
            }
        });
        shared.send_calls.add(syscalls);
    }
}

/// Serves client query RPCs on the dedicated listener socket. Every node
/// holds the aggregate — any of them is a valid endpoint — so requests
/// are routed round-robin over the shard's vnodes and each response goes
/// straight back to the client's source address. Rejections surface both
/// in the response status and in the serving vnode's
/// [`TrafficCounts::rpc_rejects`] — never silently swallowed.
fn rpc_loop(shared: &Shared, socket: &UdpSocket) {
    let mut buf = [0u8; 64 * 1024];
    let mut next = 0usize;
    while !shared.stop.load(Ordering::Relaxed) {
        match socket.recv_from(&mut buf) {
            Ok((len, src)) => {
                let Ok(WirePayload::Rpc(request)) = decode_datagram(&buf[..len]) else {
                    continue; // not a client request: drop, stay alive
                };
                let index = next % shared.nodes.len();
                next = next.wrapping_add(1);
                let now = shared.now_ms();
                let mut vnode = shared.nodes[index].lock().unwrap();
                let response = vnode.plane.handle_rpc(&request, now);
                // An install/remove moves the plane's gossip deadline.
                shared.park(index, &mut vnode);
                drop(vnode);
                shared.rpc_requests.inc();
                if response.status.is_reject() {
                    shared.traffic[index].count_rpc_reject();
                    shared.rpc_rejects.inc();
                }
                let _ = socket.send_to(&encode_rpc_response(&response), src);
            }
            // Read timeout (or spurious wake): re-check the stop flag.
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_rpc_response, encode_rpc_request};
    use crate::directory::GossipDirectoryConfig;
    use epidemic_aggregation::{AggregateKind, InstanceSpec};
    use epidemic_query::RpcRequest;

    fn node_config(gamma: u32, cycle_ms: u64) -> NodeConfig {
        NodeConfig::builder()
            .gamma(gamma)
            .cycle_length(cycle_ms)
            .timeout(cycle_ms / 2)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap()
    }

    #[test]
    fn peer_table_splits_evenly_and_routes() {
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|i| format!("127.0.0.1:{}", 9100 + i).parse().unwrap())
            .collect();
        let table = PeerTable::split(10, addrs.clone());
        assert_eq!(table.total(), 10);
        assert_eq!(table.shard_count(), 3);
        assert_eq!(table.shard_range(0), 0..4);
        assert_eq!(table.shard_range(1), 4..7);
        assert_eq!(table.shard_range(2), 7..10);
        assert_eq!(table.shard_of(0), Some(0));
        assert_eq!(table.shard_of(3), Some(0));
        assert_eq!(table.shard_of(4), Some(1));
        assert_eq!(table.shard_of(9), Some(2));
        assert_eq!(table.shard_of(10), None);
        assert_eq!(table.addr_of(8), Some(addrs[2]));
        assert_eq!(table.addr_of(99), None);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn peer_table_rejects_no_shards() {
        PeerTable::split(4, Vec::new());
    }

    #[test]
    fn peer_table_socket_sets_home_vnodes_across_readers() {
        // Shard 0 publishes two reader sockets, shard 1 publishes one:
        // frames for shard-0 vnodes alternate across its set by the same
        // `local % readers` rule the receiving shard homes with.
        let addr = |port: u16| -> SocketAddr { format!("127.0.0.1:{port}").parse().unwrap() };
        let table = PeerTable::split_sets(5, vec![vec![addr(9200), addr(9201)], vec![addr(9210)]]);
        assert_eq!(table.shard_range(0), 0..3);
        assert_eq!(table.shard_range(1), 3..5);
        assert_eq!(table.shard_addr(0), addr(9200));
        assert_eq!(table.shard_sockets(0), &[addr(9200), addr(9201)]);
        assert_eq!(table.addr_of(0), Some(addr(9200)));
        assert_eq!(table.addr_of(1), Some(addr(9201)));
        assert_eq!(table.addr_of(2), Some(addr(9200)));
        assert_eq!(table.addr_of(3), Some(addr(9210)));
        assert_eq!(table.addr_of(4), Some(addr(9210)));
        assert_eq!(table.addr_of(5), None);
    }

    #[test]
    fn loopback_split_readers_publishes_full_socket_sets() {
        let table = PeerTable::loopback_split_readers(8, 2, 3).unwrap();
        assert_eq!(table.shard_count(), 2);
        let mut all = Vec::new();
        for s in 0..2 {
            let set = table.shard_sockets(s);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], table.shard_addr(s));
            all.extend_from_slice(set);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6, "published sockets must be distinct");
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn peer_table_rejects_empty_socket_set() {
        PeerTable::split_sets(4, vec![vec!["127.0.0.1:9300".parse().unwrap()], vec![]]);
    }

    #[test]
    fn thread_budget_is_workers_plus_readers_plus_one() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(64, node_config(4, 40))
                .with_workers(3)
                .with_readers(1),
            |_| 0.0,
        )
        .unwrap();
        assert_eq!(cluster.len(), 64);
        assert_eq!(cluster.total_len(), 64);
        assert_eq!(cluster.reader_count(), 1);
        // readers = 1 keeps the original workers + 2 budget.
        assert_eq!(cluster.thread_count(), 3 + 2);
        assert_eq!(cluster.addrs(), vec![cluster.addr()]);
        cluster.shutdown();

        let wide = MuxCluster::spawn(
            MuxClusterConfig::new(64, node_config(4, 40))
                .with_workers(3)
                .with_readers(4),
            |_| 0.0,
        )
        .unwrap();
        assert_eq!(wide.reader_count(), 4);
        assert_eq!(wide.thread_count(), 3 + 4 + 1);
        let addrs = Cluster::addrs(&wide);
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], wide.addr());
        assert_eq!(
            addrs.iter().collect::<std::collections::HashSet<_>>().len(),
            4,
            "reader sockets must have distinct addresses"
        );
        wide.shutdown();
    }

    #[test]
    fn readers_clamp_to_local_node_count() {
        // One vnode cannot use four sockets: three would never receive.
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(1, node_config(2, 30))
                .with_workers(1)
                .with_readers(4),
            |_| 0.0,
        )
        .unwrap();
        assert_eq!(cluster.reader_count(), 1);
        cluster.shutdown();
    }

    #[test]
    fn multi_reader_cluster_converges_and_counts_syscalls() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(8, 25))
                .with_workers(2)
                .with_readers(2),
            |i| i as f64, // truth 3.5
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(900));
        let reports = cluster.take_all_reports();
        let counts = cluster.syscall_counts();
        let totals = cluster.total_datagram_counts();
        cluster.shutdown();
        let finals: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.last())
            .map(|r| r.scalar(0).unwrap())
            .collect();
        assert!(finals.len() >= 6, "only {} nodes reported", finals.len());
        for est in finals {
            assert!((est - 3.5).abs() < 0.5, "estimate {est} (truth 3.5)");
        }
        assert!(counts.recv_calls > 0, "no recv syscalls counted");
        assert!(counts.send_calls > 0, "no send syscalls counted");
        assert!(
            counts.send_calls <= totals.sent() + totals.send_errors,
            "send syscalls ({}) exceed datagrams attempted ({})",
            counts.send_calls,
            totals.sent() + totals.send_errors,
        );
    }

    #[test]
    fn portable_backend_converges_like_batched() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(2, node_config(8, 25))
                .with_workers(1)
                .with_readers(1)
                .with_io(IoBackend::Portable),
            |i| (i as f64 + 1.0) * 10.0, // 10, 20: average 15
        )
        .unwrap();
        assert_eq!(cluster.io_backend(), IoBackend::Portable);
        std::thread::sleep(Duration::from_millis(900));
        let reports = cluster.take_all_reports();
        cluster.shutdown();
        let last = reports
            .iter()
            .flatten()
            .last()
            .and_then(|r| r.scalar(0))
            .expect("no epochs completed");
        assert!((last - 15.0).abs() < 0.5, "final estimate {last}");
    }

    #[test]
    fn pair_converges_to_average() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(2, node_config(8, 25)).with_workers(2),
            |i| (i as f64 + 1.0) * 10.0, // 10, 20: average 15
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(900));
        let reports = cluster.take_all_reports();
        cluster.shutdown();
        let mut estimates = Vec::new();
        for node_reports in &reports {
            for r in node_reports {
                estimates.push(r.scalar(0).unwrap());
            }
        }
        assert!(!estimates.is_empty(), "no epochs completed");
        let last = *estimates.last().unwrap();
        assert!((last - 15.0).abs() < 0.5, "final estimate {last}");
    }

    #[test]
    fn sharded_pair_converges_across_two_sockets() {
        // The smallest cross-socket cluster: vnode 0 on shard 0, vnode 1
        // on shard 1, every exchange crossing between the two sockets.
        let table = PeerTable::loopback_split(2, 2).unwrap();
        let config = node_config(8, 25);
        let shard0 = MuxCluster::spawn(
            MuxClusterConfig::sharded(table.clone(), 0, config.clone()).with_workers(1),
            |i| (i as f64 + 1.0) * 10.0,
        )
        .unwrap();
        let shard1 = MuxCluster::spawn(
            MuxClusterConfig::sharded(table, 1, config).with_workers(1),
            |i| (i as f64 + 1.0) * 10.0,
        )
        .unwrap();
        assert_eq!(shard0.len(), 1);
        assert_eq!(shard1.len(), 1);
        assert_eq!(shard0.total_len(), 2);
        assert_ne!(shard0.addr(), shard1.addr());
        std::thread::sleep(Duration::from_millis(900));
        let mut estimates = Vec::new();
        for shard in [&shard0, &shard1] {
            for r in shard.take_reports(0) {
                estimates.push(r.scalar(0).unwrap());
            }
        }
        let counts = shard0.datagram_counts(0);
        shard0.shutdown();
        shard1.shutdown();
        assert!(!estimates.is_empty(), "no epochs completed");
        let last = *estimates.last().unwrap();
        assert!((last - 15.0).abs() < 0.5, "final estimate {last}");
        assert!(counts.aggregation_sent > 0 && counts.aggregation_received > 0);
    }

    #[test]
    fn cross_shard_sends_fan_across_the_remote_socket_set() {
        // Two shards of two vnodes each, two reader sockets per shard.
        // Every shard-0 → shard-1 frame must land on the destination
        // vnode's home socket, so BOTH shard-1 sockets see remote
        // traffic — the old behavior piled everything onto the first.
        let table = PeerTable::loopback_split_readers(4, 2, 2).unwrap();
        let config = node_config(8, 25);
        let spawn = |shard: usize| {
            MuxCluster::spawn(
                MuxClusterConfig::sharded(table.clone(), shard, config.clone())
                    .with_workers(1)
                    .with_readers(2),
                |i| i as f64,
            )
            .unwrap()
        };
        let shard0 = spawn(0);
        let shard1 = spawn(1);
        assert_eq!(shard0.reader_count(), 2);
        assert_eq!(shard1.reader_count(), 2);
        assert_eq!(Cluster::addrs(&shard1), table.shard_sockets(1));
        std::thread::sleep(Duration::from_millis(900));
        let recvs = shard1.socket_recv_counts();
        shard0.shutdown();
        shard1.shutdown();
        assert_eq!(recvs.len(), 2);
        for (i, socket) in recvs.iter().enumerate() {
            assert!(
                socket.remote_datagrams > 0,
                "socket {i} of shard 1 never saw cross-shard traffic: {recvs:?}"
            );
            assert!(socket.datagrams >= socket.remote_datagrams);
        }
    }

    #[test]
    fn gossip_directory_cluster_converges_without_static_table() {
        // No static peer table anywhere: vnode 0 introduces, everyone
        // else bootstraps over the wire and gossips views as mux frames.
        let spec = DirectorySpec::Gossip(GossipDirectoryConfig::new(8, 20).with_introducer_node(0));
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(6, node_config(8, 30))
                .with_workers(2)
                .with_directory(spec),
            |i| i as f64, // truth 2.5
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(1_500));
        let reports = cluster.take_all_reports();
        let totals = cluster.total_datagram_counts();
        cluster.shutdown();
        let mut finals = Vec::new();
        for node_reports in &reports {
            if let Some(r) = node_reports.last() {
                if r.epoch >= 1 {
                    finals.push(r.scalar(0).unwrap());
                }
            }
        }
        assert!(finals.len() >= 4, "only {} nodes reported", finals.len());
        for est in finals {
            assert!((est - 2.5).abs() < 0.75, "estimate {est} (truth 2.5)");
        }
        assert!(totals.membership_sent > 0, "no membership traffic");
        assert!(totals.membership_received > 0);
    }

    #[test]
    fn single_node_completes_epochs_alone() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(1, node_config(2, 30)).with_workers(1),
            |_| 7.0,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(250));
        let reports = cluster.take_reports(0);
        cluster.shutdown();
        assert!(!reports.is_empty());
        for r in &reports {
            assert_eq!(r.scalar(0), Some(7.0));
        }
    }

    #[test]
    fn datagram_counters_move_per_node() {
        let mut cluster = MuxCluster::spawn(
            MuxClusterConfig::new(4, node_config(30, 20)).with_workers(2),
            |i| i as f64,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(400));
        // Quiesce before snapshotting: the per-node/cluster-wide equality
        // below is only sound once no worker is mid-send.
        cluster.stop_and_join();
        let totals = cluster.total_datagram_counts();
        let per_node: Vec<TrafficCounts> = (0..cluster.len())
            .map(|i| cluster.datagram_counts(i))
            .collect();
        drop(cluster);
        assert!(totals.sent() > 0, "cluster never sent");
        assert!(totals.received() > 0, "cluster never received");
        assert_eq!(
            per_node.iter().map(TrafficCounts::sent).sum::<u64>(),
            totals.sent(),
            "per-node counts disagree with the cluster-wide sum"
        );
        assert!(
            per_node.iter().filter(|c| c.sent() > 0).count() >= 3,
            "sends not attributed per node"
        );
    }

    #[test]
    fn set_local_value_applies_next_epoch() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(1, node_config(2, 20)).with_workers(1),
            |_| 1.0,
        )
        .unwrap();
        cluster.set_local_value(0, 100.0);
        std::thread::sleep(Duration::from_millis(400));
        let reports = cluster.take_reports(0);
        cluster.shutdown();
        let last = reports.last().and_then(|r| r.scalar(0)).unwrap();
        assert_eq!(last, 100.0, "local value update never took effect");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(4, 30)).with_workers(2),
            |_| 0.0,
        )
        .unwrap();
        drop(cluster); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        MuxClusterConfig::new(0, node_config(2, 20));
    }

    #[test]
    fn telemetry_registry_observes_running_cluster() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(4, node_config(4, 25))
                .with_workers(2)
                .with_trace(64)
                .with_metrics_addr("127.0.0.1:0".parse().unwrap()),
            |i| i as f64,
        )
        .unwrap();
        let addr = cluster.metrics_addr().expect("metrics endpoint bound");
        std::thread::sleep(Duration::from_millis(700));
        // Draining reports feeds the convergence gauges.
        let _ = cluster.take_all_reports();
        let registry = cluster.registry();
        assert!(registry.is_enabled());
        assert!(registry.counter_value("agg.exchanges") > 0);
        assert!(registry.counter_value("io.recv_syscalls") > 0);
        assert!(registry.counter_value("io.send_syscalls") > 0);
        let theory = registry.gauge_value("epoch.rho_theory").unwrap();
        assert!((theory - 0.3033).abs() < 1e-3);
        // Scrape over real HTTP and check the exposition mentions the
        // counters by their sanitized names.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        use std::io::{Read, Write};
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("agg_exchanges"), "scrape missing counter");
        assert!(body.contains("epoch_rho_theory"), "scrape missing gauge");
        // Tracing was on: at least one vnode logged protocol events.
        let events: usize = (0..cluster.len())
            .map(|i| cluster.take_trace(i).len())
            .sum();
        assert!(events > 0, "no trace events recorded");
        cluster.shutdown();
    }

    #[test]
    fn without_telemetry_stubs_every_series() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(2, node_config(4, 25))
                .with_workers(1)
                .without_telemetry(),
            |i| i as f64,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let reports = cluster.take_all_reports();
        assert!(!cluster.registry().is_enabled());
        assert_eq!(cluster.syscall_counts(), SyscallCounts::default());
        assert_eq!(cluster.registry().counter_value("agg.exchanges"), 0);
        cluster.shutdown();
        // The protocol itself must be unaffected by the stub.
        assert!(reports.iter().any(|r| !r.is_empty()), "no epochs completed");
    }

    #[test]
    fn gossip_cluster_moves_delta_bytes_and_view_health() {
        let spec = DirectorySpec::Gossip(GossipDirectoryConfig::new(8, 20).with_introducer_node(0));
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(6, node_config(8, 30))
                .with_workers(2)
                .with_directory(spec),
            |i| i as f64,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(1_200));
        let registry = cluster.registry();
        assert!(
            registry.counter_value("membership.delta_bytes") > 0,
            "no delta/piggyback bytes counted"
        );
        assert!(
            registry
                .gauge_value("membership.view_mean_size")
                .unwrap_or(0.0)
                > 0.0,
            "view health never sampled"
        );
        cluster.shutdown();
    }

    #[test]
    fn misconfigured_gossip_introducers_fail_spawn() {
        // Address-named introducer: unframeable in the id-routed mux.
        let by_addr = DirectorySpec::Gossip(
            GossipDirectoryConfig::new(8, 20)
                .with_introducer_addr("127.0.0.1:9999".parse().unwrap()),
        );
        let err = MuxCluster::spawn(
            MuxClusterConfig::new(4, node_config(4, 30)).with_directory(by_addr),
            |_| 0.0,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // Introducer id outside the cluster.
        let out_of_range =
            DirectorySpec::Gossip(GossipDirectoryConfig::new(8, 20).with_introducer_node(99));
        let err = MuxCluster::spawn(
            MuxClusterConfig::new(4, node_config(4, 30)).with_directory(out_of_range),
            |_| 0.0,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Timer fires per second over the next `window`: the count of the
    /// `timer.fire_lag_us` histogram, which records every wheel fire.
    fn fire_rate(cluster: &MuxCluster, window: Duration) -> f64 {
        let fires = cluster.registry().histogram("timer.fire_lag_us");
        let (before, start) = (fires.count(), Instant::now());
        std::thread::sleep(window);
        (fires.count() - before) as f64 / start.elapsed().as_secs_f64()
    }

    #[test]
    fn client_rpcs_leave_timer_wake_rate_bounded() {
        // Every vnode owns at most one live wheel entry, so client RPCs
        // (which may move a node's deadline) must not leave extra entries
        // behind that re-park themselves forever.
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(16, node_config(10, 50))
                .with_workers(2)
                .with_rpc_addr("127.0.0.1:0".parse().unwrap()),
            |i| i as f64,
        )
        .unwrap();
        let descriptor = QueryDescriptor::new("load", AggregateKind::Average)
            .with_gamma(8)
            .with_cycle_length(50)
            .with_default_value(1.0);
        cluster.install_query(0, descriptor).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while (0..cluster.len()).any(|i| {
            matches!(
                cluster.query_estimate(i, "load"),
                Err(QueryError::UnknownQuery)
            )
        }) {
            assert!(Instant::now() < deadline, "query never spread");
            std::thread::sleep(Duration::from_millis(20));
        }
        std::thread::sleep(Duration::from_millis(300));
        let idle = fire_rate(&cluster, Duration::from_secs(1));

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let rpc_addr = cluster.rpc_addr().unwrap();
        let mut buf = [0u8; 64];
        let mut answered = 0;
        for id in 0..4_000u64 {
            let read = RpcRequest::Read {
                id,
                name: "load".into(),
            };
            client
                .send_to(&encode_rpc_request(&read), rpc_addr)
                .unwrap();
            if let Ok((len, _)) = client.recv_from(&mut buf) {
                answered += usize::from(decode_rpc_response(&buf[..len]).is_ok());
            }
        }
        assert!(answered > 3_000, "only {answered} of 4000 RPCs answered");
        let loaded = fire_rate(&cluster, Duration::from_secs(1));
        cluster.shutdown();
        assert!(idle > 0.0, "timer never fired");
        assert!(
            loaded <= 2.0 * idle,
            "timer fires/s grew from {idle:.0} to {loaded:.0} after 4000 RPCs"
        );
    }
}
