//! The layer replay of a traced run: the workload's own message mix is
//! pushed through each layer's public functions in isolation — no
//! sockets or threads between the layers unless the layer *is* the
//! socket — timing every call and counting its heap allocations.
//!
//! The core of it is an in-memory cluster: one `GossipNode`, one
//! `PeerDirectory` and (for tenants) one `QueryPlane` per node, stepped
//! on a virtual clock exactly the way the mux worker steps a vnode, with
//! every outbound frame encoded and every inbound frame decoded by the
//! real codec. Tiny calls (peer draws, registry handles) are timed in
//! batches, since a clock read costs as much as the call.

use crate::measure::{allocations, median};
use crate::sim::{sim_node_config, SIM_CYCLE, SIM_LEADERS, SIM_N, SIM_VIEW};
use crate::spans::Tracer;
use crate::wire::{
    base_config, tenant_catalog, tenant_directory, AGG_CYCLE_MS, AGG_GAMMA, AGG_N, TEN_CYCLE_MS,
    TEN_GAMMA, TEN_N,
};
use crate::Metric;
use epidemic_aggregation::{GossipNode, Message, PeerSampler};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::NodeId;
use epidemic_net::batch::{IoBackend, RecvBatch, SendBatch, BATCH};
use epidemic_net::codec::{
    decode_datagram, decode_mux_datagram, decode_rpc_response, encode_mux_catalog_frame,
    encode_mux_directory_frame, encode_mux_frame, encode_mux_piggyback_frame,
    encode_mux_query_frame, encode_rpc_request, encode_rpc_response, WirePayload,
};
use epidemic_net::directory::{
    Destination, DirectoryMessage, DirectoryPayload, GossipDirectory, IntroduceEntry,
    PeerDirectory, StaticDirectory,
};
use epidemic_net::timer::ShardedTimerWheel;
use epidemic_newscast::{MembershipConfig, MembershipNode};
use epidemic_query::{QueryOutbound, QueryPlane, QueryPlaneConfig, RpcRequest};
use epidemic_telemetry::Registry;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Which workload's message mix a replay pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `agg_saturated`: scalar AVERAGE exchanges, static directory.
    Saturated,
    /// `tenants_rpc`: gossiped membership, eight tenants, RPC.
    Tenants,
}

/// Time, calls, allocations and bytes accumulated for one layer call.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    ns: u64,
    calls: u64,
    allocs: u64,
    bytes: u64,
}

impl Acc {
    /// Times `f`, counting its allocations.
    fn time<T>(&mut self, record: bool, f: impl FnOnce() -> T) -> T {
        if !record {
            return f();
        }
        let allocs = allocations();
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.allocs += allocations() - allocs;
        self.calls += 1;
        out
    }

    fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// Frame kinds the codec replay reports, in [`crate::PER_LAYER`] order.
const KINDS: [&str; 6] = [
    "aggregation",
    "piggyback",
    "view_delta",
    "catalog",
    "query",
    "rpc",
];

#[derive(Debug, Default)]
struct Codec {
    encode: [Acc; 6],
    decode: [Acc; 6],
}

impl Codec {
    fn metrics(&self, mix_name: &str) -> Vec<Metric> {
        let mut out = Vec::new();
        for (k, kind) in KINDS.iter().enumerate() {
            let (enc, dec) = (self.encode[k], self.decode[k]);
            let name = |what: &str| format!("codec.{kind}.{what}");
            if enc.calls == 0 {
                let why = format!("no {kind} frames in the {mix_name} mix");
                out.push(Metric::absent(&name("encode_ns"), "ns", &why));
                out.push(Metric::absent(&name("decode_ns"), "ns", &why));
                out.push(Metric::absent(&name("allocs_per_encode"), "count", &why));
                out.push(Metric::absent(&name("allocs_per_decode"), "count", &why));
                out.push(Metric::absent(&name("bytes_per_frame"), "B", &why));
                continue;
            }
            out.push(Metric::new(
                &name("encode_ns"),
                enc.ns_per_call(),
                "ns",
                enc.calls,
            ));
            out.push(Metric::new(
                &name("decode_ns"),
                dec.ns_per_call(),
                "ns",
                dec.calls,
            ));
            out.push(Metric::new(
                &name("allocs_per_encode"),
                enc.allocs_per_call(),
                "count",
                enc.calls,
            ));
            out.push(Metric::new(
                &name("allocs_per_decode"),
                dec.allocs_per_call(),
                "count",
                dec.calls,
            ));
            out.push(Metric::new(
                &name("bytes_per_frame"),
                enc.bytes as f64 / enc.calls as f64,
                "B",
                enc.calls,
            ));
        }
        out
    }
}

/// Per-layer accumulators of one in-memory cluster replay.
#[derive(Debug, Default)]
struct Layers {
    codec: Codec,
    poll: Acc,
    handle: Acc,
    plane_poll: Acc,
    plane_handle: Acc,
}

/// A frame in flight between two in-memory nodes.
enum Frame {
    /// Encoded bytes (wire mixes).
    Wire(Vec<u8>),
    /// A message handed over as a value (the simulator mix).
    Value(Message),
}

struct ReplayNode {
    gossip: GossipNode,
    directory: Box<dyn PeerDirectory>,
    plane: Option<QueryPlane>,
}

impl ReplayNode {
    fn deadline(&self) -> u64 {
        let plane = self
            .plane
            .as_ref()
            .map_or(u64::MAX, QueryPlane::next_deadline);
        self.gossip
            .next_deadline()
            .min(self.directory.next_deadline())
            .min(plane)
    }
}

/// The in-memory cluster: nodes on a virtual millisecond clock, frames
/// delivered in send order with no delay.
struct Replay {
    nodes: Vec<ReplayNode>,
    wire: bool,
    next_wake: Vec<u64>,
    wakes: BinaryHeap<Reverse<(u64, u32)>>,
    inflight: VecDeque<(u32, Frame)>,
    layers: Layers,
    /// Whether calls are being recorded (off during warm-up).
    record: bool,
    /// A sample of encoded aggregation-plane frames, for the socket
    /// replay.
    sample_frames: Vec<Vec<u8>>,
    dir_out: Vec<DirectoryMessage>,
}

impl Replay {
    fn new(nodes: Vec<ReplayNode>, wire: bool) -> Self {
        let n = nodes.len();
        let mut replay = Replay {
            nodes,
            wire,
            next_wake: vec![u64::MAX; n],
            wakes: BinaryHeap::new(),
            inflight: VecDeque::new(),
            layers: Layers::default(),
            record: false,
            sample_frames: Vec::new(),
            dir_out: Vec::new(),
        };
        for i in 0..n {
            replay.park(i, 0);
        }
        replay
    }

    /// Re-parks node `i` at its deadline if that moved earlier (or it
    /// just woke).
    fn park(&mut self, i: usize, woke_at: u64) {
        let deadline = self.nodes[i].deadline().max(woke_at + 1);
        if deadline < self.next_wake[i] || self.next_wake[i] <= woke_at {
            self.next_wake[i] = deadline;
            self.wakes.push(Reverse((deadline, i as u32)));
        }
    }

    fn run(&mut self, until: u64, record_from: u64) {
        while let Some(Reverse((at, i))) = self.wakes.pop() {
            if at > until {
                break;
            }
            let i = i as usize;
            if self.next_wake[i] != at {
                continue; // superseded by an earlier re-park
            }
            self.record = at >= record_from;
            self.wake(i, at);
            self.park(i, at);
            while let Some((to, frame)) = self.inflight.pop_front() {
                self.deliver(to as usize, frame, at);
                self.park(to as usize, at.saturating_sub(1));
            }
        }
    }

    fn send_aggregation(
        &mut self,
        from: usize,
        out: epidemic_aggregation::node::Outbound,
        now: u64,
    ) {
        let to = out.to.index() as u32;
        if !self.wire {
            self.inflight.push_back((to, Frame::Value(out.message)));
            return;
        }
        let record = self.record;
        let piggyback = self.nodes[from].directory.piggyback(out.to, now);
        let codec = &mut self.layers.codec;
        let bytes = match &piggyback {
            Some(pb) => codec.encode[1].time(record, || {
                encode_mux_piggyback_frame(out.to, &out.message, pb)
            }),
            None => codec.encode[0].time(record, || encode_mux_frame(out.to, &out.message)),
        };
        let kind = usize::from(piggyback.is_some());
        if record {
            codec.encode[kind].bytes += bytes.len() as u64;
            if self.sample_frames.len() < BATCH {
                self.sample_frames.push(bytes.clone());
            }
        }
        self.inflight.push_back((to, Frame::Wire(bytes)));
    }

    fn wake(&mut self, i: usize, now: u64) {
        let record = self.record;
        let node = &mut self.nodes[i];
        let ReplayNode {
            gossip,
            directory,
            plane,
        } = node;
        let out = self
            .layers
            .poll
            .time(record, || gossip.poll_sampler(now, directory));
        let query_out = match plane {
            Some(plane) => self
                .layers
                .plane_poll
                .time(record, || plane.poll(now, directory)),
            None => Vec::new(),
        };
        directory.poll(now, &mut self.dir_out);
        if let Some(out) = out {
            self.send_aggregation(i, out, now);
        }
        self.send_directory(record);
        for out in query_out {
            self.send_query(i, out, record);
        }
    }

    fn send_directory(&mut self, record: bool) {
        let codec = &mut self.layers.codec;
        for msg in self.dir_out.drain(..) {
            let Destination::Node(to) = msg.to else {
                continue;
            };
            let delta = matches!(msg.payload, DirectoryPayload::View { delta: true, .. });
            let bytes = if delta {
                let bytes =
                    codec.encode[2].time(record, || encode_mux_directory_frame(to, &msg.payload));
                if record {
                    codec.encode[2].bytes += bytes.len() as u64;
                }
                bytes
            } else {
                encode_mux_directory_frame(to, &msg.payload)
            };
            self.inflight
                .push_back((to.index() as u32, Frame::Wire(bytes)));
        }
    }

    fn send_query(&mut self, from: usize, out: QueryOutbound, record: bool) {
        let codec = &mut self.layers.codec;
        let from = NodeId::new(from as u64);
        let (to, kind, bytes) = match out {
            QueryOutbound::Aggregation { to, query, message } => (
                to,
                4,
                codec.encode[4].time(record, || encode_mux_query_frame(to, &query, &message)),
            ),
            QueryOutbound::Catalog { to, entries } => (
                to,
                3,
                codec.encode[3].time(record, || encode_mux_catalog_frame(to, from, &entries)),
            ),
        };
        if record {
            codec.encode[kind].bytes += bytes.len() as u64;
        }
        self.inflight
            .push_back((to.index() as u32, Frame::Wire(bytes)));
    }

    fn deliver(&mut self, to: usize, frame: Frame, now: u64) {
        let record = self.record;
        let bytes = match frame {
            Frame::Value(message) => {
                let node = &mut self.nodes[to];
                let reply = self
                    .layers
                    .handle
                    .time(record, || node.gossip.handle(&message, now));
                if let Some(out) = reply {
                    self.send_aggregation(to, out, now);
                }
                return;
            }
            Frame::Wire(bytes) => bytes,
        };
        let allocs = allocations();
        let start = Instant::now();
        let decoded = decode_mux_datagram(&bytes);
        let ns = start.elapsed().as_nanos() as u64;
        let allocs = allocations() - allocs;
        let Ok((_, payload)) = decoded else {
            panic!("replayed frame failed to decode");
        };
        let kind = match &payload {
            WirePayload::Aggregation(_) => Some(0),
            WirePayload::Piggybacked(..) => Some(1),
            WirePayload::Directory(DirectoryPayload::View { delta: true, .. }) => Some(2),
            WirePayload::Catalog { .. } => Some(3),
            WirePayload::Query { .. } => Some(4),
            _ => None,
        };
        if let (true, Some(k)) = (record, kind) {
            let acc = &mut self.layers.codec.decode[k];
            acc.ns += ns;
            acc.allocs += allocs;
            acc.calls += 1;
        }
        let node = &mut self.nodes[to];
        match payload {
            WirePayload::Aggregation(msg) => {
                let reply = self
                    .layers
                    .handle
                    .time(record, || node.gossip.handle(&msg, now));
                if let Some(out) = reply {
                    self.send_aggregation(to, out, now);
                }
            }
            WirePayload::Piggybacked(msg, pb) => {
                node.directory.absorb_piggyback(&pb, None, now);
                let reply = self
                    .layers
                    .handle
                    .time(record, || node.gossip.handle(&msg, now));
                if let Some(out) = reply {
                    self.send_aggregation(to, out, now);
                }
            }
            WirePayload::Directory(payload) => {
                node.directory
                    .handle(&payload, None, now, &mut self.dir_out);
                self.send_directory(record);
            }
            WirePayload::Catalog { entries, .. } => {
                if let Some(plane) = &mut node.plane {
                    plane.handle_catalog(&entries, now);
                }
            }
            WirePayload::Query { query, message } => {
                let reply = match &mut node.plane {
                    Some(plane) => self
                        .layers
                        .plane_handle
                        .time(record, || plane.handle_aggregation(&query, &message, now)),
                    None => None,
                };
                if let Some(out) = reply {
                    self.send_query(to, out, record);
                }
            }
            WirePayload::Rpc(_) | WirePayload::RpcReply(_) => {}
        }
    }
}

/// Times `batches` batches of `per_batch` calls of `f` and returns the
/// median ns per call — for calls too small to time one by one.
fn batched_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for b in 0..batches {
        let start = Instant::now();
        for k in 0..per_batch {
            f(b * per_batch + k);
        }
        per_call.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}

/// Peer draws of a static table and of a gossiped view of `c` entries.
fn draws(n: usize, seed: u64) -> Vec<Metric> {
    let me = NodeId::new(1);
    let mut fixed = StaticDirectory::id_routed(n, me, seed);
    let static_ns = batched_ns(50, 2_000, |_| {
        black_box(fixed.draw_peer());
    });
    let config = tenant_directory();
    let mut gossip = GossipDirectory::id_routed(me, &config, seed);
    let peers: Vec<IntroduceEntry> = (0..config.view_size as u32)
        .map(|k| IntroduceEntry {
            node: 2 + k,
            timestamp: 1,
            addr: None,
        })
        .collect();
    let mut out = Vec::new();
    gossip.handle(
        &DirectoryPayload::Introduce { from: 0, peers },
        None,
        1,
        &mut out,
    );
    let gossip_ns = batched_ns(50, 2_000, |_| {
        black_box(gossip.draw_peer());
    });
    vec![
        Metric::new("directory.draw_ns.static", static_ns, "ns", 100_000),
        Metric::new("directory.draw_ns.gossip", gossip_ns, "ns", 100_000)
            .with_note(format!("view of {} entries", config.view_size)),
    ]
}

/// NEWSCAST delta exchanges among `n` membership nodes of view `c`.
fn newscast(n: usize, c: usize, cycle: u64, seed: u64) -> Vec<Metric> {
    let config = MembershipConfig {
        view_size: c,
        cycle_length: cycle,
        delta_views: true,
        knowledge_peers: n,
    };
    let mut members: Vec<MembershipNode> = (0..n)
        .map(|i| MembershipNode::new(i as u32, config, seed))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for (i, member) in members.iter_mut().enumerate() {
        for raw in rng.sample_distinct(n - 1, c) {
            let peer = if raw >= i { raw + 1 } else { raw };
            member.add_seed(peer as u32, 0);
        }
    }
    let mut acc = Acc::default();
    let cycles = 40u64;
    for k in 0..cycles {
        let now = k * cycle;
        let record = k >= cycles / 4;
        for i in 0..n {
            acc.time(record, || {
                let Some((peer, payload, full)) = members[i].poll_exchange(now) else {
                    return;
                };
                let (reply, reply_full) =
                    members[peer as usize].handle_exchange_delta(&payload, full, now);
                members[i].absorb_reply_delta(&reply, reply_full, now);
            });
        }
    }
    vec![
        Metric::new("newscast.exchange_ns", acc.ns_per_call(), "ns", acc.calls)
            .with_note(format!("poll + passive merge + active merge, c={c}")),
        Metric::new(
            "newscast.allocs_per_exchange",
            acc.allocs_per_call(),
            "count",
            acc.calls,
        ),
    ]
}

/// The mux timer wheel in steady state: `n` tokens re-parked one cycle
/// ahead each time they fire.
fn timer(n: usize, cycle_ms: u64) -> Vec<Metric> {
    let mut wheel = ShardedTimerWheel::for_cycle(1, cycle_ms);
    let mut schedule = Acc::default();
    let mut advance = Acc::default();
    let mut fires = 0u64;
    for token in 0..n as u32 {
        wheel.schedule(u64::from(token) * cycle_ms / n as u64, token);
    }
    let mut due: Vec<(u64, u32)> = Vec::with_capacity(n);
    let ticks = 4_000u64.max(cycle_ms * 40);
    for now in 0..ticks {
        let record = now >= ticks / 4;
        let before = due.len();
        advance.time(record, || {
            wheel.advance_entries(now, |deadline, token| due.push((deadline, token)))
        });
        if record {
            fires += (due.len() - before) as u64;
        }
        for (deadline, token) in due.drain(..) {
            schedule.time(record, || wheel.schedule(deadline + cycle_ms, token));
        }
    }
    vec![
        Metric::new(
            "timer.schedule_ns",
            schedule.ns_per_call(),
            "ns",
            schedule.calls,
        ),
        Metric::new(
            "timer.advance_ns_per_fire",
            advance.ns as f64 / fires.max(1) as f64,
            "ns",
            fires,
        ),
    ]
}

/// `SendBatch::flush` and `RecvBatch::recv` over a loopback socket pair,
/// with the mix's own frames.
fn sockets(frames: &[Vec<u8>]) -> Vec<Metric> {
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind replay sender");
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind replay receiver");
    rx.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set replay read timeout");
    let to = rx.local_addr().expect("receiver address");
    let backend = IoBackend::auto();
    let mut send = SendBatch::<()>::new();
    let mut recv = RecvBatch::new();
    let (mut send_ns, mut recv_ns, mut sent, mut got) = (0u64, 0u64, 0u64, 0u64);
    for round in 0..2_000 {
        for frame in frames {
            send.push(frame.clone(), to, ());
        }
        let start = Instant::now();
        let mut ok = 0u64;
        send.flush(&tx, backend, |_, _, accepted| ok += u64::from(accepted));
        let flush_ns = start.elapsed().as_nanos() as u64;
        let mut received = 0u64;
        let start = Instant::now();
        while received < ok {
            match recv.recv(&rx, backend) {
                Ok(count) => received += count as u64,
                Err(_) => break, // a datagram lost on loopback: stop waiting
            }
        }
        let drain_ns = start.elapsed().as_nanos() as u64;
        if round >= 200 {
            send_ns += flush_ns;
            recv_ns += drain_ns;
            sent += ok;
            got += received;
        }
    }
    vec![
        Metric::new(
            "batch.send_ns",
            send_ns as f64 / sent.max(1) as f64,
            "ns",
            sent,
        )
        .with_note(format!(
            "{} frames per flush, backend {}",
            frames.len(),
            backend.as_str()
        )),
        Metric::new(
            "batch.recv_ns",
            recv_ns as f64 / got.max(1) as f64,
            "ns",
            got,
        ),
    ]
}

/// Registry handle costs.
fn telemetry() -> Vec<Metric> {
    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.histogram");
    let inc = batched_ns(50, 20_000, |_| counter.inc());
    let record = batched_ns(50, 20_000, |k| histogram.record(black_box(k as u64 * 37)));
    vec![
        Metric::new("telemetry.counter_inc_ns", inc, "ns", 1_000_000),
        Metric::new("telemetry.histogram_record_ns", record, "ns", 1_000_000),
    ]
}

fn node_metrics(layers: &Layers, what: &str) -> Vec<Metric> {
    let steps = layers.poll.calls + layers.handle.calls;
    vec![
        Metric::new(
            "node.poll_ns",
            layers.poll.ns_per_call(),
            "ns",
            layers.poll.calls,
        )
        .with_note(format!("{what}; includes the peer draw")),
        Metric::new(
            "node.handle_ns",
            layers.handle.ns_per_call(),
            "ns",
            layers.handle.calls,
        ),
        Metric::new(
            "node.allocs_per_step",
            (layers.poll.allocs + layers.handle.allocs) as f64 / steps.max(1) as f64,
            "count",
            steps,
        ),
    ]
}

/// Client RPCs replayed through the codec and `QueryPlane::handle_rpc`,
/// plus direct submits and reads.
fn rpc(replay: &mut Replay, seed: u64) -> Vec<Metric> {
    let mut enc = Acc::default();
    let mut dec = Acc::default();
    let mut handle = Acc::default();
    let mut submit = Acc::default();
    let mut read = Acc::default();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x52_5043);
    let names: Vec<String> = tenant_catalog()
        .into_iter()
        .map(|d| d.name)
        .filter(|name| name != "bench.churn")
        .collect();
    let n = replay.nodes.len();
    let now = 1 << 40;
    for k in 0..20_000u64 {
        let name = names[rng.index(names.len())].clone();
        let request = if rng.next_bool(0.5) {
            RpcRequest::Read { id: k, name }
        } else {
            RpcRequest::Submit {
                id: k,
                name,
                value: rng.next_f64() * 100.0,
            }
        };
        let bytes = enc.time(true, || encode_rpc_request(&request));
        enc.bytes += bytes.len() as u64;
        let Ok(WirePayload::Rpc(request)) = dec.time(true, || decode_datagram(&bytes)) else {
            panic!("replayed RPC request failed to decode");
        };
        let plane = replay.nodes[rng.index(n)]
            .plane
            .as_mut()
            .expect("tenant mix has planes");
        let response = handle.time(true, || plane.handle_rpc(&request, now));
        let bytes = enc.time(true, || encode_rpc_response(&response));
        enc.bytes += bytes.len() as u64;
        dec.time(true, || decode_rpc_response(&bytes))
            .expect("replayed RPC response decodes");
    }
    for k in 0..20_000usize {
        let plane = replay.nodes[k % n].plane.as_mut().expect("tenant planes");
        let name = &names[k % names.len()];
        let value = (k % 100) as f64;
        let _ = submit.time(true, || plane.submit(name, value, now));
        let _ = read.time(true, || plane.estimate(name));
    }
    replay.layers.codec.encode[5] = enc;
    replay.layers.codec.decode[5] = dec;
    vec![
        Metric::new(
            "query.handle_rpc_ns",
            handle.ns_per_call(),
            "ns",
            handle.calls,
        ),
        Metric::new("query.submit_ns", submit.ns_per_call(), "ns", submit.calls),
        Metric::new("query.read_ns", read.ns_per_call(), "ns", read.calls),
    ]
}

/// Replays a wire workload's mix through every layer it exercises.
pub fn wire(mix: Mix, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let (n, cycle, gamma, mix_name) = match mix {
        Mix::Saturated => (AGG_N, AGG_CYCLE_MS, AGG_GAMMA, "agg_saturated"),
        Mix::Tenants => (TEN_N, TEN_CYCLE_MS, TEN_GAMMA, "tenants_rpc"),
    };
    let registry = Registry::new();
    let nodes: Vec<ReplayNode> = (0..n)
        .map(|i| {
            let id = NodeId::new(i as u64);
            let directory: Box<dyn PeerDirectory> = match mix {
                Mix::Saturated => Box::new(StaticDirectory::id_routed(n, id, seed)),
                Mix::Tenants => Box::new(GossipDirectory::id_routed(id, &tenant_directory(), seed)),
            };
            let plane = (mix == Mix::Tenants)
                .then(|| QueryPlane::new(id, QueryPlaneConfig::default(), seed, registry.clone()));
            ReplayNode {
                gossip: GossipNode::founder(id, base_config(gamma, cycle), i as f64, seed),
                directory,
                plane,
            }
        })
        .collect();
    let mut replay = Replay::new(nodes, true);
    if let Some(plane) = &mut replay.nodes[0].plane {
        for descriptor in tenant_catalog()
            .into_iter()
            .filter(|d| d.name != "bench.churn")
        {
            plane.install(descriptor, 0).expect("install replay tenant");
        }
        replay.park(0, 0);
    }
    // Enough virtual time for bootstrap and rollout, then several epochs
    // recorded.
    let (until, record_from) = match mix {
        Mix::Saturated => (400, 100),
        Mix::Tenants => (4_000, 1_500),
    };
    tracer.span("replay.cluster", 0, || replay.run(until, record_from));
    let mut out = node_metrics(&replay.layers, "scalar AVERAGE");
    match mix {
        Mix::Tenants => {
            out.extend(tracer.span("replay.rpc", 0, || rpc(&mut replay, seed)));
            let (poll, handle) = (replay.layers.plane_poll, replay.layers.plane_handle);
            out.push(
                Metric::new("query.poll_ns", poll.ns_per_call(), "ns", poll.calls)
                    .with_note("8 tenants"),
            );
            out.push(Metric::new(
                "query.handle_aggregation_ns",
                handle.ns_per_call(),
                "ns",
                handle.calls,
            ));
            out.extend(tracer.span("replay.newscast", 0, || {
                newscast(n, tenant_directory().view_size, 8 * cycle, seed)
            }));
        }
        Mix::Saturated => {
            for (name, unit) in [
                ("query.poll_ns", "ns"),
                ("query.handle_aggregation_ns", "ns"),
                ("query.handle_rpc_ns", "ns"),
                ("query.submit_ns", "ns"),
                ("query.read_ns", "ns"),
            ] {
                out.push(Metric::absent(
                    name,
                    unit,
                    "agg_saturated bypasses the query plane",
                ));
            }
            for (name, unit) in [
                ("newscast.exchange_ns", "ns"),
                ("newscast.allocs_per_exchange", "count"),
            ] {
                out.push(Metric::absent(
                    name,
                    unit,
                    "static directory: no membership gossip",
                ));
            }
        }
    }
    out.extend(replay.layers.codec.metrics(mix_name));
    out.extend(tracer.span("replay.draws", 0, || draws(n, seed)));
    out.extend(tracer.span("replay.timer", 0, || timer(n, cycle)));
    let frames = std::mem::take(&mut replay.sample_frames);
    out.extend(tracer.span("replay.sockets", 0, || sockets(&frames)));
    out.extend(tracer.span("replay.telemetry", 0, telemetry));
    out
}

/// Replays the simulator's mix: node steps with AVERAGE plus COUNT
/// maps, NEWSCAST exchanges of view 30, and the registry handles the
/// simulator updates.
pub fn sim(seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let config = sim_node_config();
    let nodes: Vec<ReplayNode> = (0..SIM_N)
        .map(|i| {
            let id = NodeId::new(i as u64);
            ReplayNode {
                gossip: GossipNode::founder(id, config.clone(), (i % 100) as f64, seed),
                directory: Box::new(StaticDirectory::id_routed(SIM_N, id, seed)),
                plane: None,
            }
        })
        .collect();
    let mut replay = Replay::new(nodes, false);
    let gamma = u64::from(config.gamma());
    tracer.span("replay.cluster", 0, || {
        replay.run(gamma * 3 / 2 * SIM_CYCLE, gamma / 4 * SIM_CYCLE)
    });
    let mut out = node_metrics(
        &replay.layers,
        &format!("AVERAGE + COUNT maps, ~{SIM_LEADERS} leaders"),
    );
    out.extend(tracer.span("replay.newscast", 0, || {
        newscast(SIM_N, SIM_VIEW, SIM_CYCLE, seed)
    }));
    out.extend(tracer.span("replay.telemetry", 0, telemetry));
    out
}
