//! Real-network runtime for epidemic aggregation.
//!
//! The paper presents the aggregation protocol as a deployable system
//! (Figure 1: an active thread gossiping every δ and a passive thread
//! answering) over an overlay-agnostic membership service — all the
//! protocol ever asks of it is `GETNEIGHBOR()`. This crate provides
//! exactly that embedding for the sans-io
//! [`epidemic_aggregation::GossipNode`], factored along two seams:
//!
//! * [`directory`] — the **membership seam**: [`directory::PeerDirectory`]
//!   answers `GETNEIGHBOR()` and resolves peer addresses. Implementations:
//!   [`directory::StaticDirectory`] (a static table, the out-of-band
//!   discovery the paper assumes) and [`directory::GossipDirectory`]
//!   (NEWSCAST membership gossiped over the same sockets, bootstrapped
//!   from introducers — no static table anywhere).
//! * [`cluster`] — the **operator seam**: the [`cluster::Cluster`] trait
//!   (addresses, reports, local values, named queries, per-node
//!   [`cluster::TrafficCounts`], shutdown), implemented by the mux
//!   runtime.
//! * [`codec`] — a compact, versioned binary wire format for protocol
//!   messages (hand-rolled little-endian framing, no codec dependency):
//!   one borrowed [`Frame`] enum encodes every tag — aggregation
//!   exchanges, NEWSCAST view exchanges, join/introduce bootstrap, query
//!   traffic, virtual-node-routed mux frames — and prices it by running
//!   the same encoder against a counting writer; one decoder
//!   ([`codec::decode_datagram`]) reads them all back. Mux frames for one
//!   destination socket travel together in a [`codec::MuxBundle`]
//!   datagram, unwrapped by [`codec::for_each_mux_frame`].
//! * [`mux`] — the UDP runtime ([`mux::MuxCluster`]): the paper's active
//!   and passive threads realized per virtual node on a timer wheel, N
//!   virtual nodes behind a small **reader socket set** (vnode `i` homed on
//!   socket `i % readers`) and `workers + readers + 1` threads, driven
//!   by per-socket reader threads and a sharded hashed timer wheel
//!   ([`timer::ShardedTimerWheel`]) — and shardable across sockets,
//!   processes, and hosts via a [`mux::PeerTable`] mapping vnode-id
//!   ranges to shard addresses.
//! * [`batch`] — syscall-batched datagram I/O ([`batch::IoBackend`]):
//!   `recvmmsg`/`sendmmsg` on Linux with a portable one-per-syscall
//!   fallback, runtime-selectable for A/B measurement; its
//!   [`batch::SendBatch`] coalesces outbound mux frames into one bundle
//!   per destination socket per flush.
//! * [`timer`] — the hashed timer wheel backing [`mux`].
//!
//! # Examples
//!
//! A two-node loopback cluster computing an average:
//!
//! ```no_run
//! use epidemic_aggregation::{InstanceSpec, NodeConfig};
//! use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
//!
//! let node_config = NodeConfig::builder()
//!     .gamma(10)
//!     .cycle_length(50)   // milliseconds
//!     .timeout(20)
//!     .instance(InstanceSpec::AVERAGE)
//!     .build()?;
//! let cluster = MuxCluster::spawn(MuxClusterConfig::new(2, node_config), |i| (i * 10) as f64)?;
//! std::thread::sleep(std::time::Duration::from_millis(1200));
//! for (node, reports) in cluster.take_all_reports().into_iter().enumerate() {
//!     for report in reports {
//!         println!("node {node} epoch {} -> {:?}", report.epoch, report.scalar(0));
//!     }
//! }
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same protocol with **no static peer table**: membership is
//! NEWSCAST gossip bootstrapped from one introducer, riding the same
//! socket as the aggregation traffic:
//!
//! ```no_run
//! use epidemic_aggregation::{InstanceSpec, NodeConfig};
//! use epidemic_net::directory::{DirectorySpec, GossipDirectoryConfig};
//! use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
//!
//! let node_config = NodeConfig::builder()
//!     .gamma(10)
//!     .cycle_length(50)
//!     .timeout(20)
//!     .instance(InstanceSpec::AVERAGE)
//!     .build()?;
//! let directory = DirectorySpec::Gossip(
//!     GossipDirectoryConfig::new(20, 40).with_introducer_node(0),
//! );
//! let cluster = MuxCluster::spawn(
//!     MuxClusterConfig::new(256, node_config).with_directory(directory),
//!     |i| i as f64,
//! )?;
//! # cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cluster;
pub mod codec;
pub mod directory;
pub mod mux;
pub mod timer;

pub use batch::IoBackend;
pub use cluster::{Cluster, TrafficCounts};
pub use codec::{DecodeError, Frame};
pub use directory::{
    DirectorySpec, GossipDirectory, GossipDirectoryConfig, PeerDirectory, StaticDirectory,
};
pub use mux::{MuxCluster, MuxClusterConfig, PeerTable, SyscallCounts};

// The telemetry plane's vocabulary, re-exported so operators of this
// crate need no direct `epidemic-telemetry` dependency.
pub use epidemic_telemetry::{
    write_jsonl, write_snapshot, MetricsServer, Registry, TraceEvent, TraceKind, ViewHealth,
};
