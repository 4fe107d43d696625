//! The operator seam: the `Cluster` API of a running cluster.
//!
//! A cluster of real-network aggregation nodes is operated the same way
//! whether its virtual nodes share one process
//! ([`crate::mux::MuxCluster`]) or are sharded across processes and
//! hosts. The [`Cluster`] trait captures that surface — addresses,
//! report draining, local-value updates, named queries, traffic
//! accounting, shutdown.
//!
//! Traffic is accounted per node and per plane in [`TrafficCounts`]:
//! aggregation datagrams (the paper's push-pull exchanges) separately
//! from membership datagrams (NEWSCAST views, join/introduce bootstrap)
//! and from query-plane datagrams (catalog gossip, named-query
//! exchanges), so the overhead of gossiped membership and of the
//! multi-tenant query plane are both directly measurable.

use epidemic_aggregation::EpochReport;
use epidemic_common::NodeId;
use epidemic_query::{QueryDescriptor, QueryError, QueryEstimate};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Reserves `n` distinct loopback addresses by binding ephemeral-port
/// sockets, recording their addresses, and releasing them only after all
/// `n` ports are chosen. Backs the loopback address plans of
/// [`crate::mux::PeerTable::loopback_split`].
pub(crate) fn reserve_loopback_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let mut addrs = Vec::with_capacity(n);
    let mut held = Vec::with_capacity(n);
    for _ in 0..n {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        addrs.push(sock.local_addr()?);
        held.push(sock); // hold all sockets until every port is chosen
    }
    drop(held);
    Ok(addrs)
}

/// Per-node datagram accounting, split by protocol plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounts {
    /// Aggregation-plane datagrams sent (requests, replies, notices).
    pub aggregation_sent: u64,
    /// Aggregation-plane datagrams received.
    pub aggregation_received: u64,
    /// Membership-plane datagrams sent (views, joins, introductions).
    pub membership_sent: u64,
    /// Membership-plane datagrams received.
    pub membership_received: u64,
    /// Query-plane datagrams sent (catalog gossip, named-query
    /// exchanges).
    pub query_sent: u64,
    /// Query-plane datagrams received.
    pub query_received: u64,
    /// Wire bytes of the aggregation datagrams sent.
    pub aggregation_bytes_sent: u64,
    /// Wire bytes of the membership datagrams sent.
    pub membership_bytes_sent: u64,
    /// Wire bytes of the query-plane datagrams sent.
    pub query_bytes_sent: u64,
    /// Datagrams (either plane) the kernel refused to send — the visible
    /// face of outbound backpressure. A send that fails is NOT counted in
    /// the per-plane `*_sent` fields, so at high load loss shows up here
    /// instead of silently vanishing.
    pub send_errors: u64,
    /// Bootstrap `Join` datagrams re-sent after the first went unanswered
    /// (counted inside `membership_sent`). Non-zero means the introducer
    /// path lost datagrams — visible here instead of as a silent hang.
    pub join_retries: u64,
    /// Client RPCs this node answered with a non-`Ok` status (unknown
    /// query, admission rejection, conflict, …). Rejections are counted
    /// here — and surfaced to the caller in the response — never
    /// silently swallowed.
    pub rpc_rejects: u64,
}

impl TrafficCounts {
    /// Total datagrams sent across all planes.
    pub fn sent(&self) -> u64 {
        self.aggregation_sent + self.membership_sent + self.query_sent
    }

    /// Total datagrams received across all planes.
    pub fn received(&self) -> u64 {
        self.aggregation_received + self.membership_received + self.query_received
    }

    /// Membership bytes sent per aggregation byte sent — the wire
    /// overhead of gossiped membership (0 for a static directory).
    pub fn membership_byte_overhead(&self) -> f64 {
        if self.aggregation_bytes_sent == 0 {
            return 0.0;
        }
        self.membership_bytes_sent as f64 / self.aggregation_bytes_sent as f64
    }

    /// Query-plane bytes sent per aggregation byte sent — the wire
    /// overhead of the multi-tenant query plane (0 when no query is
    /// installed).
    pub fn query_byte_overhead(&self) -> f64 {
        if self.aggregation_bytes_sent == 0 {
            return 0.0;
        }
        self.query_bytes_sent as f64 / self.aggregation_bytes_sent as f64
    }
}

impl Add for TrafficCounts {
    type Output = TrafficCounts;

    fn add(mut self, rhs: TrafficCounts) -> TrafficCounts {
        self += rhs;
        self
    }
}

impl AddAssign for TrafficCounts {
    fn add_assign(&mut self, rhs: TrafficCounts) {
        self.aggregation_sent += rhs.aggregation_sent;
        self.aggregation_received += rhs.aggregation_received;
        self.membership_sent += rhs.membership_sent;
        self.membership_received += rhs.membership_received;
        self.query_sent += rhs.query_sent;
        self.query_received += rhs.query_received;
        self.aggregation_bytes_sent += rhs.aggregation_bytes_sent;
        self.membership_bytes_sent += rhs.membership_bytes_sent;
        self.query_bytes_sent += rhs.query_bytes_sent;
        self.send_errors += rhs.send_errors;
        self.join_retries += rhs.join_retries;
        self.rpc_rejects += rhs.rpc_rejects;
    }
}

/// Lock-free mutable twin of [`TrafficCounts`], shared between the
/// runtime's threads (one cell per hosted node).
#[derive(Debug, Default)]
pub(crate) struct TrafficCell {
    aggregation_sent: AtomicU64,
    aggregation_received: AtomicU64,
    membership_sent: AtomicU64,
    membership_received: AtomicU64,
    query_sent: AtomicU64,
    query_received: AtomicU64,
    aggregation_bytes_sent: AtomicU64,
    membership_bytes_sent: AtomicU64,
    query_bytes_sent: AtomicU64,
    send_errors: AtomicU64,
    join_retries: AtomicU64,
    rpc_rejects: AtomicU64,
}

impl TrafficCell {
    pub(crate) fn count_sent(&self, membership: bool, bytes: usize) {
        if membership {
            self.membership_sent.fetch_add(1, Ordering::Relaxed);
            self.membership_bytes_sent
                .fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            self.aggregation_sent.fetch_add(1, Ordering::Relaxed);
            self.aggregation_bytes_sent
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Counts one piggybacked datagram: an aggregation datagram whose
    /// last `trailer_bytes` are a membership trailer. The datagram itself
    /// is aggregation traffic; the trailer bytes are charged to the
    /// membership plane so the byte-overhead ratio stays honest.
    pub(crate) fn count_piggybacked_sent(&self, total_bytes: usize, trailer_bytes: usize) {
        self.aggregation_sent.fetch_add(1, Ordering::Relaxed);
        self.aggregation_bytes_sent
            .fetch_add((total_bytes - trailer_bytes) as u64, Ordering::Relaxed);
        self.membership_bytes_sent
            .fetch_add(trailer_bytes as u64, Ordering::Relaxed);
    }

    /// Publishes the directory's current join-retry count (a level, not a
    /// delta — the directory owns the counter).
    pub(crate) fn set_join_retries(&self, retries: u64) {
        self.join_retries.store(retries, Ordering::Relaxed);
    }

    pub(crate) fn count_received(&self, membership: bool) {
        if membership {
            self.membership_received.fetch_add(1, Ordering::Relaxed);
        } else {
            self.aggregation_received.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one query-plane datagram sent (catalog gossip or a
    /// named-query exchange frame).
    pub(crate) fn count_query_sent(&self, bytes: usize) {
        self.query_sent.fetch_add(1, Ordering::Relaxed);
        self.query_bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_query_received(&self) {
        self.query_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_rpc_reject(&self) {
        self.rpc_rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_send_error(&self) {
        self.send_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TrafficCounts {
        TrafficCounts {
            aggregation_sent: self.aggregation_sent.load(Ordering::Relaxed),
            aggregation_received: self.aggregation_received.load(Ordering::Relaxed),
            membership_sent: self.membership_sent.load(Ordering::Relaxed),
            membership_received: self.membership_received.load(Ordering::Relaxed),
            query_sent: self.query_sent.load(Ordering::Relaxed),
            query_received: self.query_received.load(Ordering::Relaxed),
            aggregation_bytes_sent: self.aggregation_bytes_sent.load(Ordering::Relaxed),
            membership_bytes_sent: self.membership_bytes_sent.load(Ordering::Relaxed),
            query_bytes_sent: self.query_bytes_sent.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            join_retries: self.join_retries.load(Ordering::Relaxed),
            rpc_rejects: self.rpc_rejects.load(Ordering::Relaxed),
        }
    }
}

/// A running cluster of real-network aggregation nodes.
///
/// Node indices are *local*: `0..node_count()` addresses the nodes this
/// handle hosts. In a sharded deployment those map to a contiguous range
/// of cluster-wide identifiers, exposed by [`Cluster::node_id`].
pub trait Cluster: Sized {
    /// Number of nodes hosted by this handle.
    fn node_count(&self) -> usize;

    /// Cluster-wide identifier of local node `index`.
    fn node_id(&self, index: usize) -> NodeId;

    /// The socket addresses this handle receives on: a shard's reader
    /// socket set, its advertised address first.
    fn addrs(&self) -> Vec<SocketAddr>;

    /// Drains the epoch reports local node `index` produced since the
    /// last call.
    fn take_reports(&self, index: usize) -> Vec<EpochReport>;

    /// Updates local node `index`'s local value (takes effect at its
    /// next epoch).
    fn set_local_value(&self, index: usize, value: f64);

    /// Datagram counts for local node `index`, split by plane.
    fn datagram_counts(&self, index: usize) -> TrafficCounts;

    /// Drains the protocol trace events local node `index` recorded since
    /// the last call. Empty unless the cluster was configured with
    /// tracing enabled.
    fn take_trace(&self, index: usize) -> Vec<epidemic_telemetry::TraceEvent> {
        let _ = index;
        Vec::new()
    }

    /// Installs a named query at local node `index`; catalog gossip
    /// spreads it to the rest of the cluster epidemically.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidDescriptor`] on a malformed descriptor,
    /// [`QueryError::Conflict`] when a live query of the same name has a
    /// different descriptor.
    fn install_query(&self, index: usize, descriptor: QueryDescriptor) -> Result<(), QueryError>;

    /// Removes (tombstones) a named query at local node `index`; the
    /// removal spreads like the install did.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when no live query of that name is
    /// installed at the node yet.
    fn remove_query(&self, index: usize, name: &str) -> Result<(), QueryError>;

    /// Submits local node `index`'s contribution to a named query,
    /// subject to the query's admission limits.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when the query is not installed at
    /// the node, [`QueryError::AdmissionRejected`] when the node's token
    /// bucket for the query is empty.
    fn submit_query(&self, index: usize, name: &str, value: f64) -> Result<(), QueryError>;

    /// Reads the named query's current estimate at local node `index`.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when the query is not installed at
    /// the node, [`QueryError::NotReady`] before the first readable
    /// state exists.
    fn query_estimate(&self, index: usize, name: &str) -> Result<QueryEstimate, QueryError>;

    /// Stops every node and waits for the runtime's threads to exit.
    fn shutdown(self);

    /// Drains every local node's epoch reports, indexed by local node.
    fn take_all_reports(&self) -> Vec<Vec<EpochReport>> {
        (0..self.node_count())
            .map(|i| self.take_reports(i))
            .collect()
    }

    /// Sum of every local node's [`TrafficCounts`].
    fn total_datagram_counts(&self) -> TrafficCounts {
        (0..self.node_count())
            .map(|i| self.datagram_counts(i))
            .fold(TrafficCounts::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_cluster_ports_are_distinct() {
        let addrs = reserve_loopback_addrs(5).unwrap();
        let mut ports: Vec<u16> = addrs.iter().map(|a| a.port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 5);
    }

    #[test]
    fn traffic_counts_sum_and_overhead() {
        let a = TrafficCounts {
            aggregation_sent: 10,
            aggregation_received: 8,
            membership_sent: 2,
            membership_received: 1,
            query_sent: 4,
            query_received: 3,
            aggregation_bytes_sent: 1_000,
            membership_bytes_sent: 250,
            query_bytes_sent: 110,
            send_errors: 1,
            join_retries: 2,
            rpc_rejects: 1,
        };
        let b = TrafficCounts {
            aggregation_sent: 1,
            aggregation_received: 2,
            membership_sent: 3,
            membership_received: 4,
            query_sent: 1,
            query_received: 2,
            aggregation_bytes_sent: 100,
            membership_bytes_sent: 50,
            query_bytes_sent: 0,
            send_errors: 2,
            join_retries: 1,
            rpc_rejects: 2,
        };
        let sum = a + b;
        assert_eq!(sum.sent(), 21);
        assert_eq!(sum.received(), 20);
        assert_eq!(sum.send_errors, 3);
        assert_eq!(sum.join_retries, 3);
        assert_eq!(sum.rpc_rejects, 3);
        assert!((sum.membership_byte_overhead() - 300.0 / 1_100.0).abs() < 1e-12);
        assert!((sum.query_byte_overhead() - 110.0 / 1_100.0).abs() < 1e-12);
        assert_eq!(TrafficCounts::default().membership_byte_overhead(), 0.0);
        assert_eq!(TrafficCounts::default().query_byte_overhead(), 0.0);
    }

    #[test]
    fn traffic_cell_snapshot_reflects_counting() {
        let cell = TrafficCell::default();
        cell.count_sent(false, 40);
        cell.count_sent(false, 60);
        cell.count_sent(true, 8);
        cell.count_received(false);
        cell.count_received(true);
        cell.count_query_sent(24);
        cell.count_query_received();
        cell.count_rpc_reject();
        cell.count_send_error();
        cell.count_send_error();
        cell.set_join_retries(4);
        let snap = cell.snapshot();
        assert_eq!(snap.aggregation_sent, 2);
        assert_eq!(snap.aggregation_bytes_sent, 100);
        assert_eq!(snap.membership_sent, 1);
        assert_eq!(snap.membership_bytes_sent, 8);
        assert_eq!(snap.query_sent, 1);
        assert_eq!(snap.query_bytes_sent, 24);
        assert_eq!(snap.query_received, 1);
        assert_eq!(snap.rpc_rejects, 1);
        assert_eq!(snap.aggregation_received, 1);
        assert_eq!(snap.membership_received, 1);
        assert_eq!(snap.send_errors, 2);
        assert_eq!(snap.join_retries, 4);
    }

    #[test]
    fn piggybacked_sends_split_bytes_across_planes() {
        let cell = TrafficCell::default();
        cell.count_piggybacked_sent(100, 30);
        cell.count_piggybacked_sent(50, 0);
        let snap = cell.snapshot();
        // Two datagrams, both on the aggregation plane…
        assert_eq!(snap.aggregation_sent, 2);
        assert_eq!(snap.membership_sent, 0);
        // …but the trailer bytes land on the membership ledger.
        assert_eq!(snap.aggregation_bytes_sent, 120);
        assert_eq!(snap.membership_bytes_sent, 30);
    }
}
