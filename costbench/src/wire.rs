//! The two wire workloads, both on the `net::mux` runtime over loopback
//! UDP, pinned to one reader and one worker thread (the runtime's own
//! core-aware default on a 2-core host), so the shape does not change
//! with the machine.
//!
//! * `agg_saturated` — the base AVERAGE aggregate alone, static
//!   directory, δ = 2 ms: 256 vnodes each keep one exchange outstanding,
//!   which is more than two cores deliver, so the cluster runs as a
//!   closed loop of `n` outstanding exchanges.
//! * `tenants_rpc` — the paper's paced regime (δ = 20 ms, γ = 8) with
//!   gossiped membership, eight tenants and one open-loop RPC client.

use crate::measure::{
    self, bytes_per_node_epoch, convergence_factor, histogram_percentile, loss_share, median,
    percentile, samples_beyond, traffic_delta, ThreadCpu,
};
use crate::replay;
use crate::spans::Tracer;
use crate::{Args, Header, Metric, Run, Window, END_TO_END};
use epidemic_aggregation::{AggregateKind, InstanceSpec, NodeConfig};
use epidemic_bench::demand::{DemandConfig, DemandGenerator};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::stats::OnlineStats;
use epidemic_net::cluster::Cluster;
use epidemic_net::codec::{decode_rpc_response, encode_rpc_request};
use epidemic_net::directory::{DirectorySpec, GossipDirectoryConfig};
use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
use epidemic_net::TrafficCounts;
use epidemic_query::{QueryDescriptor, QueryError, QueryPlaneConfig, RpcRequest, RpcStatus};
use epidemic_telemetry::registry::BUCKETS;
use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// How often the main thread drains epoch reports during a window.
const DRAIN_EVERY: Duration = Duration::from_millis(100);
/// Length of the sub-windows whose median the rate and cost metrics
/// report, so a transient stall of the shared host moves one sub-window
/// and not the run's figure.
const SUB_WINDOW: Duration = Duration::from_secs(1);
/// How long any readiness wait may take before the run gives up.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// Cumulative counters of a running cluster at one instant.
struct Snapshot {
    at: Instant,
    traffic: TrafficCounts,
    recv_calls: u64,
    send_calls: u64,
    recv_timeouts: u64,
    exchanges: u64,
    rpc_rejects: u64,
    admission_rejects: u64,
    fire_lag: [u64; BUCKETS],
    threads: BTreeMap<&'static str, ThreadCpu>,
}

fn snapshot(cluster: &MuxCluster, tracer: &mut Tracer) -> Snapshot {
    let registry = cluster.registry();
    let traffic = tracer.span("mux.datagram_counts", 0, || cluster.total_datagram_counts());
    let syscalls = tracer.span("mux.syscall_counts", 0, || cluster.syscall_counts());
    let (recv_timeouts, exchanges, rpc_rejects, admission_rejects, fire_lag) =
        tracer.span("telemetry.read_series", 0, || {
            (
                registry.counter_value("io.recv_timeouts"),
                registry.counter_value("agg.exchanges"),
                registry.counter_value("rpc.rejects"),
                registry.counter_value("query.admission_rejects"),
                registry.histogram("timer.fire_lag_us").bucket_counts(),
            )
        });
    let threads = tracer.span("proc.task_cpu", 0, measure::thread_group_cpu);
    Snapshot {
        at: Instant::now(),
        traffic,
        recv_calls: syscalls.recv_calls,
        send_calls: syscalls.send_calls,
        recv_timeouts,
        exchanges,
        rpc_rejects,
        admission_rejects,
        fire_lag,
        threads,
    }
}

/// Drained base-aggregate epoch reports, checked as they arrive.
struct Reports {
    n: usize,
    /// Hull of the initial values `0..n`: every AVERAGE estimate is a
    /// convex combination of them, under loss too.
    lo: f64,
    hi: f64,
    by_epoch: BTreeMap<u64, OnlineStats>,
    count: u64,
    bad: u64,
    first_bad: Option<String>,
}

impl Reports {
    fn new(n: usize) -> Self {
        Reports {
            n,
            lo: 0.0,
            hi: (n - 1) as f64,
            by_epoch: BTreeMap::new(),
            count: 0,
            bad: 0,
            first_bad: None,
        }
    }

    fn drain(&mut self, cluster: &MuxCluster, tracer: &mut Tracer) {
        let slack = 1e-9 * (self.hi - self.lo).abs().max(1.0);
        for node in 0..self.n {
            let reports = tracer.span("mux.take_reports", 0, || cluster.take_reports(node));
            for report in reports {
                self.count += 1;
                match report.scalar(0) {
                    Some(v) if v.is_finite() && v >= self.lo - slack && v <= self.hi + slack => {
                        self.by_epoch.entry(report.epoch).or_default().push(v);
                    }
                    other => {
                        self.bad += 1;
                        self.first_bad.get_or_insert_with(|| {
                            format!(
                                "node {node} epoch {} AVERAGE estimate {other:?} outside [{}, {}]",
                                report.epoch, self.lo, self.hi
                            )
                        });
                    }
                }
            }
        }
    }

    /// Starts a new window: forgets the per-epoch estimates and counts.
    fn reset(&mut self) {
        self.by_epoch.clear();
        self.count = 0;
    }

    /// Variance across nodes of every epoch at least half the nodes
    /// reported, leaving out the window's first and last epoch (partly
    /// drained outside it). At saturation some nodes are jumped to a
    /// newer epoch before they finish one, so no epoch has every node.
    fn epoch_variances(&self) -> Vec<f64> {
        let quorum = self.n as u64 / 2;
        let inner = self.by_epoch.len().saturating_sub(2);
        self.by_epoch
            .values()
            .skip(1)
            .take(inner)
            .filter(|s| s.count() >= quorum)
            .map(OnlineStats::population_variance)
            .collect()
    }

    fn check(&self, window: &mut Window) {
        window.attempted += self.count;
        if let Some(first) = &self.first_bad {
            window.problem(format!(
                "{} bad AVERAGE estimates; first: {first}",
                self.bad
            ));
        }
    }
}

/// Process CPU and aggregation arrivals at a sub-window boundary.
struct Tick {
    at: Instant,
    cpu_ns: u64,
    agg_received: u64,
}

fn tick(cluster: &MuxCluster) -> Tick {
    Tick {
        at: Instant::now(),
        cpu_ns: measure::process_cpu_ns(),
        agg_received: cluster.total_datagram_counts().aggregation_received,
    }
}

/// `(wall s, CPU µs, completed exchanges)` of every sub-window between
/// consecutive ticks; a trailing sub-window shorter than half the
/// nominal length is dropped.
fn sub_windows(ticks: &[Tick]) -> Vec<(f64, f64, f64)> {
    ticks
        .windows(2)
        .map(|w| {
            (
                (w[1].at - w[0].at).as_secs_f64(),
                (w[1].cpu_ns - w[0].cpu_ns) as f64 / 1_000.0,
                (w[1].agg_received - w[0].agg_received) as f64 / 2.0,
            )
        })
        .filter(|&(wall, _, _)| wall >= SUB_WINDOW.as_secs_f64() / 2.0)
        .collect()
}

/// Gauges sampled by the main thread during a window: sub-window ticks
/// always, queue depth and view health in a traced window only.
#[derive(Default)]
struct Samples {
    ticks: Vec<Tick>,
    queue_depth: Vec<f64>,
    view_dead: Vec<f64>,
}

/// Runs the main thread's side of a window until `until`: drains
/// reports, and in a traced window samples the queue-depth and
/// view-health gauges every millisecond.
fn watch(
    cluster: &MuxCluster,
    until: Instant,
    tracer: &mut Tracer,
    reports: &mut Reports,
    samples: &mut Samples,
) {
    let traced = tracer.enabled();
    let registry = cluster.registry();
    let mut next_drain = Instant::now() + DRAIN_EVERY;
    let mut next_tick = Instant::now() + SUB_WINDOW;
    loop {
        let now = Instant::now();
        if now >= until {
            break;
        }
        if now >= next_tick {
            samples.ticks.push(tick(cluster));
            next_tick += SUB_WINDOW;
        }
        if traced {
            if let Some(depth) = registry.gauge_value("worker.queue_depth") {
                samples.queue_depth.push(depth);
            }
            if samples.queue_depth.len().is_multiple_of(16) {
                if let Some(dead) = registry.gauge_value("membership.view_dead_fraction") {
                    samples.view_dead.push(dead);
                }
            }
        }
        if now >= next_drain {
            reports.drain(cluster, tracer);
            next_drain += DRAIN_EVERY;
        }
        let wake = if traced {
            now + Duration::from_millis(1)
        } else {
            next_drain.min(next_tick).min(until)
        };
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    reports.drain(cluster, tracer);
}

/// Polls until half the vnodes have reported a completed epoch. At
/// saturation about a third of the vnodes are jumped to a newer epoch
/// before they finish one, so waiting for every vnode would quantize the
/// set-up time to whole extra epochs.
fn wait_half_reported(cluster: &MuxCluster, tracer: &mut Tracer) {
    let mut waiting: Vec<usize> = (0..cluster.len()).collect();
    let quorum = cluster.len() - cluster.len() / 2;
    let deadline = Instant::now() + READY_DEADLINE;
    while waiting.len() > cluster.len() - quorum {
        tracer.span("mux.take_reports.sweep", 0, || {
            waiting.retain(|&node| cluster.take_reports(node).is_empty());
        });
        assert!(
            Instant::now() < deadline,
            "{} vnodes never reported an epoch",
            waiting.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counter deltas over the measured windows of one pass, summed over
/// every cluster spawned in it.
#[derive(Default)]
struct Delta {
    wall_s: f64,
    traffic: TrafficCounts,
    recv_calls: u64,
    send_calls: u64,
    recv_timeouts: u64,
    exchanges: u64,
    rpc_rejects: u64,
    admission_rejects: u64,
    fire_lag: Vec<u64>,
    threads: BTreeMap<&'static str, ThreadCpu>,
    /// Join retries each cluster needed to bootstrap, summed.
    join_retries: u64,
    spawns: u64,
}

impl Delta {
    fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        self.wall_s += (after.at - before.at).as_secs_f64();
        self.traffic += traffic_delta(&after.traffic, &before.traffic);
        self.recv_calls += after.recv_calls - before.recv_calls;
        self.send_calls += after.send_calls - before.send_calls;
        self.recv_timeouts += after.recv_timeouts - before.recv_timeouts;
        self.exchanges += after.exchanges - before.exchanges;
        self.rpc_rejects += after.rpc_rejects - before.rpc_rejects;
        self.admission_rejects += after.admission_rejects - before.admission_rejects;
        self.fire_lag.resize(BUCKETS, 0);
        for (sum, (a, b)) in self
            .fire_lag
            .iter_mut()
            .zip(after.fire_lag.iter().zip(&before.fire_lag))
        {
            *sum += a - b;
        }
        for (group, a) in &after.threads {
            let b = before.threads.get(group).copied().unwrap_or_default();
            let sum = self.threads.entry(group).or_default();
            sum.user_s += a.user_s - b.user_s;
            sum.sys_s += a.sys_s - b.sys_s;
        }
        self.join_retries += after.traffic.join_retries;
        self.spawns += 1;
    }
}

/// Per-layer metrics every wire workload measures from outside.
fn wire_layers(d: &Delta, samples: &Samples, node_epochs: u64, gossip: bool) -> Vec<Metric> {
    let t = &d.traffic;
    let syscalls = d.recv_calls + d.send_calls;
    let datagrams = t.sent() + t.received();
    let mut layers = vec![
        Metric::new(
            "batch.syscalls_per_datagram",
            share(syscalls as f64, datagrams as f64),
            "ratio",
            datagrams,
        ),
        Metric::new(
            "batch.recv_per_call",
            share(t.received() as f64, d.recv_calls as f64),
            "count",
            d.recv_calls,
        ),
        Metric::new(
            "batch.recv_timeout_share",
            share(d.recv_timeouts as f64, d.recv_calls as f64),
            "ratio",
            d.recv_calls,
        ),
    ];
    for group in ["reader", "worker", "timer", "rpc"] {
        let busy = format!("mux.{group}.busy_share");
        let sys = format!("mux.{group}.sys_share");
        match d.threads.get(group) {
            Some(cpu) => {
                layers.push(Metric::new(
                    &busy,
                    (cpu.user_s + cpu.sys_s) / d.wall_s,
                    "ratio",
                    d.spawns,
                ));
                layers.push(Metric::new(&sys, cpu.sys_s / d.wall_s, "ratio", d.spawns));
            }
            None => {
                let why = format!("no mux-{group} thread in this workload");
                layers.push(Metric::absent(&busy, "ratio", &why));
                layers.push(Metric::absent(&sys, "ratio", &why));
            }
        }
    }
    layers.push(Metric::new(
        "mux.queue_depth_p99",
        percentile(&samples.queue_depth, 99.0),
        "count",
        samples.queue_depth.len() as u64,
    ));
    layers.push(
        Metric::new(
            "mux.completion_share",
            share(t.aggregation_received as f64 / 2.0, d.exchanges as f64),
            "ratio",
            d.exchanges,
        )
        .with_note("aggregation datagrams received / 2 per agg.exchanges"),
    );
    let fires: u64 = d.fire_lag.iter().sum();
    for (name, p) in [
        ("timer.fire_lag_p50_us", 50.0),
        ("timer.fire_lag_p99_us", 99.0),
    ] {
        layers.push(
            Metric::new(
                name,
                histogram_percentile(&d.fire_lag, p).unwrap_or(0) as f64,
                "us",
                fires,
            )
            .with_note("upper bound of the log2 bucket; lag is recorded in whole ms"),
        );
    }
    if gossip {
        layers.push(Metric::new(
            "directory.view_dead_fraction",
            median(&samples.view_dead),
            "ratio",
            samples.view_dead.len() as u64,
        ));
    } else {
        layers.push(Metric::absent(
            "directory.view_dead_fraction",
            "ratio",
            "static directory has no view",
        ));
    }
    layers.push(
        Metric::new(
            "directory.join_retries",
            share(d.join_retries as f64, d.spawns as f64),
            "count",
            d.spawns,
        )
        .with_note("per cluster spawn"),
    );
    for (name, bytes) in [
        (
            "plane.aggregation_bytes_per_node_epoch",
            t.aggregation_bytes_sent,
        ),
        (
            "plane.membership_bytes_per_node_epoch",
            t.membership_bytes_sent,
        ),
        ("plane.query_bytes_per_node_epoch", t.query_bytes_sent),
    ] {
        layers.push(Metric::new(
            name,
            share(bytes as f64, node_epochs as f64),
            "B",
            node_epochs,
        ));
    }
    layers.push(Metric::new(
        "query.admission_rejects",
        d.admission_rejects as f64,
        "count",
        1,
    ));
    layers.push(Metric::new("rpc.rejects", d.rpc_rejects as f64, "count", 1));
    for (name, unit) in [
        ("sim.new_s", "s"),
        ("sim.ns_per_msg", "ns"),
        ("sim.self_ns_per_msg", "ns"),
        ("sim.messages", "count"),
        ("sim.messages_lost", "count"),
    ] {
        layers.push(Metric::absent(
            name,
            unit,
            "wire workload runs no simulator",
        ));
    }
    layers
}

/// The gated metrics, in [`END_TO_END`] order.
fn gated(setup_s: f64, setups: u64, cpu_us_per_op: f64, ops: u64, peak_rss_mb: f64) -> Vec<Metric> {
    let values = [(setup_s, setups), (cpu_us_per_op, ops), (peak_rss_mb, 1)];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), (value, samples))| Metric::new(name, value, unit, samples))
        .collect()
}

/// Base-aggregate node configuration of the wire workloads.
pub fn base_config(gamma: u32, cycle_ms: u64) -> NodeConfig {
    NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(cycle_ms)
        .timeout((cycle_ms / 2).max(1))
        .instance(InstanceSpec::AVERAGE)
        .build()
        .expect("valid base node config")
}

fn var_of_indices(n: usize) -> f64 {
    (0..n)
        .map(|i| i as f64)
        .collect::<OnlineStats>()
        .population_variance()
}

pub const AGG_N: usize = 256;
pub const AGG_CYCLE_MS: u64 = 2;
pub const AGG_GAMMA: u32 = 20;
/// Seconds of the window each spawned cluster is measured for. A pass
/// spawns one cluster per share: each is set up (a `setup_s` sample),
/// warmed and measured, so a run's figures do not hang on one spawn's
/// thread placement.
const AGG_SPAWN_S: f64 = 2.0;

fn agg_config(seed: u64) -> MuxClusterConfig {
    MuxClusterConfig::new(AGG_N, base_config(AGG_GAMMA, AGG_CYCLE_MS))
        .with_seed(seed)
        .with_readers(1)
        .with_workers(1)
}

/// One pass of `agg_saturated`: every spawn set up, warmed and measured.
fn agg_pass(args: &Args, tracer: &mut Tracer, header: &mut Header) -> Window {
    let spawns = spawn_count(args.seconds, AGG_SPAWN_S);
    let share_of_window = Duration::from_secs_f64(args.seconds / spawns as f64);
    let mut w = Window::default();
    let mut setups = Vec::with_capacity(spawns);
    let mut delta = Delta::default();
    let mut samples = Samples::default();
    let mut subs = Vec::new();
    let mut variances = Vec::new();
    let mut reported = 0u64;
    let mut peak_rss_mb = f64::NAN;
    for spawn in 0..spawns {
        let start = Instant::now();
        let cluster = tracer
            .span("mux.spawn", 0, || {
                MuxCluster::spawn(agg_config(args.seed), |i| i as f64)
            })
            .expect("spawn agg_saturated cluster");
        wait_half_reported(&cluster, tracer);
        setups.push(start.elapsed().as_secs_f64());
        header.runtime_threads = cluster.thread_count();
        let mut reports = Reports::new(AGG_N);
        // Warm-up: let the work queue and socket buffers reach steady
        // state.
        let warm = Instant::now() + Duration::from_millis(300);
        watch(
            &cluster,
            warm,
            tracer,
            &mut reports,
            &mut Samples::default(),
        );
        reports.reset();
        samples.ticks.clear();
        let before = snapshot(&cluster, tracer);
        samples.ticks.push(tick(&cluster));
        watch(
            &cluster,
            before.at + share_of_window,
            tracer,
            &mut reports,
            &mut samples,
        );
        samples.ticks.push(tick(&cluster));
        let after = snapshot(&cluster, tracer);
        if spawn == 0 {
            peak_rss_mb = measure::peak_rss_mb();
        }
        delta.add(&before, &after);
        subs.extend(sub_windows(&samples.ticks));
        variances.extend(reports.epoch_variances());
        reported += reports.count;
        reports.check(&mut w);
        tracer.span("mux.shutdown", 0, || cluster.shutdown());
    }
    let completed = delta.traffic.aggregation_received as f64 / 2.0;
    let rates: Vec<f64> = subs.iter().map(|&(wall, _, ops)| ops / wall).collect();
    let rate = median(&rates);
    let cpu_per = median(
        &subs
            .iter()
            .map(|&(_, cpu, ops)| share(cpu, ops))
            .collect::<Vec<_>>(),
    );
    w.end_to_end = gated(
        median(&setups),
        setups.len() as u64,
        cpu_per,
        subs.len() as u64,
        peak_rss_mb,
    );
    let how = format!(
        "median of {} 1-s sub-windows (range {:.0}..{:.0}), {completed} exchanges",
        subs.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
    );
    w.detail = vec![
        Metric::new("exchange_rate", rate, "1/s", subs.len() as u64).with_note(how.clone()),
        Metric::new("cpu_us_per_exchange", cpu_per, "us", subs.len() as u64).with_note(how),
        Metric::new(
            "loss_share",
            loss_share(&delta.traffic),
            "ratio",
            delta.traffic.sent(),
        ),
        Metric::new(
            "convergence_factor",
            convergence_factor(&variances, var_of_indices(AGG_N), AGG_GAMMA).unwrap_or(f64::NAN),
            "ratio",
            variances.len() as u64,
        )
        .with_note("theory 0.303"),
    ];
    w.layers = wire_layers(&delta, &samples, reported, false);
    for (name, unit) in [("query.rollout_s", "s"), ("client.send_lag_p99_us", "us")] {
        w.layers.push(Metric::absent(
            name,
            unit,
            "agg_saturated has no tenants or client",
        ));
    }
    w
}

/// `agg_saturated`: see the module docs.
pub fn agg_saturated(args: &Args, tracer: &mut Tracer) -> Run {
    let mut header = Header {
        runtime_threads: 0,
        shape: format!(
            "agg_saturated: n={AGG_N} delta={AGG_CYCLE_MS}ms gamma={AGG_GAMMA} readers=1 workers=1 \
             static directory, base AVERAGE only, values i, {} spawns per pass",
            spawn_count(args.seconds, AGG_SPAWN_S)
        ),
    };
    tracer.set_enabled(false);
    let untraced = agg_pass(args, tracer, &mut header);
    let (traced, replay) = if args.trace {
        tracer.set_enabled(true);
        let traced = agg_pass(args, tracer, &mut header);
        (
            Some(traced),
            replay::wire(replay::Mix::Saturated, args.seed, tracer),
        )
    } else {
        (None, Vec::new())
    };
    Run {
        header,
        untraced,
        traced,
        replay,
    }
}

/// 64 vnodes: every vnode runs ten aggregation schedules (base plus nine
/// tenants), and at 256 — or even 128 — they saturate the single worker
/// on a 2-core host, where this regime must stay below capacity.
pub const TEN_N: usize = 64;
pub const TEN_CYCLE_MS: u64 = 20;
pub const TEN_GAMMA: u32 = 8;
/// Seconds of the window each spawned cluster is measured for, as in
/// `agg_saturated`.
const TEN_SPAWN_S: f64 = 10.0 / 3.0;
/// Clusters a pass sets up only for `setup_s`, on top of the measured
/// ones. Rollout ends with anti-entropy catalog gossip, so set-up time
/// comes in steps of the 250-ms gossip period (0.5 s, 0.75 s, 1 s, ...);
/// with few samples the median flips between steps from run to run.
const TEN_EXTRA_SETUPS: usize = 12;

/// How many clusters a pass of `seconds` spawns, each measured for about
/// `per_spawn_s`.
fn spawn_count(seconds: f64, per_spawn_s: f64) -> usize {
    ((seconds / per_spawn_s).round() as usize).max(1)
}

/// Tenant kinds by popularity rank: six AVERAGE, two SUM.
pub const TENANT_KINDS: [AggregateKind; 8] = [
    AggregateKind::Average,
    AggregateKind::Average,
    AggregateKind::Average,
    AggregateKind::Average,
    AggregateKind::Average,
    AggregateKind::Average,
    AggregateKind::Sum,
    AggregateKind::Sum,
];
/// A ninth tenant the client removes and re-installs; nothing reads or
/// submits to it, so its absence never fails a request.
const CHURN_TENANT: &str = "bench.churn";
/// Default contribution of every tenant; submits draw from `[0, 100)`.
const TENANT_DEFAULT: f64 = 50.0;
/// A response later than this after its due time counts as failed.
const RPC_LIMIT: Duration = Duration::from_millis(100);
/// Seconds between a churn remove and the next re-install (and back).
const CHURN_HALF_PERIOD_S: f64 = 1.0;

fn tenant_name(rank: usize) -> String {
    format!("bench.t{rank}")
}

/// Descriptor of tenant `name`: the base aggregate's epoch geometry.
pub fn tenant_descriptor(name: &str, kind: AggregateKind) -> QueryDescriptor {
    QueryDescriptor::new(name, kind)
        .with_gamma(TEN_GAMMA)
        .with_cycle_length(TEN_CYCLE_MS)
        .with_default_value(TENANT_DEFAULT)
}

/// The catalog of the `tenants_rpc` workload, churn tenant included.
pub fn tenant_catalog() -> Vec<QueryDescriptor> {
    let mut all: Vec<QueryDescriptor> = TENANT_KINDS
        .iter()
        .enumerate()
        .map(|(rank, &kind)| tenant_descriptor(&tenant_name(rank), kind))
        .collect();
    all.push(tenant_descriptor(CHURN_TENANT, AggregateKind::Average));
    all
}

/// Gossiped-membership configuration of the `tenants_rpc` workload.
pub fn tenant_directory() -> GossipDirectoryConfig {
    GossipDirectoryConfig::new(20, 8 * TEN_CYCLE_MS).with_introducer_node(0)
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone)]
enum Op {
    Read(usize),
    Submit(usize, f64),
    Remove,
    Install,
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Read(_) => "read",
            Op::Submit(..) => "submit",
            Op::Remove => "remove",
            Op::Install => "install",
        }
    }
}

#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    op: Op,
}

/// The open-loop schedule of one window: Zipf(1.0) tenant popularity
/// over Poisson bursts (400 requests/s on average), half reads and half
/// submits, plus the churn tenant's removal 0.5 s in and its re-install
/// a second later, repeated every 2 s while the window lasts.
fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut demand = DemandGenerator::new(
        DemandConfig {
            queries: TENANT_KINDS.len(),
            zipf_s: 1.0,
            mean_interarrival_ms: 10.0,
            mean_burst: 4.0,
        },
        seed,
    );
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x00C1_1E27);
    let mut planned = Vec::new();
    loop {
        let burst = demand.next_burst();
        let due_s = burst.at_ms / 1_000.0;
        if due_s >= seconds {
            break;
        }
        for _ in 0..burst.size {
            let op = if rng.next_bool(0.5) {
                Op::Read(burst.query)
            } else {
                Op::Submit(burst.query, rng.next_f64() * 100.0)
            };
            planned.push(Planned { due_s, op });
        }
    }
    // Churn: remove at 0.5 s, re-install at 1.5 s, …, always ending
    // installed so the next window starts from the same state.
    let mut t = 0.5;
    while t + CHURN_HALF_PERIOD_S + 0.3 < seconds {
        planned.push(Planned {
            due_s: t,
            op: Op::Remove,
        });
        planned.push(Planned {
            due_s: t + CHURN_HALF_PERIOD_S,
            op: Op::Install,
        });
        t += 2.0 * CHURN_HALF_PERIOD_S;
    }
    planned.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    planned
}

/// What the client thread measured over one window.
struct ClientResult {
    /// Per attempted request: latency from due time in µs (infinite for
    /// a failed request).
    latencies_us: Vec<f64>,
    send_lags_us: Vec<f64>,
    reads: u64,
    submits: u64,
    failed: u64,
    /// Failed requests by reason (`missing`, `late`, or the non-`Ok`
    /// status) and operation.
    failures: BTreeMap<String, u64>,
    /// CPU the client thread itself used — load generation, not system
    /// cost.
    cpu_ns: u64,
    problems: Vec<String>,
    tracer: Tracer,
}

/// Per-tenant hull of the default and every value submitted so far to
/// one cluster.
type Hulls = Vec<(f64, f64)>;

fn build_request(op: &Op, id: u64, hulls: &mut Hulls) -> RpcRequest {
    match op {
        Op::Read(rank) => RpcRequest::Read {
            id,
            name: tenant_name(*rank),
        },
        Op::Submit(rank, value) => {
            let h = &mut hulls[*rank];
            h.0 = h.0.min(*value);
            h.1 = h.1.max(*value);
            RpcRequest::Submit {
                id,
                name: tenant_name(*rank),
                value: *value,
            }
        }
        Op::Remove => RpcRequest::Remove {
            id,
            name: CHURN_TENANT.into(),
        },
        Op::Install => RpcRequest::Install {
            id,
            descriptor: tenant_descriptor(CHURN_TENANT, AggregateKind::Average),
        },
    }
}

/// Sends `plan` open-loop to `rpc_addr` from one UDP socket, timing each
/// request from its due time, and checks every response.
fn run_client(
    plan: &[Planned],
    rpc_addr: SocketAddr,
    id_base: u64,
    hulls: &mut Hulls,
    mut tracer: Tracer,
) -> ClientResult {
    let cpu_start = measure::thread_cpu_ns();
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    socket
        .set_nonblocking(true)
        .expect("non-blocking client socket");
    let mut sent_at: Vec<Option<Instant>> = vec![None; plan.len()];
    let mut answered: Vec<Option<(Instant, RpcStatus, f64)>> = vec![None; plan.len()];
    let mut hull_at_send: Vec<(f64, f64)> = vec![(0.0, 0.0); plan.len()];
    let mut problems = Vec::new();
    let mut send_lags_us = Vec::with_capacity(plan.len());
    let start = Instant::now();
    let due = |k: usize| start + Duration::from_secs_f64(plan[k].due_s);
    let last_wait = due(plan.len().saturating_sub(1)) + RPC_LIMIT + Duration::from_millis(50);
    let mut next = 0usize;
    let mut open = 0usize;
    let mut buf = [0u8; 256];
    loop {
        while next < plan.len() && due(next) <= Instant::now() {
            let id = id_base + next as u64;
            let request = build_request(&plan[next].op, id, hulls);
            if let Op::Read(rank) = &plan[next].op {
                hull_at_send[next] = hulls[*rank];
            }
            let frame = encode_rpc_request(&request);
            let span = tracer.begin("rpc.send", id);
            let sent = socket.send_to(&frame, rpc_addr);
            tracer.end(span);
            let at = Instant::now();
            if sent.is_ok() {
                sent_at[next] = Some(at);
                open += 1;
            }
            send_lags_us.push((at - due(next)).as_secs_f64() * 1e6);
            next += 1;
        }
        loop {
            let span = tracer.begin("rpc.recv", 0);
            let got = socket.recv_from(&mut buf);
            tracer.end(span);
            let Ok((len, _)) = got else { break };
            let at = Instant::now();
            let Ok(response) = decode_rpc_response(&buf[..len]) else {
                problems.push(format!("undecodable {len}-byte RPC response"));
                continue;
            };
            let Some(k) = response
                .id
                .checked_sub(id_base)
                .map(|k| k as usize)
                .filter(|&k| k < plan.len() && sent_at[k].is_some())
            else {
                problems.push(format!(
                    "RPC response id {} matches no request",
                    response.id
                ));
                continue;
            };
            if answered[k].is_some() {
                problems.push(format!("duplicate RPC response id {}", response.id));
                continue;
            }
            answered[k] = Some((at, response.status, response.estimate));
            open -= 1;
        }
        let horizon = if next < plan.len() {
            due(next)
        } else if open > 0 && Instant::now() < last_wait {
            last_wait
        } else {
            break;
        };
        measure::wait_readable(&socket, horizon.saturating_duration_since(Instant::now()));
    }

    let mut latencies_us = Vec::with_capacity(plan.len());
    let (mut failed, mut reads, mut submits) = (0u64, 0u64, 0u64);
    let mut failures = BTreeMap::new();
    for (k, p) in plan.iter().enumerate() {
        let id = id_base + k as u64;
        let ok_in_time = match answered[k] {
            Some((at, RpcStatus::Ok, estimate)) if at <= due(k) + RPC_LIMIT => {
                tracer.record("rpc.request", due(k), at, id);
                if let Op::Read(rank) = p.op {
                    check_read(rank, estimate, hull_at_send[k], id, &mut problems);
                }
                latencies_us.push((at - due(k)).as_secs_f64() * 1e6);
                true
            }
            _ => false,
        };
        if !ok_in_time {
            failed += 1;
            latencies_us.push(f64::INFINITY);
            let why = match answered[k] {
                None => "missing".to_string(),
                Some((_, RpcStatus::Ok, _)) => "late".to_string(),
                Some((_, status, _)) => format!("{status:?}"),
            };
            *failures
                .entry(format!("{why} {}", p.op.name()))
                .or_insert(0) += 1;
        }
        match p.op {
            Op::Read(_) => reads += 1,
            Op::Submit(..) => submits += 1,
            _ => {}
        }
    }
    ClientResult {
        latencies_us,
        send_lags_us,
        reads,
        submits,
        failed,
        failures,
        cpu_ns: measure::thread_cpu_ns() - cpu_start,
        problems,
        tracer,
    }
}

/// An `Ok` read must be finite and, for AVERAGE, inside the hull of the
/// default and every value submitted to the tenant before the read was
/// sent. A SUM is that average times a COUNT estimate, which has no
/// hull of its own; every value is non-negative, so a SUM read must be
/// too.
fn check_read(rank: usize, estimate: f64, hull: (f64, f64), id: u64, problems: &mut Vec<String>) {
    let (lo, hi) = match TENANT_KINDS[rank] {
        AggregateKind::Sum => (0.0, f64::INFINITY),
        _ => hull,
    };
    let slack = 1e-9 * hull.1.abs().max(1.0);
    if !(estimate.is_finite() && estimate >= lo - slack && estimate <= hi + slack) {
        problems.push(format!(
            "read {id} of {} returned {estimate}, outside [{lo}, {hi}]",
            tenant_name(rank)
        ));
    }
}

/// Current epoch of every (node, stable tenant) pair; `None` where the
/// tenant is not readable yet.
fn tenant_epochs(cluster: &MuxCluster, tracer: &mut Tracer) -> Vec<Option<u64>> {
    let names: Vec<String> = (0..TENANT_KINDS.len()).map(tenant_name).collect();
    tracer.span("mux.query_estimate.sweep", 0, || {
        (0..cluster.len())
            .flat_map(|node| names.iter().map(move |name| (node, name)))
            .map(|(node, name)| cluster.query_estimate(node, name).ok().map(|e| e.epoch))
            .collect()
    })
}

/// Polls (draining reports) until every stable tenant is readable at
/// every vnode. A COUNT-composed tenant answers `NotReady` at a vnode
/// until that vnode's first epoch with COUNT mass closes, which can take
/// a few epochs after rollout.
fn wait_all_readable(cluster: &MuxCluster, tracer: &mut Tracer, reports: &mut Reports) {
    let deadline = Instant::now() + READY_DEADLINE;
    while tenant_epochs(cluster, tracer).iter().any(Option::is_none) {
        assert!(
            Instant::now() < deadline,
            "some tenant never became readable at some vnode"
        );
        let next = Instant::now() + Duration::from_millis(10);
        watch(cluster, next, tracer, reports, &mut Samples::default());
    }
}

/// Spawns the `tenants_rpc` cluster and installs the catalog; returns
/// the cluster, the setup time and the rollout time (install to every
/// tenant known at every vnode).
fn tenants_setup(seed: u64, tracer: &mut Tracer) -> (MuxCluster, f64, f64) {
    let start = Instant::now();
    let config = MuxClusterConfig::new(TEN_N, base_config(TEN_GAMMA, TEN_CYCLE_MS))
        .with_seed(seed)
        .with_readers(1)
        .with_workers(1)
        .with_directory(DirectorySpec::Gossip(tenant_directory()))
        .with_query_config(QueryPlaneConfig::default())
        .with_rpc_addr("127.0.0.1:0".parse().expect("loopback address"));
    let cluster = tracer
        .span("mux.spawn", 0, || MuxCluster::spawn(config, |i| i as f64))
        .expect("spawn tenants_rpc cluster");
    let installed = Instant::now();
    let catalog = tenant_catalog();
    for descriptor in &catalog {
        tracer
            .span("mux.install_query", 0, || {
                cluster.install_query(0, descriptor.clone())
            })
            .expect("install tenant");
    }
    let deadline = Instant::now() + READY_DEADLINE;
    let mut known = vec![false; TEN_N * catalog.len()];
    let mut missing = known.len();
    while missing > 0 {
        tracer.span("mux.query_estimate.sweep", 0, || {
            for (slot, done) in known.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let (node, q) = (slot / catalog.len(), slot % catalog.len());
                let est = cluster.query_estimate(node, &catalog[q].name);
                if !matches!(est, Err(QueryError::UnknownQuery)) {
                    *done = true;
                    missing -= 1;
                }
            }
        });
        assert!(
            Instant::now() < deadline,
            "tenant rollout stalled: {missing} (vnode, tenant) pairs unknown"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let rollout = installed.elapsed().as_secs_f64();
    (cluster, start.elapsed().as_secs_f64(), rollout)
}

/// One pass of `tenants_rpc`: every spawn set up, warmed and measured
/// under the same open-loop schedule.
fn tenants_pass(args: &Args, tracer: &mut Tracer, header: &mut Header) -> Window {
    let spawns = spawn_count(args.seconds, TEN_SPAWN_S);
    let share_s = args.seconds / spawns as f64;
    let schedule = plan(args.seed, share_s);
    let mut w = Window::default();
    let (mut setups, mut rollouts) = (Vec::new(), Vec::new());
    let mut delta = Delta::default();
    let mut samples = Samples::default();
    let mut subs = Vec::new();
    let mut variances = Vec::new();
    let mut latencies_us = Vec::new();
    let mut send_lags_us = Vec::new();
    let (mut node_epochs, mut client_cpu_ns, mut reads, mut submits) = (0u64, 0u64, 0u64, 0u64);
    let mut id_base = 1u64;
    let mut peak_rss_mb = f64::NAN;
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    for spawn in 0..spawns {
        let (cluster, setup, rollout) = tenants_setup(args.seed, tracer);
        setups.push(setup);
        rollouts.push(rollout);
        header.runtime_threads = cluster.thread_count();
        let rpc_addr = cluster.rpc_addr().expect("rpc listener bound");
        let mut reports = Reports::new(TEN_N);
        let warm = Instant::now() + Duration::from_millis(500);
        watch(
            &cluster,
            warm,
            tracer,
            &mut reports,
            &mut Samples::default(),
        );
        wait_all_readable(&cluster, tracer, &mut reports);
        reports.reset();
        samples.ticks.clear();
        let epochs_before = tenant_epochs(&cluster, tracer);
        let before = snapshot(&cluster, tracer);
        samples.ticks.push(tick(&cluster));
        let until = before.at + Duration::from_secs_f64(share_s);
        let client_tracer = tracer.child();
        let mut hulls: Hulls = vec![(TENANT_DEFAULT, TENANT_DEFAULT); TENANT_KINDS.len()];
        let base = id_base;
        id_base += schedule.len() as u64;
        let client = std::thread::scope(|scope| {
            let handle = std::thread::Builder::new()
                .name("bench-client".into())
                .spawn_scoped(scope, || {
                    run_client(&schedule, rpc_addr, base, &mut hulls, client_tracer)
                })
                .expect("spawn client thread");
            watch(&cluster, until, tracer, &mut reports, &mut samples);
            handle.join().expect("client thread panicked")
        });
        samples.ticks.push(tick(&cluster));
        let after = snapshot(&cluster, tracer);
        let epochs_after = tenant_epochs(&cluster, tracer);
        if spawn == 0 {
            peak_rss_mb = measure::peak_rss_mb();
        }
        tracer.span("mux.shutdown", 0, || cluster.shutdown());
        let tenant_epochs: u64 = epochs_before
            .iter()
            .zip(&epochs_after)
            .filter_map(|(b, a)| Some(a.as_ref()?.saturating_sub(*b.as_ref()?)))
            .sum();
        node_epochs += reports.count + tenant_epochs;
        delta.add(&before, &after);
        // The load generator's own CPU is not a cost of the system: take
        // it out of every sub-window pro rata.
        let client_us_per_s = client.cpu_ns as f64 / 1_000.0 / (after.at - before.at).as_secs_f64();
        subs.extend(
            sub_windows(&samples.ticks)
                .into_iter()
                .map(|(wall, cpu, ops)| (wall, cpu - client_us_per_s * wall, ops)),
        );
        client_cpu_ns += client.cpu_ns;
        variances.extend(reports.epoch_variances());
        latencies_us.extend(client.latencies_us);
        send_lags_us.extend(client.send_lags_us);
        reads += client.reads;
        submits += client.submits;
        w.failed += client.failed;
        for (why, count) in client.failures {
            *failures.entry(why).or_insert(0) += count;
        }
        for p in client.problems.iter().take(10) {
            w.problem(p.clone());
        }
        tracer.absorb(client.tracer);
        reports.check(&mut w);
    }
    // After the measured spawns, so the first one's peak memory is not
    // inflated by the heap left behind by a dozen earlier clusters.
    for _ in 0..TEN_EXTRA_SETUPS {
        let (cluster, setup, rollout) = tenants_setup(args.seed, tracer);
        setups.push(setup);
        rollouts.push(rollout);
        tracer.span("mux.shutdown", 0, || cluster.shutdown());
    }
    // Node-epochs come at the protocol's cadence, so their rate is taken
    // over the whole pass; CPU per second is the median over
    // sub-windows.
    let node_epochs_per_s = node_epochs as f64 / delta.wall_s;
    let cpu_us_per_s = median(
        &subs
            .iter()
            .map(|&(wall, cpu, _)| cpu / wall)
            .collect::<Vec<_>>(),
    );
    let cpu_per = share(cpu_us_per_s, node_epochs_per_s);
    let attempted = latencies_us.len() as u64;
    // Epoch reports were counted into `attempted` by the checks above;
    // for this workload the checked operations are the RPCs.
    w.attempted = attempted;
    w.end_to_end = gated(
        median(&setups),
        setups.len() as u64,
        cpu_per,
        subs.len() as u64,
        peak_rss_mb,
    );
    let beyond = samples_beyond(&latencies_us, 99.0) as u64;
    w.detail = vec![
        Metric::new("node_epochs_per_s", node_epochs_per_s, "1/s", node_epochs),
        Metric::new("cpu_us_per_node_epoch", cpu_per, "us", node_epochs).with_note(format!(
            "CPU: median of {} 1-s sub-windows, load generator ({:.3} s CPU) excluded",
            subs.len(),
            client_cpu_ns as f64 / 1e9
        )),
        Metric::new(
            "bytes_per_node_epoch",
            bytes_per_node_epoch(&delta.traffic, node_epochs),
            "B",
            node_epochs,
        ),
        Metric::new(
            "loss_share",
            loss_share(&delta.traffic),
            "ratio",
            delta.traffic.sent(),
        ),
        Metric::new(
            "convergence_factor",
            convergence_factor(&variances, var_of_indices(TEN_N), TEN_GAMMA).unwrap_or(f64::NAN),
            "ratio",
            variances.len() as u64,
        )
        .with_note("theory 0.303"),
        Metric::new(
            "rpc_p50_us",
            percentile(&latencies_us, 50.0),
            "us",
            attempted,
        )
        .with_note(format!("{reads} reads, {submits} submits")),
        Metric::new(
            "rpc_p99_us",
            percentile(&latencies_us, 99.0),
            "us",
            attempted,
        )
        .with_note(format!("{beyond} samples beyond it")),
        Metric::new(
            "rpc_fail_share",
            share(w.failed as f64, attempted as f64),
            "ratio",
            attempted,
        )
        .with_note(format!("{failures:?}")),
    ];
    w.layers = wire_layers(&delta, &samples, node_epochs, true);
    w.layers.push(Metric::new(
        "query.rollout_s",
        median(&rollouts),
        "s",
        rollouts.len() as u64,
    ));
    w.layers.push(Metric::new(
        "client.send_lag_p99_us",
        percentile(&send_lags_us, 99.0),
        "us",
        send_lags_us.len() as u64,
    ));
    if attempted < 1_000 {
        w.problem(format!(
            "only {attempted} RPC samples; p99 needs at least 1000"
        ));
    }
    w
}

/// `tenants_rpc`: see the module docs.
pub fn tenants_rpc(args: &Args, tracer: &mut Tracer) -> Run {
    let mut header = Header {
        runtime_threads: 0,
        shape: format!(
            "tenants_rpc: n={TEN_N} delta={TEN_CYCLE_MS}ms gamma={TEN_GAMMA} readers=1 workers=1 \
             NEWSCAST c=20 (delta views, piggyback), 8 tenants (6 AVERAGE, 2 SUM) + 1 churned, \
             open-loop client ~400 req/s, limit {} ms, {} spawns per pass",
            RPC_LIMIT.as_millis(),
            spawn_count(args.seconds, TEN_SPAWN_S)
        ),
    };
    tracer.set_enabled(false);
    let untraced = tenants_pass(args, tracer, &mut header);
    let (traced, replay) = if args.trace {
        tracer.set_enabled(true);
        let traced = tenants_pass(args, tracer, &mut header);
        (
            Some(traced),
            replay::wire(replay::Mix::Tenants, args.seed, tracer),
        )
    } else {
        (None, Vec::new())
    };
    Run {
        header,
        untraced,
        traced,
        replay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_schedule(seed: u64, seconds: f64) -> Vec<(f64, String)> {
        plan(seed, seconds)
            .into_iter()
            .map(|p| (p.due_s, p.op.name().to_string()))
            .collect()
    }

    #[test]
    fn client_schedule_is_a_function_of_the_seed() {
        let a = client_schedule(3, 5.0);
        assert_eq!(a, client_schedule(3, 5.0));
        assert_ne!(a, client_schedule(4, 5.0));
        // ~400 requests/s plus the churn pairs.
        assert!(a.len() > 1_500 && a.len() < 2_500, "{} requests", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let removes = a.iter().filter(|(_, op)| op == "remove").count();
        let installs = a.iter().filter(|(_, op)| op == "install").count();
        assert_eq!(removes, installs);
        assert!(removes >= 2);
    }

    #[test]
    fn reads_are_checked_against_the_submitted_hull() {
        let mut problems = Vec::new();
        check_read(0, 60.0, (50.0, 70.0), 1, &mut problems);
        check_read(7, 256.0 * 55.0, (50.0, 70.0), 2, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        check_read(0, 80.0, (50.0, 70.0), 3, &mut problems);
        check_read(0, f64::NAN, (50.0, 70.0), 4, &mut problems);
        check_read(7, -1.0, (50.0, 70.0), 5, &mut problems);
        assert_eq!(problems.len(), 3);
    }
}
