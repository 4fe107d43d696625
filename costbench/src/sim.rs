//! The `sim_churn` workload: the event simulator reproducing the paper's
//! robustness setting — NEWSCAST (c = 30) gossiped event by event, 1%
//! churn per cycle (Figure 8a's rate), 5% message loss, ±2% clock drift,
//! AVERAGE plus COUNT with about 20 concurrent leader instances. No
//! sockets: net-layer changes should leave it unchanged.

use crate::measure::{self, median, relative_spread};
use crate::replay;
use crate::spans::Tracer;
use crate::{Args, Header, Metric, Run, Window, END_TO_END, PER_LAYER};
use epidemic_aggregation::{InstanceSpec, NodeConfig};
use epidemic_common::rng::Xoshiro256;
use epidemic_sim::event::{EventConfig, EventOutcome, EventSim};
use epidemic_sim::failure::{CommFailure, FailureModel};
use epidemic_sim::scenario::{OverlaySpec, Scenario, ValueInit};
use std::time::Instant;

/// Simulated population; constant under substitution churn.
pub const SIM_N: usize = 1_000;
/// NEWSCAST view size.
pub const SIM_VIEW: usize = 30;
/// Ticks per cycle.
pub const SIM_CYCLE: u64 = 1_000;
const SIM_GAMMA: u32 = 20;
/// Cycles simulated per run: two full epochs.
const SIM_CYCLES: u64 = 2 * SIM_GAMMA as u64 + 1;
/// Extra `EventSim::new` builds timed per window for `setup_s`.
const SETUP_BUILDS: usize = 10;
/// Expected concurrent COUNT leader instances.
pub const SIM_LEADERS: f64 = 20.0;

/// Protocol configuration of every simulated node.
pub fn sim_node_config() -> NodeConfig {
    NodeConfig::builder()
        .gamma(SIM_GAMMA)
        .cycle_length(SIM_CYCLE)
        .timeout(200)
        .instance(InstanceSpec::AVERAGE)
        .instance(InstanceSpec::count(SIM_LEADERS))
        .initial_size_guess(SIM_N as f64)
        .build()
        .expect("valid sim node config")
}

fn sim_config() -> EventConfig {
    EventConfig {
        scenario: Scenario {
            n: SIM_N,
            overlay: OverlaySpec::Newscast { c: SIM_VIEW },
            values: ValueInit::Uniform { lo: 0.0, hi: 100.0 },
            failure: FailureModel::Churn {
                per_cycle: SIM_N / 100,
            },
            comm: CommFailure::messages(0.05),
            joiner_value: 50.0,
            ..Scenario::default()
        },
        node: sim_node_config(),
        delay: (10, 50),
        drift: 0.02,
        duration: SIM_CYCLES * SIM_CYCLE,
        ..EventConfig::default()
    }
}

/// One simulator run: set-up and run times, CPU and outcome counts.
struct Rep {
    new_s: f64,
    run_s: f64,
    run_cpu_s: f64,
    messages: u64,
    lost: u64,
    view_messages: u64,
    view_lost: u64,
    reports: u64,
    exchanges: u64,
    rel_errs: Vec<f64>,
    bad_average: Option<String>,
}

impl Rep {
    fn total_messages(&self) -> u64 {
        self.messages + self.view_messages
    }

    fn counts(&self) -> [u64; 5] {
        [
            self.messages,
            self.lost,
            self.view_messages,
            self.view_lost,
            self.reports,
        ]
    }
}

fn run_once(config: &EventConfig, seed: u64, tracer: &mut Tracer) -> Rep {
    let start = Instant::now();
    let sim = tracer.span("sim.new", seed, || EventSim::new(config, seed));
    let new_s = start.elapsed().as_secs_f64();
    let cpu = measure::thread_cpu_ns();
    let start = Instant::now();
    let outcome: EventOutcome = tracer.span("sim.run", seed, || sim.run());
    let run_s = start.elapsed().as_secs_f64();
    let run_cpu_s = (measure::thread_cpu_ns() - cpu) as f64 / 1e9;
    let n = SIM_N as f64;
    let mut rel_errs = Vec::new();
    let mut reports = 0;
    let mut bad_average = None;
    for (node, node_reports) in outcome.reports.iter().enumerate() {
        for report in node_reports {
            reports += 1;
            if let Some(count) = report.count_estimate() {
                rel_errs.push((count - n).abs() / n);
            }
            // Averaging mixes values convexly, under churn and loss too:
            // every estimate stays inside the initial/joiner value hull.
            match report.scalar(0) {
                Some(v) if v.is_finite() && (0.0..=100.0).contains(&v) => {}
                other => {
                    bad_average.get_or_insert_with(|| {
                        format!(
                            "seed {seed} node {node} epoch {} AVERAGE estimate {other:?} outside [0, 100]",
                            report.epoch
                        )
                    });
                }
            }
        }
    }
    Rep {
        new_s,
        run_s,
        run_cpu_s,
        messages: outcome.messages_sent as u64,
        lost: outcome.messages_lost as u64,
        view_messages: outcome.view_messages_sent as u64,
        view_lost: outcome.view_messages_lost as u64,
        reports,
        exchanges: outcome.registry.counter_value("agg.exchanges"),
        rel_errs,
        bad_average,
    }
}

/// Repetition `rep`'s seed: the first two use the run's seed itself (the
/// determinism check), later ones derived seeds.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep < 2 {
        seed
    } else {
        Xoshiro256::stream(seed, rep as u64).next_u64()
    }
}

fn window(args: &Args, tracer: &mut Tracer) -> (Window, Vec<Rep>) {
    let config = sim_config();
    // `EventSim::new` takes milliseconds; time a few extra builds so the
    // set-up median rests on more than the handful of runs.
    let mut new_times: Vec<f64> = (0..SETUP_BUILDS)
        .map(|_| {
            let start = Instant::now();
            drop(tracer.span("sim.new", args.seed, || EventSim::new(&config, args.seed)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(run_once(&config, rep_seed(args.seed, reps.len()), tracer));
    }
    let mut w = Window::default();
    if reps[0].counts() != reps[1].counts() {
        w.problem(format!(
            "two runs on seed {} differ: messages/lost/views/views lost/reports {:?} vs {:?}",
            args.seed,
            reps[0].counts(),
            reps[1].counts()
        ));
    }
    for rep in &reps {
        w.attempted += rep.reports;
        if let Some(bad) = &rep.bad_average {
            w.problem(bad.clone());
        }
    }
    let samples = reps.len() as u64;
    new_times.extend(reps.iter().map(|r| r.new_s));
    let new_s = median(&new_times);
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.total_messages() as f64 / r.run_s)
        .collect();
    let rate = median(&rates);
    let cpu_per = median(
        &reps
            .iter()
            .map(|r| r.run_cpu_s * 1e6 / r.total_messages() as f64)
            .collect::<Vec<_>>(),
    );
    let errs: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.rel_errs.iter().copied())
        .collect();
    let rel_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    let values = [
        (new_s, new_times.len() as u64),
        (cpu_per, samples),
        (measure::peak_rss_mb(), 1),
    ];
    w.end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), (value, samples))| Metric::new(name, value, unit, samples))
        .collect();
    w.detail = vec![
        Metric::new("sim_msgs_per_s", rate, "1/s", samples).with_note(format!(
            "interquartile spread over runs {:.4}",
            relative_spread(&rates).unwrap_or(0.0)
        )),
        Metric::new("estimate_rel_err", rel_err, "ratio", errs.len() as u64),
    ];
    (w, reps)
}

/// `sim_churn`: see the module docs.
pub fn sim_churn(args: &Args, tracer: &mut Tracer) -> Run {
    let header = Header {
        runtime_threads: 0,
        shape: format!(
            "sim_churn: EventSim n={SIM_N} NEWSCAST c={SIM_VIEW} gamma={SIM_GAMMA} \
             {SIM_CYCLES} cycles, churn 1%/cycle, loss 5%, drift 2%, AVERAGE + COUNT \
             ({SIM_LEADERS} leaders), repeated until the window closes"
        ),
    };
    tracer.set_enabled(false);
    let (untraced, _) = window(args, tracer);
    if !args.trace {
        return Run {
            header,
            untraced,
            traced: None,
            replay: Vec::new(),
        };
    }
    tracer.set_enabled(true);
    let (mut traced, reps) = window(args, tracer);
    let replay = replay::sim(args.seed, tracer);
    let first = &reps[0];
    let ns_per_msg = first.run_s * 1e9 / first.total_messages() as f64;
    let cost = |name: &str| {
        replay
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    // Replayed layer cost of the run's own traffic: one handle per
    // delivered aggregation message, one poll per initiated exchange,
    // one NEWSCAST exchange per pair of view messages.
    let layer_ns = (first.messages - first.lost) as f64 * cost("node.handle_ns")
        + first.exchanges as f64 * cost("node.poll_ns")
        + (first.view_messages / 2) as f64 * cost("newscast.exchange_ns");
    let self_ns = ns_per_msg - layer_ns / first.total_messages() as f64;
    let measured = [
        traced.end_to_end[0].clone().renamed("sim.new_s"),
        Metric::new("sim.ns_per_msg", ns_per_msg, "ns", first.total_messages()),
        Metric::new("sim.self_ns_per_msg", self_ns, "ns", first.total_messages())
            .with_note("ns_per_msg minus replayed node and newscast cost per message"),
        Metric::new("sim.messages", first.total_messages() as f64, "count", 1)
            .with_note("aggregation + view messages of the first run"),
        Metric::new(
            "sim.messages_lost",
            (first.lost + first.view_lost) as f64,
            "count",
            1,
        ),
        Metric::new("batch.syscalls_per_datagram", 0.0, "ratio", 0)
            .with_note("the sim_churn process opens no socket"),
    ];
    let from_replay: Vec<&str> = replay.iter().map(|m| m.name.as_str()).collect();
    traced.layers = measured.to_vec();
    for (name, unit) in PER_LAYER {
        let covered = traced.layers.iter().any(|m| m.name == name) || from_replay.contains(&name);
        if !covered {
            traced.layers.push(Metric::absent(
                name,
                unit,
                "not exercised: the simulator moves no datagrams and runs no tenants",
            ));
        }
    }
    Run {
        header,
        untraced,
        traced: Some(traced),
        replay,
    }
}
