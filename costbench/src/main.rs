//! The repository benchmark: end-to-end and per-layer cost of the
//! epidemic aggregation stack on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path costbench/Cargo.toml -- \
//!     --workload agg_saturated --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the gated end-to-end metrics untraced.
//! `--trace 1` measures an untraced window, then a traced one, prints
//! the difference (the tracing overhead), replays the workload's message
//! mix through each layer in isolation, and reports the per-layer
//! metrics. The last line of standard output is always one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when any output check fails. `costbench/README.md` lists
//! every metric and the end-to-end metric each layer metric should move.

mod measure;
mod replay;
mod sim;
mod spans;
mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The end-to-end metrics every workload reports — the gated set. Each
/// workload defines its own unit of work ("op"): a completed push-pull
/// exchange (`agg_saturated`), a completed node-epoch across the base
/// aggregate and every tenant (`tenants_rpc`), a simulated message
/// (`sim_churn`). Throughput is printed but not gated: at saturation it
/// follows the shared host's free CPU, which swings by a third between
/// runs, while CPU per op holds within a few percent.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("batch.syscalls_per_datagram", "ratio"),
    ("batch.recv_per_call", "count"),
    ("batch.recv_ns", "ns"),
    ("batch.send_ns", "ns"),
    ("batch.recv_timeout_share", "ratio"),
    ("mux.reader.busy_share", "ratio"),
    ("mux.reader.sys_share", "ratio"),
    ("mux.worker.busy_share", "ratio"),
    ("mux.worker.sys_share", "ratio"),
    ("mux.timer.busy_share", "ratio"),
    ("mux.timer.sys_share", "ratio"),
    ("mux.rpc.busy_share", "ratio"),
    ("mux.rpc.sys_share", "ratio"),
    ("mux.queue_depth_p99", "count"),
    ("mux.completion_share", "ratio"),
    ("timer.fire_lag_p50_us", "us"),
    ("timer.fire_lag_p99_us", "us"),
    ("timer.schedule_ns", "ns"),
    ("timer.advance_ns_per_fire", "ns"),
    ("codec.aggregation.encode_ns", "ns"),
    ("codec.aggregation.decode_ns", "ns"),
    ("codec.aggregation.allocs_per_encode", "count"),
    ("codec.aggregation.allocs_per_decode", "count"),
    ("codec.aggregation.bytes_per_frame", "B"),
    ("codec.piggyback.encode_ns", "ns"),
    ("codec.piggyback.decode_ns", "ns"),
    ("codec.piggyback.allocs_per_encode", "count"),
    ("codec.piggyback.allocs_per_decode", "count"),
    ("codec.piggyback.bytes_per_frame", "B"),
    ("codec.view_delta.encode_ns", "ns"),
    ("codec.view_delta.decode_ns", "ns"),
    ("codec.view_delta.allocs_per_encode", "count"),
    ("codec.view_delta.allocs_per_decode", "count"),
    ("codec.view_delta.bytes_per_frame", "B"),
    ("codec.catalog.encode_ns", "ns"),
    ("codec.catalog.decode_ns", "ns"),
    ("codec.catalog.allocs_per_encode", "count"),
    ("codec.catalog.allocs_per_decode", "count"),
    ("codec.catalog.bytes_per_frame", "B"),
    ("codec.query.encode_ns", "ns"),
    ("codec.query.decode_ns", "ns"),
    ("codec.query.allocs_per_encode", "count"),
    ("codec.query.allocs_per_decode", "count"),
    ("codec.query.bytes_per_frame", "B"),
    ("codec.rpc.encode_ns", "ns"),
    ("codec.rpc.decode_ns", "ns"),
    ("codec.rpc.allocs_per_encode", "count"),
    ("codec.rpc.allocs_per_decode", "count"),
    ("codec.rpc.bytes_per_frame", "B"),
    ("node.poll_ns", "ns"),
    ("node.handle_ns", "ns"),
    ("node.allocs_per_step", "count"),
    ("directory.draw_ns.static", "ns"),
    ("directory.draw_ns.gossip", "ns"),
    ("newscast.exchange_ns", "ns"),
    ("newscast.allocs_per_exchange", "count"),
    ("directory.view_dead_fraction", "ratio"),
    ("directory.join_retries", "count"),
    ("plane.aggregation_bytes_per_node_epoch", "B"),
    ("plane.membership_bytes_per_node_epoch", "B"),
    ("plane.query_bytes_per_node_epoch", "B"),
    ("query.submit_ns", "ns"),
    ("query.read_ns", "ns"),
    ("query.handle_rpc_ns", "ns"),
    ("query.handle_aggregation_ns", "ns"),
    ("query.poll_ns", "ns"),
    ("query.admission_rejects", "count"),
    ("rpc.rejects", "count"),
    ("query.rollout_s", "s"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.histogram_record_ns", "ns"),
    ("sim.new_s", "s"),
    ("sim.ns_per_msg", "ns"),
    ("sim.self_ns_per_msg", "ns"),
    ("sim.messages", "count"),
    ("sim.messages_lost", "count"),
    ("client.send_lag_p99_us", "us"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value rests on.
    pub samples: u64,
    /// Why the value is zero or how it was derived, when that needs
    /// saying.
    pub note: Option<String>,
}

impl Metric {
    /// A measured value resting on `samples` samples.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: None,
        }
    }

    /// A metric this workload does not exercise: zero, with the reason.
    pub fn absent(name: &str, unit: &'static str, why: &str) -> Self {
        Metric::new(name, 0.0, unit, 0).with_note(why)
    }

    /// The same measurement under another name.
    pub fn renamed(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Attaches a note printed beside the value.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }
}

/// What one measured window of a workload produced.
#[derive(Debug, Default)]
pub struct Window {
    /// The gated end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end metrics (exchange rate, RPC
    /// latency, ...), printed but not gated.
    pub detail: Vec<Metric>,
    /// Per-layer metrics measured from outside during the window.
    pub layers: Vec<Metric>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed (missing, refused or late).
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

impl Window {
    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Run-header facts a workload learns while it runs.
#[derive(Debug, Default)]
pub struct Header {
    /// `MuxCluster::thread_count()` of the measured cluster (0 without
    /// one).
    pub runtime_threads: usize,
    /// Workload shape, one line.
    pub shape: String,
}

/// Everything a workload returns.
#[derive(Debug)]
pub struct Run {
    /// Header facts.
    pub header: Header,
    /// The untraced window.
    pub untraced: Window,
    /// The traced window (trace runs only).
    pub traced: Option<Window>,
    /// Per-layer metrics from the layer replay (trace runs only).
    pub replay: Vec<Metric>,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds one window measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("-- {title} --");
    for m in metrics {
        let note = m
            .note
            .as_deref()
            .map_or(String::new(), |n| format!("  ({n})"));
        println!(
            "{:<42} {:>16.6} {:<6} samples={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// A number as JSON: full precision, and `null` where JSON has no
/// spelling for the value.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Picks the metrics named in `names`, in that order; a missing one is
/// an output-check failure.
fn select(
    names: &[(&str, &'static str)],
    pool: &[Metric],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|(name, unit)| match pool.iter().find(|m| m.name == *name) {
            Some(m) => m.clone(),
            None => {
                problems.push(format!("metric {name} was not measured"));
                Metric::new(name, f64::NAN, unit, 0)
            }
        })
        .collect()
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Where traced runs write their spans: inside the checkout, under the
/// benchmark's own (git-ignored) output directory.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("costbench: {e}");
            return ExitCode::from(2);
        }
    };
    let reference_ms = measure::reference_loop_ms();
    let epoch = Instant::now();
    let mut tracer = spans::Tracer::new(args.trace, epoch);
    let run = match args.workload.as_str() {
        "agg_saturated" => wire::agg_saturated(&args, &mut tracer),
        "tenants_rpc" => wire::tenants_rpc(&args, &mut tracer),
        "sim_churn" => sim::sim_churn(&args, &mut tracer),
        other => {
            eprintln!(
                "costbench: unknown workload {other} (agg_saturated, tenants_rpc, sim_churn)"
            );
            return ExitCode::from(2);
        }
    };

    println!(
        "== costbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} kernel={} rustc=\"{}\" io_backend={} link=\"loopback, no real link\"",
        std::thread::available_parallelism().map_or(0, usize::from),
        kernel_release(),
        env!("COSTBENCH_RUSTC"),
        epidemic_net::IoBackend::auto().as_str(),
    );
    println!(
        "runtime: thread_count={} | {}",
        run.header.runtime_threads, run.header.shape
    );
    println!("host speed: reference loop {reference_ms:.3} ms CPU (lower is a faster host)");

    let mut problems = Vec::new();
    let window = run.traced.as_ref().unwrap_or(&run.untraced);
    problems.extend(run.untraced.problems.iter().cloned());
    print_metrics("end-to-end (gated)", &run.untraced.end_to_end);
    print_metrics("end-to-end (workload)", &run.untraced.detail);
    let metrics = if let Some(traced) = &run.traced {
        problems.extend(traced.problems.iter().cloned());
        println!("-- tracing overhead (traced - untraced) --");
        for (t, u) in traced
            .end_to_end
            .iter()
            .chain(&traced.detail)
            .zip(run.untraced.end_to_end.iter().chain(&run.untraced.detail))
        {
            println!(
                "{:<42} {:>+16.6} {:<6} (traced {:.6}, untraced {:.6})",
                t.name,
                t.value - u.value,
                t.unit,
                t.value,
                u.value
            );
        }
        let mut layers = traced.layers.clone();
        layers.extend(run.replay.iter().cloned());
        let layers = select(&PER_LAYER, &layers, &mut problems);
        print_metrics("per-layer (traced window + layer replay)", &layers);
        let path = spans_path(&args);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => problems.push(format!("writing spans to {}: {e}", path.display())),
        }
        layers
    } else {
        select(&END_TO_END, &run.untraced.end_to_end, &mut problems)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }
    if window.attempted == 0 {
        problems.push("no operation was checked".into());
    }
    let correct = problems.is_empty();
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{}",
        result_json(correct, window.attempted, window.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_keeps_every_digit() {
        let metrics = [
            Metric::new("a", 1.2034567891234, "ms", 3),
            Metric::new("b", f64::NAN, "s", 0),
        ];
        assert_eq!(
            result_json(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, \
             \"b\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json next to the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = text.matches("\"name\":").count();
        let workloads = 3;
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn select_flags_missing_metrics() {
        let mut problems = Vec::new();
        let got = select(
            &[("x", "s"), ("y", "s")],
            &[Metric::new("y", 2.0, "s", 1)],
            &mut problems,
        );
        assert_eq!(got.len(), 2);
        assert!(got[0].value.is_nan());
        assert_eq!(got[1].value, 2.0);
        assert_eq!(problems, vec!["metric x was not measured".to_string()]);
    }
}
