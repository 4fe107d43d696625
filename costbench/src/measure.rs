//! Measurement helpers: a counting allocator, CPU clocks through
//! hand-declared libc calls, per-thread CPU from `/proc/self/task`, peak
//! memory from `/proc/self/status`, and the order statistics every
//! metric is built on.

use epidemic_net::TrafficCounts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and reallocation) the process makes.
/// The count is a statistic that publishes no other data, so `Relaxed`
/// is enough.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; the counter update has no effect on the
// memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const SC_CLK_TCK: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + sys) consumed by every thread of the process.
pub fn process_cpu_ns() -> u64 {
    clock_ns(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + sys) consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// Blocks until `socket` is readable or `timeout` passes. Unlike a
/// socket read timeout, which the kernel rounds up to whole scheduler
/// ticks (milliseconds), `ppoll` wakes on a high-resolution timer, so an
/// open-loop client can send its next request on time.
pub fn wait_readable(socket: &std::net::UdpSocket, timeout: std::time::Duration) {
    use std::os::fd::AsRawFd;
    let mut fd = sys::PollFd {
        fd: socket.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live for the whole call, the fd is valid
    // for the socket borrow's duration, and a null sigmask keeps the
    // thread's signal mask. An interrupted or failed wait only means the
    // caller loops once more, so the result is not needed.
    unsafe {
        sys::ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Peak resident set size of the process in MiB: `VmHWM` of
/// `/proc/self/status`. `getrusage`'s `ru_maxrss` is not used because
/// Linux carries it across `execve`, so under `cargo run` it reports
/// cargo's own peak whenever that is larger.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Clock ticks per second of the `/proc` CPU counters.
fn clock_ticks() -> f64 {
    // SAFETY: sysconf only reads a system constant.
    let ticks = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User and system CPU seconds of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadCpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

/// Parses `/proc/<pid>/task/<tid>/stat`: returns `(comm, utime ticks,
/// stime ticks)`. The command name sits in parentheses and may itself
/// contain spaces and parentheses, so the fields are located after the
/// *last* `)`.
pub fn parse_task_stat(stat: &str) -> Option<(String, u64, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = stat[open + 1..close].to_string();
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let utime = rest.get(11)?.parse().ok()?;
    let stime = rest.get(12)?.parse().ok()?;
    Some((comm, utime, stime))
}

/// The runtime thread group a thread name belongs to, if any.
pub fn thread_group(name: &str) -> Option<&'static str> {
    if name.starts_with("mux-reader") {
        Some("reader")
    } else if name.starts_with("mux-worker") {
        Some("worker")
    } else if name == "mux-timer" {
        Some("timer")
    } else if name == "mux-rpc" {
        Some("rpc")
    } else {
        None
    }
}

/// CPU per runtime thread group (`reader`, `worker`, `timer`, `rpc`),
/// summed over the group's live threads.
pub fn thread_group_cpu() -> BTreeMap<&'static str, ThreadCpu> {
    let ticks = clock_ticks();
    let mut groups = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return groups;
    };
    for task in tasks.flatten() {
        let path = task.path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let Some(group) = thread_group(comm.trim_end_matches('\n')) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue;
        };
        if let Some((_, utime, stime)) = parse_task_stat(&stat) {
            let cpu: &mut ThreadCpu = groups.entry(group).or_default();
            cpu.user_s += utime as f64 / ticks;
            cpu.sys_s += stime as f64 / ticks;
        }
    }
    groups
}

/// CPU milliseconds a fixed reference computation takes on this host
/// right now (median of five), printed in the run header. On a shared
/// host the same binary runs up to twice as fast at one hour as at
/// another; this figure tells such host phases apart from code changes.
pub fn reference_loop_ms() -> f64 {
    let mut table = vec![0u64; 8 * 1024];
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = thread_cpu_ns();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize) % table.len();
                table[slot] = table[slot].wrapping_add(x);
            }
            std::hint::black_box(&table);
            (thread_cpu_ns() - start) as f64 / 1e6
        })
        .collect();
    median(&times)
}

/// Median of `values` (mean of the middle pair for an even count); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `values`; NaN when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples lying strictly above the nearest-rank percentile `p` — the
/// support a reported tail percentile rests on.
pub fn samples_beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let n = 4i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let lo = data[(j - 1) as usize];
        let hi = data[j as usize];
        out[slot] = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The paper's per-cycle convergence factor, observed: for each epoch
/// with estimate variance `var_e` across nodes, `(var_e / var0)^(1/γ)`;
/// the median over epochs. Epochs with zero variance (fully converged to
/// floating-point precision) are skipped; `None` when nothing is left.
pub fn convergence_factor(epoch_variances: &[f64], var0: f64, gamma: u32) -> Option<f64> {
    if var0 <= 0.0 {
        return None;
    }
    let factors: Vec<f64> = epoch_variances
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|v| (v / var0).powf(1.0 / f64::from(gamma)))
        .collect();
    (!factors.is_empty()).then(|| median(&factors))
}

/// Datagrams lost between send and receive, plus sends the kernel
/// refused, over all planes, as a share of the datagrams sent. Every
/// datagram of a single-process cluster is addressed to that process.
pub fn loss_share(counts: &TrafficCounts) -> f64 {
    let sent = counts.sent();
    if sent == 0 {
        return 0.0;
    }
    let missing = sent.saturating_sub(counts.received()) + counts.send_errors;
    missing as f64 / sent as f64
}

/// Wire bytes sent on every plane per node-epoch.
pub fn bytes_per_node_epoch(counts: &TrafficCounts, node_epochs: u64) -> f64 {
    if node_epochs == 0 {
        return 0.0;
    }
    let bytes =
        counts.aggregation_bytes_sent + counts.membership_bytes_sent + counts.query_bytes_sent;
    bytes as f64 / node_epochs as f64
}

/// Field-wise `after − before` of two cumulative traffic snapshots.
pub fn traffic_delta(after: &TrafficCounts, before: &TrafficCounts) -> TrafficCounts {
    TrafficCounts {
        aggregation_sent: after.aggregation_sent - before.aggregation_sent,
        aggregation_received: after.aggregation_received - before.aggregation_received,
        membership_sent: after.membership_sent - before.membership_sent,
        membership_received: after.membership_received - before.membership_received,
        query_sent: after.query_sent - before.query_sent,
        query_received: after.query_received - before.query_received,
        aggregation_bytes_sent: after.aggregation_bytes_sent - before.aggregation_bytes_sent,
        membership_bytes_sent: after.membership_bytes_sent - before.membership_bytes_sent,
        query_bytes_sent: after.query_bytes_sent - before.query_bytes_sent,
        send_errors: after.send_errors - before.send_errors,
        join_retries: after.join_retries - before.join_retries,
        rpc_rejects: after.rpc_rejects - before.rpc_rejects,
    }
}

/// Nearest-rank percentile of a log₂-bucketed registry histogram given
/// its per-bucket counts; reports the upper bound of the bucket the rank
/// falls in. `None` when the histogram is empty.
pub fn histogram_percentile(buckets: &[u64], p: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(epidemic_telemetry::bucket_bounds(i).1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_samples() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(samples_beyond(&values, 99.0), 1);
        assert_eq!(samples_beyond(&values, 90.0), 10);
        assert_eq!(median(&values), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert!(percentile(&[], 50.0).is_nan());
        // Unsorted input with duplicates.
        let values = [5.0, 1.0, 5.0, 3.0];
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 75.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn convergence_factor_recovers_a_known_rho() {
        let rho: f64 = 0.5 / std::f64::consts::E.sqrt();
        let gamma = 20;
        let var0 = 1_000.0;
        // Synthetic epochs: var_e = var0 · ρ^γ, with a little jitter in
        // the exponent on both sides so the median picks the exact one.
        let variances: Vec<f64> = [0.98, 1.0, 1.02]
            .iter()
            .map(|k| var0 * rho.powf(f64::from(gamma) * k))
            .collect();
        let got = convergence_factor(&variances, var0, gamma).unwrap();
        assert!((got - rho).abs() < 1e-12, "got {got}, want {rho}");
        // Fully converged epochs carry no information and are skipped.
        assert_eq!(convergence_factor(&[0.0], var0, gamma), None);
        assert_eq!(convergence_factor(&variances, 0.0, gamma), None);
    }

    fn counts() -> TrafficCounts {
        TrafficCounts {
            aggregation_sent: 900,
            aggregation_received: 880,
            membership_sent: 60,
            membership_received: 55,
            query_sent: 40,
            query_received: 40,
            aggregation_bytes_sent: 45_000,
            membership_bytes_sent: 3_000,
            query_bytes_sent: 2_000,
            send_errors: 5,
            join_retries: 0,
            rpc_rejects: 0,
        }
    }

    #[test]
    fn loss_share_counts_missing_and_refused_datagrams() {
        // (1000 sent − 975 received + 5 refused) / 1000 sent.
        assert!((loss_share(&counts()) - 0.03).abs() < 1e-12);
        assert_eq!(loss_share(&TrafficCounts::default()), 0.0);
    }

    #[test]
    fn bytes_per_node_epoch_sums_every_plane() {
        assert!((bytes_per_node_epoch(&counts(), 100) - 500.0).abs() < 1e-12);
        assert_eq!(bytes_per_node_epoch(&counts(), 0), 0.0);
        let delta = traffic_delta(&counts(), &TrafficCounts::default());
        assert_eq!(delta, counts());
        assert_eq!(
            traffic_delta(&counts(), &counts()),
            TrafficCounts::default()
        );
    }

    #[test]
    fn task_stat_parsing_survives_awkward_thread_names() {
        let plain = "4242 (mux-worker-0) S 1 2 3 4 5 6 7 8 9 10 123 45 0 0 20 0 1 0";
        assert_eq!(
            parse_task_stat(plain),
            Some(("mux-worker-0".to_string(), 123, 45))
        );
        let awkward = "77 (a (b) c) d) R 1 2 3 4 5 6 7 8 9 10 9 8 0 0 20 0 1 0";
        assert_eq!(
            parse_task_stat(awkward),
            Some(("a (b) c) d".to_string(), 9, 8))
        );
        assert_eq!(parse_task_stat("12 (short) S 1 2"), None);
        assert_eq!(parse_task_stat("no parens here"), None);
        assert_eq!(thread_group("mux-reader-0"), Some("reader"));
        assert_eq!(thread_group("mux-timer"), Some("timer"));
        assert_eq!(thread_group("main"), None);
    }

    #[test]
    fn histogram_percentiles_report_bucket_upper_bounds() {
        let mut buckets = [0u64; epidemic_telemetry::registry::BUCKETS];
        buckets[epidemic_telemetry::bucket_index(1_000)] = 98; // [512, 1023]
        buckets[epidemic_telemetry::bucket_index(5_000)] = 2; // [4096, 8191]
        assert_eq!(histogram_percentile(&buckets, 50.0), Some(1_023));
        assert_eq!(histogram_percentile(&buckets, 99.0), Some(8_191));
        assert_eq!(histogram_percentile(&[0; 4], 50.0), None);
    }

    #[test]
    fn process_clocks_and_rss_read_sane_values() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_mb() > 0.0);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    8308 kB\nVmRSS:\t 8000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(8308));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB"), None);
        let before = allocations();
        std::hint::black_box(vec![1u8; 64]);
        assert!(allocations() > before);
    }
}
