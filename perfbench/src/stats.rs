//! Small shared pieces: order statistics, the output digest, the
//! correctness-check tally, and the per-run outcome every workload
//! fills in.

use cellfi_obs::profile::{Profiler, SpanStats};
use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Nearest-rank `q`-quantile of `samples` (reorders them); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a stream of 64-bit words: the output digest the
/// correctness checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a byte string in (length-prefixed).
    pub fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Correctness-check tally: every check counts as attempted, and a
/// failing one records what it was.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failed: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }
}

/// Span statistics summed over every traced repetition, plus the
/// merged folded-stack tree.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Per-span totals keyed by span name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// `path → self_ns` folded-stack lines.
    pub folded: BTreeMap<String, u64>,
}

impl SpanTotals {
    /// Fold one finished profiler in.
    pub fn absorb(&mut self, profiler: &Profiler) {
        for (name, s) in profiler.report() {
            let acc = self.spans.entry(name).or_default();
            acc.total_ns += s.total_ns;
            acc.self_ns += s.self_ns;
            acc.count += s.count;
        }
        for node in profiler.tree() {
            if node.stats.count > 0 {
                *self.folded.entry(node.path).or_default() += node.stats.self_ns;
            }
        }
    }

    /// Stats of one span (zero if it never ran).
    pub fn get(&self, name: &str) -> SpanStats {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The folded-stack rendering, one `path self_ns` line per node.
    pub fn folded_text(&self) -> String {
        self.folded
            .iter()
            .map(|(path, ns)| format!("{path} {ns}\n"))
            .collect()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (`BENCHMARK.json` names; units live in
    /// the metric table in `main.rs`). Layers a workload does not run
    /// are simply absent and reported as 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance and diagnostics: repetition counts, sample counts
    /// behind each percentile, digests, bases of ratios.
    pub notes: BTreeMap<&'static str, String>,
    /// Correctness checks.
    pub checks: Checks,
    /// Traced spans (trace mode only).
    pub spans: SpanTotals,
    /// Per-repetition `(traced, setup_s, timed_s, work)`, in run order.
    pub reps: Vec<(bool, f64, f64, f64)>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a provenance note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }

    /// Report op latency percentiles from per-call samples (ns).
    pub fn op_latency(&mut self, mut samples_ns: Vec<u64>) {
        self.note("op_samples", samples_ns.len());
        self.set("op.p50_us", quantile(&mut samples_ns, 0.50) as f64 / 1e3);
        self.set("op.p99_us", quantile(&mut samples_ns, 0.99) as f64 / 1e3);
    }
}

/// Host-side process counters read from `/proc/self`.
pub mod host {
    /// Peak resident set size of this process so far, MB (`VmHWM`).
    pub fn peak_rss_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// User + system CPU seconds of the whole process (every thread,
    /// finished ones included), at the kernel's 100 Hz `USER_HZ`.
    pub fn cpu_s() -> f64 {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return 0.0;
        };
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (ticks(11) + ticks(12)) / 100.0
    }
}
