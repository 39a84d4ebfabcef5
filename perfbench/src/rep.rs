//! The repetition loop every workload shares, and the metrics it
//! derives from the repetitions.
//!
//! A workload is a fixed amount of simulated work run as fast as
//! possible. One *repetition* sets it up from the seed (generate →
//! construct → warm up) and then runs the timed phase; repetitions
//! repeat until the run's wall-clock budget is spent. Set-up is the
//! median over repetitions. Throughput is the rate three repetitions in
//! four reach (the 25th percentile of per-repetition rates; a single
//! long repetition is sliced into several samples): on a
//! shared host, memory-bound code runs up to 1.6× slower in phases of
//! seconds to minutes, and across runs that slow floor moves far less
//! than the median or the best case does. Every repetition must
//! reproduce the digest of the first repetition of the same input
//! instance.

use crate::stats::{median, percentile, ratio, Checks, Outcome};
use crate::{clock_ns, secs_since, Opts};

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Which of the workload's seeded input instances this repetition ran.
    pub instance: usize,
    /// Whether the layer profiler was installed for the timed phase.
    pub traced: bool,
    /// Input generation from the seed, seconds.
    pub generate_s: f64,
    /// Construction of the system under test, seconds.
    pub construct_s: f64,
    /// Warm-up before the timed phase, seconds.
    pub warmup_s: f64,
    /// Timed phase, seconds.
    pub timed_s: f64,
    /// Process CPU seconds spent in the timed phase.
    pub cpu_s: f64,
    /// Units of work completed in the timed phase.
    pub work: f64,
    /// Timed calls per throughput sample; 0 makes the whole timed
    /// phase one sample. A workload with a single long repetition
    /// slices it so that its throughput, too, is a percentile.
    pub slice_calls: usize,
    /// Throughput samples (work per second), one per slice; filled in
    /// by [`drive`] from the per-call latencies.
    pub rates: Vec<f64>,
    /// Per-call latency of each timed call, ns ([`drive`] moves them
    /// into the run's bounded sample pool).
    pub samples_ns: Vec<u64>,
    /// Output digest.
    pub digest: String,
}

impl Rep {
    /// Generate + construct + warm-up.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.construct_s + self.warmup_s
    }
}

/// The per-repetition rate quantile reported as throughput.
const THROUGHPUT_QUANTILE: f64 = 0.25;

/// Per-call latency samples kept per run: enough for a p99 with
/// hundreds of samples beyond it, and bounded so that the benchmark's
/// own memory does not grow with the repetition count (it would show
/// in `peak_rss_mb`).
const MAX_SAMPLES: usize = 1 << 16;

/// Run repetitions until `opts.seconds` of wall time have passed and
/// at least `min_reps` ran (at least two in trace mode when
/// `traceable`, which then alternates untraced and traced repetitions).
/// Returns the repetitions and the first [`MAX_SAMPLES`] per-call
/// latencies of the untraced ones.
pub fn drive(
    opts: &Opts,
    min_reps: usize,
    traceable: bool,
    mut one: impl FnMut(usize, bool) -> Rep,
) -> (Vec<Rep>, Vec<u64>) {
    let min_reps = if opts.trace && traceable {
        min_reps.max(2)
    } else {
        min_reps
    };
    let t0 = clock_ns();
    let mut reps = Vec::new();
    let mut samples = Vec::with_capacity(MAX_SAMPLES);
    while reps.len() < min_reps || secs_since(t0) < opts.seconds {
        let traced = opts.trace && traceable && reps.len() % 2 == 1;
        let mut rep = one(reps.len(), traced);
        rep.traced = traced;
        let per_call = ratio(rep.work, rep.samples_ns.len() as f64);
        let slice = match rep.slice_calls {
            0 => rep.samples_ns.len().max(1),
            n => n,
        };
        rep.rates = rep
            .samples_ns
            .chunks(slice)
            .map(|c| {
                ratio(
                    per_call * c.len() as f64,
                    c.iter().sum::<u64>() as f64 / 1e9,
                )
            })
            .collect();
        let taken = std::mem::take(&mut rep.samples_ns);
        if !traced {
            let room = MAX_SAMPLES - samples.len();
            samples.extend(taken.into_iter().take(room));
        }
        reps.push(rep);
    }
    (reps, samples)
}

/// Derive the metrics every workload shares and run the digest checks.
///
/// `attributed_traced_s` is the time the layer profiler attributed to
/// named layers inside the traced timed phases; `None` for workloads
/// without a profiler, whose only layer timing is the per-call timing
/// taken from outside.
pub fn summarize(
    opts: &Opts,
    workload: &str,
    (reps, samples): (&[Rep], Vec<u64>),
    attributed_traced_s: Option<f64>,
    out: &mut Outcome,
) {
    let pick = |f: fn(&Rep) -> f64, reps: &[Rep]| median(&reps.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", pick(Rep::setup_s, reps));
    out.set("setup.generate_s", pick(|r| r.generate_s, reps));
    out.set("setup.construct_s", pick(|r| r.construct_s, reps));
    out.set("setup.warmup_s", pick(|r| r.warmup_s, reps));
    out.set("peak_rss_mb", crate::stats::host::peak_rss_mb());

    let rates = |traced: bool| {
        let r: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| r.rates.iter().copied())
            .collect();
        percentile(&r, THROUGHPUT_QUANTILE)
    };
    let untraced_rate = rates(false);
    out.set("work_per_s", untraced_rate);
    let (cpu, timed) = reps
        .iter()
        .filter(|r| !r.traced)
        .fold((0.0, 0.0), |(c, t), r| (c + r.cpu_s, t + r.timed_s));
    out.set("parallel.cpu_per_wall", ratio(cpu, timed));
    out.op_latency(samples);

    let (attributed, wall) = match attributed_traced_s {
        Some(spans_s) => {
            let traced_reps = reps.iter().filter(|r| r.traced);
            let setup: f64 = traced_reps.clone().map(Rep::setup_s).sum();
            let wall: f64 = traced_reps.map(|r| r.setup_s() + r.timed_s).sum();
            out.set(
                "obs.trace_overhead",
                1.0 - ratio(rates(true), untraced_rate),
            );
            (setup + spans_s, wall)
        }
        None => {
            // No profiler: the layer is the timed call itself.
            let wall: f64 = reps.iter().map(|r| r.setup_s() + r.timed_s).sum();
            let calls: f64 = reps.iter().map(|r| r.timed_s).sum();
            let setup: f64 = reps.iter().map(Rep::setup_s).sum();
            (setup + calls, wall)
        }
    };
    out.set("trace.coverage", ratio(attributed, wall));

    out.reps = reps
        .iter()
        .map(|r| (r.traced, r.setup_s(), r.timed_s, r.work))
        .collect();
    out.note("reps", reps.len());
    out.note("traced_reps", reps.iter().filter(|r| r.traced).count());
    check_digests(opts, workload, reps, &mut out.checks);
    if let Some(first) = reps.first() {
        out.note("digest", &first.digest);
    }
}

/// Every repetition must reproduce the digest of the first repetition
/// of its input instance (traced or not), and for a seed with a recorded
/// digest, the first repetition must match it.
fn check_digests(opts: &Opts, workload: &str, reps: &[Rep], checks: &mut Checks) {
    let Some(first) = reps.first() else {
        return;
    };
    for (i, r) in reps.iter().enumerate() {
        let Some(j) = reps.iter().position(|f| f.instance == r.instance) else {
            continue;
        };
        if j < i {
            checks.check(r.digest == reps[j].digest, || {
                let kind = if r.traced { "traced" } else { "untraced" };
                format!(
                    "rep {i} ({kind}) digest {} != rep {j} digest {}",
                    r.digest, reps[j].digest
                )
            });
        }
    }
    if let Some(expected) = opts.recorded_digest(workload) {
        checks.check(first.digest == expected, || {
            format!("digest {} != recorded {expected}", first.digest)
        });
    }
}
