//! `prach_corr`: the `lte::prach` correlator, which no other workload
//! runs (the engine uses the `heard()` SNR rule).
//!
//! A seeded pool of distinct receive windows — root-129 preambles at a
//! random shift and arrival delay, SNR uniform in −15…0 dB, plus one
//! noise-only window in four — is detected window by window, each
//! `PrachDetector::detect` timed from outside. Distinct inputs keep a
//! memo from measuring one repeated window.

use crate::rep::{drive, summarize, Rep};
use crate::stats::{host, ratio, Digest, Outcome, SpanTotals};
use crate::{clock_ns, secs_since, Opts};
use cellfi_lte::prach::{
    awgn_channel, noise_only, preamble, zc_root, Complex, Detection, PrachDetector, N_ZC,
};
use cellfi_obs::{Profiler, SpanId};
use cellfi_types::rng::SeedSeq;
use cellfi_types::units::Db;
use rand::Rng;

/// Zadoff–Chu root the detector and the preambles use.
const ROOT: u32 = 129;
/// Windows detected (untimed) as warm-up.
const WARMUP_WINDOWS: usize = 16;
/// SNR at and above which detection must be reliable (`lte::prach`'s
/// own test floor).
const RELIABLE_SNR_DB: f64 = -10.0;

/// One receive window and what it holds.
struct Window {
    rx: Vec<Complex>,
    /// `Some((combined shift, snr_db))` for a preamble, `None` for noise.
    truth: Option<(usize, f64)>,
}

fn pool(seeds: SeedSeq, n: usize) -> Vec<Window> {
    let mut rng = seeds.rng("pool");
    let root = zc_root(ROOT);
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                Window {
                    rx: noise_only(N_ZC, &mut rng),
                    truth: None,
                }
            } else {
                let shift = rng.gen_range(0..N_ZC);
                let delay = rng.gen_range(0..N_ZC);
                let snr_db = rng.gen_range(-15.0..0.0);
                Window {
                    rx: awgn_channel(&preamble(&root, shift), delay, Db(snr_db), &mut rng),
                    truth: Some(((shift + delay) % N_ZC, snr_db)),
                }
            }
        })
        .collect()
}

fn one_rep(
    seeds: SeedSeq,
    n: usize,
    traced: bool,
    spans: &mut SpanTotals,
) -> (Rep, Vec<Detection>, Vec<Window>) {
    let t0 = clock_ns();
    let windows = pool(seeds, n);
    let generate_s = secs_since(t0);
    let t1 = clock_ns();
    let det = PrachDetector::new(ROOT);
    let construct_s = secs_since(t1);
    let t2 = clock_ns();
    for w in windows.iter().take(WARMUP_WINDOWS) {
        let _ = det.detect(&w.rx);
    }
    let warmup_s = secs_since(t2);

    let mut profiler = if traced {
        Profiler::with_clock(clock_ns)
    } else {
        Profiler::disabled()
    };
    let mut detections = Vec::with_capacity(n);
    let mut samples_ns = Vec::with_capacity(n);
    let cpu0 = host::cpu_s();
    let start = clock_ns();
    let mut last = start;
    for w in &windows {
        detections.push(det.detect_profiled(&w.rx, &mut profiler));
        let t = clock_ns();
        samples_ns.push(t - last);
        last = t;
    }
    let timed_s = (last - start) as f64 / 1e9;
    let cpu_s = host::cpu_s() - cpu0;
    if traced {
        spans.absorb(&profiler);
    }

    let mut digest = Digest::new();
    for d in &detections {
        digest.word(u64::from(d.detected));
        digest.word(d.shift as u64);
        digest.word(d.peak_to_average.to_bits());
    }
    let rep = Rep {
        generate_s,
        construct_s,
        warmup_s,
        timed_s,
        cpu_s,
        work: n as f64,
        samples_ns,
        digest: digest.hex(),
        ..Rep::default()
    };
    (rep, detections, windows)
}

/// Run `prach_corr` single-threaded.
pub fn run(opts: &Opts) -> Outcome {
    cellfi_sim::parallel::with_threads(1, || {
        let seeds = SeedSeq::new(opts.seed)
            .child("perfbench")
            .child("prach_corr");
        let n = if opts.smoke { 64 } else { 256 };
        let mut out = Outcome::default();
        let mut spans = SpanTotals::default();
        let mut first: Option<(Vec<Detection>, Vec<Window>)> = None;
        let (reps, samples) = drive(opts, 1, true, |_, traced| {
            let (rep, detections, windows) = one_rep(seeds, n, traced, &mut spans);
            first.get_or_insert((detections, windows));
            rep
        });

        // Detection quality is checked once: every repetition replays
        // the same pool, and the digest check pins them all to the first.
        if let Some((detections, windows)) = &first {
            let (mut reliable, mut correct, mut noise, mut alarms) = (0u64, 0u64, 0u64, 0u64);
            for (d, w) in detections.iter().zip(windows) {
                match w.truth {
                    Some((shift, snr_db)) if snr_db >= RELIABLE_SNR_DB => {
                        reliable += 1;
                        correct += u64::from(d.detected && d.shift == shift);
                    }
                    Some(_) => {}
                    None => {
                        noise += 1;
                        alarms += u64::from(d.detected);
                    }
                }
            }
            out.checks.check(correct * 100 >= reliable * 95, || {
                format!("{correct}/{reliable} windows at >= {RELIABLE_SNR_DB} dB detected with the right shift (< 95 %)")
            });
            out.checks.check(alarms == 0, || {
                format!("{alarms} false alarms on {noise} noise-only windows")
            });
            out.note("prach.reliable_windows", reliable);
            out.note("prach.noise_windows", noise);
        }

        let correlator = spans.get(SpanId::PrachCorrelator.name());
        let attributed_s = correlator.total_ns as f64 / 1e9;
        summarize(
            opts,
            "prach_corr",
            (&reps, samples),
            opts.trace.then_some(attributed_s),
            &mut out,
        );
        let traced_timed: f64 = reps.iter().filter(|r| r.traced).map(|r| r.timed_s).sum();
        out.set("prach_correlator.share", ratio(attributed_s, traced_timed));
        out.note("threads", 1);
        out.note("windows_per_rep", n);
        out.spans = spans;
        out
    })
}
