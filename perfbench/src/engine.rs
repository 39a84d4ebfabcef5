//! The two LTE-engine workloads: `paper_8x6`, the paper's §6.3
//! evaluation scale, and `metro_2500`, the `fig9metro` quick point.
//!
//! Only public entry points are called and timed from outside:
//! `Scenario::generate`, `LteEngine::new`, `run_until` (warm-up) and
//! each `step_subframe` of the timed phase. Traced repetitions install
//! the engine's own profiler after the warm-up.

use crate::rep::{drive, summarize, Rep};
use crate::stats::{host, ratio, Digest, Outcome, SpanTotals};
use crate::{clock_ns, secs_since, Opts};
use cellfi_obs::{Profiler, SpanId};
use cellfi_sim::{ImMode, LteEngine, LteEngineConfig, Scenario, ScenarioConfig};
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;

/// Shape of one engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    /// Workload name (also the seed label).
    pub name: &'static str,
    /// Topology generated from the seed.
    pub scenario: ScenarioConfig,
    /// `CELLFI_THREADS` for the run.
    pub threads: usize,
    /// Simulated time the warm-up runs to, ms.
    pub warmup_ms: u64,
    /// Simulated time the timed phase runs to, ms.
    pub end_ms: u64,
    /// Generate + construct repetitions in the first repetition; the
    /// reported setup takes their median. Workloads whose repetitions
    /// are cheap repeat whole repetitions instead.
    pub setup_repeats: usize,
    /// Subframes per throughput sample (0: one sample per repetition).
    pub slice_subframes: usize,
    /// Check the metro capacity density (Hessar & Roy's O(1)
    /// bps/Hz/km²) instead of only a non-zero delivery.
    pub density_check: bool,
}

/// Channel bandwidth the engine runs (paper: 5 MHz).
const BANDWIDTH_HZ: f64 = 5e6;

/// The paper's evaluation topology: 8 APs × 6 clients, fading and
/// shadowing on. Warm-up covers the first IM epoch (1 s); the timed
/// 2 s cross two more epochs and many fading blocks.
pub fn paper_8x6(smoke: bool) -> EngineWorkload {
    EngineWorkload {
        name: "paper_8x6",
        scenario: ScenarioConfig::paper_default(8, 6),
        threads: 1,
        warmup_ms: if smoke { 100 } else { 1_000 },
        end_ms: if smoke { 300 } else { 3_000 },
        setup_repeats: 1,
        slice_subframes: 0,
        density_check: false,
    }
}

/// The `fig9metro` quick point: 2 500 cells × 40 clients on a 20 km
/// square, 300 m cells, culled at −80 dBm, no fading or shadowing. The
/// timed phase runs past the first IM epoch at 1 000 ms.
pub fn metro_2500(smoke: bool) -> EngineWorkload {
    let mut scenario = ScenarioConfig::paper_default(2_500, 40);
    scenario.area = 20_000.0;
    scenario.cell_radius = 300.0;
    scenario.shadowing_sigma = 0.0;
    scenario.fading = false;
    scenario.cull_floor_dbm = Some(-80.0);
    EngineWorkload {
        name: "metro_2500",
        scenario,
        threads: 2,
        warmup_ms: if smoke { 5 } else { 50 },
        end_ms: if smoke { 15 } else { 1_050 },
        setup_repeats: if smoke { 1 } else { 3 },
        slice_subframes: if smoke { 5 } else { 50 },
        density_check: true,
    }
}

/// Generated + constructed engine with its setup timings.
struct Built {
    engine: LteEngine,
    generate_s: f64,
    construct_s: f64,
    kept_links: u64,
}

fn build(w: &EngineWorkload, seeds: SeedSeq) -> Built {
    let t0 = clock_ns();
    let scenario = Scenario::generate(w.scenario, seeds.child("topo"));
    let generate_s = secs_since(t0);
    let kept_links = (0..scenario.n_ues())
        .map(|u| scenario.nbr.candidates(u).len() as u64)
        .sum();
    let t1 = clock_ns();
    let mut engine = LteEngine::new(
        scenario,
        LteEngineConfig::paper_default(ImMode::CellFi),
        seeds.child("engine"),
    );
    engine.backlog_all(u64::MAX / 4);
    Built {
        engine,
        generate_s,
        construct_s: secs_since(t1),
        kept_links,
    }
}

/// Per-repetition engine facts beyond the shared [`Rep`].
struct EngineFacts {
    kept_links: u64,
    hops: u64,
    cache_hits: u64,
    cache_misses: u64,
    density_bps_hz_km2: f64,
    window_bits: u64,
}

fn one_rep(
    w: &EngineWorkload,
    seeds: SeedSeq,
    setup_repeats: usize,
    traced: bool,
    spans: &mut SpanTotals,
) -> (Rep, EngineFacts) {
    let mut builds: Vec<(f64, f64)> = Vec::new();
    for _ in 1..setup_repeats {
        let b = build(w, seeds);
        builds.push((b.generate_s, b.construct_s));
    }
    let Built {
        mut engine,
        generate_s,
        construct_s,
        kept_links,
    } = build(w, seeds);
    builds.push((generate_s, construct_s));
    let generate_s = crate::stats::median(&builds.iter().map(|b| b.0).collect::<Vec<_>>());
    let construct_s = crate::stats::median(&builds.iter().map(|b| b.1).collect::<Vec<_>>());

    let t0 = clock_ns();
    engine.run_until(Instant::from_millis(w.warmup_ms));
    let warmup_s = secs_since(t0);

    let facts0 = engine.tick_facts();
    let bits0: u64 = engine.delivered_bits().iter().sum();
    if traced {
        engine.obs_mut().profiler = Profiler::with_clock(clock_ns);
    }
    let end = Instant::from_millis(w.end_ms);
    let mut samples_ns = Vec::with_capacity((w.end_ms - w.warmup_ms) as usize);
    let cpu0 = host::cpu_s();
    let start = clock_ns();
    let mut last = start;
    while engine.now() < end {
        let _ = engine.step_subframe();
        let now = clock_ns();
        samples_ns.push(now - last);
        last = now;
    }
    let timed_s = (last - start) as f64 / 1e9;
    let cpu_s = host::cpu_s() - cpu0;
    if traced {
        let profiler = std::mem::replace(&mut engine.obs_mut().profiler, Profiler::disabled());
        spans.absorb(&profiler);
    }

    let facts1 = engine.tick_facts();
    let window_bits = engine.delivered_bits().iter().sum::<u64>() - bits0;
    let hops: Vec<u64> = engine.manager_hops();
    let mut digest = Digest::new();
    for &b in engine.delivered_bits() {
        digest.word(b);
    }
    for &h in &hops {
        digest.word(h);
    }
    let window_s = (w.end_ms - w.warmup_ms) as f64 / 1e3;
    let area_km2 = (w.scenario.area / 1e3) * (w.scenario.area / 1e3);
    let rep = Rep {
        generate_s,
        construct_s,
        warmup_s,
        timed_s,
        cpu_s,
        work: samples_ns.len() as f64,
        slice_calls: w.slice_subframes,
        samples_ns,
        digest: digest.hex(),
        ..Rep::default()
    };
    let facts = EngineFacts {
        kept_links,
        hops: hops.iter().sum(),
        cache_hits: facts1.cache_hits - facts0.cache_hits,
        cache_misses: facts1.cache_misses - facts0.cache_misses,
        density_bps_hz_km2: window_bits as f64 / window_s / BANDWIDTH_HZ / area_km2,
        window_bits,
    };
    (rep, facts)
}

/// Run one engine workload under its thread budget.
pub fn run(w: &EngineWorkload, opts: &Opts) -> Outcome {
    cellfi_sim::parallel::with_threads(w.threads, || run_pinned(w, opts))
}

fn run_pinned(w: &EngineWorkload, opts: &Opts) -> Outcome {
    let seeds = SeedSeq::new(opts.seed).child("perfbench").child(w.name);
    let mut out = Outcome::default();
    let mut spans = SpanTotals::default();
    let mut facts = Vec::new();
    let (reps, samples) = drive(opts, 1, true, |i, traced| {
        let repeats = if i == 0 { w.setup_repeats } else { 1 };
        let (rep, f) = one_rep(w, seeds, repeats, traced, &mut spans);
        facts.push(f);
        rep
    });

    for (i, f) in facts.iter().enumerate() {
        if w.density_check {
            out.checks
                .check((0.1..=10.0).contains(&f.density_bps_hz_km2), || {
                    format!(
                        "rep {i}: capacity density {} bps/Hz/km² is not O(1)",
                        f.density_bps_hz_km2
                    )
                });
        } else {
            out.checks
                .check(f.window_bits > 0, || format!("rep {i}: no bits delivered"));
        }
    }

    let subframe = spans.get(SpanId::Subframe.name());
    let attributed_s = subframe.total_ns.saturating_sub(subframe.self_ns) as f64 / 1e9;
    summarize(
        opts,
        w.name,
        (&reps, samples),
        opts.trace.then_some(attributed_s),
        &mut out,
    );

    if let Some(f) = facts.first() {
        out.set("topology.kept_links", f.kept_links as f64);
        out.set("im.hops", f.hops as f64);
        let base = f.cache_hits + f.cache_misses;
        out.set(
            "engine.cache_hit_ratio",
            ratio(f.cache_hits as f64, base as f64),
        );
        out.note("engine.cache_hit_base", base);
        out.note("capacity_density_bps_hz_km2", f.density_bps_hz_km2);
    }
    let total = subframe.total_ns as f64;
    for (metric, span) in [
        ("mac_schedule.share", SpanId::MacSchedule),
        ("sinr_cache.share", SpanId::SinrCache),
        ("fading_scan.share", SpanId::FadingScan),
        ("cqi_scan.share", SpanId::CqiScan),
        ("im_epoch.share", SpanId::ImEpoch),
    ] {
        out.set(metric, ratio(spans.get(span.name()).self_ns as f64, total));
    }
    out.set("subframe.self_share", ratio(subframe.self_ns as f64, total));
    out.note("threads", w.threads);
    out.note("warmup_ms", w.warmup_ms);
    out.note("timed_subframes_per_rep", w.end_ms - w.warmup_ms);
    out.note("setup_repeats", w.setup_repeats);
    out.spans = spans;
    out
}
