//! `fleet_2048`: the whole `spectrum` crate (lease lifecycles, sharded
//! PAWS databases, availability caches, fault injection) and none of
//! the engine — the bypass workload for every engine optimisation.
//!
//! The shape is the `spectrum_scale` ETSI leg, upsized: 2 048 APs on a
//! 200 m grid, 8 shards, 15 s compressed lease validity, per-shard
//! fault plans at intensity 0.6, 250 ms ticks over a 60 s horizon.
//! Each `SpectrumFleet::step` of the timed phase is timed from outside.

use crate::rep::{drive, summarize, Rep};
use crate::stats::{host, ratio, Digest, Outcome};
use crate::{clock_ns, secs_since, Opts};
use cellfi_spectrum::faults::FaultPlan;
use cellfi_spectrum::fleet::{FleetConfig, FleetStats, SpectrumFleet};
use cellfi_spectrum::lifecycle::LifecycleConfig;
use cellfi_spectrum::paws::GeoLocation;
use cellfi_spectrum::profile::RuleProfile;
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::{Duration, Instant};

/// Fleet size.
const N_APS: usize = 2_048;
/// Sharded PAWS backends.
const N_SHARDS: usize = 8;
/// Fault intensity of every shard's plan.
const FAULT_INTENSITY: f64 = 0.6;
/// Fleet tick.
const TICK: Duration = Duration::from_millis(250);
/// Ticks stepped as warm-up before the timed phase.
const WARMUP_TICKS: u64 = 4;
/// Seeded fleet instances a run cycles through. Fault plans dominate
/// the cost of a fleet, so one instance's cost swings with its seed
/// (up to ~2×); a run covers all of them, plus one repeat of the first
/// for the determinism check, so that its throughput is a property of
/// the workload rather than of a few draws.
const INSTANCES: usize = 32;

/// The `spectrum_scale` ETSI fleet configuration.
fn config() -> FleetConfig {
    let profile = RuleProfile::etsi();
    let lifecycle = LifecycleConfig {
        eirp_dbm: profile.max_eirp_dbm,
        poll: Duration::from_secs(2),
        renew_fraction: 0.5,
        backoff_base: Duration::from_millis(500),
        backoff_max: Duration::from_secs(4),
        jitter_frac: 0.25,
        vacate_margin: Duration::from_millis(500),
    };
    FleetConfig {
        n_shards: N_SHARDS,
        cache_ttl: lifecycle.poll,
        ..FleetConfig::new(
            profile.with_lease_validity(Duration::from_secs(15)),
            lifecycle,
        )
    }
}

/// APs on a square 200 m grid, offset into the plan's coverage.
fn grid_locations(n_aps: usize) -> Vec<GeoLocation> {
    let width = (n_aps as f64).sqrt().ceil() as usize;
    (0..n_aps)
        .map(|i| {
            let x = (i % width) as f64 * 200.0;
            let y = (i / width) as f64 * 200.0;
            GeoLocation::gps(Point::new(100_000.0 + x, y))
        })
        .collect()
}

fn one_rep(seeds: &SeedSeq, horizon: Instant) -> (Rep, FleetStats) {
    let t0 = clock_ns();
    let config = config();
    let plans: Vec<FaultPlan> = (0..N_SHARDS)
        .map(|s| {
            FaultPlan::at_intensity(
                seeds.seed_indexed("shard-faults", s as u64),
                FAULT_INTENSITY,
                horizon,
            )
        })
        .collect();
    let locations = grid_locations(N_APS);
    let generate_s = secs_since(t0);

    let t1 = clock_ns();
    let mut fleet = SpectrumFleet::new(config, &locations, plans, seeds);
    let construct_s = secs_since(t1);

    let mut now = Instant::ZERO;
    let t2 = clock_ns();
    for _ in 0..WARMUP_TICKS {
        fleet.step(now);
        drop(fleet.drain_events());
        now += TICK;
    }
    let warmup_s = secs_since(t2);

    let mut samples_ns = Vec::new();
    let cpu0 = host::cpu_s();
    let start = clock_ns();
    let mut last = start;
    while now < horizon {
        fleet.step(now);
        drop(fleet.drain_events());
        let t = clock_ns();
        samples_ns.push(t - last);
        last = t;
        now += TICK;
    }
    let timed_s = (last - start) as f64 / 1e9;
    let cpu_s = host::cpu_s() - cpu0;
    let stats = fleet.finish(horizon);

    let mut digest = Digest::new();
    digest.bytes(format!("{stats:?}").as_bytes());
    let rep = Rep {
        generate_s,
        construct_s,
        warmup_s,
        timed_s,
        cpu_s,
        work: (N_APS * samples_ns.len()) as f64,
        samples_ns,
        digest: digest.hex(),
        ..Rep::default()
    };
    (rep, stats)
}

/// Run `fleet_2048` single-threaded.
pub fn run(opts: &Opts) -> Outcome {
    cellfi_sim::parallel::with_threads(1, || {
        let seeds = SeedSeq::new(opts.seed)
            .child("perfbench")
            .child("fleet_2048");
        let horizon = Instant::from_secs(if opts.smoke { 5 } else { 60 });
        let mut out = Outcome::default();
        let mut all_stats = Vec::new();
        let instances = if opts.smoke { 2 } else { INSTANCES };
        let (reps, samples) = drive(opts, instances + 1, false, |i, _| {
            let instance = i % instances;
            let (mut rep, stats) = one_rep(&seeds.child(&format!("instance{instance}")), horizon);
            rep.instance = instance;
            all_stats.push(stats);
            rep
        });
        for (i, s) in all_stats.iter().enumerate() {
            out.checks.check(s.lease_gate_breaches == 0, || {
                format!("rep {i}: {} lease-gate breaches", s.lease_gate_breaches)
            });
            out.checks.check(s.lifecycles.missed_deadlines == 0, || {
                format!(
                    "rep {i}: {} missed vacate deadlines",
                    s.lifecycles.missed_deadlines
                )
            });
        }
        summarize(opts, "fleet_2048", (&reps, samples), None, &mut out);
        if let Some(s) = all_stats.first() {
            let ticks = horizon.as_micros() / TICK.as_micros();
            let ap_steps = (N_APS as u64 * ticks) as f64;
            out.set(
                "fleet.requests_per_ap_step",
                ratio(s.total_requests as f64, ap_steps),
            );
            out.set("fleet.cache_hit_ratio", s.cache_hit_rate);
            out.note("fleet.cache_hit_base", s.cache_hits + s.cache_misses);
            out.set("fleet.backoffs", s.lifecycles.backoffs as f64);
        }
        out.note("instances", instances);
        out.note("threads", 1);
        out.note("horizon_s", horizon.as_micros() / 1_000_000);
        out.note("warmup_ticks", WARMUP_TICKS);
        out
    })
}
