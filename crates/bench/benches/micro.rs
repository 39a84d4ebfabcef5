//! Micro-benchmarks of hot simulator kernels: link-budget evaluation,
//! CQI mapping, the PF scheduler, the CQI interference detector, and one
//! LTE engine subframe. These are the per-sample costs every figure's
//! wall-clock is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cellfi_core::sensing::CqiInterferenceDetector;
use cellfi_lte::amc::CqiTable;
use cellfi_lte::scheduler::{Scheduler, SchedulerKind};
use cellfi_propagation::antenna::Antenna;
use cellfi_propagation::fading::BlockFading;
use cellfi_propagation::link::{LinkEnd, RadioEnvironment, Transmission};
use cellfi_propagation::noise::NoiseModel;
use cellfi_propagation::pathloss::PathLossModel;
use cellfi_propagation::shadowing::Shadowing;
use cellfi_sim::engine::{ImMode, LteEngine, LteEngineConfig};
use cellfi_sim::topology::{Scenario, ScenarioConfig};
use cellfi_types::geo::Point;
use cellfi_types::rng::SeedSeq;
use cellfi_types::time::Instant;
use cellfi_types::units::{Db, Dbm, Hertz};
use cellfi_types::{SubchannelId, UeId};

fn env() -> RadioEnvironment {
    let seeds = SeedSeq::new(2);
    RadioEnvironment {
        pathloss: PathLossModel::tvws_urban(),
        shadowing: Shadowing::new(seeds, 4.0),
        fading: BlockFading::pedestrian(seeds),
        noise: NoiseModel::typical(),
        frequency: Hertz(700e6),
    }
}

fn bench_link_budget(c: &mut Criterion) {
    let e = env();
    let ap = LinkEnd::new(0, Point::ORIGIN, Antenna::paper_sector(0.3));
    let ue = LinkEnd::new(1000, Point::new(700.0, 150.0), Antenna::client());
    c.bench_function("micro/mean_rx_power", |b| {
        b.iter(|| black_box(e.mean_rx_power(&ap, Dbm(30.0), &ue)))
    });
    let interferers: Vec<Transmission> = (0..8)
        .map(|i| Transmission {
            from: LinkEnd::new(
                10 + i,
                Point::new(f64::from(i) * 300.0, -400.0),
                Antenna::Isotropic { gain: Db(6.0) },
            ),
            power: Dbm(30.0),
        })
        .collect();
    let serving = Transmission {
        from: ap,
        power: Dbm(30.0),
    };
    c.bench_function("micro/subchannel_sinr_8_interferers", |b| {
        b.iter(|| {
            black_box(e.subchannel_sinr(
                &serving,
                &ue,
                &interferers,
                SubchannelId::new(4),
                Instant::from_millis(7),
                Hertz::from_khz(360.0),
            ))
        })
    });
}

fn bench_amc(c: &mut Criterion) {
    let t = CqiTable;
    c.bench_function("micro/cqi_for_sinr", |b| {
        b.iter(|| black_box(t.cqi_for_sinr(Db(black_box(7.3)))))
    });
    c.bench_function("micro/bler", |b| {
        b.iter(|| black_box(t.bler(cellfi_lte::amc::Cqi(7), Db(black_box(6.1)))))
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let ues: Vec<UeId> = (0..6).map(UeId::new).collect();
    let backlog = vec![1_000_000u64; 6];
    let rates: Vec<Vec<f64>> = (0..6u32)
        .map(|u| (0..13u32).map(|s| 500.0 + f64::from(s * u)).collect())
        .collect();
    let allowed = vec![true; 13];
    let mut out = vec![None; 13];
    c.bench_function("micro/pf_allocate_6ue_13sc", |b| {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        b.iter(|| {
            s.allocate(&ues, &backlog, &allowed, |i, sc| rates[i][sc], &mut out);
            black_box(out[0])
        })
    });
}

fn bench_cqi_detector(c: &mut Criterion) {
    c.bench_function("micro/cqi_detector_push", |b| {
        let mut d = CqiInterferenceDetector::default();
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(d.push(8 + (i % 5)))
        })
    });
}

fn bench_engine_subframe(c: &mut Criterion) {
    let scenario = Scenario::generate(ScenarioConfig::paper_default(10, 6), SeedSeq::new(3));
    let mut e = LteEngine::new(
        scenario,
        LteEngineConfig::paper_default(ImMode::CellFi),
        SeedSeq::new(4),
    );
    e.backlog_all(u64::MAX / 4);
    c.bench_function("micro/engine_subframe_10aps_60ues", |b| {
        b.iter(|| black_box(e.step_subframe()))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(30);
    targets = bench_link_budget, bench_amc, bench_scheduler, bench_cqi_detector,
        bench_engine_subframe
}
criterion_main!(micro);
