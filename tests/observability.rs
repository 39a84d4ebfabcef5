//! Observability contracts: the sampled trace stream, the histogram
//! sketches of its remainder, and the invariant-monitor verdicts are
//! all pure functions of the seed — independent of worker thread count
//! — the trace query engine's output over a committed trace is pinned
//! byte for byte, and EXPERIMENTS.md's event table is the declared
//! schema, rendered.

use cellfi::obs::query::{run_query, Agg, Query};
use cellfi::obs::trace::{schema_markdown, Event, SampleSpec, SketchSet};
use cellfi::sim::experiments::trace_run::{traced_opts, TraceOptions};
use cellfi::sim::experiments::ExpConfig;
use cellfi::sim::parallel::with_threads;
use proptest::prelude::*;

/// One sampled + monitored fig9a trace run at a forced worker count.
fn obs_run(threads: usize) -> (String, String, String) {
    with_threads(threads, || {
        let out = traced_opts(
            "fig9a",
            ExpConfig {
                seed: 7,
                quick: true,
            },
            &TraceOptions {
                detail: false,
                sample: SampleSpec { keep: 1, out_of: 3 },
                monitors: true,
                flight_cap: 64,
            },
        )
        .expect("fig9a is a known experiment");
        assert!(
            out.violation.is_none(),
            "healthy fig9a run must not violate invariants: {}",
            out.verdict
        );
        (out.events, out.sketches, out.verdict)
    })
}

#[test]
fn sampled_trace_sketches_and_verdict_are_thread_invariant() {
    let t1 = obs_run(1);
    let t2 = obs_run(2);
    let t8 = obs_run(8);
    assert_eq!(t1, t2, "threads 1 vs 2 diverged");
    assert_eq!(t1, t8, "threads 1 vs 8 diverged");
    assert!(!t1.0.is_empty(), "1/3 sampling kept no events at all");
    assert!(
        !t1.1.is_empty(),
        "1/3 sampling dropped nothing into the sketches"
    );
    assert!(t1.2.contains("armed=4"), "verdict line: {}", t1.2);
    assert!(t1.2.contains("violations=0"), "verdict line: {}", t1.2);
}

#[test]
fn stratified_sampling_partitions_the_full_stream() {
    // The kept stream is a strict per-line subset of the full stream,
    // and kept-event + sketched-event counts add back up to the total:
    // sampling stratifies, it never invents or double-counts.
    let full = traced_opts(
        "fig9a",
        ExpConfig {
            seed: 7,
            quick: true,
        },
        &TraceOptions::default(),
    )
    .expect("fig9a is a known experiment");
    let (kept, sketches, _) = obs_run(1);
    let full_lines: std::collections::BTreeSet<&str> = full.events.lines().collect();
    for line in kept.lines() {
        assert!(full_lines.contains(line), "sampled line not in full trace");
    }
    let sketched: u64 = sketches
        .lines()
        .map(|l| {
            l.split("\"count\":")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
                .expect("sketch lines carry a count")
        })
        .sum();
    assert_eq!(
        kept.lines().count() as u64 + sketched,
        full.events.lines().count() as u64,
        "kept + sketched must account for every event exactly once"
    );
}

/// Build a sketch set from per-UE SINR observations.
fn sketch_of(vals: &[(u32, f64)]) -> SketchSet {
    let mut s = SketchSet::default();
    for &(ue, sinr_db) in vals {
        s.add(&Event::CqiInterference {
            ue,
            subchannel: 0,
            sinr_db,
            clean_db: 0.0,
        });
    }
    s
}

proptest! {
    #[test]
    fn sketch_merge_is_associative_and_commutative(
        a in proptest::collection::vec((0u32..64, -80.0f64..80.0), 0..40),
        b in proptest::collection::vec((0u32..64, -80.0f64..80.0), 0..40),
        c in proptest::collection::vec((0u32..64, -80.0f64..80.0), 0..40),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right_inner = sb.clone();
        right_inner.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);
        // c ⊕ b ⊕ a — merge order must not matter, since worker sinks
        // absorb in entity order but could in principle be reordered.
        let mut rev = sc;
        rev.merge(&sb);
        rev.merge(&sa);
        prop_assert_eq!(&left, &rev);
        prop_assert_eq!(left.to_jsonl(), right.to_jsonl());
    }
}

#[test]
fn trace_query_on_committed_fig9a_trace_matches_golden() {
    let trace = include_str!("goldens/TRACE_fig9a.jsonl");
    let by_kind = run_query(
        trace,
        &Query {
            group_by: Some("ev".to_owned()),
            agg: Agg::Count,
            ..Query::default()
        },
    )
    .expect("committed trace parses");
    let q90 = run_query(
        trace,
        &Query {
            kind: Some("cqi_interf".to_owned()),
            group_by: Some("ue".to_owned()),
            agg: Agg::Quantile(0.9, "sinr_db".to_owned()),
            ..Query::default()
        },
    )
    .expect("committed trace parses");
    let got = format!("{by_kind}{q90}");
    let golden = include_str!("goldens/QUERY_fig9a.txt");
    assert!(
        got == golden,
        "trace-query output drifted from tests/goldens/QUERY_fig9a.txt:\n{got}"
    );
}

/// EXPERIMENTS.md is the schema golden: its event table must be exactly
/// what the `trace_schema!` declaration renders, with nothing appended.
#[test]
fn experiments_md_event_table_matches_the_declared_schema() {
    let doc = include_str!("../EXPERIMENTS.md");
    let table = schema_markdown();
    assert!(
        doc.contains(&format!("\n{table}\n")),
        "EXPERIMENTS.md's event table is stale; replace it with:\n{table}"
    );
}
