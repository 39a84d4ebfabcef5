//! `cellfi-perfbench` — the repository benchmark: same-machine A/B
//! measurement of the CellFi simulator, end to end and layer by layer.
//!
//! ```text
//! cellfi-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--digests FILE] [--out DIR]
//! ```
//!
//! Workloads: `paper_8x6`, `metro_2500`, `fleet_2048`, `prach_corr`
//! (see `README.md`). Inputs derive from `--seed` only; each workload
//! repeats set-up + timed phase until `--seconds` of wall time are
//! spent and reports medians. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones (installing the engine's
//! span profiler on alternate repetitions). `--smoke` shortens every
//! timed phase for tests.
//!
//! Output: human-readable `#` lines (provenance, the metrics under
//! their layer names, check results), then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. The full record —
//! provenance, every metric, the span table — goes to
//! `<out>/<workload>-seed<N>-trace<T>.json`, and in trace mode the span
//! tree to the `.folded` file next to it. Exit status: 0 when every
//! correctness check passed, 1 when one failed, 2 on a usage error.

mod engine;
mod fleet;
mod prach;
mod rep;
mod stats;

use serde_json::Value;
use stats::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed whose output digests are recorded in `digests.txt`.
const DEFAULT_SEED: u64 = 20_171_212;

/// Digests recorded for [`DEFAULT_SEED`]: `<workload> <length> <seed> <digest>`.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer the workload
/// does not run reports 0.
const PER_LAYER: [(&str, &str); 21] = [
    ("setup.generate_s", "s"),
    ("setup.construct_s", "s"),
    ("setup.warmup_s", "s"),
    ("op.p50_us", "us"),
    ("op.p99_us", "us"),
    ("topology.kept_links", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("im.hops", "count"),
    ("mac_schedule.share", "ratio"),
    ("fading_scan.share", "ratio"),
    ("cqi_scan.share", "ratio"),
    ("sinr_cache.share", "ratio"),
    ("im_epoch.share", "ratio"),
    ("subframe.self_share", "ratio"),
    ("prach_correlator.share", "ratio"),
    ("parallel.cpu_per_wall", "ratio"),
    ("fleet.requests_per_ap_step", "ratio"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("fleet.backoffs", "count"),
    ("obs.trace_overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// A workload-specific name of a generic metric, printed in the `#`
/// lines: (name, generic metric, scale, unit).
type Alias = (&'static str, &'static str, f64, &'static str);

const ENGINE_ALIASES: [Alias; 6] = [
    ("subframes_per_s", "work_per_s", 1.0, "1/s"),
    ("topology.generate_s", "setup.generate_s", 1.0, "s"),
    ("engine.new_s", "setup.construct_s", 1.0, "s"),
    ("engine.warmup_s", "setup.warmup_s", 1.0, "s"),
    ("engine.step_p50_us", "op.p50_us", 1.0, "us"),
    ("engine.step_p99_us", "op.p99_us", 1.0, "us"),
];
const FLEET_ALIASES: [Alias; 3] = [
    ("ap_steps_per_s", "work_per_s", 1.0, "1/s"),
    ("fleet.tick_p50_ms", "op.p50_us", 1e-3, "ms"),
    ("fleet.tick_p99_ms", "op.p99_us", 1e-3, "ms"),
];
const PRACH_ALIASES: [Alias; 3] = [
    ("prach_line_rate_x", "work_per_s", 800e-6, "x"),
    ("prach.detect_p50_us", "op.p50_us", 1.0, "us"),
    ("prach.detect_p99_us", "op.p99_us", 1.0, "us"),
];

/// Workload names.
const WORKLOADS: [&str; 4] = ["paper_8x6", "metro_2500", "fleet_2048", "prach_corr"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget for the repetitions, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Short timed phases, for the benchmark's own tests.
    pub smoke: bool,
    /// Recorded digests (`<workload> <length> <seed> <digest>` lines).
    digests: String,
    /// Directory for the full result record.
    out: PathBuf,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            digests: RECORDED_DIGESTS.to_owned(),
            out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        };
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad())?;
                    if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--digests" => {
                    opts.digests =
                        std::fs::read_to_string(&value).map_err(|e| format!("{value}: {e}"))?
                }
                "--out" => opts.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!("unknown workload '{}'", opts.workload));
        }
        Ok(opts)
    }

    fn length(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The recorded digest for this workload, length and seed, if any.
    pub fn recorded_digest(&self, workload: &str) -> Option<String> {
        let seed = self.seed.to_string();
        self.digests.lines().find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1] == self.length() && f[2] == seed)
                .then(|| f[3].to_owned())
        })
    }
}

/// Monotonic nanoseconds since the first call. The benchmark's only
/// clock; also installed as the engine profiler's clock.
pub fn clock_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds elapsed since `start_ns` (a [`clock_ns`] reading).
pub fn secs_since(start_ns: u64) -> f64 {
    (clock_ns() - start_ns) as f64 / 1e9
}

/// The checked-out revision, read from `.git` without spawning git.
fn git_revision() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r))
                .or_else(|| {
                    read(git.join("packed-refs"))?
                        .lines()
                        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_owned()))
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

/// A finite JSON number (non-finite values cannot occur in a healthy
/// run and would not be valid JSON).
fn num(v: f64) -> Value {
    Value::Number(if v.is_finite() { v } else { 0.0 })
}

fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn main() -> ExitCode {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("cellfi-perfbench: {msg}");
            eprintln!(
                "usage: cellfi-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--smoke] [--digests FILE] [--out DIR]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let _ = clock_ns();
    let outcome = match opts.workload.as_str() {
        "paper_8x6" => engine::run(&engine::paper_8x6(opts.smoke), &opts),
        "metro_2500" => engine::run(&engine::metro_2500(opts.smoke), &opts),
        "fleet_2048" => fleet::run(&opts),
        _ => prach::run(&opts),
    };
    report(&opts, &outcome)
}

/// Print the `#` lines and the result line, write the full record.
fn report(opts: &Opts, out: &Outcome) -> ExitCode {
    let mut provenance: BTreeMap<&str, String> = BTreeMap::new();
    provenance.insert("workload", opts.workload.clone());
    provenance.insert("seed", opts.seed.to_string());
    provenance.insert("seconds", opts.seconds.to_string());
    provenance.insert("trace", u8::from(opts.trace).to_string());
    provenance.insert("length", opts.length().to_owned());
    provenance.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    provenance.insert("git_revision", git_revision());
    for (k, v) in &out.notes {
        provenance.insert(k, v.clone());
    }
    for (k, v) in &provenance {
        println!("# {k} = {v}");
    }

    let attempted = out.checks.attempted.max(1);
    let failed = out.checks.failed.len() as u64;
    let check_fail_ratio = failed as f64 / attempted as f64;
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("# metric {name} = {v} {unit}");
    }
    let aliases: &[Alias] = match opts.workload.as_str() {
        "fleet_2048" => &FLEET_ALIASES,
        "prach_corr" => &PRACH_ALIASES,
        _ => &ENGINE_ALIASES,
    };
    for &(name, generic, scale, unit) in aliases {
        if let Some(v) = out.metrics.get(generic) {
            println!("# metric {name} = {} {unit}", v * scale);
        }
    }
    println!("# metric check_fail_ratio = {check_fail_ratio} ratio (attempted {attempted})");
    for f in &out.checks.failed {
        println!("# CHECK FAILED: {f}");
    }

    write_record(opts, out, &provenance, check_fail_ratio);
    let correct = failed == 0;
    let metrics = table.iter().map(|&(name, unit)| {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        (
            name,
            obj([("value", num(v)), ("unit", Value::String(unit.into()))]),
        )
    });
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write `<out>/<workload>-seed<N>-trace<T>.json` (and the `.folded`
/// span tree in trace mode). A write failure is reported, not fatal.
fn write_record(opts: &Opts, out: &Outcome, provenance: &BTreeMap<&str, String>, fail_ratio: f64) {
    let spans = out
        .spans
        .spans
        .iter()
        .filter(|(_, s)| s.count > 0)
        .map(|(&k, s)| {
            let stats = obj([
                ("count", num(s.count as f64)),
                ("total_ns", num(s.total_ns as f64)),
                ("self_ns", num(s.self_ns as f64)),
                ("mean_ns", num(s.total_ns as f64 / s.count as f64)),
            ]);
            (k, stats)
        });
    let reps = out.reps.iter().map(|&(traced, setup, timed, work)| {
        obj([
            ("traced", Value::Bool(traced)),
            ("setup_s", num(setup)),
            ("timed_s", num(timed)),
            ("work", num(work)),
        ])
    });
    let failed = out.checks.failed.iter().map(|f| Value::String(f.clone()));
    let record = obj([
        (
            "provenance",
            obj(provenance
                .iter()
                .map(|(&k, v)| (k, Value::String(v.clone())))),
        ),
        (
            "metrics",
            obj(out.metrics.iter().map(|(&k, &v)| (k, num(v)))),
        ),
        ("spans", obj(spans)),
        ("reps", Value::Array(reps.collect())),
        (
            "checks",
            obj([
                ("attempted", num(out.checks.attempted as f64)),
                ("failed", Value::Array(failed.collect())),
                ("check_fail_ratio", num(fail_ratio)),
            ]),
        ),
    ]);
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let write = |name: String, body: &str| {
        let path = opts.out.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&opts.out).and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("cellfi-perfbench: could not write {}: {e}", path.display());
        }
    };
    write(format!("{stem}.json"), &(json(&record) + "\n"));
    if opts.trace {
        write(format!("{stem}.folded"), &out.spans.folded_text());
    }
}
