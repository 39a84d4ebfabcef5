//! The parse-aware rule families (v2).
//!
//! Where the v1 catalogue ([`crate::rules`]) works from identifier
//! probes, these four families walk the parsed token stream
//! ([`crate::parse`]) with scope-tracked dataflow
//! ([`crate::dataflow`]). Each one proves an invariant the flat-slab
//! engine's headline claims rest on:
//!
//! * **`parallel`** — byte-identical replay across `CELLFI_THREADS`.
//!   Closures passed to the `parallel::for_each_chunk` /
//!   `for_each_row` / `for_each_row_zip` / `map_indexed` fan-outs must
//!   not mutate captured state (cross-chunk writes alias between
//!   workers) or reach for
//!   scheduling-dependent synchronization (`Mutex`, atomics,
//!   `unsafe`); trace events inside them must go through a forked
//!   per-entity sink, and a fn that forks sinks must absorb them back
//!   (entity-index order) in the same fn.
//! * **`slab`** — one home for stride math. Index expressions that
//!   re-derive slab offsets (`base * stride + k`, multiply-add or
//!   multiply-range arithmetic inside `[...]`) are forbidden outside
//!   `crates/sim/src/slab.rs`; everything else goes through the
//!   `Slab2`/`Slab3` accessors, so a layout change cannot silently
//!   desynchronize hand-rolled offsets.
//! * **`hot`** — the steady-state subframe loop allocates nothing.
//!   Fns marked `// cellfi-lint: hot` (and everything they reach by
//!   direct same-file calls) may not allocate (`Vec::new`, `vec!`,
//!   `collect`, `push`, `format!`, `to_string`, `to_owned`,
//!   `to_vec`, `String::from`, `Box::new`) except into bindings whose
//!   path names a reserved `*scratch*` buffer, and may not `clone`
//!   slab-typed values.
//! * **`cachegen`** — generation-keyed caches never serve stale data.
//!   A fn that writes slab gain state (`self.lin_mw` /
//!   `self.static_mw` / `self.dl_mean_dbm` through a mutating
//!   accessor) must bump `gain_gen` in the same fn, and a write to the
//!   association table (`…assoc[ue] = …`) must bump `assoc_gen` — the
//!   `(generation, set_id)` keys of `TxSetTracker` /
//!   `InterferenceCache` / `CqiMemo` only invalidate when the
//!   generation moves.
//!
//! All four respect the shared test-code exclusion and
//! `// cellfi-lint: allow(<rule>) — <reason>` escape hatch via the v1
//! [`Sink`].

use crate::dataflow;
use crate::lexer::ScannedFile;
use crate::parse::{self, Closure, Parsed, TokKind};
use crate::rules::{FileContext, Sink};
use std::collections::BTreeMap;

/// The deterministic fan-out helpers whose worker closures the
/// `parallel` rule audits (see `crates/sim/src/parallel.rs`).
const FAN_OUT: &[&str] = &[
    "for_each_chunk",
    "for_each_row",
    "for_each_row_zip",
    "map_indexed",
];

/// Identifiers that imply scheduling-dependent shared state inside a
/// fan-out closure. `Atomic*` is matched by prefix.
const SYNC_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "unsafe",
];

/// The implementation homes the discipline rules trust: stride math
/// lives in the slab module, worker plumbing in the parallel module.
const SLAB_MODULE: &str = "crates/sim/src/slab.rs";
const PARALLEL_MODULE: &str = "crates/sim/src/parallel.rs";

/// Slab gain state: writes through these `self` fields feed the
/// `(gain_gen, …)` cache keys.
const GAIN_FIELDS: &[&str] = &["lin_mw", "static_mw", "dl_mean_dbm"];

/// Mutating accessors through which slab state is written.
const GAIN_MUT_METHODS: &[&str] = &[
    "set",
    "at_mut",
    "lane_mut",
    "row_mut",
    "as_mut_slice",
    "fill",
];

/// Allocation calls that are exempt when they land in a `*scratch*`
/// binding (reserving/refilling scratch is how the steady state stays
/// allocation-free); everything else in [`HOT_FORBIDDEN_METHODS`] and
/// the macro/qualified sets is flagged unconditionally.
const HOT_SCRATCH_EXEMPT: &[&str] = &["collect", "push", "extend", "insert"];

/// Method calls forbidden in hot fns (subject to the scratch
/// exemption above where listed).
const HOT_FORBIDDEN_METHODS: &[&str] = &[
    "collect",
    "push",
    "extend",
    "insert",
    "to_string",
    "to_owned",
    "to_vec",
];

/// Qualified constructors forbidden in hot fns. `Vec::new` and
/// `Vec::with_capacity` get the scratch exemption (reserving scratch);
/// the rest never do.
const HOT_QUALIFIED: &[(&str, &str, bool)] = &[
    ("Vec", "new", true),
    ("Vec", "with_capacity", true),
    ("String", "new", false),
    ("String", "from", false),
    ("String", "with_capacity", false),
    ("Box", "new", false),
];

/// Run every v2 family over one parsed file.
pub(crate) fn run(sink: &mut Sink, ctx: &FileContext, scanned: &ScannedFile, parsed: &Parsed) {
    if ctx.is_bin {
        return;
    }
    if !ctx.path.ends_with(PARALLEL_MODULE) {
        check_parallel(sink, scanned, parsed);
    }
    if !ctx.path.ends_with(SLAB_MODULE) {
        check_slab(sink, scanned, parsed);
    }
    check_hot(sink, scanned, parsed);
    check_cachegen(sink, scanned, parsed);
}

/// parallel: fan-out closures own their chunk; reductions merge in
/// entity-index order.
fn check_parallel(sink: &mut Sink, scanned: &ScannedFile, parsed: &Parsed) {
    let masked = &scanned.masked;
    let toks = &parsed.tokens;
    for f in &parsed.fns {
        let Some(body) = f.body else { continue };
        // Forked per-entity sinks must be merged back in the same fn:
        // the absorb loop is where entity-index order is re-imposed.
        let forks = parse::method_call_sites(toks, masked, body, "fork");
        let absorbs = parse::method_call_sites(toks, masked, body, "absorb");
        if let Some(&first) = forks.first() {
            if absorbs.is_empty() {
                sink.report(
                    "parallel",
                    toks[first].start,
                    format!(
                        "`{}` forks per-entity sinks but never absorbs them; \
                         absorb forked state back in entity-index order in the \
                         same fn so merged traces are schedule-independent",
                        f.name
                    ),
                );
            }
        }
        for name in FAN_OUT {
            for site in parse::call_sites(toks, masked, body, name) {
                let open = site + 1;
                let Some(close) = parse::match_delim(toks, masked, open) else {
                    continue;
                };
                let Some(cl) = parse::closure_in_args(toks, masked, open, close) else {
                    continue;
                };
                check_fanout_closure(sink, scanned, parsed, &cl, name);
            }
        }
    }
}

/// Audit one worker closure passed to a fan-out helper.
fn check_fanout_closure(
    sink: &mut Sink,
    scanned: &ScannedFile,
    parsed: &Parsed,
    cl: &Closure,
    fan: &str,
) {
    let masked = &scanned.masked;
    let toks = &parsed.tokens;
    let mut locals = dataflow::bindings_in(toks, masked, cl.body);
    for p in &cl.params {
        locals.insert(p);
    }
    for m in dataflow::mutations_in(toks, masked, cl.body) {
        if !locals.contains(&m.base) {
            sink.report(
                "parallel",
                toks[m.tok].start,
                format!(
                    "`{}` is captured state mutated inside a `{fan}` closure; \
                     cross-chunk writes alias between workers — write only \
                     through the closure's own chunk arguments and merge \
                     reductions in entity-index order after the fan-out",
                    m.base
                ),
            );
        }
    }
    for tok in &toks[cl.body.0..=cl.body.1.min(toks.len().saturating_sub(1))] {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let s = tok.text(masked);
        if SYNC_TOKENS.contains(&s) || s.starts_with("Atomic") {
            sink.report(
                "parallel",
                tok.start,
                format!(
                    "`{s}` inside a `{fan}` closure: scheduling-dependent \
                     synchronization breaks byte-identical replay — restructure \
                     so each chunk owns its slice and merge after the fan-out"
                ),
            );
        }
    }
    for site in parse::method_call_sites(toks, masked, cl.body, "emit") {
        let base = dataflow::path_base_before(toks, masked, site.saturating_sub(1));
        if base.is_some_and(|b| !locals.contains(&b)) {
            sink.report(
                "parallel",
                toks[site].start,
                format!(
                    "emitting through a captured sink inside a `{fan}` closure \
                     interleaves events in schedule order; fork a per-entity \
                     sink into the chunk and absorb it in entity-index order"
                ),
            );
        }
    }
}

/// slab: multiply-add / multiply-range arithmetic inside an index
/// expression re-derives slab strides.
fn check_slab(sink: &mut Sink, scanned: &ScannedFile, parsed: &Parsed) {
    let masked = &scanned.masked;
    let toks = &parsed.tokens;
    for k in 0..toks.len() {
        if !toks[k].is(masked, "[") {
            continue;
        }
        // Indexing context: `expr[...]`, i.e. the bracket follows a
        // value (identifier, literal, or a closed group). `vec![…]`,
        // attributes, array literals/types all follow punctuation.
        if k == 0 {
            continue;
        }
        let prev = toks[k - 1].text(masked);
        let indexing = matches!(toks[k - 1].kind, TokKind::Ident | TokKind::Num)
            && !matches!(prev, "return" | "in" | "break" | "match" | "else")
            || prev == ")"
            || prev == "]";
        if !indexing {
            continue;
        }
        let Some(close) = parse::match_delim(toks, masked, k) else {
            continue;
        };
        let mut has_mul = false;
        let mut has_add = false;
        let mut has_range = false;
        let mut q = k + 1;
        while q < close {
            let s = toks[q].text(masked);
            if s == "[" {
                // Nested index: audited on its own visit.
                q = parse::match_delim(toks, masked, q).map_or(q + 1, |c| c + 1);
                continue;
            }
            let binary = q > 0
                && (matches!(toks[q - 1].kind, TokKind::Ident | TokKind::Num)
                    || toks[q - 1].is(masked, ")")
                    || toks[q - 1].is(masked, "]"));
            match s {
                "*" if binary => has_mul = true,
                "+" if binary => has_add = true,
                ".." | "..=" => has_range = true,
                _ => {}
            }
            q += 1;
        }
        if has_mul && (has_add || has_range) {
            sink.report(
                "slab",
                toks[k].start,
                "raw stride arithmetic inside an index re-derives slab \
                 offsets; go through the Slab2/Slab3 accessors \
                 (crates/sim/src/slab.rs) so layout changes cannot \
                 desynchronize hand-rolled index math"
                    .to_owned(),
            );
        }
    }
}

/// hot: fns reachable from `// cellfi-lint: hot` roots stay
/// allocation-free outside reserved scratch.
fn check_hot(sink: &mut Sink, scanned: &ScannedFile, parsed: &Parsed) {
    if !parsed.fns.iter().any(|f| f.hot) {
        return;
    }
    let masked = &scanned.masked;
    let toks = &parsed.tokens;
    // Propagate hotness through direct same-file calls (callee-name
    // matching; duplicate names are all marked — conservative).
    let mut hot_root: BTreeMap<usize, String> = BTreeMap::new();
    let mut work: Vec<usize> = Vec::new();
    for (i, f) in parsed.fns.iter().enumerate() {
        if f.hot {
            hot_root.insert(i, f.name.clone());
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        let Some(body) = parsed.fns[i].body else {
            continue;
        };
        let root = hot_root.get(&i).cloned().unwrap_or_default();
        for callee in parse::callee_names(toks, masked, body) {
            for (j, g) in parsed.fns.iter().enumerate() {
                if g.name == callee && !hot_root.contains_key(&j) {
                    hot_root.insert(j, root.clone());
                    work.push(j);
                }
            }
        }
    }
    for (&i, root) in &hot_root {
        let f = &parsed.fns[i];
        let Some(body) = f.body else { continue };
        check_hot_body(sink, scanned, parsed, i, root, body);
    }
}

/// Scan one hot fn body for allocation and slab-clone sites.
fn check_hot_body(
    sink: &mut Sink,
    scanned: &ScannedFile,
    parsed: &Parsed,
    fn_idx: usize,
    root: &str,
    body: (usize, usize),
) {
    let masked = &scanned.masked;
    let toks = &parsed.tokens;
    let f = &parsed.fns[fn_idx];
    let mut bindings = dataflow::bindings_in(toks, masked, body);
    for p in &f.params {
        bindings.insert_typed(&p.name, &p.ty);
    }
    let scratch_named = |idents: &[String]| idents.iter().any(|s| s.contains("scratch"));
    let hi = body.1.min(toks.len().saturating_sub(1));
    for k in body.0..=hi {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        let s = toks[k].text(masked);
        let next_is = |t: &str| toks.get(k + 1).is_some_and(|n| n.is(masked, t));
        // Allocating macros: `format!` always, `vec!` unless scratch.
        if s == "format" && next_is("!") {
            report_hot(sink, toks[k].start, root, "format! allocates a String");
            continue;
        }
        if s == "vec" && next_is("!") {
            if !scratch_named(&dataflow::assign_target_idents(toks, masked, k)) {
                report_hot(sink, toks[k].start, root, "vec! allocates");
            }
            continue;
        }
        // Qualified constructors: `Vec::new`, `Box::new`, …
        if let Some(&(ty, method, exemptable)) = HOT_QUALIFIED.iter().find(|&&(ty, method, _)| {
            ty == s && next_is("::") && toks.get(k + 2).is_some_and(|n| n.is(masked, method))
        }) {
            let exempt =
                exemptable && scratch_named(&dataflow::assign_target_idents(toks, masked, k));
            if !exempt {
                report_hot(
                    sink,
                    toks[k].start,
                    root,
                    &format!("{ty}::{method} allocates"),
                );
            }
            continue;
        }
        // Method calls: allocation set and slab clones.
        let is_method = k > 0 && toks[k - 1].is(masked, ".") && next_is("(");
        if !is_method {
            continue;
        }
        if HOT_FORBIDDEN_METHODS.contains(&s) {
            let exempt = if HOT_SCRATCH_EXEMPT.contains(&s) {
                // `push`/`extend`/`insert` refill their receiver;
                // `collect` lands in its assignment target.
                let idents = if s == "collect" {
                    dataflow::assign_target_idents(toks, masked, k)
                } else {
                    dataflow::path_idents_before(toks, masked, k - 1)
                };
                scratch_named(&idents)
            } else {
                false
            };
            if !exempt {
                report_hot(sink, toks[k].start, root, &format!(".{s}() allocates"));
            }
            continue;
        }
        if s == "clone" {
            let base = dataflow::path_base_before(toks, masked, k - 1);
            let slab_typed = base
                .as_deref()
                .and_then(|b| bindings.ty(b))
                .is_some_and(|ty| ty.contains("Slab2") || ty.contains("Slab3"));
            if slab_typed {
                report_hot(
                    sink,
                    toks[k].start,
                    root,
                    ".clone() on a slab copies the whole tensor",
                );
            }
        }
    }
}

fn report_hot(sink: &mut Sink, offset: usize, root: &str, what: &str) {
    sink.report(
        "hot",
        offset,
        format!(
            "{what} in a per-subframe hot path (reached from \
             `// cellfi-lint: hot` root `{root}`); steady-state subframes \
             must reuse reserved *_scratch buffers instead"
        ),
    );
}

/// cachegen: slab gain writes bump `gain_gen`; association writes bump
/// `assoc_gen` — in the same fn as the mutation.
fn check_cachegen(sink: &mut Sink, scanned: &ScannedFile, parsed: &Parsed) {
    let masked = &scanned.masked;
    let toks = &parsed.tokens;
    for f in &parsed.fns {
        let Some(body) = f.body else { continue };
        let hi = body.1.min(toks.len().saturating_sub(1));
        let bumps = |gen_name: &str| -> bool {
            (body.0..=hi).any(|k| {
                toks[k].kind == TokKind::Ident
                    && toks[k].is(masked, gen_name)
                    && toks
                        .get(k + 1)
                        .is_some_and(|n| n.is(masked, "+=") || n.is(masked, "="))
            })
        };
        let mut gain_sites = Vec::new();
        let mut assoc_sites = Vec::new();
        for k in body.0..=hi {
            if toks[k].kind != TokKind::Ident {
                continue;
            }
            let s = toks[k].text(masked);
            // `self.<gain field>.<mutating accessor>(…)` or a wholesale
            // `self.<gain field> = …` replacement.
            if s == "self"
                && toks.get(k + 1).is_some_and(|t| t.is(masked, "."))
                && toks
                    .get(k + 2)
                    .is_some_and(|t| GAIN_FIELDS.contains(&t.text(masked)))
            {
                let write = match toks.get(k + 3).map(|t| t.text(masked)) {
                    Some(".") => toks
                        .get(k + 4)
                        .is_some_and(|t| GAIN_MUT_METHODS.contains(&t.text(masked)))
                        .then_some(k + 4),
                    Some("=") => Some(k + 2),
                    _ => None,
                };
                if let Some(site) = write {
                    gain_sites.push((site, toks.get(k + 2).map_or("", |t| t.text(masked))));
                }
            }
            // `….assoc[ue] = …` association rewrites.
            if s == "assoc" && k > 0 && toks[k - 1].is(masked, ".") {
                if let Some(close) = toks
                    .get(k + 1)
                    .filter(|t| t.is(masked, "["))
                    .and_then(|_| parse::match_delim(toks, masked, k + 1))
                {
                    let writes = toks
                        .get(close + 1)
                        .is_some_and(|t| t.is(masked, "=") || t.is(masked, "+="));
                    if writes {
                        assoc_sites.push(k);
                    }
                }
            }
        }
        if !gain_sites.is_empty() && !bumps("gain_gen") {
            for (site, field) in gain_sites {
                sink.report(
                    "cachegen",
                    toks[site].start,
                    format!(
                        "`{}` writes slab gain state (`{field}`) without bumping \
                         `gain_gen`; the (gain_gen, set_id) cache keys would \
                         replay stale interference/CQI for the changed gains",
                        f.name
                    ),
                );
            }
        }
        if !assoc_sites.is_empty() && !bumps("assoc_gen") {
            for site in assoc_sites {
                sink.report(
                    "cachegen",
                    toks[site].start,
                    format!(
                        "`{}` rewrites the association table without bumping \
                         `assoc_gen`; the CQI memo would replay scans for the \
                         old association",
                        f.name
                    ),
                );
            }
        }
    }
}
