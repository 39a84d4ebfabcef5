//! Downlink schedulers over an allowed-subchannel mask.
//!
//! CellFi deliberately does *not* modify the LTE scheduler: "once the
//! interference management component decides which resource block a
//! scheduler can use, it informs the scheduler using standard interfaces.
//! The scheduler is free to schedule any client in any of the resource
//! blocks made available" (§4.3). This module is that standard scheduler:
//! proportional-fair (the common vendor default) and round-robin, both
//! operating only on subchannels enabled in the mask supplied each
//! subframe.
//!
//! The scheduler also produces the bookkeeping CellFi's bucket updates
//! need: which UE was served on which subchannel (the engine aggregates
//! this into `frac_j`, the fraction of time client `j` was scheduled on a
//! subchannel during the last epoch, §5.3).

use cellfi_types::UeId;

/// Scheduler discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Proportional fair: maximize instantaneous rate / average rate.
    ProportionalFair,
    /// Round robin over backlogged UEs.
    RoundRobin,
}

/// A downlink scheduler instance (one per cell).
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// EWMA of served rate per UE (bits/subframe), the PF denominator,
    /// kept sorted by UE id: a cell serves a few dozen UEs, so a binary
    /// search over one contiguous run beats a tree walk.
    avg_rate: Vec<(UeId, f64)>,
    /// EWMA smoothing factor (standard PF window ≈ 100 subframes).
    alpha: f64,
    /// Round-robin pointer.
    rr_next: usize,
    /// Remaining backlog per UE while subchannels are handed out.
    remaining_scratch: Vec<f64>,
    /// PF denominator per UE, looked up once per allocation.
    avg_scratch: Vec<f64>,
}

impl Scheduler {
    /// New scheduler of the given discipline.
    pub fn new(kind: SchedulerKind) -> Scheduler {
        Scheduler {
            kind,
            avg_rate: Vec::new(),
            alpha: 0.01,
            rr_next: 0,
            remaining_scratch: Vec::new(),
            avg_scratch: Vec::new(),
        }
    }

    /// Allocate the allowed subchannels of one subframe among `ues`.
    /// `backlog[i]` is the queue of `ues[i]` in bits, `rate(i, s)` the
    /// bits `ues[i]` can carry on subchannel `s` this subframe (0 where
    /// it cannot decode), and `allowed[s]` the interference-management
    /// mask. `out[s]` receives the UE scheduled on subchannel `s`, if
    /// any. Downlink and uplink both allocate through here.
    ///
    /// UEs are never assigned more capacity than their backlog needs
    /// (trailing subchannels are released to other UEs — the §5.2
    /// "scheduler will later automatically assign these to its other
    /// clients" behaviour). Rates are asked for lazily, only for UEs
    /// with backlog left on allowed subchannels, so `rate` must be pure.
    // cellfi-lint: hot
    pub fn allocate(
        &mut self,
        ues: &[UeId],
        backlog: &[u64],
        allowed: &[bool],
        rate: impl Fn(usize, usize) -> f64,
        out: &mut [Option<UeId>],
    ) {
        assert_eq!(backlog.len(), ues.len(), "backlog length mismatch");
        assert_eq!(out.len(), allowed.len(), "assignment row length mismatch");
        out.fill(None);
        if ues.is_empty() {
            return;
        }
        self.remaining_scratch.clear();
        self.remaining_scratch
            .extend(backlog.iter().map(|&b| b as f64));
        let remaining = &mut self.remaining_scratch;

        match self.kind {
            SchedulerKind::ProportionalFair => {
                self.avg_scratch.clear();
                let avg_rate = &self.avg_rate;
                self.avg_scratch.extend(ues.iter().map(|&ue| {
                    avg_lookup(avg_rate, ue)
                        .map_or(1.0, |k| avg_rate[k].1)
                        .max(1.0)
                }));
                let avg = &self.avg_scratch;
                for (s, slot) in out.iter_mut().enumerate() {
                    if !allowed[s] {
                        continue;
                    }
                    let mut best: Option<(usize, f64, f64)> = None;
                    for (i, &left) in remaining.iter().enumerate() {
                        if left <= 0.0 {
                            continue;
                        }
                        let r = rate(i, s);
                        if r <= 0.0 {
                            continue;
                        }
                        let metric = r / avg[i];
                        if best.is_none_or(|(_, m, _)| metric > m) {
                            best = Some((i, metric, r));
                        }
                    }
                    if let Some((i, _, r)) = best {
                        *slot = Some(ues[i]);
                        remaining[i] -= r;
                    }
                }
            }
            SchedulerKind::RoundRobin => {
                let n_ue = ues.len();
                let mut cursor = self.rr_next % n_ue;
                for (s, slot) in out.iter_mut().enumerate() {
                    if !allowed[s] {
                        continue;
                    }
                    // Find the next UE (starting at cursor) with backlog
                    // and a usable subchannel.
                    for step in 0..n_ue {
                        let i = (cursor + step) % n_ue;
                        if remaining[i] <= 0.0 {
                            continue;
                        }
                        let r = rate(i, s);
                        if r > 0.0 {
                            *slot = Some(ues[i]);
                            remaining[i] -= r;
                            cursor = (i + 1) % n_ue;
                            break;
                        }
                    }
                }
                self.rr_next = cursor;
            }
        }
    }

    /// Record bits actually delivered to `ue` this subframe (updates the
    /// PF average). Call once per subframe per UE, with 0 for unserved
    /// UEs so their average decays and their PF priority rises.
    pub fn record_served(&mut self, ue: UeId, bits: f64) {
        let k = match avg_lookup(&self.avg_rate, ue) {
            Ok(k) => k,
            Err(k) => {
                self.avg_rate.insert(k, (ue, 1.0));
                k
            }
        };
        let avg = &mut self.avg_rate[k].1;
        *avg = (1.0 - self.alpha) * *avg + self.alpha * bits;
    }

    /// The PF average for a UE (test/diagnostic hook).
    pub fn average_rate(&self, ue: UeId) -> f64 {
        avg_lookup(&self.avg_rate, ue).map_or(0.0, |k| self.avg_rate[k].1)
    }

    /// Remove state for a detached UE.
    pub fn forget(&mut self, ue: UeId) {
        if let Ok(k) = avg_lookup(&self.avg_rate, ue) {
            self.avg_rate.remove(k);
        }
    }
}

/// Position of `ue` in the id-sorted PF averages (`Err` = insertion point).
fn avg_lookup(avg_rate: &[(UeId, f64)], ue: UeId) -> Result<usize, usize> {
    avg_rate.binary_search_by_key(&ue, |&(u, _)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One UE's scheduling input, as the tests phrase it.
    #[derive(Debug, Clone)]
    struct Demand {
        ue: UeId,
        backlog_bits: u64,
        rate_per_subchannel: Vec<f64>,
    }

    fn demand(ue: u32, backlog: u64, rates: Vec<f64>) -> Demand {
        Demand {
            ue: UeId::new(ue),
            backlog_bits: backlog,
            rate_per_subchannel: rates,
        }
    }

    /// Drive the single entry point with demand rows; returns the
    /// assignment row.
    fn allocate(s: &mut Scheduler, allowed: &[bool], demands: &[Demand]) -> Vec<Option<UeId>> {
        let ues: Vec<UeId> = demands.iter().map(|d| d.ue).collect();
        let backlog: Vec<u64> = demands.iter().map(|d| d.backlog_bits).collect();
        let mut out = vec![None; allowed.len()];
        s.allocate(
            &ues,
            &backlog,
            allowed,
            |i, sc| demands[i].rate_per_subchannel[sc],
            &mut out,
        );
        out
    }

    fn used_count(a: &[Option<UeId>]) -> usize {
        a.iter().filter(|x| x.is_some()).count()
    }

    fn subchannels_of(a: &[Option<UeId>], ue: u32) -> usize {
        a.iter().filter(|&&x| x == Some(UeId::new(ue))).count()
    }

    #[test]
    fn respects_allowed_mask() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let allowed = vec![true, false, true, false];
        let d = vec![demand(0, 1_000_000, vec![100.0; 4])];
        let a = allocate(&mut s, &allowed, &d);
        assert_eq!(a[0], Some(UeId::new(0)));
        assert_eq!(a[1], None);
        assert_eq!(a[2], Some(UeId::new(0)));
        assert_eq!(a[3], None);
    }

    #[test]
    fn empty_demands_allocate_nothing() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let a = allocate(&mut s, &[true, true], &[]);
        assert_eq!(used_count(&a), 0);
    }

    #[test]
    fn stale_output_row_is_cleared() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let mut out = vec![Some(UeId::new(9)); 3];
        s.allocate(&[], &[], &[true; 3], |_, _| 1.0, &mut out);
        assert_eq!(out, vec![None; 3]);
    }

    #[test]
    fn backlog_limits_assignment() {
        // 150 bits of backlog at 100 bits/subchannel needs 2 subchannels,
        // not all 4 — the rest must go unused (or to other UEs).
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![demand(0, 150, vec![100.0; 4])];
        let a = allocate(&mut s, &[true; 4], &d);
        assert_eq!(used_count(&a), 2);
    }

    #[test]
    fn released_capacity_goes_to_other_ue() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![
            demand(0, 150, vec![100.0; 4]),
            demand(1, 1_000_000, vec![100.0; 4]),
        ];
        let a = allocate(&mut s, &[true; 4], &d);
        assert_eq!(used_count(&a), 4);
        assert_eq!(subchannels_of(&a, 1), 2);
    }

    #[test]
    fn pf_prefers_under_served_ue() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        // UE 0 has been served heavily, UE 1 starved.
        for _ in 0..200 {
            s.record_served(UeId::new(0), 10_000.0);
            s.record_served(UeId::new(1), 10.0);
        }
        let d = vec![
            demand(0, 1_000_000, vec![100.0; 2]),
            demand(1, 1_000_000, vec![100.0; 2]),
        ];
        let a = allocate(&mut s, &[true, true], &d);
        assert_eq!(subchannels_of(&a, 1), 2, "{a:?}");
    }

    #[test]
    fn pf_exploits_frequency_selectivity() {
        // Equal averages; UE 0 peaks on sc0, UE 1 on sc1 → each gets its
        // best subchannel (the OFDMA advantage of §3.1).
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        s.record_served(UeId::new(0), 100.0);
        s.record_served(UeId::new(1), 100.0);
        let d = vec![
            demand(0, 10_000, vec![500.0, 50.0]),
            demand(1, 10_000, vec![50.0, 500.0]),
        ];
        let a = allocate(&mut s, &[true, true], &d);
        assert_eq!(a[0], Some(UeId::new(0)));
        assert_eq!(a[1], Some(UeId::new(1)));
    }

    #[test]
    fn zero_rate_subchannel_never_assigned() {
        // A UE that cannot decode a subchannel (CQI 0) must not be put on
        // it, even if it is the only UE.
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let d = vec![demand(0, 1_000_000, vec![0.0, 100.0])];
        let a = allocate(&mut s, &[true, true], &d);
        assert_eq!(a[0], None);
        assert_eq!(a[1], Some(UeId::new(0)));
    }

    #[test]
    fn round_robin_rotates_between_subframes() {
        let mut s = Scheduler::new(SchedulerKind::RoundRobin);
        let d = vec![
            demand(0, 1_000_000, vec![100.0]),
            demand(1, 1_000_000, vec![100.0]),
        ];
        let first = allocate(&mut s, &[true], &d)[0];
        let second = allocate(&mut s, &[true], &d)[0];
        assert_ne!(first, second, "RR must alternate single subchannel");
    }

    #[test]
    fn round_robin_spreads_within_subframe() {
        let mut s = Scheduler::new(SchedulerKind::RoundRobin);
        let d = vec![
            demand(0, 1_000_000, vec![100.0; 4]),
            demand(1, 1_000_000, vec![100.0; 4]),
        ];
        let a = allocate(&mut s, &[true; 4], &d);
        assert_eq!(subchannels_of(&a, 0), 2);
        assert_eq!(subchannels_of(&a, 1), 2);
    }

    #[test]
    fn record_served_moves_average() {
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        for _ in 0..1000 {
            s.record_served(UeId::new(0), 500.0);
        }
        assert!((s.average_rate(UeId::new(0)) - 500.0).abs() < 5.0);
        s.forget(UeId::new(0));
        assert_eq!(s.average_rate(UeId::new(0)), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_demands() -> impl Strategy<Value = Vec<Demand>> {
            proptest::collection::vec(
                (0u64..2_000, proptest::collection::vec(0.0f64..1_000.0, 13)),
                1..6,
            )
            .prop_map(|raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (backlog, rates))| Demand {
                        ue: UeId::new(i as u32),
                        backlog_bits: backlog,
                        rate_per_subchannel: rates,
                    })
                    .collect()
            })
        }

        proptest! {
            /// Nothing outside the mask, nothing to zero-rate subchannels,
            /// nothing to UEs with no backlog.
            #[test]
            fn allocation_is_always_legal(
                demands in arb_demands(),
                mask_bits in proptest::collection::vec(any::<bool>(), 13),
                rr in any::<bool>(),
            ) {
                let kind = if rr {
                    SchedulerKind::RoundRobin
                } else {
                    SchedulerKind::ProportionalFair
                };
                let mut s = Scheduler::new(kind);
                let alloc = allocate(&mut s, &mask_bits, &demands);
                for (sc, assigned) in alloc.iter().enumerate() {
                    if let Some(ue) = assigned {
                        prop_assert!(mask_bits[sc], "assigned outside mask");
                        let d = demands.iter().find(|d| d.ue == *ue).expect("known UE");
                        prop_assert!(d.rate_per_subchannel[sc] > 0.0, "zero-rate subchannel");
                        prop_assert!(d.backlog_bits > 0, "no backlog");
                    }
                }
            }

            /// A single backlogged UE with uniform rates gets every allowed,
            /// usable subchannel it needs.
            #[test]
            fn lone_ue_saturates_mask(mask_bits in proptest::collection::vec(any::<bool>(), 13)) {
                let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
                let d = vec![Demand {
                    ue: UeId::new(0),
                    backlog_bits: u64::MAX / 2,
                    rate_per_subchannel: vec![100.0; 13],
                }];
                let alloc = allocate(&mut s, &mask_bits, &d);
                let allowed = mask_bits.iter().filter(|&&b| b).count();
                prop_assert_eq!(used_count(&alloc), allowed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_rate_vector_length_panics() {
        // A 3-subchannel row against a 4-subchannel mask.
        let mut s = Scheduler::new(SchedulerKind::ProportionalFair);
        let mut out = vec![None; 3];
        s.allocate(&[UeId::new(0)], &[100], &[true; 4], |_, _| 1.0, &mut out);
    }
}
