//! MAC layer: the per-subframe LTE pipeline.
//!
//! Downlink: PF scheduling over each cell's allowed mask with
//! CQI-derived rates, transport blocks resolved against the *actual*
//! SINR through per-UE HARQ with chase combining, and control-channel
//! retention from neighbouring radios (the measured Fig 7(b) factor).
//! Uplink: PF grants over the same masks with the §3.1 single-carrier
//! power concentration. Mobility (A3 handover with X2 data forwarding)
//! and the RRC radio-link-failure timers live here too.
//!
//! Whether a cell may transmit at all this subframe is the IM layer's
//! call: the subframe loop asks the configured strategy's
//! `transmit_gate` (only LAA gates; every other system always allows).
//!
//! Downlink scheduling is the one per-cell stage that fans out: every
//! cell allocates its own subchannel row from shared, read-only rate
//! inputs ([`DlRates`]), so cells go to workers through
//! `parallel::for_each_row_zip`. HARQ, RNG draws, delivery and trace
//! emission then run serially in cell order.

use super::{im, LteEngine};
use cellfi_lte::amc::{Cqi, CqiTable};
use cellfi_lte::control::signalling_retention;
use cellfi_lte::grid::ResourceGrid;
use cellfi_lte::harq::{HarqEntity, HarqOutcome};
use cellfi_types::time::{Duration, Instant};
use cellfi_types::units::{Db, Dbm};
use cellfi_types::{SubchannelId, UeId};

/// Cells per worker below which the scheduling fan-out stays serial
/// (the `parallel::for_each_row` floor shared with the CQI scan): a
/// paper-scale run of a handful of cells never spawns.
const MIN_CELLS_PER_WORKER: usize = 64;

/// MAC scratch buffers, reused across subframes so the steady-state
/// subframe loop allocates nothing.
#[derive(Debug, Default)]
pub(super) struct MacScratch {
    /// Per-cell transmit gate from the IM layer.
    gate: Vec<bool>,
    /// Per-cell "radiated last subframe" flags (LAA sensing).
    pub(super) lbt_active: Vec<bool>,
    /// Flat `n_cells × n_sub` downlink assignment rows.
    assign: Vec<Option<UeId>>,
    /// Per-subchannel downlink transmitter sets.
    tx: Vec<Vec<usize>>,
    /// One cell's (downlink) or all cells' (uplink) `(ue, subchannel)`
    /// grants, grouped by UE.
    pairs: Vec<(u32, u32)>,
    /// Uplink: one cell's backlogged UEs, their queues, and its row.
    ul_ues: Vec<UeId>,
    ul_backlog: Vec<u64>,
    ul_row: Vec<Option<UeId>>,
    /// Uplink per-subchannel `(ue, power offset)` transmitter sets.
    ul_tx: Vec<Vec<(usize, f64)>>,
}

/// The downlink rate model's inputs, borrowed from the engine. The
/// scheduler's rate closure and the HARQ stage's transport-block sizing
/// both go through [`DlRates::bits`], so they cannot drift apart.
pub(super) struct DlRates<'a> {
    now: Instant,
    outage_until: &'a [Instant],
    ue_cqi: &'a [Vec<Cqi>],
    retention: &'a [f64],
    table: &'a CqiTable,
    grid: &'a ResourceGrid,
    dl_capacity: f64,
}

impl DlRates<'_> {
    /// Bits one subchannel can carry for a UE this subframe at its CQI.
    /// Zero while the UE is reconnecting after a radio-link failure.
    // cellfi-lint: hot
    pub(super) fn bits(&self, ue: usize, s: usize) -> f64 {
        if self.now < self.outage_until[ue] {
            return 0.0;
        }
        let cqi = self.ue_cqi[ue][s];
        if !cqi.usable() {
            return 0.0;
        }
        self.table.efficiency(cqi)
            * self.grid.data_res_per_subframe(SubchannelId::new(s as u32))
            * self.dl_capacity
            * self.retention[ue]
    }
}

impl LteEngine {
    /// Radio-link-failure timer: this long with no decodable subchannel
    /// while backlogged and the RRC connection drops (3GPP T310-style).
    pub const RLF_TIMER_MS: u32 = 200;

    /// Reconnection time after an RRC drop: cell search on the known
    /// carrier plus random access (the paper measured 56 s for a full
    /// multi-band scan; a drop on a known serving carrier recovers much
    /// faster).
    pub const RECONNECT: Duration = Duration::from_secs(3);

    /// Control-plane SINR towards the strongest *other* radiating cell
    /// (drives the Fig 7 signalling-interference retention). Only
    /// candidate neighbors compete — a culled cell's control presence is
    /// below the floor by construction.
    fn control_sinr(&self, ue: usize) -> Db {
        let ap = self.scenario.assoc[ue];
        let count = self.nbr_count[ue] as usize;
        let mut strongest_other = f64::NEG_INFINITY;
        for (sl, &c) in self.nbr.row(ue, count).iter().enumerate() {
            let c = c as usize;
            if c != ap && self.cell_active(c) {
                strongest_other =
                    strongest_other.max(self.dl_mean_dbm.at(ue, sl) + self.power_offset_db[c]);
            }
        }
        if strongest_other.is_finite() {
            Db(
                self.dl_mean_dbm.at(ue, self.serving_slot[ue] as usize) + self.power_offset_db[ap]
                    - strongest_other,
            )
        } else {
            Db(100.0) // no other radio: effectively clean
        }
    }

    pub(super) fn recompute_retention(&mut self) {
        self.retention = (0..self.scenario.n_ues())
            .map(|u| signalling_retention(self.control_sinr(u)))
            .collect();
    }

    /// The downlink rate model at `dl_capacity` (the TDD subframe's
    /// downlink share), as of now.
    pub(super) fn dl_rates(&self, dl_capacity: f64) -> DlRates<'_> {
        DlRates {
            now: self.now,
            outage_until: &self.outage_until,
            ue_cqi: &self.ue_cqi,
            retention: &self.retention,
            table: &self.table,
            grid: &self.grid,
            dl_capacity,
        }
    }

    /// Schedule every cell for one downlink subframe into
    /// `mac_scratch.assign` (`n_cells × n_sub`, row `c` = cell `c`'s
    /// subchannel owners; all `None` for a cell that may not transmit or
    /// has nothing queued). Each cell's allocation reads only shared
    /// state and its own scheduler, so cells fan out across workers.
    // cellfi-lint: hot
    fn schedule_cells(&mut self, dl_capacity: f64) {
        let n_sub = self.grid.num_subchannels() as usize;
        // The IM layer decides who may transmit this subframe (LAA's
        // listen-before-talk gates on last subframe's sensed energy;
        // every other system always allows).
        let mut gate = std::mem::take(&mut self.mac_scratch.gate);
        im::strategy_for(self.config.mode).transmit_gate(self, &mut gate);
        self.obs.profiler.begin(cellfi_obs::SpanId::MacSchedule);
        let mut cells = std::mem::take(&mut self.cells);
        let mut assign = std::mem::take(&mut self.mac_scratch.assign);
        assign.clear();
        assign.resize(cells.len() * n_sub, None);
        let rates = self.dl_rates(dl_capacity);
        let lease_ok = &self.lease_ok;
        crate::parallel::for_each_row_zip(
            &mut cells,
            &mut assign,
            MIN_CELLS_PER_WORKER,
            |c, cell, row| {
                if gate[c] && lease_ok[c] && cell.radio_on() && cell.total_queued_bits() > 0 {
                    cell.schedule(|ue, s| rates.bits(ue.index(), s), row);
                }
            },
        );
        self.cells = cells;
        self.mac_scratch.assign = assign;
        self.mac_scratch.gate = gate;
        self.obs.profiler.end(cellfi_obs::SpanId::MacSchedule);
    }

    /// Run one subframe. Returns `(ue, bits)` deliveries.
    pub fn step_subframe(&mut self) -> Vec<(usize, u64)> {
        self.obs.profiler.begin(cellfi_obs::SpanId::Subframe);
        self.refresh_fading();
        let n_sub = self.grid.num_subchannels() as usize;
        let mut deliveries = Vec::new();
        let dl_capacity = self.tdd.dl_capacity(self.now);
        if dl_capacity > 0.0 {
            self.dl_subframes_this_epoch += 1;
            // 1. Schedule every cell into the flat assignment buffer.
            self.schedule_cells(dl_capacity);
            let assign = std::mem::take(&mut self.mac_scratch.assign);
            // 2. Per-subchannel transmitter sets (scratch-backed rows).
            let mut tx = std::mem::take(&mut self.mac_scratch.tx);
            if tx.len() != n_sub {
                tx.resize_with(n_sub, Vec::new);
            }
            for row in tx.iter_mut() {
                row.clear();
            }
            for (c, row) in assign.chunks_exact(n_sub).enumerate() {
                let mut scheduled_any = false;
                for (s, assigned) in row.iter().enumerate() {
                    if assigned.is_some() {
                        tx[s].push(c);
                        scheduled_any = true;
                    }
                }
                if scheduled_any {
                    self.epoch_cell_sched[c] += 1;
                }
            }
            // 3. Resolve transport blocks per UE through HARQ. The
            // transmitter sets just built are exactly next subframe's
            // `tx_last`, so warming the interference cache here makes the
            // upcoming CQI scan a cache hit as well.
            self.tracker.observe(&tx);
            self.obs.profiler.begin(cellfi_obs::SpanId::SinrCache);
            self.interf.refresh(
                self.gain_gen,
                &self.tracker,
                &self.nbr,
                &self.nbr_count,
                &self.lin_mw,
            );
            self.obs.profiler.end(cellfi_obs::SpanId::SinrCache);
            let mut pairs = std::mem::take(&mut self.mac_scratch.pairs);
            for (c, row) in assign.chunks_exact(n_sub).enumerate() {
                // Group the cell's grants by UE. A stable sort keeps
                // subchannels ascending within each UE group and UEs
                // ascending overall — the iteration order of the
                // BTreeMap this replaces (an allocation holds at most
                // n_sub pairs, well inside the sort's no-alloc
                // insertion-sort regime).
                pairs.clear();
                for (s, assigned) in row.iter().enumerate() {
                    if let Some(ue) = assigned {
                        pairs.push((ue.index() as u32, s as u32));
                    }
                }
                pairs.sort_by_key(|&(ue, _)| ue);
                let mut i = 0;
                while i < pairs.len() {
                    let ue = pairs[i].0 as usize;
                    let mut j = i + 1;
                    while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                        j += 1;
                    }
                    let scs = &pairs[i..j];
                    i = j;
                    let mean_linear = scs
                        .iter()
                        .map(|&(_, s)| {
                            let s = s as usize;
                            // The serving cell `c` transmits on `s` by
                            // construction; its share of the cached total
                            // is the signal itself.
                            let signal = self.lin_mw.at(ue, self.serving_slot[ue] as usize, s);
                            let interference = (self.interf.total(s, ue) - signal).max(0.0);
                            signal / (interference + self.noise_mw[s])
                        })
                        .sum::<f64>()
                        / scs.len() as f64;
                    let eff_sinr = Db(10.0 * mean_linear.max(1e-12).log10());
                    let cqi = scs
                        .iter()
                        .map(|&(_, s)| self.ue_cqi[ue][s as usize])
                        .max()
                        .unwrap_or(Cqi::OUT_OF_RANGE);
                    if !cqi.usable() {
                        continue;
                    }
                    let rates = self.dl_rates(dl_capacity);
                    let bits: f64 = scs.iter().map(|&(_, s)| rates.bits(ue, s as usize)).sum();
                    let process = (self.now.as_millis() % 8) as usize;
                    let outcome =
                        self.harq[ue].transmit(process, cqi, eff_sinr, &mut self.ue_rng[ue]);
                    for &(_, s) in scs {
                        self.epoch[ue].sched_subframes[s as usize] += 1;
                    }
                    match outcome {
                        HarqOutcome::Ack { .. } => {
                            let drained = self.cells[c].deliver(UeId::new(ue as u32), bits as u64);
                            self.delivered[ue] += drained;
                            if drained > 0 {
                                deliveries.push((ue, drained));
                            }
                        }
                        HarqOutcome::Nack => {
                            if self.obs.detail {
                                self.obs.tracer.emit(
                                    self.now,
                                    cellfi_obs::Event::HarqRetx {
                                        ue: ue as u32,
                                        cell: c as u32,
                                        process: process as u32,
                                    },
                                );
                                self.obs.metrics.inc("harq_retx", ue as u32, 1);
                                self.epoch_retx[c] += 1;
                            }
                        }
                        HarqOutcome::Dropped => {
                            self.harq_drops[ue] += 1;
                        }
                    }
                }
            }
            self.mac_scratch.pairs = pairs;
            self.mac_scratch.assign = assign;
            std::mem::swap(&mut self.tx_last, &mut tx);
            self.mac_scratch.tx = tx;
        } else {
            // Uplink subframe: GPS-synchronized TDD means downlink data
            // pauses everywhere while the uplink runs. Uplink deliveries
            // accumulate in `ul_delivered_bits` (the return value carries
            // downlink deliveries only, which is what the web-workload
            // consumers track).
            self.step_uplink();
            for row in self.tx_last.iter_mut() {
                row.clear();
            }
            self.tracker.observe(&self.tx_last);
        }

        self.now += Duration::SUBFRAME;

        if self.now.is_multiple_of(Duration::CQI_PERIOD) {
            self.refresh_fading();
            self.measure_cqi();
        }
        if self.now.is_multiple_of(Duration::IM_EPOCH) {
            self.obs.profiler.begin(cellfi_obs::SpanId::ImEpoch);
            self.run_epoch();
            self.obs.profiler.end(cellfi_obs::SpanId::ImEpoch);
            if self.obs.detail {
                self.emit_epoch_detail();
            }
        }
        if self.obs.monitors.is_armed() {
            let facts = self.tick_facts();
            self.obs.monitors.check_tick(&facts);
        }
        self.obs.profiler.end(cellfi_obs::SpanId::Subframe);
        deliveries
    }

    /// Detail-stream epoch bookkeeping: one `sched` event per cell with
    /// the occupancy decision just taken (its allowed mask for the
    /// coming epoch), per-epoch samples into the `sched_occupancy` and
    /// `harq_retx_per_epoch` histograms, and a window snapshot of every
    /// histogram so the metrics export carries per-epoch distributions.
    fn emit_epoch_detail(&mut self) {
        for c in 0..self.cells.len() {
            let mut mask_bits = 0u32;
            let mut owned = 0u32;
            for (s, &allowed) in self.cells[c].allowed_mask().iter().enumerate() {
                if allowed {
                    mask_bits |= 1 << s;
                    owned += 1;
                }
            }
            self.obs.tracer.emit(
                self.now,
                cellfi_obs::Event::Sched {
                    cell: c as u32,
                    mask_bits,
                    owned,
                },
            );
            self.obs
                .metrics
                .observe("sched_occupancy", c as u32, f64::from(owned));
            self.obs
                .metrics
                .observe("harq_retx_per_epoch", c as u32, self.epoch_retx[c] as f64);
            self.epoch_retx[c] = 0;
        }
        self.obs.metrics.snapshot_window(self.now);
    }

    /// Instantaneous uplink SINR (dB) at `cell` for its UE `ue` on
    /// subchannel `s`, given all concurrently transmitting UEs and their
    /// per-subchannel powers.
    ///
    /// `tx[s]` lists `(ue, per_sc_power_offset_db)` of UEs granted
    /// subchannel `s` this subframe, where the offset is the
    /// concentration term `−10·log10(granted_subchannels)`.
    fn ul_sinr_db(&self, cell: usize, ue: usize, s: usize, tx: &[Vec<(usize, f64)>]) -> f64 {
        let sc = SubchannelId::new(s as u32);
        let fade = |u: usize| {
            self.scenario
                .env
                .fading
                .gain(
                    self.scenario.ues[u].node,
                    self.scenario.aps[cell].node,
                    sc,
                    self.now,
                )
                .value()
        };
        let mut signal = 0.0f64;
        let mut interference = 0.0f64;
        for &(u, offset) in &tx[s] {
            // An interfering UE whose path to `cell` was culled is below
            // the floor by construction; the served UE's own cell is
            // always a candidate.
            let Some(sl) = self
                .nbr
                .position(u, self.nbr_count[u] as usize, cell as u32)
            else {
                continue;
            };
            let p = Dbm(self.ul_mean_dbm.at(u, sl) + offset + fade(u))
                .to_milliwatts()
                .value();
            if u == ue {
                signal = p;
            } else {
                interference += p;
            }
        }
        10.0 * (signal / (interference + self.noise_mw[s])).log10()
    }

    /// Uplink rate estimate for `ue` at its serving `cell` on subchannel
    /// `s`: a sounding-based genie of the clean channel, assuming
    /// single-subchannel concentration (full power).
    fn ul_rate_bits(&self, cell: usize, ue: usize, s: usize) -> f64 {
        let sc = SubchannelId::new(s as u32);
        let fade = self
            .scenario
            .env
            .fading
            .gain(
                self.scenario.ues[ue].node,
                self.scenario.aps[cell].node,
                sc,
                self.now,
            )
            .value();
        // `cell` is this UE's serving cell (it is attached), so the slot
        // is the serving slot.
        let snr = self.ul_mean_dbm.at(ue, self.serving_slot[ue] as usize) + fade
            - 10.0 * self.noise_mw[s].log10();
        let cqi = self.table.cqi_for_sinr(Db(snr));
        if cqi.usable() {
            self.table.efficiency(cqi) * self.grid.data_res_per_subframe(sc)
        } else {
            0.0
        }
    }

    /// Run one uplink subframe: each cell grants its allowed subchannels
    /// to backlogged UEs (PF), UEs concentrate their 20 dBm across their
    /// grants, and transport blocks resolve against UL-UL interference
    /// through per-UE uplink HARQ. GPS-synchronized TDD (§4.1) means no
    /// DL↔UL cross interference. Uplink deliveries accumulate in
    /// `ul_delivered`.
    fn step_uplink(&mut self) {
        let n_sub = self.grid.num_subchannels() as usize;
        // 1. Grants per cell over its allowed mask, as `(ue, s)` pairs.
        let mut schedulers = std::mem::take(&mut self.ul_scheduler);
        let mut ues = std::mem::take(&mut self.mac_scratch.ul_ues);
        let mut backlog = std::mem::take(&mut self.mac_scratch.ul_backlog);
        let mut row = std::mem::take(&mut self.mac_scratch.ul_row);
        let mut grants = std::mem::take(&mut self.mac_scratch.pairs);
        row.resize(n_sub, None);
        grants.clear();
        for (c, scheduler) in schedulers.iter_mut().enumerate() {
            if !self.cell_active(c) {
                continue;
            }
            ues.clear();
            backlog.clear();
            for &u in self.cells[c].attached_ues() {
                if self.ul_queue[u.index()] > 0 {
                    ues.push(u);
                    backlog.push(self.ul_queue[u.index()]);
                }
            }
            if ues.is_empty() {
                continue;
            }
            scheduler.allocate(
                &ues,
                &backlog,
                self.cells[c].allowed_mask(),
                |i, s| self.ul_rate_bits(c, ues[i].index(), s),
                &mut row,
            );
            for (s, assigned) in row.iter().enumerate() {
                if let Some(u) = assigned {
                    grants.push((u.index() as u32, s as u32));
                }
            }
        }
        self.ul_scheduler = schedulers;
        self.mac_scratch.ul_ues = ues;
        self.mac_scratch.ul_backlog = backlog;
        self.mac_scratch.ul_row = row;
        // Group by UE, subchannels ascending within each group. The
        // pairs are unique, so the in-place unstable sort is exact.
        grants.sort_unstable();
        // 2. Concentration offsets and the transmitter sets.
        let mut tx = std::mem::take(&mut self.mac_scratch.ul_tx);
        tx.resize_with(n_sub, Vec::new);
        for sc_tx in tx.iter_mut() {
            sc_tx.clear();
        }
        for ue_grants in grants.chunk_by(|a, b| a.0 == b.0) {
            let offset = -10.0 * (ue_grants.len() as f64).log10();
            for &(u, s) in ue_grants {
                tx[s as usize].push((u as usize, offset));
            }
        }
        // 3. Resolve per UE through uplink HARQ.
        for ue_grants in grants.chunk_by(|a, b| a.0 == b.0) {
            let u = ue_grants[0].0 as usize;
            let cell = self.scenario.assoc[u];
            let mean_linear = ue_grants
                .iter()
                .map(|&(_, s)| Db(self.ul_sinr_db(cell, u, s as usize, &tx)).to_linear())
                .sum::<f64>()
                / ue_grants.len() as f64;
            let eff_sinr = Db(10.0 * mean_linear.max(1e-12).log10());
            let cqi = self.table.cqi_for_sinr(eff_sinr);
            if !cqi.usable() {
                continue;
            }
            let bits: f64 = ue_grants
                .iter()
                .map(|&(_, s)| {
                    self.table.efficiency(cqi)
                        * self.grid.data_res_per_subframe(SubchannelId::new(s))
                })
                .sum();
            let process = (self.now.as_millis() % 8) as usize;
            let outcome = self.ul_harq[u].transmit(process, cqi, eff_sinr, &mut self.ue_rng[u]);
            if let HarqOutcome::Ack { .. } = outcome {
                let drained = (bits as u64).min(self.ul_queue[u]);
                self.ul_queue[u] -= drained;
                self.ul_delivered[u] += drained;
            }
        }
        self.mac_scratch.ul_tx = tx;
        self.mac_scratch.pairs = grants;
    }

    /// A3-style handover check for one client: switch to a neighbour cell
    /// whose downlink is at least `hysteresis_db` stronger than the
    /// serving cell's. Queued downlink data is forwarded over X2 (the
    /// lossless-handover behaviour CellFi inherits from LTE, §7).
    /// Returns the new serving cell if a handover happened.
    pub fn check_handover(&mut self, ue: usize, hysteresis_db: f64) -> Option<usize> {
        let serving = self.scenario.assoc[ue];
        // Only candidate neighbors are handover targets: anything culled
        // is below the floor and cannot beat the serving cell by the
        // hysteresis. Update on ties (`!is_lt`) to keep `max_by`'s
        // last-maximal-element choice.
        let count = self.nbr_count[ue] as usize;
        let mut best: Option<(usize, usize, f64)> = None;
        for (sl, &c) in self.nbr.row(ue, count).iter().enumerate() {
            let c = c as usize;
            if !self.cell_active(c) {
                continue;
            }
            let dbm = self.dl_mean_dbm.at(ue, sl);
            if best.is_none_or(|(_, _, b)| !dbm.total_cmp(&b).is_lt()) {
                best = Some((c, sl, dbm));
            }
        }
        let (best, best_slot, best_dbm) = best?;
        let serving_dbm = self.dl_mean_dbm.at(ue, self.serving_slot[ue] as usize);
        if best == serving || best_dbm < serving_dbm + hysteresis_db {
            return None;
        }
        let ueid = UeId::new(ue as u32);
        let pending = self.cells[serving].queued_bits(ueid);
        self.cells[serving].detach(ueid);
        self.cells[best].attach(ueid);
        if pending > 0 {
            self.cells[best].enqueue(ueid, pending); // X2 data forwarding
        }
        self.scenario.assoc[ue] = best;
        self.serving_slot[ue] = best_slot as u32;
        // Fresh HARQ state towards the new cell, and a new association
        // generation: memoized CQI scans keyed on the old serving cells
        // must miss from here on.
        self.harq[ue] = HarqEntity::new();
        self.ul_harq[ue] = HarqEntity::new();
        self.assoc_gen += 1;
        self.handovers += 1;
        Some(best)
    }
}
