//! Hazard eras (Ramalhete & Correia 2017; paper §3.3).
//!
//! HE keeps HP's per-reference protection slots but stores *eras* (epoch
//! values) instead of addresses. Nodes carry a birth era and a retire era;
//! a retired node may be freed when no announced era lies inside its
//! birth–death interval. Because the global era advances only every
//! `epoch_freq` deletions, consecutive reads usually see an unchanged era
//! and skip the announcement fence — this is how HE undercuts HP's
//! overhead while keeping HP's deployment effort.
//!
//! HE is robust (a stalled thread cannot pin nodes born after its announced
//! eras) but its wasted memory is not bounded by a predetermined value: all
//! nodes alive at the moment a thread stalls stay pinned, which can be the
//! entire data structure (§1).

use std::sync::Arc;

use core::sync::atomic::Ordering;

use mp_util::CachePadded;

use crate::api::{Config, Smr, SmrHandle};
use crate::backpressure::BackpressurePolicy;
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{
    counted_fence, EpochClock, RetiredList, SchemeCore, SharedSnapshot, INACTIVE,
};
use crate::stats::FenceSite;
use crate::telemetry::{HandleTelemetry, SchemeTelemetry, Telemetry};

/// Hazard-eras SMR scheme (shared state).
pub struct He {
    clock: EpochClock,
    /// Era announcement slots (`INACTIVE` = no era announced).
    era_slots: SlotArray,
    /// Version-stamped era snapshot shared across scanning handles;
    /// adopted instead of re-walked when no announcement changed.
    shared_snap: SharedSnapshot,
    pub(crate) core: SchemeCore,
}

/// Per-thread handle for [`He`].
pub struct HeHandle {
    scheme: Arc<He>,
    tid: usize,
    /// Local mirror of this thread's announced eras.
    local: Vec<u64>,
    retired: RetiredList,
    /// Retained era-snapshot buffer, refilled in place per scan.
    era_scratch: Vec<u64>,
    /// Retained generation-vector buffer for snapshot adoption.
    gens_scratch: Vec<u64>,
    /// True if the previous scan adopted the shared snapshot. A handle
    /// never adopts twice in a row: releases (unprotect/deregistration) do
    /// not bump generations, so the forced fresh walk bounds how long a
    /// released era can linger in an adopted snapshot.
    adopted_last: bool,
    tele: CachePadded<HandleTelemetry>,
}

impl Smr for He {
    type Handle = HeHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::new(cfg)?;
        let (threads, slots) = (core.cfg.max_threads, core.cfg.slots_per_thread);
        Ok(Arc::new(He {
            clock: EpochClock::new(),
            era_slots: SlotArray::new(threads, slots, INACTIVE),
            shared_snap: SharedSnapshot::new(threads, slots),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<HeHandle, SmrError> {
        let (retired, tele) = RetiredList::register(&self.core, true)?;
        Ok(HeHandle {
            scheme: self.clone(),
            tid: retired.tid(),
            local: vec![INACTIVE; self.core.cfg.slots_per_thread],
            retired,
            era_scratch: Vec::new(),
            gens_scratch: Vec::new(),
            adopted_last: false,
            tele: CachePadded::new(tele),
        })
    }

    fn name() -> &'static str {
        "HE"
    }

    fn telemetry(&self) -> &SchemeTelemetry {
        &self.core.tele
    }

    fn backpressure_policy(&self) -> &BackpressurePolicy {
        &self.core.bp_policy
    }
}

impl Telemetry for HeHandle {
    fn tele(&self) -> &HandleTelemetry {
        &self.tele
    }

    fn tele_mut(&mut self) -> &mut HandleTelemetry {
        &mut self.tele
    }
}

impl He {
    /// Snapshots every announced era into `snap` (cleared and refilled in
    /// place, sorted) for interval queries; the buffer lives in the handle
    /// so steady-state scans reuse its capacity.
    fn snapshot_eras_into(&self, snap: &mut Vec<u64>) {
        snap.clear();
        for tid in 0..self.era_slots.threads() {
            for slot in self.era_slots.row(tid) {
                let v = slot.load(Ordering::Acquire);
                if v != INACTIVE {
                    snap.push(v);
                }
            }
        }
        snap.sort_unstable();
    }
}

/// True if some announced era in sorted `eras` lies in `[birth, retire]`.
fn interval_hit(eras: &[u64], birth: u64, retire: u64) -> bool {
    let i = eras.partition_point(|&e| e < birth);
    i < eras.len() && eras[i] <= retire
}

impl HeHandle {
    /// Capacity of the handle-owned snapshot buffers.
    fn snapshot_caps(&self) -> usize {
        self.era_scratch.capacity() + self.gens_scratch.capacity()
    }

    /// Reclamation scan; allocation-free in steady state (era snapshot and
    /// retired list both cycle through handle-owned buffers).
    /// `allow_adopt` permits reusing the shared era snapshot; explicit
    /// `force_empty` calls pass `false` so they always observe the live
    /// slots.
    fn empty(&mut self, allow_adopt: bool) {
        let caps = self.snapshot_caps();
        let ticket = self.retired.begin_scan(&mut self.tele, caps);
        // Same adoption protocol as HP (see SharedSnapshot docs): equal
        // generation vectors prove no era was announced-and-validated since
        // the published walk, so reusing it only over-approximates.
        self.scheme.shared_snap.load_gens_into(&mut self.gens_scratch);
        let adopted = allow_adopt
            && !self.adopted_last
            && self.scheme.shared_snap.try_adopt_into(&self.gens_scratch, &mut self.era_scratch);
        self.adopted_last = adopted;
        if adopted {
            self.tele.record_snapshot_reuse();
            #[cfg(feature = "oracle")]
            {
                // The reused snapshot must contain every era a fresh walk
                // would see (superset check).
                let mut fresh = Vec::new();
                self.scheme.snapshot_eras_into(&mut fresh);
                for v in &fresh {
                    assert!(
                        self.era_scratch.binary_search(v).is_ok(),
                        "snapshot reuse under-approximates: era {v} missing"
                    );
                }
            }
        } else {
            self.scheme.snapshot_eras_into(&mut self.era_scratch);
            self.scheme.shared_snap.publish_snapshot(&self.gens_scratch, &self.era_scratch);
        }
        let caps = self.snapshot_caps();
        let eras = &self.era_scratch;
        // SAFETY: [INV-05] a node is freed only if the snapshot taken after
        // the SeqCst fence shows no announced era overlapping its lifetime,
        // so no thread can have validated a protection for it (§3.3).
        unsafe {
            self.retired.sweep(&self.scheme.core, &mut self.tele, ticket, caps, |r| {
                interval_hit(eras, r.birth, r.retire)
            })
        };
        // Oracle: era-pile conformance bound. At most T·H distinct eras are
        // announced; each pins retirees whose lifetime contains it, and the
        // era clock advances every `epoch_freq` allocations per thread, so
        // a pile of more than F·T nodes per announced era (plus the
        // `empty_freq` batch retired since the last scan) means the
        // interval filter is broken. Heuristic, not a paper theorem — HE's
        // waste is not predetermined — but far above anything a correct
        // scan retains at test scale.
        #[cfg(feature = "oracle")]
        {
            let cfg = &self.scheme.core.cfg;
            let t = cfg.max_threads as u128;
            let h = cfg.slots_per_thread as u128;
            let f = cfg.epoch_freq as u128;
            let bound = t * h * f * t + cfg.empty_freq as u128;
            crate::oracle::check_waste_bound("HE", self.retired.len(), bound);
        }
    }

    /// Backpressure help-scan: adopt whatever retired lists churned-out
    /// peers parked as orphans, then scan against the *live* era slots.
    /// See [`crate::backpressure`].
    fn help_scan(&mut self) {
        self.retired.begin_help(&self.scheme.core, &mut self.tele);
        self.empty(false);
    }
}

impl SmrHandle for HeHandle {
    fn start_op(&mut self) {
        #[cfg(feature = "oracle")]
        crate::oracle::enter_scheme("HE");
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_start_op(crate::hb::HbPolicy::HE);
        self.retired.start_op(&mut self.tele);
    }

    fn end_op(&mut self) {
        // Era slots are *not* cleared between operations (lazy eras): a
        // stale era only pins nodes whose lifetime contains it — a
        // shrinking, finite set — so robustness is unaffected, while the
        // next operation that sees an unchanged global era pays no fence at
        // all. This matches the paper's characterization of HE's per-read
        // cost as "only reading the global epoch" (§6).
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_end_op();
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        // Published HE get_protected loop: (re)announce the era until it is
        // stable across the pointer load. A stable era proves any node seen
        // by the load has birth ≤ era ≤ retire w.r.t. our announcement.
        let mut prev = self.local[refno];
        loop {
            let w = src.load(Ordering::Acquire);
            let era = self.scheme.clock.now();
            if era == prev {
                // Hb-oracle: era stable across the load — the node's
                // lifetime overlaps this handle's validated announcement.
                #[cfg(feature = "hb-oracle")]
                if !w.is_null() {
                    crate::hb::on_protect(None, w.addr());
                }
                return w;
            }
            self.scheme.era_slots.get(self.tid, refno).store(era, Ordering::Release);
            self.local[refno] = era;
            // New era announced: invalidate shared era snapshots (after the
            // slot store, before the validation fence).
            self.scheme.shared_snap.bump_gen(self.tid);
            counted_fence(&mut self.tele, FenceSite::Announce);
            prev = era;
        }
    }

    fn unprotect(&mut self, refno: usize) {
        self.scheme.era_slots.get(self.tid, refno).store(INACTIVE, Ordering::Release);
        self.local[refno] = INACTIVE;
    }

    fn alloc_with_index<T: Send + Sync>(&mut self, data: T, index: u32) -> Shared<T> {
        let birth = self.scheme.clock.now();
        self.retired.alloc(&self.scheme.core, &mut self.tele, data, index, birth)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.clock.now();
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        let r = unsafe { Retired::new(node.as_raw(), stamp) };
        let due = self.retired.push(&self.scheme.core, &mut self.tele, r);
        // HE advances the era every constant number of deletions (§3.3).
        if self.retired.retires().is_multiple_of(self.scheme.core.cfg.epoch_freq) {
            let e = self.scheme.clock.advance();
            self.tele.record_epoch_advance(e);
        }
        if due {
            self.empty(true);
        }
        if self.retired.assess_pressure(&self.scheme.core, &mut self.tele) {
            self.help_scan();
        }
    }

    fn retired_len(&self) -> usize {
        self.retired.len()
    }

    fn force_empty(&mut self) {
        self.empty(false);
    }
}

impl Drop for HeHandle {
    fn drop(&mut self) {
        // Hb-oracle: the row clear below withdraws every era announcement
        // this handle made, so its protection claims must die with it.
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_handle_drop();
        self.scheme.era_slots.clear_row(self.tid, Ordering::Release);
        // Drain scan before parking leftovers — see HpHandle::drop: under
        // watermark triggers plus handle churn, skipping this would leak
        // every retired node of short-lived handles into the orphan list.
        self.force_empty();
        self.retired.deregister(&self.scheme.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(threads: usize) -> Arc<He> {
        // watermark 1: scan on every retire, as the old empty_freq=1 did.
        He::new(
            Config::default()
                .with_max_threads(threads)
                .with_empty_freq(1)
                .with_epoch_freq(1)
                .with_scan_watermark(1),
        )
    }

    #[test]
    fn interval_hit_logic() {
        assert!(interval_hit(&[5], 5, 5));
        assert!(interval_hit(&[3, 9], 4, 9));
        assert!(!interval_hit(&[3, 9], 4, 8));
        assert!(!interval_hit(&[], 0, u64::MAX));
        assert!(interval_hit(&[0], 0, 0));
        assert!(!interval_hit(&[10], 0, 9));
        assert!(!interval_hit(&[10], 11, 20));
    }

    #[test]
    fn era_inside_lifetime_blocks_reclamation() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(1u32);
        let cell = Atomic::new(n);

        reader.start_op();
        let got = reader.read(&cell, 0); // announces current era
        assert_eq!(got, n);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "announced era within [birth,retire] pins node");
        // SAFETY: [INV-12] reader's announced era still pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 1);

        // Lazy eras: ending the operation keeps the era announced; only
        // deregistering (or a later refresh) releases it.
        reader.end_op();
        drop(reader);
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
        writer.end_op();
    }

    #[test]
    fn nodes_born_after_stall_are_reclaimed() {
        // Robustness: the stalled reader's eras predate new nodes' births.
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        stalled.start_op();
        worker.start_op();
        let pin = worker.alloc(0u32);
        let cell = Atomic::new(pin);
        let _ = stalled.read(&cell, 0); // stalled announces era, then stops
        // Churn: every alloc is born after the era advanced (epoch_freq=1).
        for i in 0..100u32 {
            let churn = worker.alloc(i);
            unsafe { worker.retire(churn) }; // SAFETY: [INV-12] never published, retired once.
        }
        worker.force_empty();
        assert!(
            worker.retired_len() <= 2,
            "younger nodes must be reclaimed despite stall, kept {}",
            worker.retired_len()
        );
        stalled.end_op();
        drop(stalled); // lazy eras: deregistration releases the stale era
        worker.end_op();
        cell.store(Shared::null(), Ordering::Release);
        unsafe { worker.retire(pin) }; // SAFETY: [INV-12] unlinked above, retired once.
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn stable_era_reads_do_not_fence() {
        let cfg = Config::default().with_max_threads(1).with_empty_freq(100).with_epoch_freq(1000);
        let smr = He::new(cfg);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(9u8);
        let cell = Atomic::new(n);
        let _ = h.read(&cell, 0);
        let after_first = h.stats().fences;
        for _ in 0..50 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.stats().fences, after_first, "unchanged era ⇒ no fence");
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        h.force_empty();
    }
}
