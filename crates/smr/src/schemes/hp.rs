//! Hazard pointers (Michael 2004; paper §3.1).
//!
//! The canonical pointer-based reclamation scheme: each thread announces
//! every node it is about to dereference in a shared per-thread slot, issues
//! a full fence, and revalidates that the source pointer still points to the
//! node — establishing that protection was announced while the node was
//! linked. Wasted memory is bounded by `O(H·T)` but a fence is paid on
//! (almost) every pointer dereference, which is the overhead MP removes.
//!
//! This implementation includes the two optimizations the paper applied to
//! make HP-based baselines competitive (§6 "Optimizations to IBR
//! Framework"): `end_op` clears all slots with a *single* trailing fence,
//! and `empty()` snapshots all hazard slots once (sorted) instead of
//! rescanning them per retired node.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use mp_util::CachePadded;

use crate::api::{Config, Smr, SmrHandle};
use crate::backpressure::BackpressurePolicy;
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{counted_fence, RetiredList, SchemeCore, SharedSnapshot, NO_HAZARD};
use crate::stats::FenceSite;
use crate::telemetry::{HandleTelemetry, SchemeTelemetry, Telemetry};

/// Hazard-pointer SMR scheme (shared state).
pub struct Hp {
    hp_slots: SlotArray,
    /// Version-stamped hazard snapshot shared across scanning handles;
    /// adopted instead of re-walked when no protection changed underneath.
    shared_snap: SharedSnapshot,
    pub(crate) core: SchemeCore,
}

/// Per-thread handle for [`Hp`].
pub struct HpHandle {
    scheme: Arc<Hp>,
    tid: usize,
    /// Thread-local mirror of this thread's slots (avoids atomic re-loads
    /// when checking whether a node is already protected).
    local: Vec<u64>,
    retired: RetiredList,
    /// Retained hazard-snapshot buffer, refilled in place per scan.
    hazard_scratch: Vec<u64>,
    /// Retained generation-vector buffer for snapshot adoption.
    gens_scratch: Vec<u64>,
    /// True if the previous scan adopted the shared snapshot. A handle
    /// never adopts twice in a row: releases (unprotect/end_op/drop) do not
    /// bump generations, so the forced fresh walk bounds how long a
    /// released hazard can linger in an adopted snapshot.
    adopted_last: bool,
    tele: CachePadded<HandleTelemetry>,
}

impl Smr for Hp {
    type Handle = HpHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::new(cfg)?;
        let (threads, slots) = (core.cfg.max_threads, core.cfg.slots_per_thread);
        Ok(Arc::new(Hp {
            hp_slots: SlotArray::new(threads, slots, NO_HAZARD),
            shared_snap: SharedSnapshot::new(threads, slots),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<HpHandle, SmrError> {
        let (retired, tele) = RetiredList::register(&self.core, true)?;
        Ok(HpHandle {
            scheme: self.clone(),
            tid: retired.tid(),
            local: vec![NO_HAZARD; self.core.cfg.slots_per_thread],
            retired,
            hazard_scratch: Vec::new(),
            gens_scratch: Vec::new(),
            adopted_last: false,
            tele: CachePadded::new(tele),
        })
    }

    fn name() -> &'static str {
        "HP"
    }

    fn telemetry(&self) -> &SchemeTelemetry {
        &self.core.tele
    }

    fn backpressure_policy(&self) -> &BackpressurePolicy {
        &self.core.bp_policy
    }
}

impl Telemetry for HpHandle {
    fn tele(&self) -> &HandleTelemetry {
        &self.tele
    }

    fn tele_mut(&mut self) -> &mut HandleTelemetry {
        &mut self.tele
    }
}

impl Hp {
    /// Snapshots every announced hazard address into `snap` (cleared and
    /// refilled in place; sorted for binary search). The buffer lives in the
    /// handle so steady-state scans reuse its capacity.
    fn snapshot_hazards_into(&self, snap: &mut Vec<u64>) {
        snap.clear();
        for tid in 0..self.hp_slots.threads() {
            for slot in self.hp_slots.row(tid) {
                let v = slot.load(Ordering::Acquire);
                if v != NO_HAZARD {
                    snap.push(v);
                }
            }
        }
        snap.sort_unstable();
    }
}

impl HpHandle {
    /// Capacity of the handle-owned snapshot buffers.
    fn snapshot_caps(&self) -> usize {
        self.hazard_scratch.capacity() + self.gens_scratch.capacity()
    }

    /// Reclamation scan; allocation-free in steady state (the hazard
    /// snapshot and the retired list both cycle through handle-owned
    /// buffers). `allow_adopt` permits reusing the shared hazard snapshot;
    /// explicit `force_empty` calls pass `false` so they always observe the
    /// live slots.
    fn empty(&mut self, allow_adopt: bool) {
        let caps = self.snapshot_caps();
        let ticket = self.retired.begin_scan(&mut self.tele, caps);
        // Generation vector loaded *after* this handle's fence: if it
        // still equals the published snapshot's vector, no protection was
        // announced-and-validated since that snapshot's walk, so adopting
        // it only over-approximates (see SharedSnapshot docs).
        self.scheme.shared_snap.load_gens_into(&mut self.gens_scratch);
        let adopted = allow_adopt
            && !self.adopted_last
            && self.scheme.shared_snap.try_adopt_into(&self.gens_scratch, &mut self.hazard_scratch);
        self.adopted_last = adopted;
        if adopted {
            self.tele.record_snapshot_reuse();
            #[cfg(feature = "oracle")]
            {
                // The reused snapshot must contain every hazard a fresh
                // walk would see (superset check).
                let mut fresh = Vec::new();
                self.scheme.snapshot_hazards_into(&mut fresh);
                for v in &fresh {
                    assert!(
                        self.hazard_scratch.binary_search(v).is_ok(),
                        "snapshot reuse under-approximates: hazard {v:#x} missing"
                    );
                }
            }
        } else {
            self.scheme.snapshot_hazards_into(&mut self.hazard_scratch);
            self.scheme.shared_snap.publish_snapshot(&self.gens_scratch, &self.hazard_scratch);
        }
        let caps = self.snapshot_caps();
        let hazards = &self.hazard_scratch;
        // SAFETY: [INV-05] a node is freed only if no hazard slot held its
        // address after the SeqCst fence, so no thread can have validated
        // a protection for it.
        unsafe {
            self.retired.sweep(&self.scheme.core, &mut self.tele, ticket, caps, |r| {
                hazards.binary_search(&r.addr()).is_ok()
            })
        };
        // Oracle: every kept node is pinned by some announced hazard, so a
        // handle's list can never exceed the total slot budget (the paper's
        // Table 1 bound for HP).
        #[cfg(feature = "oracle")]
        {
            let cfg = &self.scheme.core.cfg;
            crate::oracle::check_waste_bound(
                "HP",
                self.retired.len(),
                (cfg.max_threads * cfg.slots_per_thread) as u128,
            );
        }
    }

    /// Backpressure help-scan: adopt whatever retired lists churned-out
    /// peers parked as orphans, then scan against the *live* slots (no
    /// snapshot adoption — helping exists to free memory now, not to be
    /// cheap). See [`crate::backpressure`].
    fn help_scan(&mut self) {
        self.retired.begin_help(&self.scheme.core, &mut self.tele);
        self.empty(false);
    }
}

impl SmrHandle for HpHandle {
    fn start_op(&mut self) {
        #[cfg(feature = "oracle")]
        crate::oracle::enter_scheme("HP");
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_start_op(crate::hb::HbPolicy::HP);
        self.retired.start_op(&mut self.tele);
    }

    fn end_op(&mut self) {
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_end_op();
        // Paper optimization: clear all slots, then a single fence.
        self.scheme.hp_slots.clear_row(self.tid, Ordering::Release);
        self.local.fill(NO_HAZARD);
        counted_fence(&mut self.tele, FenceSite::EndOp);
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        let mut backoff = mp_util::Backoff::new();
        // The candidate is loaded once up front; on a failed validation the
        // validating re-read *becomes* the next candidate instead of being
        // discarded and re-loaded at the top of the loop. A fence is paid
        // only per newly announced address — if a retry lands back on an
        // address this slot already protects (A→B→A churn), the dedup check
        // returns without re-fencing.
        let mut w = src.load(Ordering::Acquire);
        loop {
            let addr = w.addr();
            if addr == 0 {
                return w; // null (possibly marked-null): nothing to protect
            }
            if self.local[refno] == addr {
                // Hb-oracle: this load *is* the (possibly delayed) validating
                // re-read of the standing announcement — the slot was stored
                // and fenced before it — so the protection is validated here
                // even when the original attempt's re-read failed.
                #[cfg(feature = "hb-oracle")]
                crate::hb::on_protect(Some(refno), addr);
                return w; // already protected by this slot
            }
            // Hb-oracle: overwriting the slot withdraws whatever claim it
            // held; the new candidate earns a record only once validated.
            #[cfg(feature = "hb-oracle")]
            crate::hb::on_unprotect(refno);
            self.scheme.hp_slots.get(self.tid, refno).store(addr, Ordering::Release);
            self.local[refno] = addr;
            // New protection announced: invalidate shared hazard snapshots
            // (after the slot store, before the validation fence).
            self.scheme.shared_snap.bump_gen(self.tid);
            counted_fence(&mut self.tele, FenceSite::HpProtect);
            // Validate the node is still reachable from `src`: success means
            // the announcement happened while the node was linked (§3.1).
            let w2 = src.load(Ordering::Acquire);
            if w2 == w {
                // Hb-oracle: announcement validated — the node was linked
                // while the hazard was visible to every later scan fence.
                #[cfg(feature = "hb-oracle")]
                crate::hb::on_protect(Some(refno), addr);
                return w;
            }
            // `src` moved under us: a writer is churning this cell, so back
            // off before re-announcing instead of fencing at full speed.
            backoff.spin();
            w = w2;
        }
    }

    fn unprotect(&mut self, refno: usize) {
        self.scheme.hp_slots.get(self.tid, refno).store(NO_HAZARD, Ordering::Release);
        self.local[refno] = NO_HAZARD;
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_unprotect(refno);
    }

    fn alloc_with_index<T: Send + Sync>(&mut self, data: T, index: u32) -> Shared<T> {
        self.retired.alloc(&self.scheme.core, &mut self.tele, data, index, 0)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        let r = unsafe { Retired::new(node.as_raw(), 0) };
        if self.retired.push(&self.scheme.core, &mut self.tele, r) {
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

impl Drop for HpHandle {
    fn drop(&mut self) {
        // Hb-oracle: the row clear below withdraws every announcement this
        // handle made, so its protection claims must die with it.
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_handle_drop();
        self.scheme.hp_slots.clear_row(self.tid, Ordering::Release);
        // Drain scan: with watermark-batched triggers a short-lived handle
        // may never have reached its scan threshold; without this scan its
        // whole retired list would park as orphans (reclaimed only at
        // scheme teardown), unbounded under handle churn. Runs after the
        // row clear so the handle's own stale announcements don't pin its
        // leftovers.
        self.force_empty();
        self.retired.deregister(&self.scheme.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(threads: usize) -> Arc<Hp> {
        // watermark 1: scan on every retire, as the old empty_freq=1 did.
        Hp::new(Config::default().with_max_threads(threads).with_empty_freq(1).with_scan_watermark(1))
    }

    #[test]
    fn unprotected_retired_node_is_reclaimed() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(1u32);
        // SAFETY: [INV-12] never published, retired once by the test.
        unsafe { h.retire(n) }; // empty_freq=1 → immediate empty()
        assert_eq!(h.retired_len(), 0);
        assert_eq!(smr.retired_pending(), 0);
        h.end_op();
    }

    #[test]
    fn protected_node_survives_empty() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(5u64);
        let cell = Atomic::new(n);

        reader.start_op();
        let got = reader.read(&cell, 0);
        assert_eq!(got, n);

        // Writer unlinks and retires; reader's hazard must block reclamation.
        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "hazard must block reclamation");
        // SAFETY: [INV-12] reader's hazard span is still open and pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 5, "still dereferenceable");

        // Reader drops protection; now reclamation succeeds.
        reader.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
        writer.end_op();
    }

    #[test]
    fn read_validates_against_concurrent_swap() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let a = h.alloc(1u32);
        let b = h.alloc(2u32);
        let cell = Atomic::new(a);
        // Simulate a swap happening between announce and validate by
        // pre-poisoning: read returns whatever is current at validation.
        cell.store(b, Ordering::Release);
        let got = h.read(&cell, 0);
        assert_eq!(got, b);
        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(a);
            h.retire(b);
        }
    }

    #[test]
    fn repeated_read_of_same_node_fences_once() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(3u16);
        let cell = Atomic::new(n);
        let f0 = h.stats().fences;
        let _ = h.read(&cell, 0);
        let after_first = h.stats().fences;
        assert_eq!(after_first, f0 + 1);
        for _ in 0..10 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.stats().fences, after_first, "slot dedup avoids refencing");
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
    }

    #[test]
    fn wasted_memory_bounded_by_hazards() {
        // A stalled reader pins at most slots_per_thread nodes.
        let cfg = Config::default()
            .with_max_threads(2)
            .with_slots_per_thread(4)
            .with_empty_freq(1)
            .with_scan_watermark(1);
        let smr = Hp::new(cfg);
        let mut reader = smr.register();
        let mut writer = smr.register();

        reader.start_op();
        writer.start_op();
        // Reader protects 4 distinct nodes and then "stalls".
        let mut cells = Vec::new();
        for i in 0..4u32 {
            let n = writer.alloc(i);
            let cell = Atomic::new(n);
            let _ = reader.read(&cell, i as usize);
            cells.push((cell, n));
        }
        // Writer churns: retire the protected nodes + many unprotected ones.
        for (cell, n) in &cells {
            cell.store(Shared::null(), Ordering::Release);
            unsafe { writer.retire(*n) }; // SAFETY: [INV-12] unlinked above, retired once.
        }
        for i in 0..1000u32 {
            let n = writer.alloc(i);
            unsafe { writer.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        }
        writer.force_empty();
        assert!(
            writer.retired_len() <= 4,
            "wasted memory {} exceeds hazard count",
            writer.retired_len()
        );
        reader.end_op();
        writer.end_op();
    }
}
