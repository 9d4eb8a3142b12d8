//! Interval-based reclamation (Wen et al., PPoPP 2018; paper §3.3).
//!
//! IBR keeps no per-reference slots at all. Each thread reserves an *epoch
//! interval* `[lower, upper]`: `lower` is the epoch observed at operation
//! start and `upper` is bumped to the current global epoch on reads (the
//! 2GE — two-global-epochs — reservation variant). The invariant is that
//! the birth epoch of any node the thread may dereference lies inside its
//! reserved interval. A retired node is reclaimable if, for every active
//! thread, it was retired before the thread's interval began or born after
//! the interval's end.
//!
//! The paper's artifact uses the framework's default *tagged-pointer* IBR,
//! which packs birth epochs into pointer tags. We implement the 2GE variant
//! instead: the reservation semantics and wasted-memory behavior are the
//! same, but 2GE never needs to read a field of a not-yet-protected node —
//! which would be undefined behavior in Rust (see DESIGN.md,
//! "Substitutions").
//!
//! Like HE, IBR is robust but allows arbitrarily large wasted memory: every
//! node alive when a thread stalls stays pinned by its interval.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use mp_util::CachePadded;

use crate::api::{Config, Smr, SmrHandle};
use crate::backpressure::BackpressurePolicy;
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{counted_fence, EpochClock, RetiredList, SchemeCore, INACTIVE};
use crate::stats::FenceSite;
use crate::telemetry::{HandleTelemetry, SchemeTelemetry, Telemetry};

const LOWER: usize = 0;
const UPPER: usize = 1;

/// Interval-based reclamation scheme (shared state).
pub struct Ibr {
    clock: EpochClock,
    /// Two slots per thread: reserved `[lower, upper]` (INACTIVE = idle).
    reservations: SlotArray,
    pub(crate) core: SchemeCore,
}

/// Per-thread handle for [`Ibr`].
pub struct IbrHandle {
    scheme: Arc<Ibr>,
    tid: usize,
    upper_local: u64,
    retired: RetiredList,
    /// Retained reservation-snapshot buffer, refilled in place per scan.
    interval_scratch: Vec<(u64, u64)>,
    alloc_counter: usize,
    tele: CachePadded<HandleTelemetry>,
}

impl Smr for Ibr {
    type Handle = IbrHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::new(cfg)?;
        Ok(Arc::new(Ibr {
            clock: EpochClock::new(),
            reservations: SlotArray::new(core.cfg.max_threads, 2, INACTIVE),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<IbrHandle, SmrError> {
        let (retired, tele) = RetiredList::register(&self.core, true)?;
        Ok(IbrHandle {
            scheme: self.clone(),
            tid: retired.tid(),
            upper_local: INACTIVE,
            retired,
            interval_scratch: Vec::new(),
            alloc_counter: 0,
            tele: CachePadded::new(tele),
        })
    }

    fn name() -> &'static str {
        "IBR"
    }

    fn telemetry(&self) -> &SchemeTelemetry {
        &self.core.tele
    }

    fn backpressure_policy(&self) -> &BackpressurePolicy {
        &self.core.bp_policy
    }
}

impl Telemetry for IbrHandle {
    fn tele(&self) -> &HandleTelemetry {
        &self.tele
    }

    fn tele_mut(&mut self) -> &mut HandleTelemetry {
        &mut self.tele
    }
}

impl IbrHandle {
    /// Reclamation scan; allocation-free in steady state (the reservation
    /// snapshot and the retired list both cycle through handle-owned
    /// buffers).
    fn empty(&mut self) {
        let ticket = self.retired.begin_scan(&mut self.tele, self.interval_scratch.capacity());
        // Snapshot all active reservations once, into the retained buffer.
        self.interval_scratch.clear();
        for tid in 0..self.scheme.reservations.threads() {
            let lo = self.scheme.reservations.get(tid, LOWER).load(Ordering::Acquire);
            let hi = self.scheme.reservations.get(tid, UPPER).load(Ordering::Acquire);
            if lo != INACTIVE {
                self.interval_scratch.push((lo, hi.min(INACTIVE - 1)));
            }
        }
        let caps = self.interval_scratch.capacity();
        let intervals = &self.interval_scratch;
        // SAFETY: [INV-05] a node is freed only if the snapshot taken after
        // the SeqCst fence shows every active interval began after it was
        // retired or ended before it was born, so no thread's reservation
        // admits a reference to it.
        unsafe {
            self.retired.sweep(&self.scheme.core, &mut self.tele, ticket, caps, |r| {
                intervals.iter().any(|&(lo, hi)| !(r.retire < lo || r.birth > hi))
            })
        };
    }

    /// Backpressure help-scan: adopt orphaned retired lists and scan them
    /// against the live reservations. See [`crate::backpressure`].
    fn help_scan(&mut self) {
        self.retired.begin_help(&self.scheme.core, &mut self.tele);
        self.empty();
    }
}

impl SmrHandle for IbrHandle {
    fn start_op(&mut self) {
        // Oracle context only: IBR (2GE) is exempt from the waste-bound
        // monitor — a stalled reservation pins unboundedly many retirees
        // whose intervals overlap it.
        #[cfg(feature = "oracle")]
        crate::oracle::enter_scheme("IBR");
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_start_op(crate::hb::HbPolicy::EPOCH);
        self.retired.start_op(&mut self.tele);
        let e = self.scheme.clock.now();
        self.scheme.reservations.get(self.tid, LOWER).store(e, Ordering::Release);
        self.scheme.reservations.get(self.tid, UPPER).store(e, Ordering::Release);
        self.upper_local = e;
        // Reservation must be visible before any data-structure read.
        counted_fence(&mut self.tele, FenceSite::StartOp);
    }

    fn end_op(&mut self) {
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_end_op();
        self.scheme.reservations.get(self.tid, UPPER).store(INACTIVE, Ordering::Release);
        self.scheme.reservations.get(self.tid, LOWER).store(INACTIVE, Ordering::Release);
        self.upper_local = INACTIVE;
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        // 2GE loop: extend the reserved upper bound until it is stable
        // across the load, guaranteeing any node seen has birth ≤ upper.
        loop {
            let w = src.load(Ordering::Acquire);
            let e = self.scheme.clock.now();
            if e == self.upper_local {
                return w;
            }
            self.scheme.reservations.get(self.tid, UPPER).store(e, Ordering::Release);
            self.upper_local = e;
            // The epoch changed under us — IBR's rare per-read cost.
            counted_fence(&mut self.tele, FenceSite::Announce);
        }
    }

    fn alloc_with_index<T: Send + Sync>(&mut self, data: T, index: u32) -> Shared<T> {
        self.alloc_counter += 1;
        // IBR advances the epoch every constant number of allocations (§3.3).
        if self.alloc_counter.is_multiple_of(self.scheme.core.cfg.epoch_freq) {
            let e = self.scheme.clock.advance();
            self.tele.record_epoch_advance(e);
        }
        let birth = self.scheme.clock.now();
        self.retired.alloc(&self.scheme.core, &mut self.tele, data, index, birth)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.clock.now();
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        let r = unsafe { Retired::new(node.as_raw(), stamp) };
        if self.retired.push(&self.scheme.core, &mut self.tele, r) {
            self.empty();
        }
        if self.retired.assess_pressure(&self.scheme.core, &mut self.tele) {
            self.help_scan();
        }
    }

    fn retired_len(&self) -> usize {
        self.retired.len()
    }

    fn force_empty(&mut self) {
        self.empty();
    }
}

impl Drop for IbrHandle {
    fn drop(&mut self) {
        self.scheme.reservations.clear_row(self.tid, Ordering::Release);
        // Drain scan before parking leftovers — see HpHandle::drop.
        self.force_empty();
        self.retired.deregister(&self.scheme.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(threads: usize) -> Arc<Ibr> {
        // watermark 1: scan on every retire, as the old empty_freq=1 did.
        Ibr::new(
            Config::default()
                .with_max_threads(threads)
                .with_empty_freq(1)
                .with_epoch_freq(1)
                .with_scan_watermark(1),
        )
    }

    #[test]
    fn interval_overlap_blocks_reclamation() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(3u32);
        let cell = Atomic::new(n);

        reader.start_op(); // lower = current epoch ≥ birth of n? birth ≤ lower here
        let got = reader.read(&cell, 0);
        assert_eq!(got, n);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "overlapping reservation pins node");
        // SAFETY: [INV-12] reader's reservation still pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 3);

        reader.end_op();
        writer.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
    }

    #[test]
    fn nodes_born_after_reservation_end_are_reclaimed() {
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        stalled.start_op(); // reserves [e, e] and stalls
        worker.start_op();
        for i in 0..100u32 {
            // epoch_freq = 1 ⇒ every alloc advances the epoch, so nodes are
            // quickly born after the stalled interval's upper bound.
            let n = worker.alloc(i);
            unsafe { worker.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        }
        worker.force_empty();
        assert!(
            worker.retired_len() <= 3,
            "robustness: younger nodes reclaimed despite stall, kept {}",
            worker.retired_len()
        );
        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn stable_epoch_reads_cost_nothing() {
        let cfg = Config::default().with_max_threads(1).with_empty_freq(100).with_epoch_freq(1000);
        let smr = Ibr::new(cfg);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(1u8);
        let cell = Atomic::new(n);
        let baseline = h.stats().fences;
        for _ in 0..50 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.stats().fences, baseline, "per-operation overhead only");
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        h.force_empty();
    }
}
