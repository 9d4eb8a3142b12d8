//! Epoch-based reclamation (Fraser 2004, McKenney & Slingwine 1998; §3.2).
//!
//! Each thread announces, at operation start, the global epoch it observed.
//! A node retired at epoch `r` can be freed once every *active* thread has
//! announced an epoch `> r`: such threads began their operation after the
//! node was already unlinked, so they cannot hold a reference (threads do
//! not keep references across operations). Reads are plain loads — EBR's
//! per-operation overhead is a single announcement fence.
//!
//! EBR is **not robust**: a thread stalled mid-operation pins its announced
//! epoch forever, so no node retired at or after that epoch is ever freed
//! and wasted memory grows without bound — the failure mode motivating MP.

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

/// Epoch-based reclamation scheme (shared state).
pub struct Ebr {
    clock: EpochClock,
    /// One announcement slot per thread: observed epoch, or `INACTIVE`.
    announce: SlotArray,
    pub(crate) core: SchemeCore,
}

/// Per-thread handle for [`Ebr`].
pub struct EbrHandle {
    scheme: Arc<Ebr>,
    retired: RetiredList,
    alloc_counter: usize,
    tele: CachePadded<HandleTelemetry>,
}

impl Smr for Ebr {
    type Handle = EbrHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::new(cfg)?;
        Ok(Arc::new(Ebr {
            clock: EpochClock::new(),
            announce: SlotArray::new(core.cfg.max_threads, 1, INACTIVE),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<EbrHandle, SmrError> {
        let (retired, tele) = RetiredList::register(&self.core, true)?;
        Ok(EbrHandle {
            scheme: self.clone(),
            retired,
            alloc_counter: 0,
            tele: CachePadded::new(tele),
        })
    }

    fn name() -> &'static str {
        "EBR"
    }

    fn telemetry(&self) -> &SchemeTelemetry {
        &self.core.tele
    }

    fn backpressure_policy(&self) -> &BackpressurePolicy {
        &self.core.bp_policy
    }
}

impl Telemetry for EbrHandle {
    fn tele(&self) -> &HandleTelemetry {
        &self.tele
    }

    fn tele_mut(&mut self) -> &mut HandleTelemetry {
        &mut self.tele
    }
}

impl Ebr {
    /// Smallest epoch announced by any active thread, or `None` if no thread
    /// is inside an operation.
    fn min_active_epoch(&self) -> Option<u64> {
        let mut min = None;
        for tid in 0..self.announce.threads() {
            let e = self.announce.get(tid, 0).load(Ordering::Acquire);
            if e != INACTIVE {
                min = Some(min.map_or(e, |m: u64| m.min(e)));
            }
        }
        min
    }
}

impl EbrHandle {
    /// Reclamation scan: frees every node retired before the oldest active
    /// announcement.
    fn empty(&mut self) {
        let ticket = self.retired.begin_scan(&mut self.tele, 0);
        let min = self.scheme.min_active_epoch();
        // SAFETY: [INV-05] a node is freed only if every active thread
        // announced strictly after its retire stamp (or none is active):
        // such threads began after the unlink, so none references it.
        unsafe {
            self.retired.sweep(&self.scheme.core, &mut self.tele, ticket, 0, |r| {
                min.is_some_and(|m| r.retire >= m)
            })
        };
    }

    /// Backpressure help-scan: adopt orphaned retired lists and scan them.
    /// Under a stalled announcement this cannot shrink the pinned suffix
    /// (EBR is not robust), but it does drain orphans and anything retired
    /// before the stalled epoch. See [`crate::backpressure`].
    fn help_scan(&mut self) {
        self.retired.begin_help(&self.scheme.core, &mut self.tele);
        self.empty();
    }
}

impl SmrHandle for EbrHandle {
    fn start_op(&mut self) {
        // Oracle context only: EBR is exempt from the waste-bound monitor —
        // one stalled thread legitimately pins every later retiree (§1).
        #[cfg(feature = "oracle")]
        crate::oracle::enter_scheme("EBR");
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_start_op(crate::hb::HbPolicy::EPOCH);
        self.retired.start_op(&mut self.tele);
        let e = self.scheme.clock.now();
        self.scheme.announce.get(self.retired.tid(), 0).store(e, Ordering::Release);
        // The announcement must be visible before any data-structure read.
        counted_fence(&mut self.tele, FenceSite::StartOp);
    }

    fn end_op(&mut self) {
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_end_op();
        self.scheme.announce.get(self.retired.tid(), 0).store(INACTIVE, Ordering::Release);
    }

    #[inline]
    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    fn alloc_with_index<T: Send + Sync>(&mut self, data: T, index: u32) -> Shared<T> {
        self.alloc_counter += 1;
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

impl Drop for EbrHandle {
    fn drop(&mut self) {
        self.scheme.announce.get(self.retired.tid(), 0).store(INACTIVE, Ordering::Release);
        // Drain scan before parking leftovers — see HpHandle::drop.
        self.force_empty();
        self.retired.deregister(&self.scheme.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(threads: usize) -> Arc<Ebr> {
        // watermark 1: scan on every retire, as the old empty_freq=1 did.
        Ebr::new(
            Config::default()
                .with_max_threads(threads)
                .with_empty_freq(1)
                .with_epoch_freq(1)
                .with_scan_watermark(1),
        )
    }

    #[test]
    fn idle_system_reclaims_immediately() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(1u32);
        h.end_op(); // no active threads now
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        assert_eq!(h.retired_len(), 0);
    }

    #[test]
    fn active_thread_with_older_epoch_blocks_reclamation() {
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        stalled.start_op(); // announces current epoch and "stalls"

        worker.start_op();
        let n = worker.alloc(5u64); // advances epoch (epoch_freq=1)
        unsafe { worker.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        worker.end_op();
        assert!(
            worker.retired_len() >= 1,
            "node retired at >= stalled thread's epoch must be pinned"
        );

        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0, "reclaims once the straggler finishes");
    }

    #[test]
    fn stalled_thread_pins_unbounded_waste() {
        // EBR's non-robustness (§3.2): waste grows with churn while a thread
        // is parked mid-operation.
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();
        stalled.start_op();
        worker.start_op();
        for i in 0..500u32 {
            let n = worker.alloc(i);
            unsafe { worker.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        }
        assert!(
            worker.retired_len() >= 500,
            "waste {} should grow without bound under a stall",
            worker.retired_len()
        );
        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn later_epoch_nodes_freed_even_with_active_threads() {
        let smr = setup(2);
        let mut a = smr.register();
        let mut b = smr.register();
        // b retires a node at an old epoch while a is inactive.
        b.start_op();
        let old = b.alloc(1u32);
        unsafe { b.retire(old) }; // SAFETY: [INV-12] never published, retired once.
        // Advance epochs past the retirement stamp (epoch_freq = 1).
        let fillers: Vec<_> = (0..4).map(|_| b.alloc(0u8)).collect();
        b.end_op();
        // Both threads start ops AFTER the retirement epoch advanced; their
        // fresh announcements cannot pin `old`.
        a.start_op();
        b.start_op();
        b.force_empty();
        // `old` is the only node `b` has retired so far.
        assert_eq!(b.retired_len(), 0, "old node freed despite active thread");
        a.end_op();
        b.end_op();
        for f in fillers {
            unsafe { b.retire(f) }; // SAFETY: [INV-12] never published, retired once.
        }
        b.force_empty();
        assert_eq!(b.retired_len(), 0);
    }
}
