//! No reclamation: retired nodes are never freed while the scheme lives.
//!
//! `Leaky` is the zero-overhead upper bound used to isolate SMR cost in
//! benchmarks (reads are plain loads; no fences, no scans). Retired nodes
//! are buffered and released only when the scheme itself is dropped, so the
//! process does not actually leak in tests.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use mp_util::CachePadded;

use crate::api::{Config, Smr, SmrHandle};
use crate::backpressure::BackpressurePolicy;
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::schemes::common::{RetiredList, SchemeCore};
use crate::telemetry::{HandleTelemetry, SchemeTelemetry, Telemetry};

/// The leaky "scheme": never reclaims (see module docs).
pub struct Leaky {
    pub(crate) core: SchemeCore,
}

/// Per-thread handle for [`Leaky`].
pub struct LeakyHandle {
    scheme: Arc<Leaky>,
    retired: RetiredList,
    tele: CachePadded<HandleTelemetry>,
}

impl Smr for Leaky {
    type Handle = LeakyHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        Ok(Arc::new(Leaky { core: SchemeCore::new(cfg)? }))
    }

    fn try_register(self: &Arc<Self>) -> Result<LeakyHandle, SmrError> {
        // No orphan adoption: nothing would ever free the adopted nodes.
        let (retired, tele) = RetiredList::register(&self.core, false)?;
        Ok(LeakyHandle { scheme: self.clone(), retired, tele: CachePadded::new(tele) })
    }

    fn name() -> &'static str {
        "Leaky"
    }

    fn telemetry(&self) -> &SchemeTelemetry {
        &self.core.tele
    }

    fn backpressure_policy(&self) -> &BackpressurePolicy {
        &self.core.bp_policy
    }
}

impl Telemetry for LeakyHandle {
    fn tele(&self) -> &HandleTelemetry {
        &self.tele
    }

    fn tele_mut(&mut self) -> &mut HandleTelemetry {
        &mut self.tele
    }
}

impl SmrHandle for LeakyHandle {
    fn start_op(&mut self) {
        // Oracle context only: Leaky never reclaims, so no bound applies —
        // but its allocations and retires are still lifecycle-tracked.
        #[cfg(feature = "oracle")]
        crate::oracle::enter_scheme("Leaky");
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_start_op(crate::hb::HbPolicy::EPOCH);
        self.retired.start_op(&mut self.tele);
    }

    fn end_op(&mut self) {
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_end_op();
    }

    #[inline]
    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    fn alloc_with_index<T: Send + Sync>(&mut self, data: T, index: u32) -> Shared<T> {
        self.retired.alloc(&self.scheme.core, &mut self.tele, data, index, 0)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        let r = unsafe { Retired::new(node.as_raw(), 0) };
        // Leaky has no scan, so neither a due scan nor the help rung can
        // free anything — but the ladder still tracks the gauge so the
        // throttle rung (and the engagement telemetry) work, keeping the
        // no-reclamation baseline honest about its memory pressure.
        let _ = self.retired.push(&self.scheme.core, &mut self.tele, r);
        let _ = self.retired.assess_pressure(&self.scheme.core, &mut self.tele);
    }

    fn retired_len(&self) -> usize {
        self.retired.len()
    }

    fn force_empty(&mut self) {
        // Leaky never reclaims.
        self.tele.record_empty();
    }
}

impl Drop for LeakyHandle {
    fn drop(&mut self) {
        self.retired.deregister(&self.scheme.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaky_never_reclaims_until_scheme_drop() {
        let smr = Leaky::new(Config::default().with_max_threads(1));
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(7u32);
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        h.force_empty();
        h.end_op();
        assert_eq!(h.retired_len(), 1, "leaky keeps everything");
        assert_eq!(smr.retired_pending(), 1);
        drop(h);
        assert_eq!(smr.core.registry.orphan_count(), 1, "node parked as orphan on handle drop");
        // Scheme drop reclaims orphans; exact gauge equality is asserted by
        // the single-process `leak_check` integration test.
    }

    #[test]
    fn read_is_plain_load() {
        let smr = Leaky::new(Config::default().with_max_threads(1));
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(99u64);
        let cell = Atomic::new(n);
        let r = h.read(&cell, 0);
        assert_eq!(r, n);
        assert_eq!(h.stats().fences, 0, "no protection fences");
        // SAFETY: [INV-12] leaky never reclaims; the node is live.
        assert_eq!(unsafe { *r.deref().data() }, 99);
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
    }
}
