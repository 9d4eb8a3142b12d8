//! # mp-bench — benchmark harness for the margin-pointers reproduction
//!
//! Reimplements the paper's evaluation methodology (§6): fixed-duration
//! runs in which every thread repeatedly invokes a random operation on a
//! uniformly random key, reporting aggregate throughput, wasted memory
//! (average retired-list length at operation start), and memory-fence
//! counts. One `harness = false` bench target per paper table/figure
//! regenerates the corresponding rows (see DESIGN.md's per-experiment
//! index); Criterion micro-latency benches complement them.
//!
//! ## Scaling
//!
//! The paper ran 5-second, 10-repetition sweeps to 100 threads on an
//! 88-hardware-thread machine. Defaults here are CI-sized; set
//! `MP_BENCH_FULL=1` for paper-scale parameters, or override individual
//! knobs: `MP_BENCH_THREADS` (comma list), `MP_BENCH_DURATION_MS`,
//! `MP_BENCH_PREFILL`, `MP_BENCH_RUNS`.

#![warn(missing_docs)]

pub mod driver;
pub mod linearize;
pub mod report;
pub mod soak;
pub mod workload;

use mp_smr::SchemeKind;

pub use driver::{
    run, silence_injected_panics, BenchParams, BenchResult, FaultMode, Prefill, StallMode,
    INJECTED_PANIC,
};
pub use report::{csv_path, json_path, json_str, out_dir, Table};
pub use soak::{rss_kb, run_soak, SoakParams, SoakResult};
pub use workload::{KeyDist, KeySampler, Mix, READ_DOMINATED, READ_ONLY, WRITE_DOMINATED};

/// Reads the thread counts to sweep (env `MP_BENCH_THREADS`, e.g. "1,2,4").
pub fn thread_sweep() -> Vec<usize> {
    if let Ok(s) = std::env::var("MP_BENCH_THREADS") {
        return s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
    }
    if full_scale() {
        vec![1, 2, 4, 8, 16, 32, 48, 64, 80, 100]
    } else {
        vec![1, 2, 4]
    }
}

/// Per-point run duration.
pub fn duration() -> std::time::Duration {
    let ms = std::env::var("MP_BENCH_DURATION_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_scale() { 5_000 } else { 250 });
    std::time::Duration::from_millis(ms)
}

/// Structure prefill size (`S`); the key range is `2S` (§6). The paper uses
/// S = 500 K for the BST/skip list and 5 K for the list.
pub fn prefill_size(paper_default: usize) -> usize {
    if let Ok(s) = std::env::var("MP_BENCH_PREFILL") {
        if let Ok(v) = s.parse() {
            return v;
        }
    }
    if full_scale() {
        paper_default
    } else {
        // CI scale: shrink 500 K → 20 K and 5 K → 1 K.
        (paper_default / 25).max(200)
    }
}

/// Repetitions per data point (paper: 10).
pub fn runs() -> usize {
    std::env::var("MP_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_scale() { 10 } else { 1 })
}

/// True when `MP_BENCH_FULL=1`: reproduce at the paper's scale.
pub fn full_scale() -> bool {
    std::env::var("MP_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The §6 comparison set (MP, IBR, HE, HP, EBR), in the order every
/// figure bench reports it. Benches loop over it and monomorphize each
/// point with `with_scheme!(kind, S => driver::run_avg::<S, Ds<S>>(..))`.
/// DTA is list-specific and handled separately (Figure 4).
pub const COMPARISON: [SchemeKind; 5] =
    [SchemeKind::Mp, SchemeKind::Ibr, SchemeKind::He, SchemeKind::Hp, SchemeKind::Ebr];
