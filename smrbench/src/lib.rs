//! End-to-end and per-layer benchmark of the SMR schemes (`mp-smr`) over
//! the concurrent search structures (`mp-ds`). See `README.md`.

pub mod gate;
pub mod gen;
pub mod hist;
pub mod report;
pub mod run;
pub mod trace;
