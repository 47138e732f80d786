//! # bench — the paper's experiments and the canonical scenarios
//!
//! One experiment per theorem/figure of the paper (see DESIGN.md §4 and
//! EXPERIMENTS.md). Each experiment is a pure function returning printable
//! rows; the `report` binary prints them. [`canonical`] holds the seeded
//! observability scenarios the goldens and `congest-trace` are pinned on.
//! Wall-clock timing lives in `perfbench/`, not here; the two timing gates
//! this crate keeps (flight-recorder overhead, budgeted E3-scale) are the
//! `#[ignore]`d release tests in `tests/gates.rs`.

#![warn(missing_docs)]

pub mod canonical;
pub mod experiments;
