//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 6), scaled down to run on a single machine.
//!
//! The paper's cluster experiments use 0.58M–14.5M-object datasets, 2000–8000
//! pivots and 9–36 Hadoop nodes.  The harness keeps every *sweep* and every
//! *reported column* identical but scales sizes down by roughly three orders
//! of magnitude so the full suite completes in minutes; [`workloads`] holds
//! the mapping.  Absolute numbers therefore differ from the paper; the shapes
//! (which algorithm wins, how metrics move with each parameter) are the
//! reproduction target and are recorded in `EXPERIMENTS.md`.
//!
//! Run `cargo run --release -p bench --bin experiments -- all` to regenerate
//! everything, or pass an experiment id (`table2`, `fig8`, ...) for one
//! artifact.

#![forbid(unsafe_code)]
// The determinism perimeter (clippy.toml's disallowed types and methods)
// is denied module by module; elsewhere clocks and hash maps are fine.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod experiments;
pub mod json;
pub mod report;
pub mod workloads;

pub use experiments::{
    fig10, fig11, fig12, fig6, fig7, fig8, fig9, perf_baseline, table2, table3, BaselineRow,
    ExperimentOutput,
};
pub use report::Table;
pub use workloads::{ExperimentScale, Workloads};
