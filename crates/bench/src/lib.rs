//! # hape-bench — the paper-figure regeneration harness
//!
//! One function per evaluation figure (§6). Each returns a [`Figure`] whose
//! series mirror the paper's legend, with simulated-time y-values. Default
//! input sizes are scaled down from the paper's (the shapes, crossovers and
//! ratios are the reproduction target — the scaling rule sits next to each
//! figure function in [`figures`]); `full` variants run at paper scale
//! where memory permits. The `figures` binary prints them and does nothing
//! else: invariance across placement, faults and tracing, and the static
//! verifier's agreement with the runtime, are `tests/differential.rs`'s;
//! the traced TPC-H run is `examples/tpch_hybrid.rs --trace / --profile`.

#![forbid(unsafe_code)]

pub mod figures;

pub use figures::{
    fig5, fig6, fig7, fig8, fig9, print_figure, Figure, Series, FIG6_DEFAULT_SIZES,
    FIG7_DEFAULT_SIZES,
};

/// Commonly used items.
pub mod prelude {
    pub use crate::figures::{fig5, fig6, fig7, fig8, fig9, print_figure};
}
