//! # hape-bench — the paper-figure regeneration harness
//!
//! One function per evaluation figure (§6). Each returns a [`Figure`] whose
//! series mirror the paper's legend, with simulated-time y-values. Default
//! input sizes are scaled down from the paper's (the shapes, crossovers and
//! ratios are the reproduction target — the scaling rule sits next to each
//! figure function in [`figures`]); `full` variants run at paper scale
//! where memory permits. Beside them: the [`verify`], [`chaos`] and
//! [`trace`] sweeps CI runs through the `figures` binary.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod figures;
pub mod trace;
pub mod verify;

pub use chaos::{chaos_tpch, print_chaos, ChaosPoint, ChaosSweep};
pub use figures::{
    fig5, fig6, fig7, fig8, fig9, print_figure, Figure, Series, FIG6_DEFAULT_SIZES,
    FIG7_DEFAULT_SIZES,
};
pub use trace::{trace_tpch, write_chrome_trace};
pub use verify::{print_verify, verify_tpch, VerifyPoint, VerifySweep};

/// Commonly used items.
pub mod prelude {
    pub use crate::chaos::{chaos_tpch, print_chaos};
    pub use crate::figures::{fig5, fig6, fig7, fig8, fig9, print_figure};
    pub use crate::trace::{trace_tpch, write_chrome_trace};
    pub use crate::verify::{print_verify, verify_tpch};
}
