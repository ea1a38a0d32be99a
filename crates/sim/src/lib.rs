//! # hape-sim — hardware simulation substrate
//!
//! The paper evaluates HAPE on a 2-socket Xeon + 2× GTX 1080 server. That
//! hardware is not available here, so this crate provides the substitution
//! substrate: calibrated performance models of the CPUs, GPUs and PCIe
//! interconnects that the rest of the workspace executes against.
//!
//! The models are *mechanistic*, not curve-fits: algorithms run for real over
//! real data, and time is charged from the actual memory-access behaviour
//! (coalescing, bank conflicts, cache capacity, TLB reach, link bandwidth).
//! The crate offers two fidelities:
//!
//! * [`Fidelity::Exact`] — tag-array set-associative cache simulation fed by
//!   per-warp address traces (used for the Figure 5 scratchpad-vs-L1 study);
//! * [`Fidelity::Analytic`] — closed-form hit-rate/bandwidth formulas over
//!   measured access counts (used for bulk operators so that 100M-tuple
//!   sweeps stay tractable).
//!
//! All times are **simulated** ([`SimTime`]); wall-clock never enters any
//! reported number.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cpu;
pub mod des;
pub mod gpu;
pub mod interconnect;
pub mod spec;
pub mod time;
pub mod topology;

pub use cache::{AccessOutcome, CacheStats, SetAssocCache};
pub use cpu::CpuCostModel;
pub use des::Resource;
pub use gpu::{
    BlockCtx, Fidelity, GpuBuffer, GpuMemPool, GpuSim, KernelReport, LaunchConfig, Region,
};
pub use interconnect::Link;
pub use spec::{CacheLevelSpec, CpuSpec, GpuSpec, TlbSpec};
pub use time::SimTime;
pub use topology::{DeviceId, MemNode, Server};

/// Commonly used items.
pub mod prelude {
    pub use crate::cpu::CpuCostModel;
    pub use crate::gpu::{Fidelity, GpuSim, LaunchConfig};
    pub use crate::spec::{CpuSpec, GpuSpec};
    pub use crate::time::SimTime;
    pub use crate::topology::{DeviceId, MemNode, Server};
}
