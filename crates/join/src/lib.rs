//! # hape-join — hardware-conscious join algorithms
//!
//! The paper's §4.1/§5 join suite:
//!
//! * [`mod@cpu_npj`] — CPU non-partitioned (hardware-oblivious) hash join: a
//!   shared chained hash table built and probed by all cores; random accesses
//!   pay DRAM latency once the table outgrows the caches.
//! * [`mod@cpu_radix`] — CPU radix join: multi-pass software-managed partitioning
//!   with TLB-bounded fanout (Boncz), until per-partition hash tables are
//!   cache-resident (Shatdal); then in-cache build & probe.
//! * [`mod@gpu_npj`] — GPU non-partitioned join: global-memory hash table;
//!   every probe over-fetches whole cache lines through L1/L2.
//! * [`mod@gpu_radix`] — the paper's GPU join (Figs 3 & 4): multi-pass
//!   partitioning with scratchpad-staged store consolidation and linked-list
//!   output buffers, then per-co-partition build & probe with the
//!   scratchpad (SM), SM+L1 or L1 placement variants of Figure 5.
//! * [`mod@coprocess`] — the Sioulas et al. co-processing join (§5): low-fanout
//!   CPU-side co-partitioning sized so each co-partition fits GPU memory,
//!   a single pass over PCIe, and per-co-partition GPU radix joins load
//!   balanced over 1..N GPUs.
//!
//! * [`mod@probe`] — the one probe kernel all of them call, over a layout
//!   each build picks from its own keys; pricing reads the paper's chained
//!   layout as numbers (bucket lengths, bits, bytes).
//!
//! All algorithms compute *real* results over real data and return simulated
//! time from the `hape-sim` substrate. Outputs are either aggregated (the
//! paper's microbenchmark does a sum/count over payloads) or materialised
//! match-index pairs (what the engine's query joins consume).

#![forbid(unsafe_code)]

pub mod common;
pub mod coprocess;
pub mod cpu_npj;
pub mod cpu_radix;
pub mod gpu_npj;
pub mod gpu_radix;
pub mod partition;
pub mod probe;

pub use common::{hash32, reference_join, JoinInput, JoinOutcome, JoinStats, OutputMode};
pub use coprocess::{
    coprocess, coprocess_join, coprocess_join_on, coprocess_join_parts, gpu_budget,
    plan_cpu_bits, CoprocessConfig, CoprocessError, CoprocessReport, MatchPairs, PairRuns,
};
pub use cpu_npj::cpu_npj;
pub use cpu_radix::{cpu_radix, plan_radix_cpu, RadixPlan};
pub use gpu_npj::gpu_npj;
pub use gpu_radix::{gpu_radix, plan_radix_gpu, BuildProbeVariant};
pub use partition::{radix_partition, radix_partition_with_threads, RadixPartitions};
pub use probe::ProbeTable;

/// Commonly used items.
pub mod prelude {
    pub use crate::common::{JoinInput, JoinOutcome, JoinStats, OutputMode};
    pub use crate::coprocess::{coprocess_join, CoprocessConfig};
    pub use crate::cpu_npj::cpu_npj;
    pub use crate::cpu_radix::cpu_radix;
    pub use crate::gpu_npj::gpu_npj;
    pub use crate::gpu_radix::{gpu_radix, BuildProbeVariant};
}
