//! Heterogeneity traits (§3).
//!
//! Four traits characterise execution in a heterogeneous server: the target
//! **device** and the **parallelism** (control flow), and the data
//! **locality** and **packing** (data flow). HetExchange operators are the
//! only trait *converters*; every relational operator keeps all four fixed,
//! which is what lets it stay heterogeneity-oblivious. This engine varies
//! the first three; packing is fixed at packets with no shared property,
//! so [`HetTraits`] carries no field for it.
//!
//! A placed plan ([`mod@crate::place`]) stores only where each pipeline
//! runs; the converter on every placed edge is derived from that by
//! comparing the traits with the `needs_*` predicates below, following the
//! paper's §3 mapping:
//!
//! | [`HetTraits`] field | mismatch predicate | converter (§3, Fig. 3) | IR operator | derived by |
//! |---|---|---|---|---|
//! | `device` | [`HetTraits::needs_device_crossing`] | device crossing (cpu2gpu / gpu2cpu) | [`crate::exchange::Exchange::DeviceCrossing`] | [`crate::place::Segment::exchanges`] |
//! | `dop` | [`HetTraits::needs_router`] | router | [`crate::exchange::Exchange::Router`] | [`crate::place::PlacedStage::router`] |
//! | `locality` | [`HetTraits::needs_mem_move`] | mem-move (+ broadcast variant) | [`crate::exchange::Exchange::MemMove`] | [`crate::place::Segment::exchanges`] |
//! | packing (no field) | — (fixed: untagged packets between operators) | pack / unpack | packet granularity of the executor | — |
//!
//! A stream pipeline starts at [`HetTraits::cpu_seq`] (the sequential,
//! host-resident scan source); each placed segment's traits follow from its
//! device ([`crate::place::Segment::traits`]), and whatever disagrees is an
//! explicit exchange on that segment's input edge — visible in
//! [`crate::session::Session::explain`].

use hape_sim::topology::MemNode;

/// The device-type trait: which kind of device executes an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// CPU cores.
    Cpu,
    /// GPU streaming multiprocessors.
    Gpu,
}

/// The full trait tuple carried by a plan edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HetTraits {
    /// Executing device type.
    pub device: DeviceType,
    /// Degree of parallelism (concurrently executing instances).
    pub dop: usize,
    /// Where the data lives.
    pub locality: MemNode,
}

impl HetTraits {
    /// Single-threaded CPU execution over socket-0-resident packets — the
    /// conventional starting point of a plan.
    pub fn cpu_seq() -> Self {
        HetTraits { device: DeviceType::Cpu, dop: 1, locality: MemNode::CpuDram(0) }
    }

    /// True when moving to `other` requires a *router* (parallelism change).
    pub fn needs_router(&self, other: &HetTraits) -> bool {
        self.dop != other.dop
    }

    /// True when moving to `other` requires a *device crossing*.
    pub fn needs_device_crossing(&self, other: &HetTraits) -> bool {
        self.device != other.device
    }

    /// True when moving to `other` requires a *mem-move*.
    pub fn needs_mem_move(&self, other: &HetTraits) -> bool {
        self.locality != other.locality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_conversion_detection() {
        let a = HetTraits::cpu_seq();
        let mut b = a;
        assert!(!a.needs_router(&b));
        assert!(!a.needs_device_crossing(&b));
        assert!(!a.needs_mem_move(&b));
        b.dop = 24;
        assert!(a.needs_router(&b));
        b.device = DeviceType::Gpu;
        assert!(a.needs_device_crossing(&b));
        b.locality = MemNode::GpuDram(0);
        assert!(a.needs_mem_move(&b));
    }
}
