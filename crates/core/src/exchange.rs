//! HetExchange meta-operators: routing, device crossing, mem-move (§3, §4.2).
//!
//! The **router** converts the parallelism trait: it receives packets from
//! producers and routes each to one of its consumer instances. Control flow
//! is CPU-side and *content-free*: a decision reads only the packet's size
//! and each consumer's load — never the tuple values. The router is
//! load-aware only ([`route`]); hash routing returns together with a
//! producer of partition-tagged packets, and §5's co-partitioning happens
//! inside `hape_join`'s co-processing join, not through packet tags. The
//! **device crossing** converts the device trait (the engine swaps
//! providers); the **mem-move** converts locality (charged on the
//! topology's links, with broadcast-aware multicasting).

use hape_sim::topology::{DeviceId, MemNode};
use hape_sim::SimTime;

use crate::traits::DeviceType;

/// An explicit trait-conversion operator on a placed-plan edge (§3,
/// Fig. 3): one exists wherever two adjacent pipeline segments disagree on
/// a [`crate::traits::HetTraits`] component, derived from the placement
/// ([`crate::place::Segment::exchanges`], [`crate::place::PlacedStage::router`]);
/// relational operators never convert traits themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exchange {
    /// Converts the *parallelism* trait: receives packets from `from_dop`
    /// producer instances and routes each to one of `to_dop` consumer
    /// instances ([`route`]).
    Router {
        /// Producer-side degree of parallelism.
        from_dop: usize,
        /// Consumer-side degree of parallelism (summed over segments).
        to_dop: usize,
    },
    /// Converts the *locality* trait: moves bytes between memory nodes
    /// over the topology's links. `table` names a broadcast hash-table
    /// payload; `None` is the streaming per-packet move.
    MemMove {
        /// Source memory node.
        from: MemNode,
        /// Destination memory node.
        to: MemNode,
        /// Hash table broadcast by this move (`None` = packet stream).
        table: Option<String>,
    },
    /// Converts the *device* trait: the executor swaps the device provider
    /// that runs the downstream segment's compiled pipeline.
    DeviceCrossing {
        /// Producer-side device type.
        from: DeviceType,
        /// Consumer-side device type.
        to: DeviceType,
    },
}

impl std::fmt::Display for Exchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exchange::Router { from_dop, to_dop } => {
                write!(f, "Router({from_dop} -> {to_dop})")
            }
            Exchange::MemMove { from, to, table: None } => {
                write!(f, "MemMove({from} -> {to})")
            }
            Exchange::MemMove { from, to, table: Some(t) } => {
                write!(f, "MemMove({from} -> {to}, broadcast {t:?})")
            }
            Exchange::DeviceCrossing { from, to } => {
                write!(f, "DeviceCrossing({from:?} -> {to:?})")
            }
        }
    }
}

/// Identity of a worker instance the router can route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkerId {
    /// CPU core `core` on socket `socket`.
    CpuCore {
        /// Socket index.
        socket: usize,
        /// Core index within the socket.
        core: usize,
    },
    /// GPU `idx`.
    Gpu(usize),
}

impl WorkerId {
    /// True for GPU workers.
    pub fn is_gpu(&self) -> bool {
        matches!(self, WorkerId::Gpu(_))
    }

    /// The GPU index of a GPU worker — the fault plane's addressing key;
    /// `None` for a CPU core.
    pub fn gpu(&self) -> Option<usize> {
        match *self {
            WorkerId::CpuCore { .. } => None,
            WorkerId::Gpu(idx) => Some(idx),
        }
    }

    /// The device the worker runs on.
    pub fn device(&self) -> DeviceId {
        match *self {
            WorkerId::CpuCore { socket, .. } => DeviceId::Cpu(socket),
            WorkerId::Gpu(idx) => DeviceId::Gpu(idx),
        }
    }
}

impl std::fmt::Display for WorkerId {
    /// Compact lane label (`cpu0.3`, `gpu1`) — the tracing plane's
    /// per-worker thread names.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerId::CpuCore { socket, core } => write!(f, "cpu{socket}.{core}"),
            WorkerId::Gpu(idx) => write!(f, "gpu{idx}"),
        }
    }
}

/// What the router knows about each candidate consumer — metadata only.
#[derive(Debug, Clone, Copy)]
pub struct CandidateLoad {
    /// When the consumer could start this packet (clock + transfer).
    pub ready_at: SimTime,
    /// Expected processing time per byte for this consumer (calibrated from
    /// past packets; used to break ties toward faster consumers).
    pub est_ns_per_byte: f64,
}

/// The router's pick for a packet of `bytes` among `candidates`: earliest
/// finish wins — the consumer that can begin soonest (its clock, plus any
/// transfer its placement needs) plus the packet's bytes at its calibrated
/// rate; the first of equals. Fast consumers drain their queues sooner and
/// attract more packets, which is what load-balances hybrid execution
/// (§4.2).
pub fn route(bytes: u64, candidates: &[CandidateLoad]) -> usize {
    assert!(!candidates.is_empty(), "router with no consumers");
    let bytes = bytes as f64;
    let mut best = 0;
    let mut best_done = f64::INFINITY;
    for (i, c) in candidates.iter().enumerate() {
        let done = c.ready_at.as_ns() + c.est_ns_per_byte * bytes;
        if done < best_done {
            best_done = done;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_storage::{Batch, Column};

    fn packet() -> Batch {
        Batch::new(vec![Column::from_i32(vec![1, 2, 3])])
    }

    fn load(ready_ns: f64, rate: f64) -> CandidateLoad {
        CandidateLoad { ready_at: SimTime::from_ns(ready_ns), est_ns_per_byte: rate }
    }

    #[test]
    fn load_aware_prefers_idle_consumer() {
        let c = vec![load(1000.0, 1.0), load(0.0, 1.0)];
        assert_eq!(route(packet().bytes(), &c), 1);
    }

    #[test]
    fn load_aware_prefers_faster_consumer_when_equally_free() {
        let c = vec![load(0.0, 10.0), load(0.0, 1.0)];
        assert_eq!(route(packet().bytes(), &c), 1);
    }

    #[test]
    fn exchange_renders_compactly() {
        let r = Exchange::Router { from_dop: 1, to_dop: 26 };
        assert_eq!(r.to_string(), "Router(1 -> 26)");
        let m = Exchange::MemMove {
            from: MemNode::CpuDram(0),
            to: MemNode::GpuDram(1),
            table: None,
        };
        assert_eq!(m.to_string(), "MemMove(dram0 -> gmem1)");
        let b = Exchange::MemMove {
            from: MemNode::CpuDram(0),
            to: MemNode::GpuDram(0),
            table: Some("Q5.orders".into()),
        };
        assert_eq!(b.to_string(), "MemMove(dram0 -> gmem0, broadcast \"Q5.orders\")");
        let d = Exchange::DeviceCrossing { from: DeviceType::Cpu, to: DeviceType::Gpu };
        assert_eq!(d.to_string(), "DeviceCrossing(Cpu -> Gpu)");
    }
}
