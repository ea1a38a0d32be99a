//! HetExchange meta-operators: routing, device crossing, mem-move (§3, §4.2).
//!
//! The **router** converts the parallelism trait: it receives packets from
//! producers and routes each to one of its consumer instances. Control flow
//! is CPU-side and *content-free*: decisions use only packet metadata (size,
//! partition tag) and consumer load — never the tuple values. The **device
//! crossing** converts the device trait (the engine swaps providers); the
//! **mem-move** converts locality (charged on the topology's links, with
//! broadcast-aware multicasting).

use hape_sim::interconnect::Link;
use hape_sim::topology::MemNode;
use hape_sim::SimTime;
use hape_storage::Batch;

use crate::traits::DeviceType;

/// An explicit trait-conversion operator on a placed-plan edge (§3,
/// Fig. 3). The placement pass ([`mod@crate::place`]) inserts one wherever two
/// adjacent pipeline segments disagree on a [`crate::traits::HetTraits`]
/// component; relational operators never convert traits themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exchange {
    /// Converts the *parallelism* trait: receives packets from `from_dop`
    /// producer instances and routes each to one of `to_dop` consumer
    /// instances under `policy`.
    Router {
        /// The routing policy the executor instantiates.
        policy: RoutingPolicy,
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

impl Exchange {
    /// True for broadcast hash-table mem-moves.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Exchange::MemMove { table: Some(_), .. })
    }
}

impl std::fmt::Display for Exchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exchange::Router { policy, from_dop, to_dop } => {
                write!(f, "Router({policy:?}, {from_dop} -> {to_dop})")
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

/// Routing policies (§4.2 lists load-aware, locality-aware and hash-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Earliest-start wins: send the packet to the consumer that can begin
    /// processing it first (its clock, plus any transfer its placement
    /// needs). Fast consumers drain their queues sooner and automatically
    /// attract more packets — this is what load-balances hybrid execution.
    LoadAware,
    /// Cycle through consumers regardless of load.
    RoundRobin,
    /// Route by the packet's partition tag (content-free thanks to the
    /// packing trait); packets without a tag fall back to round-robin.
    HashPartition,
}

/// The router: picks a consumer for each packet.
#[derive(Debug)]
pub struct Router {
    policy: RoutingPolicy,
    rr: usize,
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

impl Router {
    /// Create a router with the given policy.
    pub fn new(policy: RoutingPolicy) -> Self {
        Router { policy, rr: 0 }
    }

    /// The policy in use.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Choose a consumer index for `packet` among `candidates`.
    pub fn pick(&mut self, packet: &Batch, candidates: &[CandidateLoad]) -> usize {
        assert!(!candidates.is_empty(), "router with no consumers");
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let i = self.rr % candidates.len();
                self.rr += 1;
                i
            }
            RoutingPolicy::HashPartition => match packet.partition {
                Some(p) => (p as usize) % candidates.len(),
                None => {
                    let i = self.rr % candidates.len();
                    self.rr += 1;
                    i
                }
            },
            RoutingPolicy::LoadAware => {
                let bytes = packet.bytes() as f64;
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
        }
    }
}

/// A mem-move: transfer `bytes` over `link`, ready at `ready`.
///
/// Returns the `(start, end)` of the transfer. Same-node moves should not
/// call this — the topology's `route` decides whether a move is needed.
pub fn mem_move(link: &mut Link, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
    link.transfer(ready, bytes)
}

/// A broadcast mem-move to several GPU links.
///
/// Models the topology-aware broadcast operator (§4.2): the payload crosses
/// each PCIe link once (multicast from host memory), *not* once per
/// consumer per link — with both GPUs on dedicated links the copies proceed
/// in parallel. Returns the per-link completion times.
pub fn broadcast(links: &mut [&mut Link], ready: SimTime, bytes: u64) -> Vec<SimTime> {
    links.iter_mut().map(|l| l.transfer(ready, bytes).1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_storage::Column;

    fn packet(tag: Option<u32>) -> Batch {
        let mut b = Batch::new(vec![Column::from_i32(vec![1, 2, 3])]);
        b.partition = tag;
        b
    }

    fn load(ready_ns: f64, rate: f64) -> CandidateLoad {
        CandidateLoad { ready_at: SimTime::from_ns(ready_ns), est_ns_per_byte: rate }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::new(RoutingPolicy::RoundRobin);
        let c = vec![load(0.0, 1.0); 3];
        let picks: Vec<usize> = (0..6).map(|_| r.pick(&packet(None), &c)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn load_aware_prefers_idle_consumer() {
        let mut r = Router::new(RoutingPolicy::LoadAware);
        let c = vec![load(1000.0, 1.0), load(0.0, 1.0)];
        assert_eq!(r.pick(&packet(None), &c), 1);
    }

    #[test]
    fn load_aware_prefers_faster_consumer_when_equally_free() {
        let mut r = Router::new(RoutingPolicy::LoadAware);
        let c = vec![load(0.0, 10.0), load(0.0, 1.0)];
        assert_eq!(r.pick(&packet(None), &c), 1);
    }

    #[test]
    fn hash_partition_routes_by_tag_without_content() {
        let mut r = Router::new(RoutingPolicy::HashPartition);
        let c = vec![load(0.0, 1.0); 4];
        assert_eq!(r.pick(&packet(Some(7)), &c), 3);
        assert_eq!(r.pick(&packet(Some(8)), &c), 0);
        // Untagged packets fall back to round robin.
        assert_eq!(r.pick(&packet(None), &c), 0);
        assert_eq!(r.pick(&packet(None), &c), 1);
    }

    #[test]
    fn exchange_renders_compactly() {
        let r = Exchange::Router { policy: RoutingPolicy::LoadAware, from_dop: 1, to_dop: 26 };
        assert_eq!(r.to_string(), "Router(LoadAware, 1 -> 26)");
        let m = Exchange::MemMove {
            from: MemNode::CpuDram(0),
            to: MemNode::GpuDram(1),
            table: None,
        };
        assert_eq!(m.to_string(), "MemMove(dram0 -> gmem1)");
        assert!(!m.is_broadcast());
        let b = Exchange::MemMove {
            from: MemNode::CpuDram(0),
            to: MemNode::GpuDram(0),
            table: Some("Q5.orders".into()),
        };
        assert_eq!(b.to_string(), "MemMove(dram0 -> gmem0, broadcast \"Q5.orders\")");
        assert!(b.is_broadcast());
        let d = Exchange::DeviceCrossing { from: DeviceType::Cpu, to: DeviceType::Gpu };
        assert_eq!(d.to_string(), "DeviceCrossing(Cpu -> Gpu)");
    }

    #[test]
    fn broadcast_crosses_each_link_once_in_parallel() {
        let mut a = Link::pcie3_x16("p0");
        let mut b = Link::pcie3_x16("p1");
        let bytes = 12_000_000_000; // 1s per link
        let ends = broadcast(&mut [&mut a, &mut b], SimTime::ZERO, bytes);
        assert_eq!(ends.len(), 2);
        for e in ends {
            assert!(e.as_secs() < 1.1, "links did not run in parallel: {e}");
        }
    }
}
