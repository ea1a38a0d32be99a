//! Server topology: sockets, GPUs, memory nodes and the links between them.
//!
//! Mirrors the paper's testbed (§6.1): two 12-core Xeon sockets with local
//! DRAM, two GTX 1080s each on a dedicated PCIe 3 x16 link attached to
//! socket 0, and an inter-socket link. HetExchange's `mem-move` operator
//! consults this topology to route transfers and to perform broadcasts with
//! a minimal number of copies (§4.2).

use crate::interconnect::Link;
use crate::spec::{CpuSpec, GpuSpec};

/// A compute device in the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceId {
    /// CPU socket `n`.
    Cpu(usize),
    /// GPU `n`.
    Gpu(usize),
}

impl DeviceId {
    /// True for GPU devices.
    pub fn is_gpu(&self) -> bool {
        matches!(self, DeviceId::Gpu(_))
    }

    /// The memory node local to this device.
    pub fn local_mem(&self) -> MemNode {
        match *self {
            DeviceId::Cpu(s) => MemNode::CpuDram(s),
            DeviceId::Gpu(g) => MemNode::GpuDram(g),
        }
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceId::Cpu(s) => write!(f, "cpu{s}"),
            DeviceId::Gpu(g) => write!(f, "gpu{g}"),
        }
    }
}

/// A memory node (a distinct physical memory in the server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemNode {
    /// DRAM attached to CPU socket `n`.
    CpuDram(usize),
    /// Device memory of GPU `n`.
    GpuDram(usize),
}

impl std::fmt::Display for MemNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemNode::CpuDram(s) => write!(f, "dram{s}"),
            MemNode::GpuDram(g) => write!(f, "gmem{g}"),
        }
    }
}

/// The simulated server.
#[derive(Debug, Clone)]
pub struct Server {
    /// CPU sockets.
    pub cpus: Vec<CpuSpec>,
    /// GPUs.
    pub gpus: Vec<GpuSpec>,
    /// PCIe links, one per GPU (`pcie[i]` connects GPU `i` to its socket).
    pub pcie: Vec<Link>,
    /// Socket the i-th GPU hangs off.
    pub gpu_socket: Vec<usize>,
    /// Inter-socket link.
    pub xbus: Link,
}

impl Server {
    /// The paper's testbed: 2× Xeon E5-2650L v3, 2× GTX 1080 on dedicated
    /// PCIe 3 x16 links off socket 0.
    pub fn paper_testbed() -> Self {
        Server {
            cpus: vec![CpuSpec::xeon_e5_2650l_v3(), CpuSpec::xeon_e5_2650l_v3()],
            gpus: vec![GpuSpec::gtx_1080(), GpuSpec::gtx_1080()],
            pcie: vec![Link::pcie3_x16("pcie0"), Link::pcie3_x16("pcie1")],
            gpu_socket: vec![0, 0],
            xbus: Link::qpi("qpi"),
        }
    }

    /// The paper testbed with GPU memory capacity scaled by `factor` —
    /// used to run SF-100 capacity arguments at reduced data scale (the
    /// scaling rule is spelled out on [`Server::tpch_scaled`]).
    pub fn paper_testbed_gpu_mem_scaled(factor: f64) -> Self {
        let mut s = Self::paper_testbed();
        for g in &mut s.gpus {
            *g = GpuSpec::gtx_1080_scaled(factor);
        }
        s
    }

    /// The paper testbed scaled for running TPC-H SF-100 experiments at a
    /// reduced scale factor `sf`: data shrinks by
    /// `sf/100`, so every *capacity* the evaluation's effects depend on
    /// shrinks with it — GPU device memory (Q9's failure, Figure 6's
    /// cut-off) and the CPU's L2/L3 (at SF 100 the join hash tables dwarf
    /// the caches; without this, scaled-down tables would become
    /// cache-resident and flip the paper's Q5 CPU/GPU regime).
    ///
    /// L1, TLBs and all bandwidths/latencies stay at hardware scale: they
    /// parameterise per-access behaviour and fanout planning, not capacity
    /// ratios.
    /// Fixed per-operation overheads (PCIe DMA latency, kernel launch) also
    /// scale: at SF 100 they are negligible against seconds-long queries,
    /// and the scaled experiment must keep them negligible, or they would
    /// dominate and mask the bandwidth/capacity effects under study.
    pub fn tpch_scaled(sf: f64) -> Self {
        let factor = (sf / 100.0).min(1.0);
        let mut s = Self::paper_testbed();
        for g in &mut s.gpus {
            *g = GpuSpec::gtx_1080_scaled(factor);
            let floor_l1 = g.l1.line * g.l1.assoc;
            let floor_l2 = g.l2.line * g.l2.assoc;
            g.l1.size = ((g.l1.size as f64 * factor) as usize).max(floor_l1);
            g.l2.size = ((g.l2.size as f64 * factor) as usize).max(floor_l2);
            g.launch_overhead_ns *= factor;
            g.block_overhead_ns *= factor;
        }
        for c in &mut s.cpus {
            let floor_l2 = c.l2.line * c.l2.assoc;
            let floor_l3 = c.l3.line * c.l3.assoc;
            c.l2.size = ((c.l2.size as f64 * factor) as usize).max(floor_l2);
            c.l3.size = ((c.l3.size as f64 * factor) as usize).max(floor_l3);
        }
        for l in &mut s.pcie {
            l.latency *= factor;
        }
        s
    }

    /// A server with a single GPU (for 1-GPU vs 2-GPU studies).
    pub fn single_gpu() -> Self {
        let mut s = Self::paper_testbed();
        s.gpus.truncate(1);
        s.pcie.truncate(1);
        s.gpu_socket.truncate(1);
        s
    }

    /// A CPU-only server.
    pub fn cpu_only() -> Self {
        let mut s = Self::paper_testbed();
        s.gpus.clear();
        s.pcie.clear();
        s.gpu_socket.clear();
        s
    }

    /// Total CPU cores across sockets.
    pub fn total_cpu_cores(&self) -> usize {
        self.cpus.iter().map(|c| c.cores).sum()
    }

    /// All compute devices.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut d: Vec<DeviceId> = (0..self.cpus.len()).map(DeviceId::Cpu).collect();
        d.extend((0..self.gpus.len()).map(DeviceId::Gpu));
        d
    }

    /// Whether moving data between two memory nodes crosses an interconnect,
    /// and which links it uses (in hop order). Same-node moves are free.
    pub fn route(&self, from: MemNode, to: MemNode) -> Vec<RouteHop> {
        if from == to {
            return Vec::new();
        }
        match (from, to) {
            (MemNode::CpuDram(a), MemNode::CpuDram(b)) if a != b => vec![RouteHop::XBus],
            (MemNode::CpuDram(s), MemNode::GpuDram(g))
            | (MemNode::GpuDram(g), MemNode::CpuDram(s)) => {
                let mut hops = Vec::new();
                if self.gpu_socket[g] != s {
                    hops.push(RouteHop::XBus);
                }
                hops.push(RouteHop::Pcie(g));
                hops
            }
            (MemNode::GpuDram(a), MemNode::GpuDram(b)) => {
                // GPU↔GPU goes through host memory: two PCIe hops (and the
                // xbus if on different sockets — not the case on the paper
                // testbed).
                let mut hops = vec![RouteHop::Pcie(a)];
                if self.gpu_socket[a] != self.gpu_socket[b] {
                    hops.push(RouteHop::XBus);
                }
                hops.push(RouteHop::Pcie(b));
                hops
            }
            _ => Vec::new(),
        }
    }

    /// The bottleneck bandwidth along a route (bytes/s); `f64::INFINITY`
    /// for local moves.
    pub fn route_bandwidth(&self, from: MemNode, to: MemNode) -> f64 {
        self.route(from, to)
            .iter()
            .map(|h| match h {
                RouteHop::Pcie(g) => self.pcie[*g].bw,
                RouteHop::XBus => self.xbus.bw,
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// One hop of a memory-to-memory route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteHop {
    /// The PCIe link of GPU `n`.
    Pcie(usize),
    /// The inter-socket link.
    XBus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let s = Server::paper_testbed();
        assert_eq!(s.cpus.len(), 2);
        assert_eq!(s.gpus.len(), 2);
        assert_eq!(s.pcie.len(), 2);
        assert_eq!(s.total_cpu_cores(), 24);
        assert_eq!(s.devices().len(), 4);
    }

    #[test]
    fn local_route_is_free() {
        let s = Server::paper_testbed();
        assert!(s.route(MemNode::CpuDram(0), MemNode::CpuDram(0)).is_empty());
        assert_eq!(s.route_bandwidth(MemNode::CpuDram(0), MemNode::CpuDram(0)), f64::INFINITY);
    }

    #[test]
    fn cpu_to_gpu_uses_pcie() {
        let s = Server::paper_testbed();
        let hops = s.route(MemNode::CpuDram(0), MemNode::GpuDram(1));
        assert_eq!(hops, vec![RouteHop::Pcie(1)]);
        // From the remote socket the route crosses the xbus first.
        let hops = s.route(MemNode::CpuDram(1), MemNode::GpuDram(0));
        assert_eq!(hops, vec![RouteHop::XBus, RouteHop::Pcie(0)]);
    }

    #[test]
    fn gpu_to_gpu_double_hop() {
        let s = Server::paper_testbed();
        let hops = s.route(MemNode::GpuDram(0), MemNode::GpuDram(1));
        assert_eq!(hops, vec![RouteHop::Pcie(0), RouteHop::Pcie(1)]);
    }

    #[test]
    fn bottleneck_bandwidth_is_pcie() {
        let s = Server::paper_testbed();
        let bw = s.route_bandwidth(MemNode::CpuDram(1), MemNode::GpuDram(0));
        assert_eq!(bw, s.pcie[0].bw);
    }

    #[test]
    fn device_local_mem() {
        assert_eq!(DeviceId::Cpu(1).local_mem(), MemNode::CpuDram(1));
        assert_eq!(DeviceId::Gpu(0).local_mem(), MemNode::GpuDram(0));
        assert!(DeviceId::Gpu(0).is_gpu());
        assert!(!DeviceId::Cpu(0).is_gpu());
    }
}
