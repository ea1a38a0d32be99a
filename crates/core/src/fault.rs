//! Deterministic fault injection and the recovery contract it proves.
//!
//! The paper's placement argument (§3–§5) treats the device topology as an
//! *input* to the optimize → place passes. This module makes a degraded
//! topology just another such input: a seeded [`FaultPlan`] fires typed
//! faults at **simulated-time / packet-count triggers** — never wall-clock —
//! consulted only on the engine's sequential control plane (whose
//! determinism argument lives in [`mod@crate::engine`]).
//!
//! Fault taxonomy ([`FaultKind`]):
//!
//! - `GpuFailed` — permanent device loss. The engine invalidates that GPU's
//!   resident hash tables, re-places the remaining stages on the surviving
//!   fleet (through the ordinary `optimize`/`place_on` passes) and resumes
//!   from the last completed stage barrier.
//! - `TransferError` — a transient PCIe fault. Retried under a
//!   [`RetryPolicy`]; every retry's backoff plus the re-transfer time is
//!   charged to the simulated clock, so recovery is *priced, not hidden*.
//! - `BroadcastOom` — a broadcast install exceeds device DRAM at runtime.
//!   The device is quarantined for the rest of the query and the stage is
//!   re-placed without it.
//! - `DeviceSlow` — bandwidth degradation: the device's PCIe link runs at
//!   `1/factor` of its nominal bandwidth from the trigger onward.
//!
//! The plane is **off by default and zero-cost when disabled** (one `Option`
//! check, the same discipline as the tracer): [`FaultPlan::off`] carries no
//! allocation and [`FaultSession::disabled`] short-circuits every hook.
//!
//! Fleet-wide state lives in a [`HealthRegistry`]: `SessionServer` shares one
//! registry across concurrent queries so a device lost under one query is
//! quarantined for all, and bumps a *health epoch* used to invalidate
//! broadcast-resident build-cache entries.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use hape_sim::time::SimTime;

use crate::error::EngineError;
use crate::provider::DeviceProvider;

/// What breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanent device loss: the GPU drops out of the fleet for good.
    GpuFailed,
    /// A transient PCIe transfer fault: the next `failures` transfer
    /// attempts on this device fail and are retried under the
    /// [`RetryPolicy`].
    TransferError {
        /// Consecutive failed attempts before the transfer succeeds.
        failures: u32,
    },
    /// A broadcast install exceeds device DRAM at runtime; the device is
    /// quarantined for the remainder of the query.
    BroadcastOom,
    /// Bandwidth degradation: the device's link drops to `1/factor` of its
    /// nominal bandwidth.
    DeviceSlow {
        /// Slow-down factor (`2.0` halves the link bandwidth).
        factor: f64,
    },
}

/// When a fault fires: a simulated-time or packet-ordinal condition, both
/// fully determined by the sequential control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire at the barrier before stage `n` (0-based) runs.
    AtStage(usize),
    /// Fire when the query-wide count of packets committed to GPU workers
    /// reaches `n`. Meaningful for `GpuFailed` and `TransferError` (the
    /// packet-granular faults); barrier-granular kinds should use
    /// [`Trigger::AtStage`] / [`Trigger::AtSimTime`].
    AtGpuPacket(usize),
    /// Fire at the first stage barrier whose simulated clock is ≥ `t`.
    AtSimTime(SimTime),
}

/// One injected fault: a device, a kind, and a trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Target GPU index (into `Server::gpus`).
    pub gpu: usize,
    /// What breaks.
    pub kind: FaultKind,
    /// When it breaks.
    pub trigger: Trigger,
}

/// Bounded-retry policy for transient faults and re-placement.
///
/// Backoff is charged to the **simulated clock** of the affected device, so
/// degraded runs report honestly longer makespans (see the formula table in
/// `cost.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum transfer retry attempts before the query fails with
    /// `EngineError::TransferRetriesExhausted`.
    pub max_retries: u32,
    /// First-retry backoff; attempt `k` waits `base_backoff · 2^(k-1)`.
    pub base_backoff: SimTime,
    /// Maximum mid-query re-placements before the query fails with
    /// `EngineError::RecoveryFailed`.
    pub max_replans: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_backoff: SimTime::from_us(100.0), max_replans: 2 }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry attempt `attempt` (1-based):
    /// `base_backoff · 2^(attempt-1)`, exponent capped to keep the term
    /// finite for adversarial policies.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(16);
        SimTime::from_secs(self.base_backoff.as_secs() * (1u64 << exp) as f64)
    }
}

#[derive(Debug)]
struct PlanInner {
    faults: Vec<FaultSpec>,
    retry: RetryPolicy,
}

/// A seeded, deterministic fault schedule.
///
/// `FaultPlan::off()` (the default) is free: no allocation, and every
/// injection hook reduces to one branch. Attach a plan with
/// `ExecConfig::with_faults` (solo runs) or `SessionServer::with_faults`
/// (serving, with a shared [`HealthRegistry`]).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl FaultPlan {
    /// The disabled plan: injects nothing, costs one branch per hook.
    pub fn off() -> Self {
        FaultPlan { inner: None }
    }

    /// A plan firing `faults` under `retry`.
    pub fn new(faults: Vec<FaultSpec>, retry: RetryPolicy) -> Self {
        FaultPlan { inner: Some(Arc::new(PlanInner { faults, retry })) }
    }

    /// The canonical chaos schedule the chaos suites and the differential
    /// harness's faulted axis run: every recoverable fault kind, with trigger
    /// offsets varied pseudo-randomly by `seed` (pure arithmetic — no
    /// wall-clock, no OS randomness).
    ///
    /// The schedule is recoverable by construction: permanent loss and OOM
    /// target only GPU 1 (GPU 0 and the CPUs survive), and transfer faults
    /// stay within the default retry budget.
    pub fn canonical(seed: u64) -> Self {
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15 | 1;
        let mut next = |m: u64| -> u64 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m.max(1)
        };
        let slow = 1.5 + next(100) as f64 / 100.0;
        let transfer_at = 1 + next(6) as usize;
        let failures = 1 + next(2) as u32;
        let fail_at = 4 + next(8) as usize;
        let oom_stage = 1 + next(3) as usize;
        FaultPlan::new(
            vec![
                FaultSpec {
                    gpu: 0,
                    kind: FaultKind::DeviceSlow { factor: slow },
                    trigger: Trigger::AtStage(0),
                },
                FaultSpec {
                    gpu: 0,
                    kind: FaultKind::TransferError { failures },
                    trigger: Trigger::AtGpuPacket(transfer_at),
                },
                FaultSpec {
                    gpu: 1,
                    kind: FaultKind::GpuFailed,
                    trigger: Trigger::AtGpuPacket(fail_at),
                },
                FaultSpec {
                    gpu: 1,
                    kind: FaultKind::BroadcastOom,
                    trigger: Trigger::AtStage(oom_stage),
                },
            ],
            RetryPolicy::default(),
        )
    }

    /// True when the plan carries faults.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The scheduled faults (empty when disabled).
    pub fn faults(&self) -> &[FaultSpec] {
        self.inner.as_deref().map_or(&[], |p| &p.faults)
    }

    /// The retry policy (defaults when disabled).
    pub fn retry(&self) -> RetryPolicy {
        self.inner.as_deref().map_or_else(RetryPolicy::default, |p| p.retry)
    }
}

#[derive(Debug, Default)]
struct HealthState {
    failed: BTreeSet<usize>,
    slow: BTreeMap<usize, u32>,
    epoch: u64,
}

/// Fleet-wide device health, shared across concurrent queries.
///
/// Cloning shares the registry (it is an `Arc`); `SessionServer` hands one
/// clone to every query so a permanent loss under one query quarantines the
/// device for the whole fleet. Every failure bumps the **health epoch**;
/// broadcast-resident build-cache entries are keyed by the epoch observed at
/// insert time and downgraded to host-resident when it moves.
#[derive(Debug, Clone, Default)]
pub struct HealthRegistry {
    inner: Arc<Mutex<HealthState>>,
}

impl HealthRegistry {
    /// A pristine registry: every device healthy, epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record permanent loss of `gpu`. Returns `true` (and bumps the
    /// epoch) only on the first report.
    pub fn fail(&self, gpu: usize) -> bool {
        let mut st = self.inner.lock().expect("health registry lock");
        let fresh = st.failed.insert(gpu);
        if fresh {
            st.epoch += 1;
        }
        fresh
    }

    /// Record bandwidth degradation of `gpu`. Slow-down factors are stored
    /// in centi-units so the registry stays `Eq`-friendly.
    pub fn mark_slow(&self, gpu: usize, factor: f64) {
        let mut st = self.inner.lock().expect("health registry lock");
        st.slow.insert(gpu, (factor.max(1.0) * 100.0) as u32);
    }

    /// True when `gpu` has been permanently lost.
    pub fn is_failed(&self, gpu: usize) -> bool {
        self.inner.lock().expect("health registry lock").failed.contains(&gpu)
    }

    /// The slow-down factor for `gpu`, if degraded.
    pub fn slow_factor(&self, gpu: usize) -> Option<f64> {
        let st = self.inner.lock().expect("health registry lock");
        st.slow.get(&gpu).map(|c| f64::from(*c) / 100.0)
    }

    /// The set of permanently failed GPUs.
    pub fn failed(&self) -> BTreeSet<usize> {
        self.inner.lock().expect("health registry lock").failed.clone()
    }

    /// The current health epoch (bumped once per fresh failure).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("health registry lock").epoch
    }
}

/// A packet-granular fault fired by [`FaultSession::on_gpu_packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketFault {
    /// The device died mid-stage (permanent).
    Fail,
    /// The transfer failed transiently `failures` times before succeeding.
    Transfer {
        /// Consecutive failed attempts.
        failures: u32,
    },
}

/// Per-query injection state, owned by `QueryExec` and consulted only on the
/// sequential control plane (stage barriers, broadcast installs, and the
/// packet-commit loop) — never from data-plane worker threads. What fired
/// and what recovery cost is the ledger's to remember
/// ([`crate::trace::Ledger`]), not this session's.
#[derive(Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    health: HealthRegistry,
    fired: RefCell<Vec<bool>>,
    gpu_packets: Cell<usize>,
    /// Query-local quarantine (BroadcastOom): the device is healthy for
    /// other queries but excluded from this one's re-placements.
    quarantine: RefCell<BTreeSet<usize>>,
    /// Devices whose DRAM exhaustion is armed and will fire at their next
    /// broadcast install under this query.
    oom_pending: RefCell<BTreeSet<usize>>,
}

impl FaultSession {
    /// The inert session: nothing fires, every hook is one branch.
    pub fn disabled() -> Self {
        Self::new(FaultPlan::off(), HealthRegistry::new())
    }

    /// A session for `plan` against (possibly shared) `health`.
    pub fn new(plan: FaultPlan, health: HealthRegistry) -> Self {
        let fired = vec![false; plan.faults().len()];
        FaultSession {
            plan,
            health,
            fired: RefCell::new(fired),
            gpu_packets: Cell::new(0),
            quarantine: RefCell::new(BTreeSet::new()),
            oom_pending: RefCell::new(BTreeSet::new()),
        }
    }

    /// True when the plan can fire faults.
    pub fn is_active(&self) -> bool {
        self.plan.is_enabled()
    }

    /// The retry policy governing this query's recovery.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.plan.retry()
    }

    /// The fleet health registry this session reports into.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Fire every stage/sim-time-triggered fault due at the barrier before
    /// `stage` runs at simulated time `clock`. Returns the specs that fired
    /// (for trace spans).
    pub fn begin_stage(&self, stage: usize, clock: SimTime) -> Vec<FaultSpec> {
        if !self.is_active() {
            return Vec::new();
        }
        let mut fired_now = Vec::new();
        let mut fired = self.fired.borrow_mut();
        for (i, f) in self.plan.faults().iter().enumerate() {
            if fired[i] {
                continue;
            }
            let due = match f.trigger {
                Trigger::AtStage(k) => stage >= k,
                Trigger::AtSimTime(t) => clock >= t,
                Trigger::AtGpuPacket(_) => false,
            };
            if !due {
                continue;
            }
            fired[i] = true;
            match f.kind {
                FaultKind::GpuFailed => {
                    self.health.fail(f.gpu);
                }
                FaultKind::DeviceSlow { factor } => self.health.mark_slow(f.gpu, factor),
                FaultKind::BroadcastOom => {
                    self.oom_pending.borrow_mut().insert(f.gpu);
                }
                // Transfer faults are packet-granular; a barrier trigger
                // arms nothing (documented on `Trigger::AtGpuPacket`).
                FaultKind::TransferError { .. } => {}
            }
            fired_now.push(*f);
        }
        fired_now
    }

    /// Control-plane hook, called in packet order just before a packet of
    /// `bytes` commits on the routed `worker`: advances the query-wide GPU
    /// packet ordinal and fires what is due. A `TransferError` within the
    /// retry budget is *priced* — every failed attempt's backoff plus its
    /// wasted transfer lands on the worker's compute resource — and its
    /// failure count returned (0 when nothing fired); past the budget it
    /// is the typed `TransferRetriesExhausted`. A `GpuFailed` is the
    /// recoverable `DeviceFailed`.
    pub fn before_commit(
        &self,
        worker: &mut dyn DeviceProvider,
        start: SimTime,
        bytes: u64,
    ) -> Result<u32, EngineError> {
        let Some(gpu) = worker.id().gpu() else {
            return Ok(0);
        };
        match self.on_gpu_packet(gpu) {
            None => Ok(0),
            Some(PacketFault::Fail) => {
                Err(EngineError::DeviceFailed { device: format!("gpu{gpu}") })
            }
            Some(PacketFault::Transfer { failures }) => {
                let policy = self.retry_policy();
                if failures > policy.max_retries {
                    return Err(EngineError::TransferRetriesExhausted {
                        device: format!("gpu{gpu}"),
                        attempts: policy.max_retries,
                    });
                }
                let mut delay = SimTime::ZERO;
                for attempt in 1..=failures {
                    delay += policy.backoff(attempt) + worker.transfer_duration(bytes);
                }
                worker.charge_fault_delay(start, delay);
                Ok(failures)
            }
        }
    }

    /// Advance the query-wide GPU packet ordinal for a packet routed to
    /// `gpu` and return the fault firing at this ordinal, if any.
    fn on_gpu_packet(&self, gpu: usize) -> Option<PacketFault> {
        if !self.is_active() {
            return None;
        }
        let ord = self.gpu_packets.get();
        self.gpu_packets.set(ord + 1);
        let mut fired = self.fired.borrow_mut();
        for (i, f) in self.plan.faults().iter().enumerate() {
            if fired[i] || f.gpu != gpu {
                continue;
            }
            let Trigger::AtGpuPacket(n) = f.trigger else { continue };
            if ord < n {
                continue;
            }
            match f.kind {
                FaultKind::GpuFailed => {
                    fired[i] = true;
                    self.health.fail(gpu);
                    return Some(PacketFault::Fail);
                }
                FaultKind::TransferError { failures } => {
                    fired[i] = true;
                    return Some(PacketFault::Transfer { failures });
                }
                // Barrier-granular kinds don't fire on the packet path.
                FaultKind::BroadcastOom | FaultKind::DeviceSlow { .. } => {}
            }
        }
        None
    }

    /// Install hook: true when `gpu`'s armed DRAM exhaustion fires at this
    /// broadcast install. Consumes the arming and quarantines the device
    /// for the rest of the query.
    pub fn oom_at_install(&self, gpu: usize) -> bool {
        if !self.is_active() {
            return false;
        }
        if self.oom_pending.borrow_mut().remove(&gpu) {
            self.quarantine.borrow_mut().insert(gpu);
            return true;
        }
        false
    }

    /// Devices this query must avoid: fleet-failed ∪ query-quarantined.
    pub fn excluded(&self) -> BTreeSet<usize> {
        let mut out = self.health.failed();
        out.extend(self.quarantine.borrow().iter().copied());
        out
    }

    /// True when `gpu` is failed fleet-wide or quarantined by this query.
    pub fn is_excluded(&self, gpu: usize) -> bool {
        self.health.is_failed(gpu) || self.quarantine.borrow().contains(&gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_inert() {
        let plan = FaultPlan::off();
        assert!(!plan.is_enabled());
        assert!(plan.faults().is_empty());
        let s = FaultSession::disabled();
        assert!(!s.is_active());
        assert!(s.begin_stage(0, SimTime::ZERO).is_empty());
        assert_eq!(s.on_gpu_packet(0), None);
        assert!(!s.oom_at_install(0));
    }

    #[test]
    fn canonical_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::canonical(7);
        let b = FaultPlan::canonical(7);
        assert_eq!(a.faults(), b.faults());
        let c = FaultPlan::canonical(8);
        assert_ne!(a.faults(), c.faults(), "seeds should vary the schedule");
        // Recoverability invariants: permanent loss / OOM never target
        // GPU 0, and transfer faults stay within the retry budget.
        for f in a.faults() {
            match f.kind {
                FaultKind::GpuFailed | FaultKind::BroadcastOom => assert_ne!(f.gpu, 0),
                FaultKind::TransferError { failures } => {
                    assert!(failures <= a.retry().max_retries);
                }
                FaultKind::DeviceSlow { factor } => assert!(factor > 1.0),
            }
        }
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), p.base_backoff);
        assert_eq!(p.backoff(2), p.base_backoff + p.base_backoff);
        assert!(p.backoff(3) > p.backoff(2));
        // The exponent cap keeps adversarial attempts finite.
        assert!(p.backoff(10_000).as_secs().is_finite());
    }

    #[test]
    fn registry_epoch_bumps_once_per_fresh_failure() {
        let h = HealthRegistry::new();
        assert_eq!(h.epoch(), 0);
        assert!(h.fail(1));
        assert!(!h.fail(1), "repeat failure is not fresh");
        assert_eq!(h.epoch(), 1);
        assert!(h.is_failed(1));
        assert!(!h.is_failed(0));
        assert!(h.fail(0));
        assert_eq!(h.epoch(), 2);
        assert_eq!(h.failed().len(), 2);
        // Clones share state.
        let h2 = h.clone();
        assert!(h2.is_failed(0));
        h.mark_slow(2, 2.0);
        assert_eq!(h2.slow_factor(2), Some(2.0));
        assert_eq!(h2.slow_factor(3), None);
    }

    #[test]
    fn stage_barrier_fires_stage_and_time_triggers() {
        let plan = FaultPlan::new(
            vec![
                FaultSpec { gpu: 1, kind: FaultKind::GpuFailed, trigger: Trigger::AtStage(1) },
                FaultSpec {
                    gpu: 0,
                    kind: FaultKind::DeviceSlow { factor: 2.0 },
                    trigger: Trigger::AtSimTime(SimTime::from_ms(1.0)),
                },
                FaultSpec {
                    gpu: 1,
                    kind: FaultKind::BroadcastOom,
                    trigger: Trigger::AtStage(0),
                },
            ],
            RetryPolicy::default(),
        );
        let s = FaultSession::new(plan, HealthRegistry::new());
        let fired = s.begin_stage(0, SimTime::ZERO);
        assert_eq!(fired.len(), 1, "only the OOM arming is due at stage 0");
        assert!(s.oom_at_install(1), "armed OOM fires at install");
        assert!(!s.oom_at_install(1), "and is consumed");
        assert!(s.is_excluded(1), "OOM quarantines the device query-locally");
        assert!(!s.health().is_failed(1), "but does not fail it fleet-wide");
        let fired = s.begin_stage(1, SimTime::from_ms(2.0));
        assert_eq!(fired.len(), 2, "stage-1 loss and the sim-time slow fire");
        assert!(s.health().is_failed(1));
        assert_eq!(s.health().slow_factor(0), Some(2.0));
        assert!(s.begin_stage(2, SimTime::from_ms(9.0)).is_empty(), "one-shot");
    }

    #[test]
    fn packet_ordinal_fires_transfer_then_loss() {
        let plan = FaultPlan::new(
            vec![
                FaultSpec {
                    gpu: 0,
                    kind: FaultKind::TransferError { failures: 2 },
                    trigger: Trigger::AtGpuPacket(1),
                },
                FaultSpec {
                    gpu: 1,
                    kind: FaultKind::GpuFailed,
                    trigger: Trigger::AtGpuPacket(3),
                },
            ],
            RetryPolicy::default(),
        );
        let s = FaultSession::new(plan, HealthRegistry::new());
        assert_eq!(s.on_gpu_packet(0), None, "ordinal 0: not yet due");
        assert_eq!(
            s.on_gpu_packet(0),
            Some(PacketFault::Transfer { failures: 2 }),
            "ordinal 1 on gpu0 fires the transfer fault"
        );
        assert_eq!(s.on_gpu_packet(0), None, "one-shot");
        assert_eq!(s.on_gpu_packet(0), None, "ordinal 3, wrong device");
        assert_eq!(
            s.on_gpu_packet(1),
            Some(PacketFault::Fail),
            "first gpu1 packet at/after ordinal 3 kills the device"
        );
        assert!(s.health().is_failed(1));
    }
}
