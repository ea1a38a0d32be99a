//! Discrete-event primitives.
//!
//! The executor models every compute unit (CPU worker, GPU) and every
//! interconnect link as a [`Resource`] with a clock. Operators *acquire* a
//! resource for a cost-model-derived duration; query latency is the maximum
//! completion time over all resources. The simulation is deterministic —
//! a property the integration tests rely on.

use crate::time::SimTime;

/// A serially-used resource with an availability clock.
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    free_at: SimTime,
    busy: SimTime,
}

impl Resource {
    /// New resource, free at time zero.
    pub fn new(name: impl Into<String>) -> Self {
        Resource { name: name.into(), free_at: SimTime::ZERO, busy: SimTime::ZERO }
    }

    /// The resource's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time the resource has been busy.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Occupy the resource for `dur`, starting no earlier than `ready`.
    /// Returns the `(start, end)` instants.
    pub fn acquire(&mut self, ready: SimTime, dur: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(ready);
        let end = start + dur;
        self.free_at = end;
        self.busy += dur;
        (start, end)
    }

    /// Reset the clock (new query).
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.busy = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_serialises() {
        let mut r = Resource::new("cpu0");
        let (s1, e1) = r.acquire(SimTime::ZERO, SimTime::from_ms(5.0));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_ms(5.0));
        // Second acquisition must wait for the first even if ready earlier.
        let (s2, e2) = r.acquire(SimTime::from_ms(1.0), SimTime::from_ms(2.0));
        assert_eq!(s2, SimTime::from_ms(5.0));
        assert_eq!(e2, SimTime::from_ms(7.0));
    }

    #[test]
    fn ready_after_free_starts_at_ready() {
        let mut r = Resource::new("gpu0");
        r.acquire(SimTime::ZERO, SimTime::from_ms(1.0));
        let (s, _) = r.acquire(SimTime::from_ms(10.0), SimTime::from_ms(1.0));
        assert_eq!(s, SimTime::from_ms(10.0));
    }

    #[test]
    fn busy_time_and_utilisation() {
        let mut r = Resource::new("link");
        r.acquire(SimTime::ZERO, SimTime::from_ms(2.0));
        r.acquire(SimTime::from_ms(6.0), SimTime::from_ms(2.0));
        assert_eq!(r.busy_time(), SimTime::from_ms(4.0));
        // Utilisation: busy time over the makespan.
        assert_eq!(r.busy_time() / SimTime::from_ms(8.0), 0.5);
    }

    #[test]
    fn reset_clears() {
        let mut r = Resource::new("w");
        r.acquire(SimTime::ZERO, SimTime::from_ms(1.0));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        assert_eq!(r.busy_time(), SimTime::ZERO);
    }
}
