//! Load balancer: least-outstanding routing, health ejection, shedding.
//!
//! Routing is deterministic: among machines that are not ejected (and not
//! explicitly excluded, for hedges), pick the one with the least
//! outstanding load, breaking ties by lowest machine id. Ejection happens
//! when the balancer *observes* a failure — a connect failure or a crash
//! that killed in-flight attempts — or when a periodic health probe finds
//! the machine down; readmission happens only via a probe that finds it
//! up again. Shedding is the admission decision: a request (initial or
//! retry) whose best available machine is already at `contexts +
//! queue_capacity` outstanding, or that finds every machine ejected, is
//! dropped at the door rather than queued into certain timeout.

use crate::machine::Machine;

/// Balancer state: the ejection set plus its decision counters.
#[derive(Debug, Default)]
pub struct Balancer {
    ejected: Vec<bool>,
    /// Ejections performed (first observation only; already-ejected
    /// machines do not re-count).
    pub ejections: u64,
    /// Readmissions performed by health probes.
    pub readmissions: u64,
}

/// Outcome of a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Dispatch to this machine.
    To(usize),
    /// Admission denied: the best machine is saturated or none is in
    /// rotation.
    Shed,
}

impl Balancer {
    /// A balancer over `machines` machines, all in rotation.
    pub fn new(machines: usize) -> Self {
        Self { ejected: vec![false; machines], ejections: 0, readmissions: 0 }
    }

    /// Whether machine `m` is currently out of rotation.
    pub fn is_ejected(&self, m: usize) -> bool {
        self.ejected[m]
    }

    /// Takes `m` out of rotation (observed failure or failed probe).
    pub fn eject(&mut self, m: usize) {
        if !self.ejected[m] {
            self.ejected[m] = true;
            self.ejections += 1;
        }
    }

    /// Puts `m` back in rotation (probe found it up).
    pub fn readmit(&mut self, m: usize) {
        if self.ejected[m] {
            self.ejected[m] = false;
            self.readmissions += 1;
        }
    }

    /// Picks a machine for an attempt, or sheds.
    ///
    /// `excluded` names machines carrying live sibling attempts of the same
    /// request (hedges should land elsewhere); exclusion is best-effort —
    /// if every in-rotation machine is excluded, the exclusion is lifted
    /// rather than failing the dispatch.
    /// `barred` is a hard per-machine veto (an open or trial-busy circuit
    /// breaker): unlike `excluded` it is never lifted — if every machine is
    /// barred, the attempt sheds.
    /// `queue_capacity` bounds the per-machine wait queue.
    pub fn route(
        &self,
        machines: &[Machine],
        excluded: impl Fn(usize) -> bool,
        queue_capacity: usize,
        barred: impl Fn(usize) -> bool,
    ) -> Route {
        let pick = |respect_exclude: bool| -> Option<usize> {
            let mut best: Option<(usize, usize)> = None;
            for (m, machine) in machines.iter().enumerate() {
                if self.ejected[m] || barred(m) || (respect_exclude && excluded(m)) {
                    continue;
                }
                let load = machine.load();
                if best.is_none_or(|(_, bl)| load < bl) {
                    best = Some((m, load));
                }
            }
            best.map(|(m, _)| m)
        };
        let chosen = pick(true).or_else(|| pick(false));
        match chosen {
            Some(m) if machines[m].load() < machines[m].contexts + queue_capacity => Route::To(m),
            _ => Route::Shed,
        }
    }
}

/// Runtime state of the AIMD adaptive concurrency limit.
///
/// The limit lives in milli-attempts so additive increase can be gentler
/// than one whole attempt per success while staying in exact integer
/// arithmetic; admission compares client-side outstanding attempts against
/// `limit()` (the whole-attempt floor of the milli limit).
#[derive(Debug)]
pub struct AimdLimiter {
    policy: crate::policy::AimdPolicy,
    limit_milli: u64,
    /// Additive increases applied (observed successes).
    pub increases: u64,
    /// Multiplicative decreases applied (observed failures).
    pub decreases: u64,
}

impl AimdLimiter {
    /// A limiter starting wide open at `max_inflight`.
    pub fn new(policy: crate::policy::AimdPolicy) -> Self {
        Self { policy, limit_milli: policy.max_inflight.saturating_mul(1000), increases: 0, decreases: 0 }
    }

    fn floor_milli(&self) -> u64 {
        self.policy.min_inflight.max(1).saturating_mul(1000)
    }

    /// The current limit in whole attempts.
    pub fn limit(&self) -> u64 {
        (self.limit_milli / 1000).max(1)
    }

    /// Whether a new attempt may be admitted with `outstanding` attempts
    /// already in flight.
    pub fn admits(&self, outstanding: u64) -> bool {
        outstanding < self.limit()
    }

    /// Additive increase on an observed success.
    pub fn on_success(&mut self) {
        let ceil = self.policy.max_inflight.saturating_mul(1000).max(self.floor_milli());
        self.limit_milli = self.limit_milli.saturating_add(self.policy.increase_milli).min(ceil);
        self.increases += 1;
    }

    /// Multiplicative decrease on an observed failure.
    pub fn on_failure(&mut self) {
        let keep = u64::from(100 - self.policy.decrease_pct.clamp(1, 99));
        self.limit_milli = (self.limit_milli / 100).saturating_mul(keep).max(self.floor_milli());
        self.decreases += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(loads: &[usize]) -> Vec<Machine> {
        loads
            .iter()
            .map(|&l| {
                let mut m = Machine::new(4);
                for i in 0..l {
                    m.queue.push_back(i as u32);
                }
                m
            })
            .collect()
    }

    /// Names no machine: nothing excluded, nothing barred.
    fn none(_m: usize) -> bool {
        false
    }

    #[test]
    fn routes_to_least_loaded_lowest_id() {
        let machines = fleet(&[3, 1, 1, 2]);
        let b = Balancer::new(4);
        assert_eq!(b.route(&machines, none, 8, none), Route::To(1));
    }

    #[test]
    fn ejected_machines_are_skipped_and_readmitted() {
        let machines = fleet(&[0, 5]);
        let mut b = Balancer::new(2);
        b.eject(0);
        b.eject(0);
        assert_eq!(b.ejections, 1);
        assert_eq!(b.route(&machines, none, 8, none), Route::To(1));
        b.readmit(0);
        assert_eq!(b.readmissions, 1);
        assert_eq!(b.route(&machines, none, 8, none), Route::To(0));
    }

    #[test]
    fn exclusion_is_best_effort() {
        let machines = fleet(&[1, 2]);
        let mut b = Balancer::new(2);
        assert_eq!(b.route(&machines, |m| m == 0, 8, none), Route::To(1));
        // With machine 1 ejected, the exclusion of 0 must be lifted.
        b.eject(1);
        assert_eq!(b.route(&machines, |m| m == 0, 8, none), Route::To(0));
    }

    #[test]
    fn saturation_and_empty_rotation_shed() {
        let machines = fleet(&[12, 12]);
        let mut b = Balancer::new(2);
        assert_eq!(b.route(&machines, none, 8, none), Route::Shed);
        let light = fleet(&[0]);
        let mut solo = Balancer::new(1);
        solo.eject(0);
        assert_eq!(solo.route(&light, none, 8, none), Route::Shed);
        b.eject(0);
        b.eject(1);
        assert_eq!(b.route(&machines, none, 8, none), Route::Shed);
    }

    #[test]
    fn barred_machines_are_vetoed_not_best_effort() {
        let machines = fleet(&[0, 5]);
        let b = Balancer::new(2);
        // The breaker veto diverts to the worse machine...
        assert_eq!(b.route(&machines, none, 8, |m| m == 0), Route::To(1));
        // ...and unlike `excluded`, is never lifted: all barred => shed.
        assert_eq!(b.route(&machines, none, 8, |_| true), Route::Shed);
        // `excluded` of the only unbarred machine IS lifted.
        assert_eq!(b.route(&machines, |m| m == 1, 8, |m| m == 0), Route::To(1));
    }

    #[test]
    fn aimd_limit_rises_additively_and_falls_multiplicatively() {
        let policy = crate::policy::AimdPolicy {
            min_inflight: 2,
            max_inflight: 10,
            increase_milli: 500,
            decrease_pct: 50,
        };
        let mut l = AimdLimiter::new(policy);
        assert_eq!(l.limit(), 10);
        assert!(l.admits(9));
        assert!(!l.admits(10));
        l.on_failure();
        assert_eq!(l.limit(), 5);
        l.on_failure();
        l.on_failure();
        assert_eq!(l.limit(), 2, "clamped at min_inflight");
        l.on_success();
        l.on_success();
        assert_eq!(l.limit(), 3, "two half-attempt increases");
        for _ in 0..100 {
            l.on_success();
        }
        assert_eq!(l.limit(), 10, "clamped at max_inflight");
        assert_eq!((l.increases, l.decreases), (102, 3));
    }
}
