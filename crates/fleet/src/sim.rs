//! The deterministic discrete-event fleet simulator.
//!
//! One simulation is a pure function of ([`FleetConfig`],
//! [`ServiceProfile`]): every random draw flows through seeded streams
//! (arrivals, service times, per-machine and per-domain fault schedules),
//! and every effect — including retries, hedges, crashes, gray episodes,
//! and probes — is an event in one total order by `(time, sequence)`. The
//! sequence number is assigned at scheduling time, so simultaneous events
//! replay in the order they were scheduled; nothing observes allocation
//! order, thread interleaving, or wall-clock time. That is the entire
//! determinism argument, and it is what lets the `fleet_slo` and
//! `fleet_resilience` experiments promise byte-identical results across
//! `--jobs` values and reruns.
//!
//! The order is kept by one [`EventQueue`]: a heap for events whose delay
//! is drawn at random (arrivals, service completions, retry backoffs,
//! fault gaps) and a FIFO lane per delay that is a constant of the
//! configuration (timeouts, connect failures, hedge timers, probes,
//! breaker half-open timers, repairs, episode ends). A lane event fires at
//! `now + delay`, and `now` never decreases, so each lane is already
//! sorted; popping the least `(time, sequence)` among the heap top and the
//! lane fronts yields exactly the order one heap of every event would.
//! The storage is a cost choice only — the handlers, their random draws
//! and the bytes they produce do not depend on it.
//!
//! Feedback-driven load does not weaken the argument: retries, hedges,
//! breaker trips, and AIMD limit moves are all *computed from* prior
//! events and *expressed as* new queue entries, so the closed loop between
//! congestion and offered load is just more events in the same total
//! order. A metastable overload — where recovery-era retry load keeps the
//! fleet saturated long after the triggering burst ends — replays
//! byte-for-byte like any quiet run.
//!
//! ## Request lifecycle
//!
//! A request arrives (open loop), is routed by the balancer, and ends in
//! exactly one of three states:
//!
//! - **completed** — some attempt finished before the client gave up;
//! - **shed** — admission was denied (all machines saturated, barred, or
//!   out of rotation — or the AIMD concurrency limit was reached) with no
//!   live attempt outstanding;
//! - **failed** — the retry schedule or the retry *budget* was exhausted.
//!
//! Attempts are the unit of dispatch: the initial attempt, retries (after
//! an observed timeout/connect/crash failure, delayed by the capped
//! exponential backoff schedule), and hedges (duplicates fired while the
//! initial attempt is still outstanding). A timed-out attempt whose
//! server is still working becomes *abandoned*: the server finishes it
//! anyway and the completed work is counted as wasted — the classic
//! overload amplification that load shedding exists to prevent.
//!
//! ## Gray failures and the mitigation stack
//!
//! A machine in a gray episode stays `up`: probes pass, connects succeed,
//! and the consecutive-failure health ejector never fires. But its service
//! times are inflated (latency factor × the measured memory-pressure
//! inflation) and a seeded fraction of attempts is silently *dropped* —
//! accepted, never served, discovered only by the client's timeout. The
//! defenses are client-side and independently togglable: a token-bucket
//! [`RetryBudget`] bounds retry-storm amplification, a per-machine
//! circuit [`BreakerPolicy`](crate::breaker::BreakerPolicy) trips on
//! consecutive client-observed failures (catching what health checks
//! cannot), and an [`AimdPolicy`] concurrency limit sheds load at the
//! balancer before it can queue into certain timeout.

use crate::arrivals::{ArrivalProcess, Burst};
use crate::balancer::{AimdLimiter, Balancer, Route};
use crate::breaker::{BreakerBank, BreakerPolicy};
use crate::faults::{FaultStreams, FleetFaultPlan};
use crate::machine::Machine;
use crate::policy::{AimdPolicy, HedgePolicy, RetryBudget, RetryPolicy};
use crate::queue::EventQueue;
use crate::report::{AuditPolicies, FleetStats};
use crate::service::{ServiceProfile, ServiceSampler};
use cs_trace::rng::SmallRng;
use serde::Serialize;

/// RNG stream id for the arrival process.
const ARRIVAL_STREAM: u64 = 0xA1;
/// RNG stream id for service-time sampling.
const SERVICE_STREAM: u64 = 0x5E;

/// Full configuration of one fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetConfig {
    /// Number of serving machines.
    pub machines: usize,
    /// Hardware contexts per machine (concurrent requests in service).
    pub contexts_per_machine: usize,
    /// Bounded per-machine wait queue; admission beyond
    /// `contexts + queue_capacity` outstanding is shed.
    pub queue_capacity: usize,
    /// Total requests to arrive (open loop).
    pub requests: u64,
    /// Base mean inter-arrival gap, ns.
    pub mean_interarrival_ns: u64,
    /// Optional square-wave burst modulation of the arrival rate.
    pub burst: Option<Burst>,
    /// Service-time multiplier for the scenario (SMT sharing, co-location).
    pub service_inflation: f64,
    /// Client-side per-attempt timeout, ns.
    pub timeout_ns: u64,
    /// Connect timeout for attempts routed to a down machine, ns (must be
    /// below `timeout_ns`).
    pub connect_timeout_ns: u64,
    /// Health-probe period per machine, ns.
    pub probe_interval_ns: u64,
    /// Retry schedule (backoffs in ns).
    pub retry: RetryPolicy,
    /// Optional hedged-request policy.
    pub hedge: Option<HedgePolicy>,
    /// Optional seeded fault plan.
    pub faults: Option<FleetFaultPlan>,
    /// Number of correlated fault domains (racks / power feeds) machines
    /// are assigned to round-robin (`machine % fault_domains`). Zero
    /// disables domain grouping; required >= 1 when the fault plan draws
    /// domain-level events.
    pub fault_domains: usize,
    /// Optional end of the overload *trigger* era, ns: requests arriving
    /// at or after this instant are additionally tracked in the
    /// recovery-era books (`late_*` stats), which is how a metastable
    /// collapse — or a mitigated recovery — is measured.
    pub trigger_end_ns: Option<u64>,
    /// Optional client-side retry/hedge token budget.
    pub retry_budget: Option<RetryBudget>,
    /// Optional per-machine circuit breakers.
    pub breaker: Option<BreakerPolicy>,
    /// Optional AIMD adaptive concurrency limit at the balancer.
    pub aimd: Option<AimdPolicy>,
    /// Seed of the arrival and service streams.
    pub seed: u64,
}

/// A rejected [`FleetConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum FleetConfigError {
    /// `machines` is zero.
    NoMachines,
    /// `contexts_per_machine` is zero.
    NoContexts,
    /// `requests` is zero.
    NoRequests,
    /// `mean_interarrival_ns` is zero.
    ZeroInterarrival,
    /// `timeout_ns` is zero.
    ZeroTimeout,
    /// `connect_timeout_ns` is zero or not below `timeout_ns`.
    BadConnectTimeout,
    /// `probe_interval_ns` is zero (ejected machines could never return).
    ZeroProbeInterval,
    /// `service_inflation` is not finite and positive.
    BadInflation,
    /// The service profile's mean is zero.
    ZeroServiceTime,
    /// Burst parameters out of range.
    BadBurst,
    /// Gray-failure parameters out of range (latency factor or memory
    /// inflation below 1 / not finite, or drop rate outside `[0, 1)`).
    BadGray,
    /// The fault plan draws domain-level events but `fault_domains` is 0.
    NoFaultDomains,
    /// Breaker parameters out of range (zero threshold or zero open time).
    BadBreaker,
    /// AIMD parameters out of range (zero floor, floor above ceiling,
    /// zero increase, or decrease percent outside `[1, 99]`).
    BadAimd,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            Self::NoMachines => "fleet needs at least one machine",
            Self::NoContexts => "machines need at least one context",
            Self::NoRequests => "fleet needs at least one request",
            Self::ZeroInterarrival => "mean inter-arrival gap must be positive",
            Self::ZeroTimeout => "request timeout must be positive",
            Self::BadConnectTimeout => "connect timeout must be positive and below the request timeout",
            Self::ZeroProbeInterval => "probe interval must be positive",
            Self::BadInflation => "service inflation must be finite and positive",
            Self::ZeroServiceTime => "service profile mean must be positive",
            Self::BadBurst => "burst needs period > 0, on_fraction in (0,1), amplitude >= 1",
            Self::BadGray => {
                "gray failure needs latency factor and memory inflation finite and >= 1, drop rate in [0,1)"
            }
            Self::NoFaultDomains => {
                "fault plan draws domain-level events; fault_domains must be >= 1"
            }
            Self::BadBreaker => "breaker needs failure_threshold >= 1 and open_ns > 0",
            Self::BadAimd => {
                "aimd needs min_inflight in [1, max_inflight], increase_milli > 0, decrease_pct in [1,99]"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FleetConfigError {}

impl FleetConfig {
    /// Validates the configuration against `profile`.
    pub fn validate(&self, profile: &ServiceProfile) -> Result<(), FleetConfigError> {
        if self.machines == 0 {
            return Err(FleetConfigError::NoMachines);
        }
        if self.contexts_per_machine == 0 {
            return Err(FleetConfigError::NoContexts);
        }
        if self.requests == 0 {
            return Err(FleetConfigError::NoRequests);
        }
        if self.mean_interarrival_ns == 0 {
            return Err(FleetConfigError::ZeroInterarrival);
        }
        if self.timeout_ns == 0 {
            return Err(FleetConfigError::ZeroTimeout);
        }
        if self.connect_timeout_ns == 0 || self.connect_timeout_ns >= self.timeout_ns {
            return Err(FleetConfigError::BadConnectTimeout);
        }
        if self.probe_interval_ns == 0 {
            return Err(FleetConfigError::ZeroProbeInterval);
        }
        if !(self.service_inflation.is_finite() && self.service_inflation > 0.0) {
            return Err(FleetConfigError::BadInflation);
        }
        if profile.mean_service_ns == 0 {
            return Err(FleetConfigError::ZeroServiceTime);
        }
        if let Some(b) = self.burst {
            if b.period_ns == 0
                || !(b.on_fraction > 0.0 && b.on_fraction < 1.0)
                || !(b.amplitude.is_finite() && b.amplitude >= 1.0)
            {
                return Err(FleetConfigError::BadBurst);
            }
        }
        if let Some(p) = self.faults {
            let gray_shape_ok = p.gray_latency_factor.is_finite()
                && p.gray_latency_factor >= 1.0
                && p.gray_memory_inflation.is_finite()
                && p.gray_memory_inflation >= 1.0
                && (0.0..1.0).contains(&p.gray_drop_rate);
            if !gray_shape_ok {
                return Err(FleetConfigError::BadGray);
            }
            if p.wants_domains() && self.fault_domains == 0 {
                return Err(FleetConfigError::NoFaultDomains);
            }
        }
        if let Some(b) = self.breaker {
            if b.failure_threshold == 0 || b.open_ns == 0 {
                return Err(FleetConfigError::BadBreaker);
            }
        }
        if let Some(a) = self.aimd {
            if a.min_inflight == 0
                || a.max_inflight < a.min_inflight
                || a.increase_milli == 0
                || !(1..=99).contains(&a.decrease_pct)
            {
                return Err(FleetConfigError::BadAimd);
            }
        }
        Ok(())
    }

    /// The policy set the `CS_PARANOID` audit checks this config's stats
    /// against.
    pub fn audit_policies(&self) -> AuditPolicies {
        AuditPolicies {
            hedge: self.hedge,
            retry_budget: self.retry_budget,
            breaker: self.breaker,
        }
    }
}

/// What the simulator does when an event fires.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    ServiceDone { attempt: u32 },
    Timeout { attempt: u32 },
    ConnectFail { attempt: u32 },
    HedgeFire { req: u32 },
    RetryFire { req: u32 },
    Crash { machine: usize },
    Recover { machine: usize },
    StragglerStart { machine: usize },
    StragglerEnd { machine: usize },
    GrayStart { machine: usize },
    GrayEnd { machine: usize },
    DomainOutage { domain: usize },
    DomainGray { domain: usize },
    BreakerHalfOpen { machine: usize },
    Probe { machine: usize },
}

/// The event queue's fixed-delay lanes, one per event kind whose delay is
/// a constant of the configuration. Every other event goes to the heap.
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// [`Ev::Timeout`], `timeout_ns` after dispatch.
    Timeout,
    /// [`Ev::ConnectFail`], `connect_timeout_ns` after dispatch.
    ConnectFail,
    /// [`Ev::HedgeFire`], the hedge policy's `delay_ns`.
    Hedge,
    /// [`Ev::Probe`], `probe_interval_ns`.
    Probe,
    /// [`Ev::BreakerHalfOpen`], the breaker's `open_ns`.
    HalfOpen,
    /// [`Ev::Recover`], the fault plan's `repair_ns`.
    Recover,
    /// [`Ev::StragglerEnd`], the straggler episode length.
    StragglerEnd,
    /// [`Ev::GrayEnd`], the gray episode length.
    GrayEnd,
}

impl Lane {
    /// Each lane's delay under `cfg`, indexed by lane. A lane whose policy
    /// is off keeps delay 0; nothing is ever scheduled on it.
    fn delays(cfg: &FleetConfig) -> [u64; 8] {
        let mut d = [0; 8];
        d[Lane::Timeout as usize] = cfg.timeout_ns;
        d[Lane::ConnectFail as usize] = cfg.connect_timeout_ns;
        d[Lane::Probe as usize] = cfg.probe_interval_ns;
        if let Some(h) = cfg.hedge {
            d[Lane::Hedge as usize] = h.delay_ns;
        }
        if let Some(b) = cfg.breaker {
            d[Lane::HalfOpen as usize] = b.open_ns.max(1);
        }
        if let Some(p) = cfg.faults {
            d[Lane::Recover as usize] = p.repair_ns.max(1);
            d[Lane::StragglerEnd as usize] = p.straggler_duration_ns.max(1);
            d[Lane::GrayEnd as usize] = p.gray_duration_ns.max(1);
        }
        d
    }
}

/// Client-visible state of one dispatched attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttState {
    /// Waiting in a machine's queue.
    Queued,
    /// Occupying a context.
    InService,
    /// Routed to a down machine; the connect will fail.
    ConnectPending,
    /// Accepted by a gray machine, then silently dropped: no context is
    /// burned and no completion will ever come — only the client's
    /// timeout (or a winning sibling) resolves it.
    Dropped,
    /// Client gave up (timeout) or a sibling won, but the server is still
    /// working on it; its completion will be wasted.
    Abandoned,
    /// Fully accounted for.
    Terminal,
}

#[derive(Debug)]
struct Att {
    req: u32,
    machine: usize,
    state: AttState,
    /// The next attempt in the request's [`Live`] list, or [`NIL`].
    next_live: u32,
}

/// The end of a [`Live`] list.
const NIL: u32 = u32::MAX;

/// The live (non-terminal, non-abandoned) attempts of one request, linked
/// through [`Att::next_live`] in dispatch order, which is ascending
/// attempt id. A request holds at most its initial attempt, or its latest
/// retry, plus its hedges, so every walk is short, and no request owns a
/// buffer of its own.
#[derive(Debug, Clone, Copy)]
struct Live {
    head: u32,
    tail: u32,
}

impl Live {
    const EMPTY: Self = Self { head: NIL, tail: NIL };

    fn is_empty(self) -> bool {
        self.head == NIL
    }

    /// Appends attempt `a`, the request's newest.
    fn push(&mut self, atts: &mut [Att], a: u32) {
        atts[a as usize].next_live = NIL;
        match self.tail {
            NIL => self.head = a,
            t => atts[t as usize].next_live = a,
        }
        self.tail = a;
    }

    /// Unlinks attempt `a`; returns whether it was live.
    fn remove(&mut self, atts: &mut [Att], a: u32) -> bool {
        let (mut prev, mut cur) = (NIL, self.head);
        while cur != NIL {
            let next = atts[cur as usize].next_live;
            if cur == a {
                match prev {
                    NIL => self.head = next,
                    p => atts[p as usize].next_live = next,
                }
                if self.tail == a {
                    self.tail = prev;
                }
                return true;
            }
            (prev, cur) = (cur, next);
        }
        false
    }

    /// The live attempts, oldest first.
    fn iter(self, atts: &[Att]) -> impl Iterator<Item = u32> + '_ {
        let link = |a: u32| (a != NIL).then_some(a);
        std::iter::successors(link(self.head), move |&a| link(atts[a as usize].next_live))
    }
}

#[derive(Debug)]
struct Req {
    arrived_at: u64,
    resolved: bool,
    retries_used: u32,
    hedges_used: u32,
    /// Arrived at or after `trigger_end_ns` (recovery-era books).
    late: bool,
    live: Live,
}

#[derive(Debug, Clone, Copy)]
enum DispatchKind {
    Initial,
    Retry,
    Hedge,
}

struct Sim<'a> {
    cfg: &'a FleetConfig,
    events: EventQueue<Ev>,
    now: u64,
    machines: Vec<Machine>,
    balancer: Balancer,
    breaker: Option<BreakerBank>,
    aimd: Option<AimdLimiter>,
    /// Current retry-budget balance, milli-tokens.
    budget_milli: u64,
    /// Client-side live attempts (the AIMD admission signal).
    outstanding: u64,
    reqs: Vec<Req>,
    atts: Vec<Att>,
    arrivals: ArrivalProcess,
    service_rng: SmallRng,
    sampler: ServiceSampler,
    faults: Option<FaultStreams>,
    stats: FleetStats,
    arrivals_generated: u64,
    resolved: u64,
    last_resolution: u64,
    /// Reused buffer for the attempts a crash drains.
    scratch: Vec<u32>,
}

/// Runs one simulation to completion.
pub fn simulate(cfg: &FleetConfig, profile: &ServiceProfile) -> Result<FleetStats, FleetConfigError> {
    cfg.validate(profile)?;
    let mut sim = Sim::new(cfg, profile);
    sim.run();
    Ok(sim.finish())
}

impl<'a> Sim<'a> {
    /// A fleet at time zero with nothing scheduled; `cfg` is valid.
    fn new(cfg: &'a FleetConfig, profile: &ServiceProfile) -> Self {
        let effective_mean =
            ((profile.mean_service_ns as f64 * cfg.service_inflation) as u64).max(1);
        let mut sim = Sim {
            cfg,
            events: EventQueue::new(&Lane::delays(cfg)),
            now: 0,
            machines: (0..cfg.machines).map(|_| Machine::new(cfg.contexts_per_machine)).collect(),
            balancer: Balancer::new(cfg.machines),
            breaker: cfg.breaker.map(|p| BreakerBank::new(p, cfg.machines)),
            aimd: cfg.aimd.map(AimdLimiter::new),
            budget_milli: cfg.retry_budget.map_or(0, |b| b.burst_milli),
            outstanding: 0,
            reqs: Vec::with_capacity(cfg.requests as usize),
            atts: Vec::with_capacity(cfg.requests as usize),
            arrivals: ArrivalProcess::new(
                cfg.mean_interarrival_ns,
                cfg.burst,
                cs_trace::rng::stream_rng(cfg.seed, ARRIVAL_STREAM),
            ),
            service_rng: cs_trace::rng::stream_rng(cfg.seed, SERVICE_STREAM),
            sampler: ServiceSampler::new(effective_mean),
            faults: cfg.faults.map(|p| FaultStreams::new(p, cfg.machines, cfg.fault_domains)),
            stats: FleetStats::default(),
            arrivals_generated: 0,
            resolved: 0,
            last_resolution: 0,
            scratch: Vec::new(),
        };
        // The initial bucket balance is granted budget.
        sim.stats.budget_granted_milli = sim.budget_milli;
        sim
    }

    /// The statistics of a finished run.
    fn finish(self) -> FleetStats {
        let mut stats = self.stats;
        stats.ejections = self.balancer.ejections;
        stats.readmissions = self.balancer.readmissions;
        if let Some(b) = &self.breaker {
            stats.breaker_opens = b.opens;
            stats.breaker_half_opens = b.half_opens;
            stats.breaker_closes = b.closes;
        }
        stats.span_ns = self.last_resolution;
        stats.latencies_ns.sort_unstable();
        stats.late_latencies_ns.sort_unstable();
        stats
    }

    /// Schedules `ev` at instant `at` (a random delay from now).
    fn schedule(&mut self, at: u64, ev: Ev) {
        self.events.at(at, ev);
    }

    /// Schedules `ev` one fixed `lane` delay from now.
    fn schedule_after(&mut self, lane: Lane, ev: Ev) {
        self.events.after(lane as usize, self.now, ev);
    }

    /// The fault domain machine `m` belongs to (round-robin assignment).
    fn domain_of(&self, m: usize) -> usize {
        m % self.cfg.fault_domains.max(1)
    }

    fn run(&mut self) {
        let first_gap = self.arrivals.next_gap(0);
        self.schedule(first_gap, Ev::Arrival);
        for m in 0..self.cfg.machines {
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_crash_gap(m)) {
                self.schedule(gap, Ev::Crash { machine: m });
            }
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_straggle_gap(m)) {
                self.schedule(gap, Ev::StragglerStart { machine: m });
            }
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_gray_gap(m)) {
                self.schedule(gap, Ev::GrayStart { machine: m });
            }
            self.schedule_after(Lane::Probe, Ev::Probe { machine: m });
        }
        for d in 0..self.cfg.fault_domains {
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_domain_outage_gap(d)) {
                self.schedule(gap, Ev::DomainOutage { domain: d });
            }
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_domain_gray_gap(d)) {
                self.schedule(gap, Ev::DomainGray { domain: d });
            }
        }
        while let Some((at, ev)) = self.events.pop() {
            self.now = at;
            self.handle(ev);
            // Probes, crashes, and stragglers reschedule themselves forever;
            // the run is over once every request has resolved.
            if self.resolved == self.cfg.requests && self.arrivals_generated == self.cfg.requests
            {
                break;
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => self.on_arrival(),
            Ev::ServiceDone { attempt } => self.on_service_done(attempt),
            Ev::Timeout { attempt } => self.on_timeout(attempt),
            Ev::ConnectFail { attempt } => self.on_connect_fail(attempt),
            Ev::HedgeFire { req } => self.on_hedge_fire(req),
            Ev::RetryFire { req } => self.on_retry_fire(req),
            Ev::Crash { machine } => self.on_crash(machine),
            Ev::Recover { machine } => self.on_recover(machine),
            Ev::StragglerStart { machine } => self.on_straggler_start(machine),
            Ev::StragglerEnd { machine } => self.on_straggler_end(machine),
            Ev::GrayStart { machine } => self.on_gray_start(machine),
            Ev::GrayEnd { machine } => self.on_gray_end(machine),
            Ev::DomainOutage { domain } => self.on_domain_outage(domain),
            Ev::DomainGray { domain } => self.on_domain_gray(domain),
            Ev::BreakerHalfOpen { machine } => self.on_breaker_half_open(machine),
            Ev::Probe { machine } => self.on_probe(machine),
        }
    }

    fn on_arrival(&mut self) {
        self.arrivals_generated += 1;
        self.stats.arrived += 1;
        if let Some(b) = self.cfg.retry_budget {
            let credit = b.fill_milli.min(b.burst_milli.saturating_sub(self.budget_milli));
            self.budget_milli += credit;
            self.stats.budget_granted_milli += credit;
        }
        let late = self.cfg.trigger_end_ns.is_some_and(|t| self.now >= t);
        if late {
            self.stats.late_arrived += 1;
        }
        let r = self.reqs.len() as u32;
        self.reqs.push(Req {
            arrived_at: self.now,
            resolved: false,
            retries_used: 0,
            hedges_used: 0,
            late,
            live: Live::EMPTY,
        });
        self.dispatch(r, DispatchKind::Initial);
        if self.arrivals_generated < self.cfg.requests {
            let gap = self.arrivals.next_gap(self.now);
            self.schedule(self.now + gap, Ev::Arrival);
        }
    }

    /// Withdraws the budget token an extra attempt costs. Initial attempts
    /// are free; retries and hedges pay 1000 milli-tokens at *dispatch*
    /// (not scheduling) so the spent book exactly matches the attempt
    /// counters. Returns whether the dispatch may proceed.
    fn pay_for_dispatch(&mut self, r: u32, kind: DispatchKind) -> bool {
        if matches!(kind, DispatchKind::Initial) || self.cfg.retry_budget.is_none() {
            return true;
        }
        if self.budget_milli >= 1000 {
            self.budget_milli -= 1000;
            self.stats.budget_spent_milli += 1000;
            return true;
        }
        self.stats.budget_denied += 1;
        // A denied retry fails the request (no sibling is racing); a
        // denied hedge is simply skipped (the original attempt races on).
        if matches!(kind, DispatchKind::Retry) {
            self.resolve_failed(r);
        }
        false
    }

    /// Routes one attempt of request `r`. Sheds the request on admission
    /// denial (hedges are skipped silently instead — the request still has
    /// a live attempt racing).
    fn dispatch(&mut self, r: u32, kind: DispatchKind) {
        if let Some(l) = &self.aimd {
            if !l.admits(self.outstanding) {
                self.stats.aimd_throttled += 1;
                if !matches!(kind, DispatchKind::Hedge) {
                    self.resolve_shed(r);
                }
                return;
            }
        }
        // Hedges should land away from the machines of live siblings.
        let (atts, live) = (&self.atts, self.reqs[r as usize].live);
        let breaker = self.breaker.as_ref();
        let route = self.balancer.route(
            &self.machines,
            |m| live.iter(atts).any(|a| atts[a as usize].machine == m),
            self.cfg.queue_capacity,
            |m| breaker.is_some_and(|b| !b.allows(m)),
        );
        match route {
            Route::Shed => {
                if !matches!(kind, DispatchKind::Hedge) {
                    self.resolve_shed(r);
                }
            }
            Route::To(m) => {
                if !self.pay_for_dispatch(r, kind) {
                    return;
                }
                let a = self.atts.len() as u32;
                self.stats.attempts += 1;
                match kind {
                    DispatchKind::Initial => self.stats.initial_attempts += 1,
                    DispatchKind::Retry => self.stats.retries += 1,
                    DispatchKind::Hedge => self.stats.hedges += 1,
                }
                if let Some(b) = self.breaker.as_mut() {
                    b.on_dispatch(m);
                }
                let start_now = self.machines[m].up && self.machines[m].has_free_context();
                let state = if !self.machines[m].up {
                    self.schedule_after(Lane::ConnectFail, Ev::ConnectFail { attempt: a });
                    AttState::ConnectPending
                } else if start_now {
                    AttState::InService
                } else {
                    self.machines[m].queue.push_back(a);
                    AttState::Queued
                };
                self.atts.push(Att { req: r, machine: m, state, next_live: NIL });
                self.reqs[r as usize].live.push(&mut self.atts, a);
                self.outstanding += 1;
                self.schedule_after(Lane::Timeout, Ev::Timeout { attempt: a });
                if start_now {
                    self.begin_service(a);
                }
                // Hedging covers the initial attempt's window only.
                if matches!(kind, DispatchKind::Initial) {
                    if let Some(h) = self.cfg.hedge {
                        if h.max_hedges > 0 {
                            self.schedule_after(Lane::Hedge, Ev::HedgeFire { req: r });
                        }
                    }
                }
            }
        }
    }

    /// Puts attempt `a` into service on its machine and schedules its
    /// completion (inflated while the machine is straggling or gray). On a
    /// gray machine a seeded draw may instead *drop* the attempt: the
    /// context stays free and nothing ever completes — the failure mode a
    /// health check cannot see.
    fn begin_service(&mut self, a: u32) {
        let m = self.atts[a as usize].machine;
        if self.machines[m].gray {
            if let Some(f) = self.faults.as_mut() {
                if f.draw_gray_drop(m) {
                    self.atts[a as usize].state = AttState::Dropped;
                    self.stats.gray_dropped += 1;
                    return;
                }
            }
        }
        self.atts[a as usize].state = AttState::InService;
        self.machines[m].in_service.push(a);
        let mut svc = self.sampler.sample(&mut self.service_rng);
        if self.machines[m].slow {
            let factor = self.faults.as_ref().map_or(1.0, |f| f.plan().straggler_factor);
            svc = (svc as f64 * factor) as u64;
        }
        if self.machines[m].gray {
            let factor = self.faults.as_ref().map_or(1.0, |f| f.plan().gray_service_factor());
            svc = (svc as f64 * factor) as u64;
        }
        self.schedule(self.now + svc.max(1), Ev::ServiceDone { attempt: a });
    }

    /// Starts queued attempts while contexts are free.
    fn pull_queue(&mut self, m: usize) {
        while self.machines[m].up
            && self.machines[m].has_free_context()
            && !self.machines[m].queue.is_empty()
        {
            if let Some(a) = self.machines[m].queue.pop_front() {
                self.begin_service(a);
            }
        }
    }

    /// Feeds a client-observed success on machine `m` to the mitigation
    /// stack.
    fn note_attempt_success(&mut self, m: usize) {
        if let Some(b) = self.breaker.as_mut() {
            b.on_success(m);
        }
        if let Some(l) = self.aimd.as_mut() {
            l.on_success();
        }
    }

    /// Feeds a client-observed failure on machine `m` (timeout, connect
    /// failure, crash) to the mitigation stack; a breaker trip schedules
    /// its deterministic half-open probe.
    fn note_attempt_failure(&mut self, m: usize) {
        if self.breaker.as_mut().is_some_and(|b| b.on_failure(m)) {
            self.schedule_after(Lane::HalfOpen, Ev::BreakerHalfOpen { machine: m });
        }
        if let Some(l) = self.aimd.as_mut() {
            l.on_failure();
        }
    }

    fn on_service_done(&mut self, a: u32) {
        let m = self.atts[a as usize].machine;
        match self.atts[a as usize].state {
            AttState::InService => {
                self.machines[m].release(a);
                self.atts[a as usize].state = AttState::Terminal;
                self.stats.won_attempts += 1;
                self.note_attempt_success(m);
                self.resolve_completed(a);
                self.pull_queue(m);
            }
            AttState::Abandoned => {
                self.machines[m].release(a);
                self.atts[a as usize].state = AttState::Terminal;
                self.stats.wasted_completions += 1;
                self.pull_queue(m);
            }
            // A crash already drained it; the stale completion is void.
            _ => {}
        }
    }

    fn on_timeout(&mut self, a: u32) {
        let m = self.atts[a as usize].machine;
        match self.atts[a as usize].state {
            AttState::Queued => {
                self.machines[m].unqueue(a);
                self.atts[a as usize].state = AttState::Terminal;
                self.stats.timeouts += 1;
                self.note_attempt_failure(m);
                self.attempt_failed(a);
            }
            AttState::InService => {
                // The client gives up; the server keeps burning the context.
                self.atts[a as usize].state = AttState::Abandoned;
                self.stats.timeouts += 1;
                self.note_attempt_failure(m);
                self.attempt_failed(a);
            }
            AttState::Dropped => {
                // The gray machine swallowed it; the timeout is the only
                // signal the client ever gets.
                self.atts[a as usize].state = AttState::Terminal;
                self.stats.timeouts += 1;
                self.note_attempt_failure(m);
                self.attempt_failed(a);
            }
            AttState::ConnectPending => {
                // Defensive: unreachable while connect_timeout < timeout.
                self.atts[a as usize].state = AttState::Terminal;
                self.stats.timeouts += 1;
                self.note_attempt_failure(m);
                self.attempt_failed(a);
            }
            AttState::Abandoned | AttState::Terminal => {}
        }
    }

    fn on_connect_fail(&mut self, a: u32) {
        if self.atts[a as usize].state != AttState::ConnectPending {
            return;
        }
        self.atts[a as usize].state = AttState::Terminal;
        self.stats.connect_failures += 1;
        // A failed connect is an observed machine failure.
        let m = self.atts[a as usize].machine;
        self.balancer.eject(m);
        self.note_attempt_failure(m);
        self.attempt_failed(a);
    }

    /// Client-side bookkeeping after attempt `a` failed (timeout, connect
    /// failure, or crash): if no sibling is still racing, schedule a retry
    /// or give up.
    fn attempt_failed(&mut self, a: u32) {
        let r = self.atts[a as usize].req;
        let req = &mut self.reqs[r as usize];
        if req.live.remove(&mut self.atts, a) {
            self.outstanding -= 1;
        }
        if req.resolved || !req.live.is_empty() {
            return;
        }
        if req.retries_used < self.cfg.retry.max_retries {
            let backoff = self.cfg.retry.backoff(req.retries_used);
            req.retries_used += 1;
            self.schedule(self.now + backoff, Ev::RetryFire { req: r });
        } else {
            self.resolve_failed(r);
        }
    }

    fn on_retry_fire(&mut self, r: u32) {
        if self.reqs[r as usize].resolved {
            return;
        }
        self.dispatch(r, DispatchKind::Retry);
    }

    fn on_hedge_fire(&mut self, r: u32) {
        let Some(h) = self.cfg.hedge else { return };
        let req = &mut self.reqs[r as usize];
        if req.resolved || req.live.is_empty() || req.hedges_used >= h.max_hedges {
            return;
        }
        // The hedge consumes its slot even if routing (or the retry
        // budget) then skips it — the fire/skip decision must not depend
        // on transient queue state in a way that could re-arm the timer
        // forever.
        req.hedges_used += 1;
        let rearm = req.hedges_used < h.max_hedges;
        self.dispatch(r, DispatchKind::Hedge);
        if rearm {
            self.schedule_after(Lane::Hedge, Ev::HedgeFire { req: r });
        }
    }

    /// Takes machine `m` down right now: drains its work, fails the
    /// drained attempts, and schedules recovery. Shared by independent
    /// crashes and correlated domain outages; the caller guarantees the
    /// machine is up.
    fn crash_machine(&mut self, m: usize) {
        self.stats.machine_failures += 1;
        self.machines[m].up = false;
        self.machines[m].slow = false;
        // Serving, then queued attempts; only those still owed to a client
        // are kept as failed.
        let mut failed = std::mem::take(&mut self.scratch);
        self.machines[m].drain_into(&mut failed);
        failed.retain(|&a| match self.atts[a as usize].state {
            AttState::InService | AttState::Queued => {
                self.atts[a as usize].state = AttState::Terminal;
                self.stats.crash_failures += 1;
                true
            }
            // Abandoned work dies with the machine; it was already
            // accounted for when the client gave it up.
            AttState::Abandoned => {
                self.atts[a as usize].state = AttState::Terminal;
                false
            }
            _ => false,
        });
        if !failed.is_empty() {
            self.balancer.eject(m);
        }
        for &a in &failed {
            self.note_attempt_failure(m);
            self.attempt_failed(a);
        }
        failed.clear();
        self.scratch = failed;
        self.schedule_after(Lane::Recover, Ev::Recover { machine: m });
    }

    fn on_crash(&mut self, m: usize) {
        // A machine already down (correlated domain outage) cannot crash
        // again; its pending Recover stands.
        if self.machines[m].up {
            self.crash_machine(m);
        }
        let repair = self.faults.as_ref().map_or(1, |f| f.plan().repair_ns.max(1));
        let up_at = self.now + repair;
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_crash_gap(m)) {
            self.schedule(up_at + gap, Ev::Crash { machine: m });
        }
    }

    fn on_recover(&mut self, m: usize) {
        self.machines[m].up = true;
        self.stats.recoveries += 1;
        // Rotation waits for a probe: readmission is a balancer decision,
        // not a machine event.
    }

    fn on_straggler_start(&mut self, m: usize) {
        let plan = self.faults.as_ref().map(|f| *f.plan());
        let Some(p) = plan else { return };
        if self.machines[m].up && !self.machines[m].slow {
            self.machines[m].slow = true;
            self.stats.straggler_episodes += 1;
            let end = self.now + p.straggler_duration_ns.max(1);
            self.schedule_after(Lane::StragglerEnd, Ev::StragglerEnd { machine: m });
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_straggle_gap(m)) {
                self.schedule(end + gap, Ev::StragglerStart { machine: m });
            }
        } else if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_straggle_gap(m)) {
            self.schedule(self.now + gap, Ev::StragglerStart { machine: m });
        }
    }

    fn on_straggler_end(&mut self, m: usize) {
        self.machines[m].slow = false;
    }

    /// Puts machine `m` into a gray episode (if it is up and not already
    /// gray) and schedules its end. Shared by per-machine draws and
    /// domain-wide events.
    fn start_gray(&mut self, m: usize) -> bool {
        if !self.machines[m].up || self.machines[m].gray {
            return false;
        }
        self.machines[m].gray = true;
        self.stats.gray_episodes += 1;
        self.schedule_after(Lane::GrayEnd, Ev::GrayEnd { machine: m });
        true
    }

    fn on_gray_start(&mut self, m: usize) {
        let plan = self.faults.as_ref().map(|f| *f.plan());
        let Some(p) = plan else { return };
        if self.start_gray(m) {
            let end = self.now + p.gray_duration_ns.max(1);
            if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_gray_gap(m)) {
                self.schedule(end + gap, Ev::GrayStart { machine: m });
            }
        } else if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_gray_gap(m)) {
            self.schedule(self.now + gap, Ev::GrayStart { machine: m });
        }
    }

    fn on_gray_end(&mut self, m: usize) {
        self.machines[m].gray = false;
    }

    /// A correlated outage takes every up machine in domain `d` down at
    /// the same instant — the failure shape i.i.d. crash draws can never
    /// produce.
    fn on_domain_outage(&mut self, d: usize) {
        self.stats.domain_outages += 1;
        for m in 0..self.cfg.machines {
            if self.domain_of(m) == d && self.machines[m].up {
                self.crash_machine(m);
            }
        }
        let repair = self.faults.as_ref().map_or(1, |f| f.plan().repair_ns.max(1));
        let up_at = self.now + repair;
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_domain_outage_gap(d)) {
            self.schedule(up_at + gap, Ev::DomainOutage { domain: d });
        }
    }

    /// A domain-wide gray episode: every up machine in `d` degrades
    /// together (shared ToR switch, shared power feed, noisy neighbor on
    /// shared storage).
    fn on_domain_gray(&mut self, d: usize) {
        let plan = self.faults.as_ref().map(|f| *f.plan());
        let Some(p) = plan else { return };
        self.stats.domain_gray_episodes += 1;
        for m in 0..self.cfg.machines {
            if self.domain_of(m) == d {
                self.start_gray(m);
            }
        }
        let end = self.now + p.gray_duration_ns.max(1);
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.next_domain_gray_gap(d)) {
            self.schedule(end + gap, Ev::DomainGray { domain: d });
        }
    }

    fn on_breaker_half_open(&mut self, m: usize) {
        if let Some(b) = self.breaker.as_mut() {
            b.on_half_open_timer(m);
        }
    }

    fn on_probe(&mut self, m: usize) {
        self.stats.probes += 1;
        // Gray machines are `up`: the probe passes and the ejector stays
        // blind — only the breaker's failure counting can catch them.
        if self.machines[m].up {
            self.balancer.readmit(m);
        } else {
            self.balancer.eject(m);
        }
        self.schedule_after(Lane::Probe, Ev::Probe { machine: m });
    }

    /// The winning attempt `a` completes its request: record the latency
    /// and cancel every sibling still racing.
    fn resolve_completed(&mut self, a: u32) {
        let r = self.atts[a as usize].req;
        let req = &mut self.reqs[r as usize];
        req.resolved = true;
        let late = req.late;
        let latency = self.now - req.arrived_at;
        let live = std::mem::replace(&mut req.live, Live::EMPTY);
        self.outstanding -= live.iter(&self.atts).count() as u64;
        self.stats.completed += 1;
        self.stats.latencies_ns.push(latency);
        if late {
            self.stats.late_completed += 1;
            self.stats.late_latencies_ns.push(latency);
        }
        // Cancelling changes states only, never the links being walked.
        let mut s = live.head;
        while s != NIL {
            let next = self.atts[s as usize].next_live;
            if s != a {
                self.cancel_sibling(s);
            }
            s = next;
        }
        self.note_resolution();
    }

    /// Cancels attempt `s`, racing a sibling that just won.
    fn cancel_sibling(&mut self, s: u32) {
        let sm = self.atts[s as usize].machine;
        match self.atts[s as usize].state {
            AttState::Queued => {
                self.machines[sm].unqueue(s);
                self.atts[s as usize].state = AttState::Terminal;
            }
            // Too late to pull it off the context; the server will finish
            // and the completion is wasted.
            AttState::InService => self.atts[s as usize].state = AttState::Abandoned,
            AttState::ConnectPending | AttState::Dropped => {
                self.atts[s as usize].state = AttState::Terminal;
            }
            AttState::Abandoned | AttState::Terminal => return,
        }
        self.stats.cancelled += 1;
        // A cancelled half-open trial yields its slot; cancellation is not
        // a health signal.
        if let Some(b) = self.breaker.as_mut() {
            b.on_cancel(sm);
        }
    }

    fn resolve_shed(&mut self, r: u32) {
        self.reqs[r as usize].resolved = true;
        self.stats.shed += 1;
        self.note_resolution();
    }

    fn resolve_failed(&mut self, r: u32) {
        self.reqs[r as usize].resolved = true;
        self.stats.failed += 1;
        self.note_resolution();
    }

    fn note_resolution(&mut self) {
        self.resolved += 1;
        self.last_resolution = self.now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ServiceProfile {
        ServiceProfile {
            workload: "Test".into(),
            mean_service_ns: 10_000,
            smt_inflation: 1.3,
            colocation_inflation: 1.2,
        }
    }

    fn base_cfg() -> FleetConfig {
        FleetConfig {
            machines: 4,
            contexts_per_machine: 4,
            queue_capacity: 16,
            requests: 5_000,
            mean_interarrival_ns: 1_000,
            burst: None,
            service_inflation: 1.0,
            timeout_ns: 100_000,
            connect_timeout_ns: 10_000,
            probe_interval_ns: 200_000,
            retry: RetryPolicy { max_retries: 3, base: 20_000, factor: 2, cap: 160_000 },
            hedge: Some(HedgePolicy { delay_ns: 60_000, max_hedges: 1 }),
            faults: None,
            fault_domains: 0,
            trigger_end_ns: None,
            retry_budget: None,
            breaker: None,
            aimd: None,
            seed: 42,
        }
    }

    fn gray_plan() -> FleetFaultPlan {
        FleetFaultPlan::gray(600_000, 400_000, 4.0, 0.3, 7).with_gray_memory_inflation(1.2)
    }

    #[test]
    fn healthy_fleet_completes_everything() {
        let stats = simulate(&base_cfg(), &profile()).expect("simulate");
        assert_eq!(stats.arrived, 5_000);
        assert_eq!(stats.completed + stats.shed + stats.failed, 5_000);
        assert_eq!(stats.machine_failures, 0);
        assert!(stats.completed > 4_900, "healthy fleet lost {} requests", stats.failed);
        assert!(stats.p50_ns() <= stats.p99_ns() && stats.p99_ns() <= stats.p999_ns());
        stats.audit(&base_cfg().audit_policies()).expect("audit");
    }

    #[test]
    fn identical_configs_replay_identically() {
        let a = simulate(&base_cfg(), &profile()).expect("simulate");
        let b = simulate(&base_cfg(), &profile()).expect("simulate");
        assert_eq!(a, b);
        let different = FleetConfig { seed: 43, ..base_cfg() };
        let c = simulate(&different, &profile()).expect("simulate");
        assert_ne!(a, c);
    }

    #[test]
    fn overload_sheds_and_books_stay_balanced() {
        let cfg = FleetConfig {
            machines: 1,
            contexts_per_machine: 1,
            queue_capacity: 2,
            requests: 2_000,
            mean_interarrival_ns: 2_000, // 5x oversubscribed vs 10us service
            hedge: None,
            ..base_cfg()
        };
        let stats = simulate(&cfg, &profile()).expect("simulate");
        assert!(stats.shed > 0, "5x overload with a 2-deep queue must shed");
        assert_eq!(stats.arrived, stats.completed + stats.shed + stats.failed);
        stats.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn crashes_provoke_retries_and_recoveries() {
        let cfg = FleetConfig {
            faults: Some(FleetFaultPlan::crashes(2_000_000, 300_000, 7)),
            ..base_cfg()
        };
        let stats = simulate(&cfg, &profile()).expect("simulate");
        assert!(stats.machine_failures > 0, "crash plan must crash machines");
        assert!(stats.crash_failures + stats.connect_failures > 0);
        assert!(stats.retries > 0, "failures must provoke retries");
        assert!(stats.ejections > 0 && stats.readmissions > 0);
        assert!(stats.recoveries > 0);
        stats.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn stragglers_stretch_the_tail() {
        let quiet = simulate(&base_cfg(), &profile()).expect("simulate");
        let cfg = FleetConfig {
            faults: Some(FleetFaultPlan::stragglers(1_000_000, 400_000, 16.0, 7)),
            ..base_cfg()
        };
        let slow = simulate(&cfg, &profile()).expect("simulate");
        assert!(slow.straggler_episodes > 0);
        assert!(
            slow.p999_ns() > quiet.p999_ns(),
            "16x stragglers must stretch p999: {} vs {}",
            slow.p999_ns(),
            quiet.p999_ns()
        );
        stats_audit_both(&quiet, &slow, &cfg.audit_policies());
    }

    fn stats_audit_both(a: &FleetStats, b: &FleetStats, policies: &AuditPolicies) {
        a.audit(policies).expect("audit quiet");
        b.audit(policies).expect("audit slow");
    }

    #[test]
    fn tiny_timeouts_exhaust_the_retry_budget() {
        let cfg = FleetConfig {
            timeout_ns: 3_000, // below most service times
            connect_timeout_ns: 1_000,
            retry: RetryPolicy { max_retries: 2, base: 1_000, factor: 2, cap: 4_000 },
            hedge: None,
            requests: 500,
            ..base_cfg()
        };
        let stats = simulate(&cfg, &profile()).expect("simulate");
        assert!(stats.timeouts > 0);
        assert!(stats.failed > 0, "2 retries under a 3us timeout must fail some requests");
        assert!(stats.wasted_completions > 0, "abandoned work must show up as waste");
        stats.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn gray_episodes_degrade_without_tripping_the_ejector() {
        let quiet = simulate(&base_cfg(), &profile()).expect("simulate");
        let cfg = FleetConfig { faults: Some(gray_plan()), ..base_cfg() };
        let gray = simulate(&cfg, &profile()).expect("simulate");
        assert!(gray.gray_episodes > 0, "gray plan must start episodes");
        assert!(gray.gray_dropped > 0, "a 30% drop rate must swallow attempts");
        assert!(gray.timeouts > quiet.timeouts, "drops surface as client timeouts");
        assert!(
            gray.p999_ns() > quiet.p999_ns(),
            "gray latency inflation must stretch the tail: {} vs {}",
            gray.p999_ns(),
            quiet.p999_ns()
        );
        // The defining property: the health ejector never fires, because
        // gray machines stay up (no connect failures, no crash kills).
        assert_eq!(gray.ejections, 0, "gray failures must evade the health ejector");
        assert_eq!(gray.machine_failures, 0);
        stats_audit_both(&quiet, &gray, &cfg.audit_policies());
    }

    #[test]
    fn breaker_catches_gray_machines_the_ejector_cannot() {
        let cfg = FleetConfig {
            faults: Some(gray_plan()),
            breaker: Some(BreakerPolicy { failure_threshold: 4, open_ns: 200_000 }),
            ..base_cfg()
        };
        let stats = simulate(&cfg, &profile()).expect("simulate");
        assert_eq!(stats.ejections, 0, "the ejector stays blind");
        assert!(stats.breaker_opens > 0, "the breaker must trip on timeout streaks");
        assert!(stats.breaker_half_opens > 0, "open breakers must probe again");
        assert!(stats.breaker_half_opens <= stats.breaker_opens);
        assert!(stats.breaker_closes <= stats.breaker_half_opens);
        stats.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn domain_outages_correlate_failures() {
        let cfg = FleetConfig {
            faults: Some(FleetFaultPlan::domain_outages(2_000_000, 300_000, 11)),
            fault_domains: 2,
            ..base_cfg()
        };
        let stats = simulate(&cfg, &profile()).expect("simulate");
        assert!(stats.domain_outages > 0, "domain plan must draw outages");
        // Every outage of a 4-machine / 2-domain fleet kills 2 machines at
        // the same instant: machine failures come in correlated pairs.
        assert_eq!(stats.machine_failures, 2 * stats.domain_outages);
        assert!(stats.recoveries > 0);
        stats.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn retry_budget_bounds_extra_attempts_and_denies_over_budget_retries() {
        let storm = FleetConfig {
            timeout_ns: 3_000,
            connect_timeout_ns: 1_000,
            retry: RetryPolicy { max_retries: 8, base: 1_000, factor: 2, cap: 4_000 },
            hedge: None,
            requests: 800,
            ..base_cfg()
        };
        let unbounded = simulate(&storm, &profile()).expect("simulate");
        let budget = RetryBudget { fill_milli: 200, burst_milli: 2_000 };
        let bounded_cfg = FleetConfig { retry_budget: Some(budget), ..storm.clone() };
        let bounded = simulate(&bounded_cfg, &profile()).expect("simulate");
        assert!(
            bounded.retries < unbounded.retries,
            "a 20% budget must cut the retry storm: {} vs {}",
            bounded.retries,
            unbounded.retries
        );
        assert!(bounded.budget_denied > 0, "the storm must hit the budget ceiling");
        let extra_milli = (bounded.retries + bounded.hedges) * 1000;
        assert_eq!(bounded.budget_spent_milli, extra_milli);
        assert!(
            extra_milli <= budget.burst_milli + bounded.arrived * budget.fill_milli,
            "spent {extra_milli} over grant cap"
        );
        unbounded.audit(&storm.audit_policies()).expect("audit unbounded");
        bounded.audit(&bounded_cfg.audit_policies()).expect("audit bounded");
    }

    #[test]
    fn aimd_limit_sheds_before_the_queues_do() {
        let overload = FleetConfig {
            machines: 2,
            contexts_per_machine: 2,
            queue_capacity: 8,
            requests: 2_000,
            mean_interarrival_ns: 1_500,
            hedge: None,
            ..base_cfg()
        };
        let cfg = FleetConfig {
            aimd: Some(AimdPolicy {
                min_inflight: 2,
                max_inflight: 8,
                increase_milli: 100,
                decrease_pct: 30,
            }),
            ..overload.clone()
        };
        let with = simulate(&cfg, &profile()).expect("simulate");
        assert!(with.aimd_throttled > 0, "overload must hit the concurrency limit");
        stats_audit_both(
            &simulate(&overload, &profile()).expect("simulate"),
            &with,
            &cfg.audit_policies(),
        );
    }

    #[test]
    fn trigger_era_books_split_arrivals() {
        let cfg = FleetConfig { trigger_end_ns: Some(2_000_000), ..base_cfg() };
        let stats = simulate(&cfg, &profile()).expect("simulate");
        assert!(stats.late_arrived > 0, "a 5ms run must have post-trigger arrivals");
        assert!(stats.late_arrived < stats.arrived);
        assert_eq!(stats.late_latencies_ns.len() as u64, stats.late_completed);
        assert!(stats.late_slo_attainment(u64::MAX) > 0.99);
        stats.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn mitigated_runs_replay_identically_too() {
        let cfg = FleetConfig {
            faults: Some(gray_plan()),
            fault_domains: 2,
            retry_budget: Some(RetryBudget { fill_milli: 500, burst_milli: 4_000 }),
            breaker: Some(BreakerPolicy { failure_threshold: 4, open_ns: 150_000 }),
            aimd: Some(AimdPolicy {
                min_inflight: 4,
                max_inflight: 64,
                increase_milli: 250,
                decrease_pct: 25,
            }),
            trigger_end_ns: Some(1_000_000),
            ..base_cfg()
        };
        let a = simulate(&cfg, &profile()).expect("simulate");
        let b = simulate(&cfg, &profile()).expect("simulate");
        assert_eq!(a, b, "the full mitigation stack must stay byte-deterministic");
        a.audit(&cfg.audit_policies()).expect("audit");
    }

    #[test]
    fn live_lists_keep_dispatch_order_through_removals() {
        let mut atts: Vec<Att> = (0..5)
            .map(|_| Att { req: 0, machine: 0, state: AttState::Queued, next_live: NIL })
            .collect();
        let mut live = Live::EMPTY;
        for a in 0..4 {
            live.push(&mut atts, a);
        }
        let order = |live: Live, atts: &[Att]| live.iter(atts).collect::<Vec<_>>();
        assert!(live.remove(&mut atts, 2), "middle");
        assert!(!live.remove(&mut atts, 2), "already gone");
        assert!(live.remove(&mut atts, 0), "head");
        assert!(live.remove(&mut atts, 3), "tail");
        assert_eq!(order(live, &atts), [1]);
        live.push(&mut atts, 4);
        assert_eq!(order(live, &atts), [1, 4], "a push after a tail removal links behind 1");
        assert!(live.remove(&mut atts, 1) && live.remove(&mut atts, 4));
        assert!(live.is_empty());
        live.push(&mut atts, 2);
        assert_eq!(order(live, &atts), [2]);
    }

    #[test]
    fn hedged_retry_resolves_its_live_attempts_in_dispatch_order() {
        // One request on four one-context machines. Its initial attempt
        // lands on a down machine, so a retry follows; two hedges then
        // join the retry while it is still outstanding.
        let cfg = FleetConfig {
            contexts_per_machine: 1,
            requests: 1,
            timeout_ns: 40_000,
            connect_timeout_ns: 1_000,
            retry: RetryPolicy { max_retries: 2, base: 1_000, factor: 2, cap: 4_000 },
            hedge: Some(HedgePolicy { delay_ns: 5_000, max_hedges: 2 }),
            ..base_cfg()
        };
        let slow = ServiceProfile { mean_service_ns: 1_000_000, ..profile() };
        cfg.validate(&slow).expect("valid");
        let mut sim = Sim::new(&cfg, &slow);
        let live = |sim: &Sim<'_>| sim.reqs[0].live.iter(&sim.atts).collect::<Vec<_>>();
        sim.machines[0].up = false;
        sim.on_arrival();
        assert_eq!(live(&sim), [0]);
        // Each handler runs at the instant its event would pop.
        sim.now = 1_000;
        sim.on_connect_fail(0);
        assert!(live(&sim).is_empty(), "the failed connect leaves nothing live");
        sim.now = 2_000;
        sim.on_retry_fire(0);
        sim.now = 7_000;
        sim.on_hedge_fire(0);
        sim.now = 12_000;
        sim.on_hedge_fire(0);
        assert_eq!(live(&sim), [1, 2, 3], "retry, then both hedges");
        let machines: Vec<usize> = (1..4).map(|a| sim.atts[a].machine).collect();
        assert_eq!(machines, [1, 2, 3], "each hedge avoids its live siblings' machines");
        assert_eq!((sim.stats.retries, sim.stats.hedges, sim.outstanding), (1, 2, 3));
        // The second hedge wins: both siblings are cancelled, each once.
        sim.now = 13_000;
        sim.on_service_done(3);
        assert!(live(&sim).is_empty());
        assert_eq!(sim.outstanding, 0);
        assert_eq!((sim.stats.completed, sim.stats.cancelled), (1, 2));
        assert_eq!(sim.atts[1].state, AttState::Abandoned);
        assert_eq!(sim.atts[2].state, AttState::Abandoned);
        assert_eq!(sim.atts[3].state, AttState::Terminal);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let p = profile();
        let ok = base_cfg();
        assert!(ok.validate(&p).is_ok());
        let bad_gray = FleetFaultPlan { gray_drop_rate: 1.5, ..gray_plan() };
        let domain_plan = FleetFaultPlan::domain_outages(1_000, 100, 1);
        let cases = [
            (FleetConfig { machines: 0, ..ok.clone() }, FleetConfigError::NoMachines),
            (FleetConfig { contexts_per_machine: 0, ..ok.clone() }, FleetConfigError::NoContexts),
            (FleetConfig { requests: 0, ..ok.clone() }, FleetConfigError::NoRequests),
            (
                FleetConfig { mean_interarrival_ns: 0, ..ok.clone() },
                FleetConfigError::ZeroInterarrival,
            ),
            (FleetConfig { timeout_ns: 0, ..ok.clone() }, FleetConfigError::ZeroTimeout),
            (
                FleetConfig { connect_timeout_ns: 200_000, ..ok.clone() },
                FleetConfigError::BadConnectTimeout,
            ),
            (
                FleetConfig { probe_interval_ns: 0, ..ok.clone() },
                FleetConfigError::ZeroProbeInterval,
            ),
            (FleetConfig { service_inflation: 0.0, ..ok.clone() }, FleetConfigError::BadInflation),
            (
                FleetConfig {
                    burst: Some(Burst { period_ns: 0, on_fraction: 0.5, amplitude: 2.0 }),
                    ..ok.clone()
                },
                FleetConfigError::BadBurst,
            ),
            (FleetConfig { faults: Some(bad_gray), ..ok.clone() }, FleetConfigError::BadGray),
            (
                FleetConfig { faults: Some(domain_plan), fault_domains: 0, ..ok.clone() },
                FleetConfigError::NoFaultDomains,
            ),
            (
                FleetConfig {
                    breaker: Some(BreakerPolicy { failure_threshold: 0, open_ns: 10 }),
                    ..ok.clone()
                },
                FleetConfigError::BadBreaker,
            ),
            (
                FleetConfig {
                    aimd: Some(AimdPolicy {
                        min_inflight: 4,
                        max_inflight: 2,
                        increase_milli: 100,
                        decrease_pct: 30,
                    }),
                    ..ok.clone()
                },
                FleetConfigError::BadAimd,
            ),
            (
                FleetConfig {
                    aimd: Some(AimdPolicy {
                        min_inflight: 1,
                        max_inflight: 2,
                        increase_milli: 100,
                        decrease_pct: 100,
                    }),
                    ..ok.clone()
                },
                FleetConfigError::BadAimd,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(&p).expect_err("must reject"), want);
        }
        let dead = ServiceProfile { mean_service_ns: 0, ..p };
        assert_eq!(ok.validate(&dead).expect_err("must reject"), FleetConfigError::ZeroServiceTime);
    }
}
