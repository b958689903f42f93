//! # cs-fleet — fault-tolerant cluster serving layer
//!
//! The paper measures one machine; real deployments run thousands, and
//! the numbers operators actually provision against are cluster-level:
//! p99/p999 latency under an SLO, goodput under faults, how much capacity
//! headroom a workload needs before its tail collapses. `cs-fleet` turns
//! the per-workload service times measured by the CloudSuite-RS harness
//! into those numbers with a deterministic, seeded discrete-event
//! queueing simulator of a serving fleet.
//!
//! The crate is deliberately independent of the harness: it depends only
//! on `cs-trace` (for the seeded RNG discipline) and consumes a plain
//! [`ServiceProfile`] — mean service time plus SMT/co-location inflation
//! factors — that `cs-core` extracts from simulation results. Everything
//! here is a pure function of configuration and seed:
//!
//! - **Arrivals** ([`arrivals`]): open-loop Poisson, optionally modulated
//!   by a square-wave burst pattern.
//! - **Machines and routing** ([`machine`], [`balancer`]):
//!   least-outstanding routing over bounded queues, health ejection and
//!   probe-driven readmission, overload shedding at admission.
//! - **Faults** ([`faults`]): seeded machine crash/recovery, straggler
//!   episodes, *gray* degradation episodes (up and probe-passing but slow
//!   and lossy), and correlated fault-domain events (rack/power-feed
//!   outages and domain-wide gray), per-machine and per-domain streams in
//!   the `cs-memsys` `FaultPlan` discipline.
//! - **Client policies** ([`policy`]): per-request timeouts, capped
//!   exponential-backoff retries (the same [`RetryPolicy`] the campaign
//!   runner uses for transient experiment failures), hedged requests, a
//!   token-bucket [`RetryBudget`] that bounds retry-storm amplification,
//!   and an [`AimdPolicy`] adaptive concurrency limit.
//! - **Circuit breakers** ([`breaker`]): per-machine closed/open/half-open
//!   breakers on client-observed failures — the mitigation that catches
//!   gray machines the health ejector cannot see.
//! - **The event loop** ([`sim`]): one `(time, sequence)` total order,
//!   kept by a heap for random delays plus a FIFO lane per fixed delay,
//!   which is the whole determinism argument — see the module docs.
//! - **SLO accounting** ([`report`]): percentiles, goodput, recovery-era
//!   (post-trigger) attainment, and a conservation auditor (`arrived =
//!   completed + shed + failed`, attempt-level books, retry-budget token
//!   conservation, the breaker transition ledger) that `CS_PARANOID` runs
//!   after every simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::unwrap_used, clippy::perf)]

pub mod arrivals;
pub mod balancer;
pub mod breaker;
pub mod faults;
pub mod machine;
pub mod policy;
mod queue;
pub mod report;
pub mod service;
pub mod sim;

pub use arrivals::Burst;
pub use breaker::BreakerPolicy;
pub use faults::FleetFaultPlan;
pub use policy::{AimdPolicy, HedgePolicy, RetryBudget, RetryPolicy};
pub use report::{AuditPolicies, FleetAuditError, FleetStats};
pub use service::ServiceProfile;
pub use sim::{simulate, FleetConfig, FleetConfigError};
