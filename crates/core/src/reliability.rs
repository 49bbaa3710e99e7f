//! The reliability tier: fleet runs under failure injection.
//!
//! [`FleetEngine::run_reliable`] runs a trace against a seeded
//! [`FailureSchedule`]: replicas crash and recover on the sim clock, a
//! crashed replica loses everything volatile (device KV, host-swap tier,
//! prefix cache — it restarts as a fresh engine), and the requests that
//! were in flight or queued on it surface back to the fleet frontend as
//! *casualties*, where the [`RetryPolicy`] decides whether they get
//! another attempt and the
//! [`CircuitBreaker`](loong_sched::reliability::CircuitBreaker) decides
//! whether the replica does.
//!
//! # Execution model: crashes interrupt live replicas
//!
//! The run is the fleet's one loop over live replicas (see
//! [`crate::fleet`]). Each arrival (original or retried) is routed at its
//! arrival instant over the replicas routable then — replicas down per the
//! schedule, or held open by the breaker, are excluded; if none is
//! routable the request waits for the one that becomes routable earliest
//! (ties to the lowest id) and arrives there at that instant.
//!
//! At a crash instant `b` the crashing replica advances through `b` (work
//! completing by `b` counts — the crash interrupts the machine, not the
//! ledger) and restarts empty. Whatever it had neither completed nor
//! rejected is a casualty: the breaker is fed one failure per casualty,
//! and each casualty is either re-submitted (arrival `b + backoff`, same
//! request id, full re-prefill on whatever replica routing picks next) or
//! terminally failed once its budget is spent.
//!
//! With an empty schedule there are no crashes and candidates are always
//! the full fleet — the run is [`FleetEngine::run`] decision for
//! decision, which is why an armed but idle reliability tier stays
//! bit-for-bit on the pinned golden digests
//! (`tests/reliability_properties.rs` pins this against
//! `tests/fleet_equivalence.rs`).
//!
//! # Exactly-once accounting
//!
//! Every trace request ends in exactly one of four ledgers: fleet
//! `records` (completed), fleet `rejected` (admission rejection),
//! `failed` (crash casualties whose retry budget ran out), or the fleet's
//! `unfinished` count (stranded in a replica whose run ended with them
//! unserved). A casualty is not an outcome, it is a transition: the
//! request either reappears later (retry) or moves to `failed` at the
//! crash instant. The proptests sweep random schedules against every
//! router policy to pin this.

use crate::fleet::{FleetEngine, FleetFootprint, FleetOutcome, FleetPolicies, FleetRun};
use loong_metrics::fleet::FleetSummary;
use loong_metrics::reliability::{availability_windows, ReliabilityStats, SlaWindow};
use loong_metrics::slo::SloSpec;
use loong_sched::reliability::{CircuitBreakerConfig, RetryPolicy};
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::time::SimTime;
use loong_trace::TraceRecorder;
use loong_workload::failure::FailureSchedule;
use loong_workload::request::Request;
use loong_workload::stream::TraceStream;
use loong_workload::trace::Trace;

/// Configuration of a fleet run under failure injection.
#[derive(Debug, Clone)]
pub struct ReliabilityConfig {
    /// When replicas crash and recover. [`FailureSchedule::none`] arms the
    /// tier without firing it.
    pub schedule: FailureSchedule,
    /// What a casualty gets: [`RetryPolicy::none`] fails every casualty
    /// terminally at the crash instant.
    pub retry: RetryPolicy,
    /// The per-replica circuit breaker; `None` routes purely on the
    /// schedule's up/down state.
    pub breaker: Option<CircuitBreakerConfig>,
    /// Width of the availability windows in the outcome's SLA series, in
    /// sim-seconds.
    pub sla_window_s: f64,
}

impl ReliabilityConfig {
    /// Fail-fast handling of `schedule`: no retries, no breaker, 60 s
    /// availability windows.
    pub fn new(schedule: FailureSchedule) -> Self {
        ReliabilityConfig {
            schedule,
            retry: RetryPolicy::none(),
            breaker: None,
            sla_window_s: 60.0,
        }
    }

    /// The armed-but-idle configuration: an empty schedule, under which
    /// `run_reliable` must reproduce `run` bit for bit.
    pub fn disarmed() -> Self {
        Self::new(FailureSchedule::none())
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the per-replica circuit breaker.
    pub fn with_breaker(mut self, breaker: CircuitBreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Sets the availability-window width.
    pub fn with_sla_window(mut self, window_s: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        self.sla_window_s = window_s;
        self
    }
}

/// A request that terminally failed: it lost an attempt to a crash and had
/// no retry budget left.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRequest {
    /// The request.
    pub id: RequestId,
    /// The crash instant at which its budget ran out.
    pub at: SimTime,
    /// The replica whose crash consumed the last attempt.
    pub replica: ReplicaId,
    /// Human-readable reason.
    pub reason: String,
}

/// The merged result of one fleet run under failure injection.
#[derive(Debug, Clone)]
pub struct ReliableFleetOutcome {
    /// The fleet outcome over the attempts that resolved inside a replica:
    /// completed records, admission rejections, per-replica breakdowns.
    /// Per-replica `unfinished` counts cover each replica's final run
    /// only — casualties live in the reliability ledger, not here.
    pub fleet: FleetOutcome,
    /// Requests that terminally failed, sorted by request id.
    pub failed: Vec<FailedRequest>,
    /// The whole-run reliability ledger.
    pub reliability: ReliabilityStats,
    /// Time-resolved availability series over `sla_window_s` windows.
    pub sla_windows: Vec<SlaWindow>,
}

impl ReliableFleetOutcome {
    /// Total requests accounted for: completed + rejected + unfinished +
    /// terminally failed. Equals the trace length for every schedule (the
    /// exactly-once property).
    pub fn total_requests(&self) -> usize {
        self.fleet.total_requests() + self.failed.len()
    }

    /// Fleet-level metric summary with the reliability ledger and the
    /// availability series attached.
    pub fn summary(
        &self,
        system: &str,
        workload: &str,
        request_rate: f64,
        slo: &SloSpec,
    ) -> FleetSummary {
        let mut summary = self.fleet.summary(system, workload, request_rate, slo);
        summary.attach_reliability(self.reliability, self.sla_windows.clone());
        summary
    }
}

impl FleetEngine {
    /// Runs the fleet over a trace under failure injection: routing into
    /// live replicas, each crash interrupting its replica, casualty
    /// retry/terminal-failure resolution, and a final run of every replica
    /// to completion. See the module docs for the execution model.
    ///
    /// # Panics
    ///
    /// Panics if the schedule strikes a replica outside the fleet.
    pub fn run_reliable(&mut self, trace: &Trace, rel: &ReliabilityConfig) -> ReliableFleetOutcome {
        self.run_reliable_source(trace.requests.iter().cloned(), rel, None)
            .0
    }

    /// Runs the fleet under failure injection with the whole run observed
    /// by `recorder`: per-request lifecycle spans (casualties, retries and
    /// downtime included), per-replica timeseries, and crash/recover/
    /// breaker instants. Identical decision-for-decision to
    /// [`FleetEngine::run_reliable`].
    pub fn run_reliable_traced(
        &mut self,
        trace: &Trace,
        rel: &ReliabilityConfig,
        recorder: &mut TraceRecorder,
    ) -> ReliableFleetOutcome {
        self.run_reliable_source(trace.requests.iter().cloned(), rel, Some(recorder))
            .0
    }

    /// Runs the fleet under failure injection over a lazy request stream.
    /// Identical decision-for-decision to [`FleetEngine::run_reliable`] on
    /// the collected stream — arrivals and retries interleave by
    /// `(arrival, id)` either way — but the frontend holds only pending
    /// retries plus what live replicas hold, which the returned
    /// [`FleetFootprint`] measures. A crash restarts its replica empty, so
    /// under a crash-rich schedule peak residency tracks the *active*
    /// window, not the stream length.
    pub fn run_reliable_stream(
        &mut self,
        stream: TraceStream,
        rel: &ReliabilityConfig,
    ) -> (ReliableFleetOutcome, FleetFootprint) {
        self.run_reliable_source(stream, rel, None)
    }

    /// Streamed reliability run observed by `recorder` — the streamed
    /// counterpart of [`FleetEngine::run_reliable_traced`]. The recorder's
    /// own residency stays `O(sampled + bins + peak-open)` (its
    /// [`loong_trace::TraceLedger`] proves it), so tracing preserves the
    /// streamed path's memory claim.
    pub fn run_reliable_stream_traced(
        &mut self,
        stream: TraceStream,
        rel: &ReliabilityConfig,
        recorder: &mut TraceRecorder,
    ) -> (ReliableFleetOutcome, FleetFootprint) {
        self.run_reliable_source(stream, rel, Some(recorder))
    }

    fn run_reliable_source(
        &mut self,
        source: impl Iterator<Item = Request>,
        rel: &ReliabilityConfig,
        recorder: Option<&mut TraceRecorder>,
    ) -> (ReliableFleetOutcome, FleetFootprint) {
        let policies = FleetPolicies {
            schedule: &rel.schedule,
            retry: rel.retry,
            breaker: rel.breaker,
            elastic: None,
        };
        let (fleet, run) = self.run_fleet(source, &policies, recorder);
        let FleetRun {
            failed,
            reliability,
            footprint,
            ..
        } = run;
        let failure_instants: Vec<SimTime> = failed.iter().map(|f| f.at).collect();
        let sla_windows = availability_windows(rel.sla_window_s, &fleet.records, &failure_instants);
        (
            ReliableFleetOutcome {
                fleet,
                failed,
                reliability,
                sla_windows,
            },
            footprint,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::systems::SystemKind;
    use loong_sched::router::RouterPolicy;
    use loong_workload::datasets::DatasetKind;
    use loong_workload::failure::FailureEvent;

    fn small_trace(count: usize, seed: u64) -> Trace {
        crate::experiment::WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(8.0, count, seed)
    }

    fn fleet(replicas: usize, policy: RouterPolicy) -> FleetEngine {
        FleetEngine::new(FleetConfig::paper_fleet(
            SystemKind::LoongServe,
            replicas,
            policy,
        ))
    }

    #[test]
    fn disarmed_run_matches_plain_run() {
        let trace = small_trace(24, 3);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let plain = engine.run(&trace);
        let reliable = engine.run_reliable(&trace, &ReliabilityConfig::disarmed());
        assert_eq!(plain.records, reliable.fleet.records);
        assert_eq!(plain.rejected, reliable.fleet.rejected);
        assert_eq!(plain.assignments, reliable.fleet.assignments);
        assert_eq!(plain.unfinished, reliable.fleet.unfinished);
        assert_eq!(plain.sim_time, reliable.fleet.sim_time);
        assert_eq!(plain.iterations, reliable.fleet.iterations);
        assert!(reliable.failed.is_empty());
        assert!(reliable.reliability.is_zero());
    }

    #[test]
    fn fail_fast_crash_fails_unresolved_requests_terminally() {
        let trace = small_trace(24, 3);
        // Crash replica 0 early enough that some of its requests are still
        // in flight, with no retry budget.
        let schedule = FailureSchedule::from_events(vec![FailureEvent::new(
            ReplicaId(0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(1_000.0),
        )]);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = engine.run_reliable(&trace, &ReliabilityConfig::new(schedule));
        assert_eq!(outcome.total_requests(), trace.len());
        assert!(
            !outcome.failed.is_empty(),
            "an early crash with no retries must fail something"
        );
        assert_eq!(
            outcome.reliability.retries_exhausted,
            outcome.failed.len() as u64
        );
        assert_eq!(outcome.reliability.retries_scheduled, 0);
        assert_eq!(outcome.reliability.crashes, 1);
        // Terminal failures and completions are disjoint.
        for f in &outcome.failed {
            assert!(outcome
                .fleet
                .records
                .binary_search_by_key(&f.id, |r| r.id)
                .is_err());
        }
    }

    #[test]
    fn retries_recover_what_fail_fast_loses() {
        let trace = small_trace(24, 3);
        let schedule = || {
            FailureSchedule::from_events(vec![FailureEvent::new(
                ReplicaId(0),
                SimTime::from_secs(1.0),
                SimTime::from_secs(2.0),
            )])
        };
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let fail_fast = engine.run_reliable(&trace, &ReliabilityConfig::new(schedule()));
        let retried = engine.run_reliable(
            &trace,
            &ReliabilityConfig::new(schedule()).with_retry(RetryPolicy::exponential(3, 0.5)),
        );
        assert!(!fail_fast.failed.is_empty());
        assert!(retried.failed.is_empty(), "one crash, three retries");
        assert_eq!(retried.fleet.records.len(), trace.len());
        assert_eq!(
            retried.reliability.recovered_requests,
            fail_fast.failed.len() as u64
        );
        assert!(retried.reliability.re_prefilled_tokens > 0);
        assert_eq!(retried.total_requests(), trace.len());
    }

    #[test]
    fn breaker_keeps_a_crash_looping_replica_out_of_rotation() {
        let trace = small_trace(30, 11);
        // Replica 0 crash-loops; the breaker should trip and the stats
        // ledger should say so.
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::new(
                ReplicaId(0),
                SimTime::from_secs(0.5),
                SimTime::from_secs(0.6),
            ),
            FailureEvent::new(
                ReplicaId(0),
                SimTime::from_secs(0.7),
                SimTime::from_secs(0.8),
            ),
            FailureEvent::new(
                ReplicaId(0),
                SimTime::from_secs(0.9),
                SimTime::from_secs(1.0),
            ),
        ]);
        let mut engine = fleet(2, RouterPolicy::JoinShortestQueue);
        let outcome = engine.run_reliable(
            &trace,
            &ReliabilityConfig::new(schedule)
                .with_retry(RetryPolicy::exponential(5, 0.1))
                .with_breaker(CircuitBreakerConfig::new(2, 60.0, 3_600.0)),
        );
        assert!(outcome.reliability.breaker_opens >= 1);
        assert_eq!(outcome.total_requests(), trace.len());
        // With the breaker holding replica 0 open for an hour, late
        // assignments all land on replica 1.
        let after_trip = outcome
            .fleet
            .assignments
            .iter()
            .rev()
            .take(5)
            .all(|&(_, r)| r == ReplicaId(1));
        assert!(after_trip, "breaker must exclude the crash-looping replica");
    }

    #[test]
    fn whole_fleet_outage_waits_for_earliest_recovery() {
        let trace = small_trace(12, 5);
        // Both replicas down over [0, 100) / [0, 50): every early arrival
        // must wait and land on replica 1, which recovers first.
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::new(
                ReplicaId(0),
                SimTime::from_secs(0.0),
                SimTime::from_secs(100.0),
            ),
            FailureEvent::new(
                ReplicaId(1),
                SimTime::from_secs(0.0),
                SimTime::from_secs(50.0),
            ),
        ]);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = engine.run_reliable(
            &trace,
            &ReliabilityConfig::new(schedule).with_retry(RetryPolicy::exponential(1, 1.0)),
        );
        assert_eq!(outcome.total_requests(), trace.len());
        // Nothing can complete before replica 1 recovers.
        for record in &outcome.fleet.records {
            assert!(record.finish >= SimTime::from_secs(50.0));
        }
    }
}
