//! The elasticity tier: fleet runs under SLO-driven autoscaling, admission
//! control and load shedding.
//!
//! [`FleetEngine::run_elastic`] adds control instants to the fleet's one
//! loop over live replicas (see [`crate::fleet`]): every
//! `control_interval_s` on the sim clock, while arrivals remain, next to
//! the failure schedule's crash instants. Between instants the frontend
//! routes arrivals and retries into live replicas exactly as
//! [`FleetEngine::run_reliable`] does; at each instant the fleet may
//! change shape:
//!
//! * **Crash** instants behave as in the reliability tier — the crashed
//!   replica advances through the instant and its unresolved requests
//!   retry or fail terminally under the [`RetryPolicy`].
//! * **Control** instants observe the closed window — per-replica
//!   unresolved backlog and the SLO attainment of the window's completions,
//!   read off the routable replicas' live sims — and hand the signals to
//!   the [`Autoscaler`](loong_sched::elastic::Autoscaler). Scale-**up**
//!   activates the lowest-id cold (or previously retired) replicas, which
//!   become routable only after the provisioning delay, with an empty KV
//!   pool and a cold prefix cache.
//!   Scale-**down** *drains*: the victim leaves the routable set
//!   immediately (the router is told via `on_replica_removed`, so durable
//!   affinity pins are dropped), runs everything already routed to it to
//!   completion at the decision instant, and retires when the last request
//!   completes. **No request is ever killed by a scale event.**
//!
//! A crash that strikes a replica *mid-drain* stops the drain there: the
//! victim retires at the crash instant and whatever it had not finished
//! becomes ordinary crash casualties, resolved by the retry policy.
//!
//! The [`AdmissionController`](loong_sched::elastic::AdmissionController)
//! (when armed) guards original arrivals at
//! the frontend: while the fleet saturates, best-effort traffic is shed
//! outright and any class whose estimated queueing delay exceeds its
//! deadline is rejected early, behind a hysteresis band so shedding cannot
//! flap. Retries bypass admission — a casualty is already inside the
//! system; shedding applies at the front door only.
//!
//! # Equivalence
//!
//! An autoscaler that never fires ([`AutoscalerConfig::fixed`]) plus an
//! admission controller that never sheds ([`AdmissionConfig::never_sheds`])
//! still run every control instant — replicas are observed, decisions are
//! taken — but an observation only reads live state, so the run
//! reproduces the static fleet **bit for bit** on the pinned golden
//! digests (`tests/elasticity_properties.rs` pins this against
//! `tests/fleet_equivalence.rs`), executing exactly its scheduling points
//! (`tests/replay_free_work.rs`).
//!
//! # Exactly-once accounting
//!
//! Every trace request ends in exactly one of five ledgers: fleet
//! `records` (completed), fleet `rejected` (engine admission rejection),
//! `shed` (frontend load shedding), `failed` (crash casualties whose retry
//! budget ran out), or the fleet's `unfinished` count. A drain moves
//! nothing between ledgers — drained work completes; only a crash can.

use crate::fleet::{FleetEngine, FleetFootprint, FleetLoop, FleetOutcome, FleetPolicies, Life};
use crate::reliability::FailedRequest;
use loong_metrics::elasticity::ElasticityStats;
use loong_metrics::fleet::FleetSummary;
use loong_metrics::record::RequestRecord;
use loong_metrics::reliability::{availability_windows, ReliabilityStats, SlaWindow};
use loong_metrics::slo::SloSpec;
use loong_sched::elastic::{
    AdmissionConfig, AdmissionDecision, AutoscalerConfig, FleetSignals, ScaleDecision, ShedReason,
};
use loong_sched::reliability::RetryPolicy;
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::time::{SimDuration, SimTime};
use loong_trace::TraceRecorder;
use loong_workload::failure::FailureSchedule;
use loong_workload::request::{Request, TrafficClass};
use loong_workload::stream::TraceStream;
use loong_workload::trace::Trace;

/// Configuration of an elastic fleet run.
///
/// The fleet engine must be provisioned with `autoscaler.max_replicas`
/// replicas — the autoscaler decides how many of them are *active* at any
/// instant; the rest are cold.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The target-tracking fleet autoscaler. [`AutoscalerConfig::fixed`]
    /// arms the tier without letting it fire.
    pub autoscaler: AutoscalerConfig,
    /// Replicas active (and routable) at t = 0. Must lie within the
    /// autoscaler's bounds.
    pub initial_replicas: usize,
    /// The frontend load shedder; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// The SLO against which control windows measure attainment (the
    /// autoscaler's scale-up signal).
    pub signal_slo: SloSpec,
    /// Failure injection composed with scaling. [`FailureSchedule::none`]
    /// runs pure elasticity.
    pub schedule: FailureSchedule,
    /// What a crash casualty gets — exactly the reliability tier's policy.
    pub retry: RetryPolicy,
    /// Width of the availability windows in the outcome's SLA series, in
    /// sim-seconds.
    pub sla_window_s: f64,
}

impl ElasticConfig {
    /// An elastic run under `autoscaler`, starting at its minimum size: no
    /// shedding, no failures, no retries, 60 s availability windows.
    pub fn new(autoscaler: AutoscalerConfig) -> Self {
        ElasticConfig {
            initial_replicas: autoscaler.min_replicas,
            autoscaler,
            admission: None,
            signal_slo: SloSpec::default_for_lwm(),
            schedule: FailureSchedule::none(),
            retry: RetryPolicy::none(),
            sla_window_s: 60.0,
        }
    }

    /// The armed-but-idle configuration: an autoscaler pinned to exactly
    /// `n` replicas and an admission controller that can never shed.
    /// Control boundaries run on every window, with no possible effect —
    /// `run_elastic` must reproduce `run` bit for bit under it.
    pub fn armed_idle(n: usize) -> Self {
        ElasticConfig::new(AutoscalerConfig::fixed(n))
            .with_admission(AdmissionConfig::never_sheds())
    }

    /// Arms the frontend load shedder.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Sets the number of replicas active at t = 0.
    pub fn with_initial(mut self, initial_replicas: usize) -> Self {
        self.initial_replicas = initial_replicas;
        self
    }

    /// Composes failure injection with scaling.
    pub fn with_schedule(mut self, schedule: FailureSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the crash-casualty retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the SLO the control window measures attainment against.
    pub fn with_signal_slo(mut self, slo: SloSpec) -> Self {
        self.signal_slo = slo;
        self
    }

    /// Sets the availability-window width.
    pub fn with_sla_window(mut self, window_s: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        self.sla_window_s = window_s;
        self
    }
}

/// A request shed by the frontend admission controller: it never reached a
/// replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedRequest {
    /// The request.
    pub id: RequestId,
    /// Its arrival instant (the shed instant — shedding is immediate).
    pub at: SimTime,
    /// The service class it arrived under.
    pub class: TrafficClass,
    /// Why it was shed.
    pub reason: ShedReason,
}

/// What a fleet scale event did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetScaleKind {
    /// A cold (or previously retired) replica was activated; it becomes
    /// routable at `ready_at` (decision instant + provisioning delay) with
    /// an empty KV pool and a cold prefix cache.
    Activated {
        /// The replica.
        replica: ReplicaId,
        /// When it becomes routable.
        ready_at: SimTime,
    },
    /// An active replica was drained and retired. The drain started at the
    /// event instant and took `drain_s` sim-seconds — zero when the victim
    /// had nothing in flight.
    Retired {
        /// The replica.
        replica: ReplicaId,
        /// Drain duration (decision to retirement), in sim-seconds.
        drain_s: f64,
    },
}

/// One fleet scale event, in decision order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScaleEvent {
    /// The control boundary at which the decision was taken.
    pub at: SimTime,
    /// What happened.
    pub kind: FleetScaleKind,
    /// Active replicas (routable or provisioning) after the event.
    pub active_after: usize,
}

/// The merged result of one elastic fleet run.
#[derive(Debug, Clone)]
pub struct ElasticFleetOutcome {
    /// The fleet outcome over the attempts that resolved inside a replica.
    pub fleet: FleetOutcome,
    /// Crash casualties that exhausted their retry budget, sorted by id.
    pub failed: Vec<FailedRequest>,
    /// Requests shed at the frontend, sorted by id.
    pub shed: Vec<ShedRequest>,
    /// Every scale event, in decision order.
    pub scale_events: Vec<FleetScaleEvent>,
    /// The effective start instant of each routing decision, parallel to
    /// `fleet.assignments` — what the drain proptests check "no new routes
    /// after retirement" against.
    pub route_instants: Vec<SimTime>,
    /// The whole-run elasticity ledger.
    pub elasticity: ElasticityStats,
    /// The whole-run reliability ledger (crashes composed with scaling).
    pub reliability: ReliabilityStats,
    /// Time-resolved availability series over `sla_window_s` windows.
    pub sla_windows: Vec<SlaWindow>,
}

impl ElasticFleetOutcome {
    /// Total requests accounted for: completed + rejected + unfinished +
    /// terminally failed + shed. Equals the trace length for every
    /// schedule and autoscaler (the exactly-once property).
    pub fn total_requests(&self) -> usize {
        self.fleet.total_requests() + self.failed.len() + self.shed.len()
    }

    /// Fleet-level metric summary with the reliability and elasticity
    /// ledgers attached.
    pub fn summary(
        &self,
        system: &str,
        workload: &str,
        request_rate: f64,
        slo: &SloSpec,
    ) -> FleetSummary {
        let mut summary = self.fleet.summary(system, workload, request_rate, slo);
        summary.attach_reliability(self.reliability, self.sla_windows.clone());
        summary.attach_elasticity(self.elasticity);
        summary
    }

    /// Per-class SLO attainment of the completed requests, judging each
    /// class against the base SLO scaled by its
    /// [`TrafficClass::slo_scale`], in shed order. The class is read off
    /// each record (the engine carries it through from the request), so no
    /// trace-wide index is needed — streamed runs have no materialised
    /// trace to look one up in.
    pub fn class_attainment(&self, base: &SloSpec) -> Vec<(TrafficClass, f64)> {
        TrafficClass::all()
            .into_iter()
            .map(|class| {
                let records: Vec<RequestRecord> = self
                    .fleet
                    .records
                    .iter()
                    .filter(|r| r.class == class)
                    .copied()
                    .collect();
                (class, class_slo(base, class).attainment(&records))
            })
            .collect()
    }
}

/// The SLO a given traffic class is judged by: the base spec with every
/// bound scaled by [`TrafficClass::slo_scale`].
pub fn class_slo(base: &SloSpec, class: TrafficClass) -> SloSpec {
    let s = class.slo_scale();
    SloSpec {
        per_token_s: base.per_token_s * s,
        input_s: base.input_s * s,
        output_s: base.output_s * s,
    }
}

impl FleetEngine {
    /// Runs the fleet over a trace under elastic autoscaling, admission
    /// control and (optionally) failure injection. See the module docs for
    /// the execution model.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is not provisioned at the autoscaler's maximum,
    /// the initial size lies outside the autoscaler's bounds, a controller
    /// configuration is invalid, or the failure schedule strikes a replica
    /// outside the fleet.
    pub fn run_elastic(&mut self, trace: &Trace, cfg: &ElasticConfig) -> ElasticFleetOutcome {
        self.run_elastic_source(trace.requests.iter().cloned(), cfg, None)
            .0
    }

    /// Runs the elastic fleet with the whole run observed by `recorder`:
    /// request lifecycle spans across scale events, crash casualties and
    /// retries; scale-up/scale-down/shed instants; and per-replica
    /// timeseries. Identical decision-for-decision to
    /// [`FleetEngine::run_elastic`] — each replica's recording is absorbed
    /// when its segment ends (at a crash, a drain, or the end of the run),
    /// so the recorder sees every iteration exactly once.
    pub fn run_elastic_traced(
        &mut self,
        trace: &Trace,
        cfg: &ElasticConfig,
        recorder: &mut TraceRecorder,
    ) -> ElasticFleetOutcome {
        self.run_elastic_source(trace.requests.iter().cloned(), cfg, Some(recorder))
            .0
    }

    /// Runs the elastic fleet over a lazy request stream. Identical
    /// decision-for-decision to [`FleetEngine::run_elastic`] on the
    /// collected stream; the frontend holds only pending retries plus what
    /// live replicas hold, measured by the returned [`FleetFootprint`].
    pub fn run_elastic_stream(
        &mut self,
        stream: TraceStream,
        cfg: &ElasticConfig,
    ) -> (ElasticFleetOutcome, FleetFootprint) {
        self.run_elastic_source(stream, cfg, None)
    }

    /// Streamed elastic run observed by `recorder` — the streamed
    /// counterpart of [`FleetEngine::run_elastic_traced`].
    pub fn run_elastic_stream_traced(
        &mut self,
        stream: TraceStream,
        cfg: &ElasticConfig,
        recorder: &mut TraceRecorder,
    ) -> (ElasticFleetOutcome, FleetFootprint) {
        self.run_elastic_source(stream, cfg, Some(recorder))
    }

    fn run_elastic_source(
        &mut self,
        source: impl Iterator<Item = Request>,
        cfg: &ElasticConfig,
        recorder: Option<&mut TraceRecorder>,
    ) -> (ElasticFleetOutcome, FleetFootprint) {
        let n = self.config.replicas;
        assert_eq!(
            n, cfg.autoscaler.max_replicas,
            "the fleet must be provisioned at the autoscaler's max \
             ({} replicas), got {n}",
            cfg.autoscaler.max_replicas
        );
        assert!(
            (cfg.autoscaler.min_replicas..=n).contains(&cfg.initial_replicas),
            "initial size {} outside the autoscaler bounds {}..={n}",
            cfg.initial_replicas,
            cfg.autoscaler.min_replicas
        );
        assert!(cfg.sla_window_s > 0.0, "window must be positive");
        let policies = FleetPolicies {
            schedule: &cfg.schedule,
            retry: cfg.retry,
            breaker: None,
            elastic: Some(cfg),
        };
        let (fleet, run) = self.run_fleet(source, &policies, recorder);
        let failure_instants: Vec<SimTime> = run.failed.iter().map(|f| f.at).collect();
        let sla_windows = availability_windows(cfg.sla_window_s, &fleet.records, &failure_instants);
        (
            ElasticFleetOutcome {
                fleet,
                failed: run.failed,
                shed: run.shed,
                scale_events: run.scale_events,
                route_instants: run.route_instants,
                elasticity: run.elasticity,
                reliability: run.reliability,
                sla_windows,
            },
            run.footprint,
        )
    }
}

impl<I: Iterator<Item = Request>> FleetLoop<'_, I> {
    /// Replicas in the `Active` state (routable or provisioning).
    fn active_count(&self) -> usize {
        self.life
            .iter()
            .filter(|l| matches!(l, Life::Active { .. }))
            .count()
    }

    /// Replicas routable at `t`: active, past their provisioning delay.
    fn ready(&self, t: SimTime) -> Vec<usize> {
        (0..self.n)
            .filter(|&r| matches!(self.life[r], Life::Active { since } if since <= t))
            .collect()
    }

    /// The frontend's admission decision for one original arrival: `true`
    /// admits it (always, when no controller is armed); `false` sheds it,
    /// recording it in the ledger and the class counters.
    pub(crate) fn admit(&mut self, req: &Request) -> bool {
        if self.admission.is_none() {
            return true;
        }
        let ready = self.ready(req.arrival).len();
        let backlog = self
            .last_observed_backlog
            .saturating_add(self.routed_since_observation);
        let adm = self.admission.as_mut().expect("armed above");
        let AdmissionDecision::Shed(reason) = adm.admit(req.class, backlog, ready) else {
            return true;
        };
        if let Some(r) = self.rec.as_deref_mut() {
            r.shed(req.arrival, req.id, req.class, &format!("{reason:?}"));
        }
        match req.class {
            TrafficClass::Interactive => self.out.elasticity.shed_interactive += 1,
            TrafficClass::Standard => self.out.elasticity.shed_standard += 1,
            TrafficClass::BestEffort => self.out.elasticity.shed_best_effort += 1,
        }
        if reason == ShedReason::DeadlineExceeded {
            self.out.elasticity.deadline_rejections += 1;
        }
        self.out.shed.push(ShedRequest {
            id: req.id,
            at: req.arrival,
            class: req.class,
            reason,
        });
        false
    }

    /// One control instant: observe the closed window, let the autoscaler
    /// decide, apply the decision.
    pub(crate) fn control_boundary(&mut self, b: SimTime, cfg: &ElasticConfig) {
        let (signals, backlogs) = self.observe(b, cfg);
        self.last_observed_backlog = signals.backlog_tokens;
        self.routed_since_observation = 0;
        let autoscaler = self
            .autoscaler
            .as_mut()
            .expect("elastic runs have an autoscaler");
        match autoscaler.decide(b.as_secs(), &signals) {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(count) => self.scale_up(b, count, cfg),
            ScaleDecision::Down(count) => self.scale_down(b, count, &backlogs),
        }
        let active = self.active_count() as u64;
        self.out.elasticity.min_active_replicas =
            self.out.elasticity.min_active_replicas.min(active);
        self.out.elasticity.max_active_replicas =
            self.out.elasticity.max_active_replicas.max(active);
    }

    /// Measures the window `(b − Δ, b]`: per-replica unresolved backlog
    /// (worst-case tokens) and the SLO attainment of completions inside
    /// the window, read off the routable replicas' live sims once they
    /// have processed `b` itself. Every arrival due by `b` is routed
    /// already, so it has joined its `b` batch and counts in the backlog.
    /// Observing executes no scheduling point the run would not execute
    /// anyway.
    fn observe(&mut self, b: SimTime, cfg: &ElasticConfig) -> (FleetSignals, Vec<u64>) {
        let window_start = b.as_secs() - cfg.autoscaler.control_interval_s;
        let ready = self.ready(b);
        self.advance_each(&ready, |sim, sink| sim.advance_through(b, sink));
        let mut backlogs = vec![0u64; self.n];
        let mut window_records: Vec<RequestRecord> = Vec::new();
        for &r in &ready {
            if let Some(sim) = self.live_sim(r) {
                backlogs[r] = sim.observe(b, window_start, &mut window_records);
            }
        }
        let signals = FleetSignals {
            attainment: cfg.signal_slo.attainment(&window_records),
            backlog_tokens: backlogs.iter().sum(),
            active_replicas: ready.len(),
        };
        (signals, backlogs)
    }

    /// Activates up to `want` cold or retired replicas (lowest id first).
    /// Each becomes routable after the provisioning delay, with an empty
    /// KV pool and a cold prefix cache (its slot restarted empty at its
    /// last crash or drain, so this falls out of the execution model).
    fn scale_up(&mut self, b: SimTime, want: usize, cfg: &ElasticConfig) {
        let ready_at = b + SimDuration::from_secs(cfg.autoscaler.provisioning_delay_s);
        let mut activated = 0usize;
        for r in 0..self.n {
            if activated == want {
                break;
            }
            if matches!(self.life[r], Life::Cold | Life::Retired { .. }) {
                self.life[r] = Life::Active { since: ready_at };
                self.out.elasticity.provisioning_s += cfg.autoscaler.provisioning_delay_s;
                activated += 1;
                if let Some(recorder) = self.rec.as_deref_mut() {
                    recorder.replica_activated(b, ReplicaId::from(r), ready_at);
                }
                let active_after = self.active_count();
                self.out.scale_events.push(FleetScaleEvent {
                    at: b,
                    kind: FleetScaleKind::Activated {
                        replica: ReplicaId::from(r),
                        ready_at,
                    },
                    active_after,
                });
            }
        }
        if activated > 0 {
            self.out.elasticity.scale_up_events += 1;
        }
    }

    /// Drains and retires up to `want` ready replicas. Victims are the
    /// ready actives with the smallest observed backlog (ties to the
    /// highest id — retire the newest). Each victim leaves the routable
    /// set at `b` and runs everything already routed to it to completion
    /// right away, retiring when its last request completes — unless a
    /// scheduled crash strikes it first, in which case the drain stops at
    /// the crash, the victim retires there, and the remainder becomes
    /// crash casualties.
    fn scale_down(&mut self, b: SimTime, want: usize, backlogs: &[u64]) {
        let mut ready: Vec<(u64, usize)> = self
            .ready(b)
            .into_iter()
            .map(|r| (backlogs[r], r))
            .collect();
        ready.sort_by(|a, other| a.0.cmp(&other.0).then(other.1.cmp(&a.1)));
        let victims: Vec<usize> = ready.iter().take(want).map(|&(_, r)| r).collect();
        if victims.is_empty() {
            return;
        }
        self.out.elasticity.scale_down_events += 1;
        for r in victims {
            let replica = ReplicaId::from(r);
            let Life::Active { since } = self.life[r] else {
                unreachable!("victims are selected among active replicas");
            };
            // Durably drop the router's state for the victim (affinity
            // pins must not resurrect on the retired replica).
            self.router.on_replica_removed(replica);
            let drain_end = if self.live_sim(r).is_some() {
                self.drain(r, b)
            } else {
                b
            };
            let drain_s = drain_end.saturating_since(b).as_secs();
            if let Some(recorder) = self.rec.as_deref_mut() {
                recorder.replica_retired(drain_end, replica);
            }
            self.life[r] = Life::Retired { at: drain_end };
            self.active_spans_s[r] += drain_end.saturating_since(since).as_secs();
            self.out.elasticity.drains_completed += 1;
            self.out.elasticity.total_drain_s += drain_s;
            if drain_s > self.out.elasticity.max_drain_s {
                self.out.elasticity.max_drain_s = drain_s;
            }
            let active_after = self.active_count();
            self.out.scale_events.push(FleetScaleEvent {
                at: b,
                kind: FleetScaleKind::Retired { replica, drain_s },
                active_after,
            });
        }
    }

    /// Runs drain victim `r` to completion, or up to its next scheduled
    /// crash after `b` if that comes first; returns the retirement
    /// instant.
    fn drain(&mut self, r: usize, b: SimTime) -> SimTime {
        let replica = ReplicaId::from(r);
        let crash = self
            .policies
            .schedule
            .events()
            .iter()
            .filter(|e| e.replica == replica && e.crash > b)
            .map(|e| e.crash)
            .min();
        // The crash interrupts the drain only if work is still queued
        // after it.
        let interrupted = self
            .advance_each(&[r], |sim, sink| match crash {
                Some(c) => {
                    sim.advance_through(c, sink);
                    sim.next_event_time().map(|_| (c, sim.crash(c, sink)))
                }
                None => {
                    sim.run_to_end(sink);
                    None
                }
            })
            .pop()
            .expect("the victim is live")
            .1;
        let finish = self.end_segment(r);
        match interrupted {
            Some((c, casualties)) => {
                self.settle_casualties(casualties, replica, c);
                c
            }
            None => finish.max(b),
        }
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
    use std::collections::BTreeSet;

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

    fn exactly_once(outcome: &ElasticFleetOutcome, trace: &Trace) {
        assert_eq!(outcome.total_requests(), trace.len());
        // The five ledgers are disjoint by id.
        let mut seen: BTreeSet<RequestId> = BTreeSet::new();
        for id in outcome
            .fleet
            .records
            .iter()
            .map(|r| r.id)
            .chain(outcome.fleet.rejected.iter().map(|r| r.0))
            .chain(outcome.failed.iter().map(|f| f.id))
            .chain(outcome.shed.iter().map(|s| s.id))
        {
            assert!(seen.insert(id), "{id:?} resolved twice");
        }
    }

    #[test]
    fn armed_idle_run_matches_plain_run() {
        let trace = small_trace(24, 3);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let plain = engine.run(&trace);
        let elastic = engine.run_elastic(&trace, &ElasticConfig::armed_idle(2));
        assert_eq!(plain.records, elastic.fleet.records);
        assert_eq!(plain.rejected, elastic.fleet.rejected);
        assert_eq!(plain.assignments, elastic.fleet.assignments);
        assert_eq!(plain.unfinished, elastic.fleet.unfinished);
        assert_eq!(plain.sim_time, elastic.fleet.sim_time);
        assert_eq!(plain.iterations, elastic.fleet.iterations);
        assert!(elastic.shed.is_empty());
        assert!(elastic.scale_events.is_empty());
        assert!(elastic.failed.is_empty());
        assert_eq!(elastic.elasticity.scale_up_events, 0);
        assert_eq!(elastic.elasticity.scale_down_events, 0);
        assert_eq!(elastic.elasticity.min_active_replicas, 2);
        assert_eq!(elastic.elasticity.max_active_replicas, 2);
        // Two replicas, active for the whole makespan.
        let expected = 2.0 * plain.sim_time.as_secs();
        assert!((elastic.elasticity.replica_seconds - expected).abs() < 1e-9);
    }

    #[test]
    fn scale_up_activates_cold_replicas_after_provisioning() {
        // One active replica, room for three more, a trace heavy enough to
        // blow through the backlog threshold at the first boundary.
        let trace = small_trace(120, 7);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 4);
        scaler.control_interval_s = 5.0;
        scaler.cooldown_s = 0.0;
        scaler.scale_up_backlog_tokens = 2_000;
        scaler.scale_down_backlog_tokens = 500;
        let cfg = ElasticConfig::new(scaler);
        let mut engine = fleet(4, RouterPolicy::JoinShortestQueue);
        let outcome = engine.run_elastic(&trace, &cfg);
        exactly_once(&outcome, &trace);
        assert!(
            outcome.elasticity.scale_up_events >= 1,
            "burst must scale up"
        );
        let activation = outcome
            .scale_events
            .iter()
            .find_map(|e| match e.kind {
                FleetScaleKind::Activated { replica, ready_at } => Some((e.at, replica, ready_at)),
                _ => None,
            })
            .expect("at least one activation");
        let (at, replica, ready_at) = activation;
        assert_eq!(
            ready_at,
            at + SimDuration::from_secs(cfg.autoscaler.provisioning_delay_s),
            "cold replicas come up after the provisioning delay"
        );
        // Nothing routes to the cold replica before it is ready.
        for (i, &(_, rep)) in outcome.fleet.assignments.iter().enumerate() {
            if rep == replica {
                assert!(
                    outcome.route_instants[i] >= ready_at,
                    "routed to {replica} at {} before ready_at {ready_at}",
                    outcome.route_instants[i]
                );
            }
        }
        assert!(outcome.elasticity.provisioning_s > 0.0);
    }

    #[test]
    fn an_arrival_at_a_control_instant_counts_in_its_backlog() {
        // The long request arrives at exactly the first control instant:
        // it is routed before that instant's decision, so its tokens alone
        // push the backlog over the scale-up threshold at 5 s.
        let requests = vec![
            Request::new(RequestId(0), SimTime::from_secs(0.1), 200, 20),
            Request::new(RequestId(1), SimTime::from_secs(5.0), 20_000, 2_000),
        ];
        let trace = Trace::from_requests("arrival at a control instant", requests);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 2);
        scaler.control_interval_s = 5.0;
        scaler.cooldown_s = 0.0;
        scaler.scale_up_backlog_tokens = 10_000;
        scaler.scale_down_backlog_tokens = 1;
        let cfg = ElasticConfig::new(scaler);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = engine.run_elastic(&trace, &cfg);
        exactly_once(&outcome, &trace);
        let first_activation = outcome
            .scale_events
            .iter()
            .find(|e| matches!(e.kind, FleetScaleKind::Activated { .. }))
            .expect("the backlog must trigger a scale-up");
        assert_eq!(first_activation.at, SimTime::from_secs(5.0));
    }

    #[test]
    fn scale_down_drains_without_killing_requests() {
        // A front-loaded burst, then a long quiet tail (one straggler keeps
        // control boundaries alive): the fleet must shrink and every
        // request must still complete.
        let mut requests = small_trace(40, 11).requests;
        let straggler_id = RequestId(40);
        requests.push(Request::new(
            straggler_id,
            SimTime::from_secs(400.0),
            500,
            50,
        ));
        let trace = Trace::from_requests("burst then quiet", requests);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 2);
        scaler.control_interval_s = 30.0;
        scaler.cooldown_s = 0.0;
        let cfg = ElasticConfig::new(scaler).with_initial(2);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = engine.run_elastic(&trace, &cfg);
        exactly_once(&outcome, &trace);
        assert!(
            outcome.elasticity.scale_down_events >= 1,
            "the quiet tail must scale down"
        );
        assert_eq!(
            outcome.elasticity.drains_completed,
            outcome
                .scale_events
                .iter()
                .filter(|e| matches!(e.kind, FleetScaleKind::Retired { .. }))
                .count() as u64
        );
        // No request was killed: nothing failed, nothing unfinished, and
        // every id completed (or was rejected by a replica's own engine).
        assert!(outcome.failed.is_empty());
        assert_eq!(outcome.fleet.unfinished, 0);
        assert_eq!(
            outcome.fleet.records.len() + outcome.fleet.rejected.len(),
            trace.len()
        );
        // Drained replicas accept no new routes after the drain decision.
        for event in &outcome.scale_events {
            if let FleetScaleKind::Retired { replica, .. } = event.kind {
                for (i, &(_, rep)) in outcome.fleet.assignments.iter().enumerate() {
                    if rep == replica {
                        assert!(
                            outcome.route_instants[i] < event.at,
                            "routed to retired {replica} at {} after drain at {}",
                            outcome.route_instants[i],
                            event.at
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crash_during_drain_retires_at_the_crash_and_retries_the_rest() {
        // Two busy replicas; the autoscaler (aggressively tuned) drains one
        // at the first control boundary; a scheduled crash then strikes the
        // victim mid-drain. The drain must stop at the crash, the victim's
        // unfinished work must retry elsewhere, and nothing is lost.
        // Round-robin puts the long-decode pair on replica 0 and the
        // shorter pair on replica 1, so replica 1 (smaller backlog) is the
        // drain victim — still decoding well past the crash at 8 s.
        let requests = vec![
            Request::with_max_output(RequestId(0), SimTime::ZERO, 8_000, 2_000, 2_000),
            Request::with_max_output(RequestId(1), SimTime::from_secs(0.1), 4_000, 1_500, 1_500),
            Request::with_max_output(RequestId(2), SimTime::from_secs(0.2), 8_000, 2_000, 2_000),
            Request::with_max_output(RequestId(3), SimTime::from_secs(0.3), 4_000, 1_500, 1_500),
        ];
        let trace = Trace::from_requests("crash during drain", requests);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 2);
        scaler.control_interval_s = 5.0;
        scaler.cooldown_s = 0.0;
        // Generous thresholds: at the first boundary both replicas are
        // under the down-threshold, so the drain decision fires while the
        // victim still has work in flight.
        scaler.scale_up_backlog_tokens = 100_000;
        scaler.scale_down_backlog_tokens = 50_000;
        let schedule = FailureSchedule::from_events(vec![FailureEvent::new(
            ReplicaId(1),
            SimTime::from_secs(8.0),
            SimTime::from_secs(9.0),
        )]);
        let cfg = ElasticConfig::new(scaler)
            .with_initial(2)
            .with_schedule(schedule)
            .with_retry(RetryPolicy::exponential(3, 1.0));
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = engine.run_elastic(&trace, &cfg);
        exactly_once(&outcome, &trace);
        // The victim (replica 1: smaller backlog, then highest id on ties)
        // retired exactly at the crash instant.
        let retired = outcome
            .scale_events
            .iter()
            .find_map(|e| match e.kind {
                FleetScaleKind::Retired { replica, drain_s } => Some((e.at, replica, drain_s)),
                _ => None,
            })
            .expect("the drain decision must fire");
        let (at, victim, drain_s) = retired;
        assert_eq!(victim, ReplicaId(1));
        assert_eq!(at, SimTime::from_secs(5.0));
        assert!(
            (drain_s - 3.0).abs() < 1e-9,
            "drain runs from the decision at 5 s to the crash at 8 s, got {drain_s}"
        );
        // The interrupted work retried and completed: no terminal failures,
        // every request in the records.
        assert!(outcome.reliability.retries_scheduled >= 1);
        assert!(outcome.failed.is_empty());
        assert_eq!(outcome.fleet.records.len(), trace.len());
        assert!(outcome.reliability.recovered_requests >= 1);
    }

    #[test]
    fn saturated_fleet_sheds_best_effort_first() {
        // A single tiny-capacity replica under a heavy mixed burst: the
        // shedder must engage and best-effort traffic must bear it.
        let mut requests = Vec::new();
        for i in 0..30u64 {
            let class = if i % 3 == 0 {
                TrafficClass::BestEffort
            } else {
                TrafficClass::Interactive
            };
            requests.push(
                Request::with_max_output(
                    RequestId(i),
                    SimTime::from_secs(i as f64 * 0.05),
                    2_000,
                    200,
                    200,
                )
                .with_class(class),
            );
        }
        let trace = Trace::from_requests("saturating mixed burst", requests);
        let mut admission = AdmissionConfig::overload_defaults();
        admission.replica_capacity_tokens = 4_000;
        let cfg = ElasticConfig::new(AutoscalerConfig::fixed(1)).with_admission(admission);
        let mut engine = fleet(1, RouterPolicy::Passthrough);
        let outcome = engine.run_elastic(&trace, &cfg);
        exactly_once(&outcome, &trace);
        assert!(!outcome.shed.is_empty(), "saturation must shed");
        assert!(outcome.elasticity.shed_best_effort >= 1);
        // Class priority: interactive is only ever deadline-rejected, never
        // shed while best-effort survives.
        for s in &outcome.shed {
            if s.class == TrafficClass::Interactive {
                assert_eq!(s.reason, ShedReason::DeadlineExceeded);
            }
        }
        let attainment = outcome.class_attainment(&SloSpec::default_for_lwm());
        assert_eq!(attainment.len(), 3);
    }

    #[test]
    fn class_slo_scales_every_bound() {
        let base = SloSpec {
            per_token_s: 0.1,
            input_s: 0.2,
            output_s: 0.3,
        };
        let best_effort = class_slo(&base, TrafficClass::BestEffort);
        assert!((best_effort.per_token_s - 0.4).abs() < 1e-12);
        assert!((best_effort.input_s - 0.8).abs() < 1e-12);
        assert!((best_effort.output_s - 1.2).abs() < 1e-12);
        let interactive = class_slo(&base, TrafficClass::Interactive);
        assert_eq!(interactive, base);
    }

    #[test]
    #[should_panic(expected = "provisioned at the autoscaler's max")]
    fn fleet_size_must_match_autoscaler_max() {
        let trace = small_trace(4, 1);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let _ = engine.run_elastic(
            &trace,
            &ElasticConfig::new(AutoscalerConfig::overload_defaults(1, 4)),
        );
    }
}
