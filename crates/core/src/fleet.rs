//! The fleet tier: many serving replicas behind a cluster router.
//!
//! LoongServe's elastic-sequence-parallel groups regroup *inside* one
//! replica — one node with its own global manager, unified KV pool and
//! eight GPUs. The paper's deployment setting (and the roadmap's "heavy
//! traffic from millions of users") adds a tier above that: a fleet of
//! such replicas behind a dispatcher, the same tier DistServe assumes
//! above its prefill/decode pools. [`FleetEngine`] is that tier.
//!
//! # Execution model: one loop over live replicas
//!
//! Every fleet run — plain, under failure injection
//! ([`FleetEngine::run_reliable`]) or elastic
//! ([`FleetEngine::run_elastic`]) — is one loop over live
//! `ReplicaSim`s, one per replica slot:
//!
//! 1. **Route.** Arrivals (and crash retries) are walked in
//!    `(arrival, id)` order; the configured [`Router`] assigns each to a
//!    routable replica using the fleet's incrementally maintained
//!    [`FleetLoadTracker`], and the request is injected into that
//!    replica's live sim at once. Routing is open-loop: it never waits for
//!    a replica to catch up.
//! 2. **Sync at boundaries only.** Replicas advance only when something
//!    needs their state. At a boundary `b`, a crash first advances the
//!    crashing replica through `b` and takes its unresolved requests as
//!    casualties; then the arrivals and retries due at exactly `b` are
//!    routed; then a control instant advances the routable replicas through
//!    `b` and reads their backlog and window completions, and a scale-down
//!    drains its victim at once. Every iteration is executed exactly once.
//! 3. **Merge.** After the last arrival every live sim runs to completion
//!    and the per-replica [`RunOutcome`]s — one segment per crash or drain,
//!    plus the last — merge into a [`FleetOutcome`]: records and
//!    rejections in request-id order, counters summed, simulated time
//!    maximised. A 1-replica fleet under the passthrough router reproduces
//!    the bare engine's outcome bit for bit (`tests/fleet_equivalence.rs`
//!    pins this).
//!
//! Replicas share nothing between boundaries, so with
//! [`FleetConfig::parallel`] the replicas advancing to a boundary run on
//! the bounded worker pool; settlement stays serial in replica-id order,
//! which keeps pooled runs bit-for-bit serial. Every policy is
//! deterministic with sorted tie-breaking, so identically-seeded fleet runs
//! are bit-for-bit reproducible.

use crate::elastic::{ElasticConfig, FleetScaleEvent, ShedRequest};
use crate::engine::{ReplicaSim, RunOutcome, ServingEngine};
use crate::reliability::FailedRequest;
use crate::systems::{PressureMode, SystemKind, SystemUnderTest};
use loong_cluster::topology::ClusterSpec;
use loong_kvcache::prefix::PrefixCacheConfig;
use loong_metrics::cache::CacheStats;
use loong_metrics::elasticity::ElasticityStats;
use loong_metrics::fleet::FleetSummary;
use loong_metrics::pressure::PressureStats;
use loong_metrics::record::RequestRecord;
use loong_metrics::reliability::ReliabilityStats;
use loong_metrics::slo::SloSpec;
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_sched::elastic::{AdmissionController, Autoscaler};
use loong_sched::reliability::{
    healthy_candidates, CircuitBreaker, CircuitBreakerConfig, RetryPolicy,
};
use loong_sched::router::{FleetLoadTracker, RouteRequest, Router, RouterPolicy};
use loong_sched::types::Scheduler;
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::pool::run_each_mut;
use loong_simcore::time::SimTime;
use loong_trace::{NoopSink, TraceRecorder, TraceSink};
use loong_workload::failure::FailureSchedule;
use loong_workload::request::Request;
use loong_workload::stream::TraceStream;
use loong_workload::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::iter::Peekable;
use std::ops::Bound;

/// Static configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replicas. Each is a full serving system: its own cluster
    /// node(s), global manager and unified KV pool.
    pub replicas: usize,
    /// The serving system every replica runs (scheduler + parallelism
    /// shape). Fleets are homogeneous.
    pub system: SystemKind,
    /// The cluster owned by **each** replica (not shared): the paper's
    /// default is one 8-GPU A800 node per replica.
    pub cluster: ClusterSpec,
    /// The model served by every replica.
    pub model: ModelConfig,
    /// Seed of each replica's engine-internal randomness. Replicas use the
    /// same seed: they model identical hardware profiled identically, and
    /// replica 0's engine stays bit-for-bit the single-engine baseline.
    pub seed: u64,
    /// The routing policy assigning arriving requests to replicas.
    pub policy: RouterPolicy,
    /// Memory-pressure handling of every replica.
    pub pressure: PressureMode,
    /// The prefix-cache tier of every replica (`None` disables it). Pairs
    /// naturally with [`RouterPolicy::PrefixAffinity`], which keeps a
    /// conversation's turns on the replica retaining its prefix.
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Per-instance KV capacity override applied to every replica.
    pub kv_capacity_override: Option<u64>,
    /// Attention-cost policy of every replica's cost model (`Dense` keeps
    /// the fleet bit-for-bit on the pre-policy path).
    pub attention: AttentionCostPolicy,
    /// Advance replicas on a bounded worker pool, capped at the host's
    /// available parallelism ([`loong_simcore::pool`]). Purely a
    /// wall-clock choice: replicas are independent between boundaries and
    /// settle in replica-id order, so the outcome is identical either way.
    pub parallel: bool,
}

impl FleetConfig {
    /// A fleet of `replicas` copies of the paper's single-node testbed
    /// (8× A800, LWM-1M-Text) under the given routing policy.
    pub fn paper_fleet(system: SystemKind, replicas: usize, policy: RouterPolicy) -> Self {
        let single = SystemUnderTest::paper_single_node(system);
        FleetConfig {
            replicas,
            system,
            cluster: single.cluster,
            model: single.model,
            seed: single.seed,
            policy,
            pressure: PressureMode::Off,
            prefix_cache: None,
            kv_capacity_override: None,
            attention: AttentionCostPolicy::Dense,
            parallel: false,
        }
    }

    /// The single-replica system equivalent to one replica of this fleet.
    pub(crate) fn replica_system(&self) -> SystemUnderTest {
        SystemUnderTest {
            kind: self.system,
            cluster: self.cluster.clone(),
            model: self.model.clone(),
            seed: self.seed,
            pressure: self.pressure,
            kv_capacity_override: self.kv_capacity_override,
            max_sim_time: None,
            prefix_cache: self.prefix_cache,
            attention: self.attention,
        }
    }
}

/// Deterministic frontend-memory ledger of a streamed fleet run.
///
/// Counts *requests*, not bytes: a simulation-exact proxy that is
/// bit-for-bit reproducible across hosts, which RSS never is. The
/// benches report both — this ledger gates, RSS informs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetFootprint {
    /// Requests pulled from the stream over the whole run.
    pub streamed_requests: usize,
    /// Peak requests resident at any instant: crash retries awaiting
    /// their backoff, plus the requests injected into each live replica
    /// since its last crash or drain (a replica's state restarts empty at
    /// each). Under a crash-rich schedule this stays far below the stream
    /// length — the streamed paths' O(active + pending-retries) claim.
    pub peak_resident_requests: usize,
}

/// The outcome of one replica within a fleet run.
#[derive(Debug, Clone)]
pub struct ReplicaOutcome {
    /// The replica.
    pub replica: ReplicaId,
    /// Requests the router assigned to this replica.
    pub assigned: usize,
    /// The replica's own engine outcome over its sub-trace.
    pub outcome: RunOutcome,
}

/// The merged result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-replica outcomes, in replica-id order.
    pub per_replica: Vec<ReplicaOutcome>,
    /// The replica each request was routed to, in trace order.
    pub assignments: Vec<(RequestId, ReplicaId)>,
    /// Completed requests across the fleet, sorted by request id.
    pub records: Vec<RequestRecord>,
    /// Rejected requests across the fleet, sorted by request id.
    pub rejected: Vec<(RequestId, String)>,
    /// Requests neither finished nor rejected when their replica's run
    /// ended, summed across replicas.
    pub unfinished: usize,
    /// Simulated makespan of the fleet: the slowest replica's run time
    /// (replicas run concurrently in simulated time).
    pub sim_time: SimTime,
    /// Iterations executed across all replicas.
    pub iterations: u64,
    /// Bytes moved by explicit KV migrations across all replicas.
    pub migration_bytes: f64,
    /// Scheduler invocations across all replicas.
    pub scheduler_calls: u64,
    /// Memory-pressure activity accumulated across replicas (counters sum;
    /// the outstanding-swapped high-water mark takes the per-replica max).
    pub pressure: PressureStats,
    /// Prefix-cache activity accumulated across replicas (counters sum;
    /// the retained high-water mark takes the per-replica max).
    pub cache: CacheStats,
}

impl FleetOutcome {
    /// Number of replicas that took part in the run.
    pub fn replicas(&self) -> usize {
        self.per_replica.len()
    }

    /// Total requests accounted for: completed + rejected + unfinished.
    pub fn total_requests(&self) -> usize {
        self.records.len() + self.rejected.len() + self.unfinished
    }

    /// Fleet-level metric summary: merged aggregate plus the per-replica
    /// breakdown.
    pub fn summary(
        &self,
        system: &str,
        workload: &str,
        request_rate: f64,
        slo: &SloSpec,
    ) -> FleetSummary {
        let replica_records: Vec<&[RequestRecord]> = self
            .per_replica
            .iter()
            .map(|r| r.outcome.records.as_slice())
            .collect();
        let mut summary = FleetSummary::from_replica_records(
            system,
            workload,
            request_rate,
            &replica_records,
            slo,
        );
        let per_replica_pressure: Vec<PressureStats> = self
            .per_replica
            .iter()
            .map(|r| r.outcome.pressure)
            .collect();
        summary.attach_pressure(&per_replica_pressure);
        let per_replica_cache: Vec<CacheStats> =
            self.per_replica.iter().map(|r| r.outcome.cache).collect();
        summary.attach_cache(&per_replica_cache);
        summary
    }
}

/// A fleet of serving replicas behind a cluster router.
pub struct FleetEngine {
    pub(crate) config: FleetConfig,
}

impl FleetEngine {
    /// Builds a fleet for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero replicas or an invalid cluster.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.replicas > 0, "a fleet needs at least one replica");
        config.cluster.validate().expect("valid replica cluster");
        FleetEngine { config }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Routes every request of `trace` in arrival order, returning the
    /// per-request replica assignment (indexing `trace.requests`).
    ///
    /// Routing is pure dispatch: the load tracker advances by running sums
    /// only, so the whole pass is O(requests × replicas) with O(replicas)
    /// state — independent of how many requests any replica has absorbed.
    ///
    /// Every call starts from a fresh router and load tracker, so routing
    /// (and therefore [`FleetEngine::run`]) is a pure function of the
    /// configuration and the trace: reusing one engine across traces
    /// cannot leak round-robin counters or probe-RNG state between runs.
    pub fn route(&mut self, trace: &Trace) -> Vec<usize> {
        let none = FailureSchedule::none();
        let policies = FleetPolicies::plain(&none);
        let mut run = FleetLoop::new(&self.config, &policies, None, [].into_iter());
        trace
            .requests
            .iter()
            .map(|req| run.pick(req).0.index())
            .collect()
    }

    /// Runs the fleet over a trace: route, serve every replica, merge.
    pub fn run(&mut self, trace: &Trace) -> FleetOutcome {
        self.run_plain(trace.requests.iter().cloned(), None).0
    }

    /// Runs the fleet with every replica observed by `recorder`. Identical
    /// decision-for-decision to [`FleetEngine::run`] — the recorder only
    /// receives copies of already-made decisions — with per-replica spans,
    /// timeseries and instants absorbed in replica-id order.
    pub fn run_traced(&mut self, trace: &Trace, recorder: &mut TraceRecorder) -> FleetOutcome {
        self.run_plain(trace.requests.iter().cloned(), Some(recorder))
            .0
    }

    /// Runs the fleet over a lazy request stream: requests are routed one
    /// at a time as they are pulled, so the frontend never materialises
    /// the trace. Collecting the same stream and calling
    /// [`FleetEngine::run`] yields a bit-for-bit identical
    /// [`FleetOutcome`] (`tests/streaming_properties.rs` pins this across
    /// every policy).
    pub fn run_stream(&mut self, stream: TraceStream) -> (FleetOutcome, FleetFootprint) {
        self.run_plain(stream, None)
    }

    fn run_plain(
        &mut self,
        source: impl Iterator<Item = Request>,
        recorder: Option<&mut TraceRecorder>,
    ) -> (FleetOutcome, FleetFootprint) {
        let none = FailureSchedule::none();
        let (fleet, run) = self.run_fleet(source, &FleetPolicies::plain(&none), recorder);
        (fleet, run.footprint)
    }

    /// The one fleet loop behind every `run*` entry point: routes the
    /// source (and crash retries) open-loop into live replicas, resolves
    /// crashes and control instants as they come, and merges the replicas
    /// once the last arrival is routed (then finalizes the recorder at the
    /// makespan). See the module docs.
    ///
    /// # Panics
    ///
    /// Panics if the failure schedule strikes a replica outside the fleet.
    pub(crate) fn run_fleet(
        &self,
        source: impl Iterator<Item = Request>,
        policies: &FleetPolicies<'_>,
        recorder: Option<&mut TraceRecorder>,
    ) -> (FleetOutcome, FleetRun) {
        let n = self.config.replicas;
        if let Some(max) = policies.schedule.max_replica() {
            assert!(
                max.index() < n,
                "failure schedule strikes {max}, but the fleet has {n} replicas"
            );
        }
        let mut run = FleetLoop::new(&self.config, policies, recorder, source);

        let crash_times = policies.schedule.crash_times();
        let control = policies
            .elastic
            .filter(|cfg| cfg.autoscaler.is_elastic() || cfg.admission.is_some());
        let mut ci = 0usize;
        let mut k = 1u64;
        loop {
            // Controllers that cannot possibly act skip control instants
            // entirely; the rest run one every interval while arrivals (or
            // pending retries) remain.
            let more_work = run.source.peek().is_some() || !run.pending.is_empty();
            let next_control = control
                .filter(|_| more_work)
                .map(|cfg| SimTime::from_secs(k as f64 * cfg.autoscaler.control_interval_s));
            let next_crash = crash_times.get(ci).copied();
            let b = match (next_crash, next_control) {
                (None, None) => break,
                (Some(c), None) => c,
                (None, Some(t)) => t,
                (Some(c), Some(t)) => c.min(t),
            };
            // At `b`: crashes resolve first, then the arrivals due at
            // exactly `b` are routed, and only then does the control
            // observation read the post-crash fleet with them in it.
            run.route_up_to(Bound::Excluded(b));
            if next_crash == Some(b) {
                run.crash_boundary(b);
                ci += 1;
            }
            run.route_up_to(Bound::Included(b));
            if let Some(cfg) = control.filter(|_| next_control == Some(b)) {
                run.control_boundary(b, cfg);
                k += 1;
            }
        }
        run.route_up_to(Bound::Unbounded);
        run.finish()
    }
}

/// What a fleet run composes on top of routing.
pub(crate) struct FleetPolicies<'a> {
    /// When replicas crash and recover ([`FailureSchedule::none`] for
    /// none).
    pub schedule: &'a FailureSchedule,
    /// What a crash casualty gets.
    pub retry: RetryPolicy,
    /// The per-replica circuit breaker, if armed.
    pub breaker: Option<CircuitBreakerConfig>,
    /// The autoscaler and admission controller, if the run is elastic.
    pub elastic: Option<&'a ElasticConfig>,
}

impl<'a> FleetPolicies<'a> {
    /// A plain run: every replica always up and routable.
    fn plain(none: &'a FailureSchedule) -> Self {
        FleetPolicies {
            schedule: none,
            retry: RetryPolicy::none(),
            breaker: None,
            elastic: None,
        }
    }
}

/// The frontend ledgers of a fleet run, next to its [`FleetOutcome`];
/// each entry point keeps the parts its outcome type carries.
#[derive(Default)]
pub(crate) struct FleetRun {
    pub failed: Vec<FailedRequest>,
    pub shed: Vec<ShedRequest>,
    pub scale_events: Vec<FleetScaleEvent>,
    pub route_instants: Vec<SimTime>,
    pub elasticity: ElasticityStats,
    pub reliability: ReliabilityStats,
    pub footprint: FleetFootprint,
}

/// Lifecycle of one fleet slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Life {
    /// Provisioned but never activated: no capacity cost, not routable.
    Cold,
    /// Active. Routable from `since` (activation instant, or the end of
    /// the provisioning delay for a scale-up).
    Active { since: SimTime },
    /// Drained and retired at `at`; re-activatable by a later scale-up.
    Retired { at: SimTime },
}

/// A fleet replica's live sim. Its scheduler is `Send`, so replicas can
/// advance on the worker pool.
pub(crate) type LiveSim = ReplicaSim<Box<ServingEngine<dyn Scheduler + Send>>>;

/// One replica slot: its live sim (built at the first injection after the
/// slot starts or restarts, so cold and idle slots cost nothing), the
/// recorder observing that sim in traced runs, and the outcome merged from
/// its finished segments.
#[derive(Default)]
struct Slot {
    live: Option<(LiveSim, Option<TraceRecorder>)>,
    merged: Option<RunOutcome>,
}

/// Advances one live replica with its own recorder as the sink.
fn with_sink<R>(
    live: &mut (LiveSim, Option<TraceRecorder>),
    f: impl FnOnce(&mut LiveSim, &mut dyn TraceSink) -> R,
) -> R {
    let (sim, child) = live;
    match child {
        Some(child) => f(sim, child),
        None => f(sim, &mut NoopSink),
    }
}

/// Mutable state of one fleet run.
pub(crate) struct FleetLoop<'a, I: Iterator<Item = Request>> {
    pub(crate) n: usize,
    pub(crate) policies: &'a FleetPolicies<'a>,
    system: SystemUnderTest,
    parallel: bool,
    /// The run's recorder, if traced; each live replica records into a
    /// child of the same config, absorbed when its segment ends.
    pub(crate) rec: Option<&'a mut TraceRecorder>,
    /// A fresh router per run, so routing is a pure function of the
    /// configuration and the arrivals.
    pub(crate) router: Box<dyn Router>,
    source: Peekable<I>,
    pub(crate) life: Vec<Life>,
    tracker: FleetLoadTracker,
    breaker: Option<CircuitBreaker>,
    pub(crate) admission: Option<AdmissionController>,
    pub(crate) autoscaler: Option<Autoscaler>,
    slots: Vec<Slot>,
    assignments: Vec<(RequestId, ReplicaId)>,
    assigned: Vec<usize>,
    /// Retries waiting for their backoff to elapse, keyed by
    /// (re-arrival, id) — the deterministic interleave order with
    /// original arrivals.
    pending: BTreeMap<(SimTime, RequestId), Request>,
    retries_used: BTreeMap<RequestId, u32>,
    casualty_ids: BTreeSet<RequestId>,
    /// The ledgers the run returns.
    pub(crate) out: FleetRun,
    /// Pending retries plus requests injected into live replicas since
    /// their last crash or drain.
    resident: usize,
    /// Fleet-wide unresolved backlog measured at the last control
    /// instant; the admission controller's saturation baseline.
    pub(crate) last_observed_backlog: u64,
    /// Worst-case tokens routed since that observation — the running
    /// correction that lets admission react *between* control instants.
    pub(crate) routed_since_observation: u64,
    /// Accumulated active span per replica (activation to retirement), in
    /// sim-seconds; still-active spans are closed at the makespan.
    pub(crate) active_spans_s: Vec<f64>,
}

impl<'a, I: Iterator<Item = Request>> FleetLoop<'a, I> {
    fn new(
        config: &FleetConfig,
        policies: &'a FleetPolicies<'a>,
        rec: Option<&'a mut TraceRecorder>,
        source: I,
    ) -> Self {
        let n = config.replicas;
        let initial = policies.elastic.map_or(n, |cfg| cfg.initial_replicas);
        FleetLoop {
            n,
            policies,
            system: config.replica_system(),
            parallel: config.parallel,
            rec,
            router: config.policy.build(),
            source: source.peekable(),
            life: (0..n)
                .map(|r| {
                    if r < initial {
                        Life::Active {
                            since: SimTime::ZERO,
                        }
                    } else {
                        Life::Cold
                    }
                })
                .collect(),
            tracker: FleetLoadTracker::new(n),
            breaker: policies.breaker.map(|cfg| CircuitBreaker::new(cfg, n)),
            admission: policies
                .elastic
                .and_then(|cfg| cfg.admission)
                .map(AdmissionController::new),
            autoscaler: policies.elastic.map(|cfg| Autoscaler::new(cfg.autoscaler)),
            slots: (0..n).map(|_| Slot::default()).collect(),
            assignments: Vec::new(),
            assigned: vec![0; n],
            pending: BTreeMap::new(),
            retries_used: BTreeMap::new(),
            casualty_ids: BTreeSet::new(),
            out: FleetRun {
                reliability: ReliabilityStats {
                    crashes: policies.schedule.events().len() as u64,
                    downtime_s: policies.schedule.total_downtime().as_secs(),
                    ..ReliabilityStats::default()
                },
                elasticity: ElasticityStats {
                    min_active_replicas: initial as u64,
                    max_active_replicas: initial as u64,
                    ..ElasticityStats::default()
                },
                ..FleetRun::default()
            },
            resident: 0,
            last_observed_backlog: 0,
            routed_since_observation: 0,
            active_spans_s: vec![0.0; n],
        }
    }

    fn grow_resident(&mut self) {
        self.resident += 1;
        let peak = &mut self.out.footprint.peak_resident_requests;
        *peak = (*peak).max(self.resident);
    }

    /// Routes every arrival — source requests (behind the admission
    /// controller, when armed) and pending retries (which bypass it)
    /// interleaved by (arrival, id) — up to `end`. The source is pulled
    /// lazily: nothing beyond the boundary is ever materialised.
    fn route_up_to(&mut self, end: Bound<SimTime>) {
        let in_window = |t: SimTime| match end {
            Bound::Included(e) => t <= e,
            Bound::Excluded(e) => t < e,
            Bound::Unbounded => true,
        };
        loop {
            let original_key = self
                .source
                .peek()
                .map(|req| (req.arrival, req.id))
                .filter(|&(at, _)| in_window(at));
            let retry_key = self
                .pending
                .first_key_value()
                .map(|(&key, _)| key)
                .filter(|&(at, _)| in_window(at));
            // Pick the earlier of the two streams by (arrival, id); an
            // original can never share its id with a pending retry, so the
            // order is total.
            let take_retry = match (original_key, retry_key) {
                (None, None) => break,
                (Some(okey), Some(rkey)) => rkey < okey,
                (None, Some(_)) => true,
                (Some(_), None) => false,
            };
            if take_retry {
                let key = retry_key.expect("a retry is due");
                let retry = self.pending.remove(&key).expect("key just seen");
                self.resident -= 1;
                self.route(retry, true);
            } else {
                let req = self.source.next().expect("peeked above");
                self.out.footprint.streamed_requests += 1;
                if self.admit(&req) {
                    self.route(req, false);
                }
            }
        }
    }

    /// Routes one attempt and injects it into the chosen replica's live
    /// sim.
    fn route(&mut self, req: Request, retry: bool) {
        let (replica, start) = self.pick(&req);
        let mut placed = req;
        placed.arrival = start;
        self.assignments.push((placed.id, replica));
        self.out.route_instants.push(start);
        self.assigned[replica.index()] += 1;
        let trace_config = self.rec.as_deref().map(TraceRecorder::config);
        let system = &self.system;
        let (sim, child) = self.slots[replica.index()].live.get_or_insert_with(|| {
            (
                ReplicaSim::new(Box::new(system.build_replica_engine())),
                trace_config.map(TraceRecorder::new),
            )
        });
        if let (true, Some(child)) = (retry, child) {
            child.note_retry(placed.id);
        }
        sim.inject(placed);
        self.grow_resident();
    }

    /// Picks the replica for one attempt at its arrival instant, among
    /// those active, past provisioning, up per the failure schedule and not
    /// held open by the breaker — falling back, when none qualifies, to the
    /// active replica that becomes routable earliest (ties to the lowest
    /// id). Returns the replica and the instant the attempt arrives there.
    fn pick(&mut self, req: &Request) -> (ReplicaId, SimTime) {
        let n = self.n;
        let t = req.arrival;
        let schedule = self.policies.schedule;
        let breaker = self.breaker.as_ref();
        let life = &self.life;
        let candidates = healthy_candidates(n, |r| {
            !matches!(life[r.index()], Life::Active { since } if since <= t)
                || schedule.is_down(r, t)
                || breaker.is_some_and(|b| b.is_open(r, t))
        });
        let route_req = RouteRequest::of(req);
        let (replica, start) = if candidates.is_empty() {
            let mut best: Option<(SimTime, usize)> = None;
            for (r, &l) in life.iter().enumerate() {
                if let Life::Active { since } = l {
                    let rid = ReplicaId::from(r);
                    let mut ready = schedule.next_up(rid, t.max(since));
                    if let Some(bk) = breaker {
                        ready = ready.max(bk.open_until(rid));
                    }
                    if best.is_none_or(|(earliest, _)| ready < earliest) {
                        best = Some((ready, r));
                    }
                }
            }
            let (ready, r) = best.expect("at least one replica stays active");
            (ReplicaId::from(r), ready.max(t))
        } else {
            let loads = self.tracker.loads();
            (self.router.route(&route_req, loads, &candidates), t)
        };
        assert!(
            replica.index() < n,
            "router returned out-of-range {replica}"
        );
        self.tracker.on_assign(replica, &route_req);
        self.routed_since_observation = self
            .routed_since_observation
            .saturating_add(route_req.queued_tokens());
        (replica, start)
    }

    /// Replica `r`'s live sim, if its slot holds one.
    pub(crate) fn live_sim(&mut self, r: usize) -> Option<&mut LiveSim> {
        self.slots[r].live.as_mut().map(|(sim, _)| sim)
    }

    /// Runs `f` on the live sims of `replicas` — on the worker pool when
    /// the fleet is parallel — and returns the results in replica-id
    /// order. Replicas without a live sim are skipped.
    pub(crate) fn advance_each<R: Send>(
        &mut self,
        replicas: &[usize],
        f: impl Fn(&mut LiveSim, &mut dyn TraceSink) -> R + Sync,
    ) -> Vec<(usize, R)> {
        let (ids, sims): (Vec<usize>, Vec<_>) = self
            .slots
            .iter_mut()
            .enumerate()
            .filter(|(r, _)| replicas.contains(r))
            .filter_map(|(r, slot)| slot.live.as_mut().map(|l| (r, l)))
            .unzip();
        let results = if self.parallel {
            run_each_mut(sims, |l| with_sink(l, &f))
        } else {
            sims.into_iter().map(|l| with_sink(l, &f)).collect()
        };
        ids.into_iter().zip(results).collect()
    }

    /// Ends replica `r`'s current segment: its recording is absorbed, its
    /// outcome merges into the replica's, and the slot restarts empty.
    /// Returns the segment's `sim_time`.
    pub(crate) fn end_segment(&mut self, r: usize) -> SimTime {
        let (sim, child) = self.slots[r].live.take().expect("segment is live");
        self.resident -= sim.injected();
        if let (Some(rec), Some(child)) = (self.rec.as_deref_mut(), child) {
            rec.merge_child(ReplicaId::from(r), child);
        }
        let outcome = sim.finish();
        let sim_time = outcome.sim_time;
        self.slots[r]
            .merged
            .get_or_insert_with(RunOutcome::default)
            .absorb(outcome);
        sim_time
    }

    /// Resolves every crash striking at `b`: each crashing replica advances
    /// through `b`, and whatever it had not completed or rejected by then
    /// becomes a casualty.
    fn crash_boundary(&mut self, b: SimTime) {
        let events = self.policies.schedule.events();
        if let Some(r) = self.rec.as_deref_mut() {
            for event in events.iter().filter(|e| e.crash == b) {
                r.crash(b, event.replica);
                r.recover(event.recover, event.replica);
            }
        }
        // Events are sorted by (crash, replica): casualties settle in
        // replica-id order.
        let crashing: Vec<usize> = events
            .iter()
            .filter(|e| e.crash == b)
            .map(|e| e.replica.index())
            .collect();
        for (r, casualties) in self.advance_each(&crashing, |sim, sink| sim.crash(b, sink)) {
            self.end_segment(r);
            self.settle_casualties(casualties, ReplicaId::from(r), b);
        }
    }

    /// Resolves the casualties of a crash (or a crash-interrupted drain):
    /// the breaker is fed one failure per casualty, and each casualty is
    /// either re-submitted (arrival `at + backoff`, same request id, full
    /// re-prefill on whatever replica routing picks next) or terminally
    /// failed once its retry budget is spent.
    pub(crate) fn settle_casualties(
        &mut self,
        casualties: Vec<Request>,
        replica: ReplicaId,
        at: SimTime,
    ) {
        let retry_policy = self.policies.retry;
        for req in casualties {
            self.out.reliability.failed_attempts += 1;
            self.casualty_ids.insert(req.id);
            if let Some(r) = self.rec.as_deref_mut() {
                r.casualty(at, req.id);
            }
            if let Some(bk) = self.breaker.as_mut() {
                if bk.record_failure(replica, at) {
                    if let Some(r) = self.rec.as_deref_mut() {
                        r.breaker_open(at, replica);
                    }
                }
            }
            let used = self.retries_used.get(&req.id).copied().unwrap_or(0);
            if retry_policy.allows(used) {
                let attempt = used + 1;
                self.retries_used.insert(req.id, attempt);
                let mut retry = req;
                retry.arrival = at + retry_policy.backoff(attempt);
                self.out.reliability.retries_scheduled += 1;
                self.out.reliability.re_prefilled_tokens += retry.input_len;
                if let Some(r) = self.rec.as_deref_mut() {
                    r.retry_scheduled(at, retry.id, attempt, retry.arrival);
                }
                self.pending.insert((retry.arrival, retry.id), retry);
                self.grow_resident();
            } else {
                self.out.reliability.retries_exhausted += 1;
                let reason = format!(
                    "{replica} crashed at {at} with no retry budget left ({used} of {} used)",
                    retry_policy.max_retries
                );
                if let Some(r) = self.rec.as_deref_mut() {
                    r.request_failed(at, req.id, &reason);
                }
                self.out.failed.push(FailedRequest {
                    id: req.id,
                    at,
                    replica,
                    reason,
                });
            }
        }
    }

    /// Runs every live replica to completion and merges the fleet: records
    /// and rejections in request-id order, counters summed in replica-id
    /// order. The recorder, if any, is finalized at the makespan.
    fn finish(mut self) -> (FleetOutcome, FleetRun) {
        let all: Vec<usize> = (0..self.n).collect();
        self.advance_each(&all, |sim, sink| sim.run_to_end(sink));
        for r in 0..self.n {
            if self.slots[r].live.is_some() {
                self.end_segment(r);
            }
        }
        let mut total = RunOutcome::default();
        let mut per_replica = Vec::with_capacity(self.n);
        for (r, slot) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            let outcome = slot.merged.unwrap_or_default();
            total.absorb(outcome.clone());
            per_replica.push(ReplicaOutcome {
                replica: ReplicaId::from(r),
                assigned: self.assigned[r],
                outcome,
            });
        }
        let RunOutcome {
            mut records,
            mut rejected,
            unfinished,
            sim_time,
            iterations,
            migration_bytes,
            scheduler_calls,
            pressure,
            cache,
            ..
        } = total;
        records.sort_by_key(|r| r.id);
        rejected.sort_by_key(|r| r.0);
        self.out.failed.sort_by_key(|f| f.id);
        self.out.shed.sort_by_key(|s| s.id);

        self.out.reliability.recovered_requests = self
            .casualty_ids
            .iter()
            .filter(|id| records.binary_search_by_key(*id, |r| r.id).is_ok())
            .count() as u64;
        if let Some(bk) = &self.breaker {
            self.out.reliability.breaker_opens = bk.opens();
        }
        // Replica-seconds: every span from activation (routable) to
        // retirement; replicas still active close their span at the fleet
        // makespan. The denominator of SLO-goodput per replica-second.
        for r in 0..self.n {
            if let Life::Active { since } = self.life[r] {
                self.active_spans_s[r] += sim_time.saturating_since(since).as_secs();
            }
        }
        self.out.elasticity.replica_seconds = self.active_spans_s.iter().sum();

        let fleet = FleetOutcome {
            per_replica,
            assignments: self.assignments,
            records,
            rejected,
            unfinished,
            sim_time,
            iterations,
            migration_bytes,
            scheduler_calls,
            pressure,
            cache,
        };
        if let Some(rec) = self.rec {
            rec.finalize(fleet.sim_time);
        }
        (fleet, self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::WorkloadSpec;
    use loong_workload::datasets::DatasetKind;

    fn small_trace(count: usize, seed: u64) -> Trace {
        WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(8.0, count, seed)
    }

    #[test]
    fn fleet_accounts_for_every_request() {
        let config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
        let mut fleet = FleetEngine::new(config);
        let trace = small_trace(24, 3);
        let outcome = fleet.run(&trace);
        assert_eq!(outcome.replicas(), 2);
        assert_eq!(outcome.total_requests(), 24);
        assert_eq!(outcome.assignments.len(), 24);
        assert_eq!(
            outcome
                .per_replica
                .iter()
                .map(|r| r.assigned)
                .sum::<usize>(),
            24
        );
        // Round-robin over an even count splits exactly in half.
        assert_eq!(outcome.per_replica[0].assigned, 12);
        assert_eq!(outcome.per_replica[1].assigned, 12);
        assert!(outcome.records.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn parallel_and_serial_replica_execution_agree() {
        let trace = small_trace(20, 7);
        let run = |parallel: bool| {
            let mut config = FleetConfig::paper_fleet(
                SystemKind::LoongServe,
                3,
                RouterPolicy::JoinShortestQueue,
            );
            config.parallel = parallel;
            FleetEngine::new(config).run(&trace)
        };
        let serial = run(false);
        let parallel = run(true);
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.rejected, parallel.rejected);
        assert_eq!(serial.iterations, parallel.iterations);
        assert_eq!(serial.sim_time, parallel.sim_time);
    }

    #[test]
    fn fleet_summary_merges_and_breaks_down() {
        let config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
        let mut fleet = FleetEngine::new(config);
        let trace = small_trace(16, 5);
        let outcome = fleet.run(&trace);
        let summary = outcome.summary(
            "LoongServe x2",
            "ShareGPT",
            8.0,
            &SloSpec::default_for_lwm(),
        );
        assert_eq!(summary.replicas(), 2);
        assert_eq!(
            summary.fleet.completed,
            summary
                .per_replica
                .iter()
                .map(|s| s.completed)
                .sum::<usize>()
        );
        assert_eq!(summary.fleet.completed, outcome.records.len());
    }

    #[test]
    fn reusing_one_engine_reproduces_the_run() {
        // 21 % 2 != 0: a round-robin counter surviving the first run would
        // shift the second run's assignments by one; a power-of-two probe
        // stream surviving would shift every probe pair.
        let trace = small_trace(21, 13);
        for policy in [
            RouterPolicy::RoundRobin,
            RouterPolicy::PowerOfTwoChoices { seed: 5 },
        ] {
            let mut fleet =
                FleetEngine::new(FleetConfig::paper_fleet(SystemKind::LoongServe, 2, policy));
            let a = fleet.run(&trace);
            let b = fleet.run(&trace);
            assert_eq!(a.assignments, b.assignments, "{policy:?}");
            assert_eq!(a.records, b.records, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replica_fleet_is_rejected() {
        let config = FleetConfig {
            replicas: 0,
            ..FleetConfig::paper_fleet(SystemKind::LoongServe, 1, RouterPolicy::Passthrough)
        };
        let _ = FleetEngine::new(config);
    }
}
