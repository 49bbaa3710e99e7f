//! The serving engine: a discrete-event simulation of one serving system.
//!
//! The engine owns everything a real serving frontend plus cluster would
//! own — the request lifecycle, the elastic instances, the unified KV pool,
//! and the clock — and delegates *policy* to a [`Scheduler`]. At every
//! scheduling point (a request arrival while resources are idle, or an
//! iteration/migration completing) it builds a
//! [`SchedulerView`](loong_sched::types::SchedulerView), executes
//! the returned [`Action`]s through the ESP mechanisms, and advances the
//! clock by the cost model's predicted iteration latencies.
//!
//! The same engine runs LoongServe and every baseline; only the scheduler
//! and the tensor-parallel degree of the elastic instances differ.

use loong_cluster::gpu::LinkSpec;
use loong_cluster::memory::{HostMemoryBudget, MemoryBudget};
use loong_cluster::topology::ClusterSpec;
use loong_esp::decode::{execute_decode, DecodePlan};
use loong_esp::group::EspGroup;
use loong_esp::instance::InstanceRegistry;
use loong_esp::prefill::{execute_prefill, PrefillPlan, PrefillRequest};
use loong_esp::scaling::migrate_request;
use loong_kvcache::placement::PlacementStrategy;
use loong_kvcache::prefix::{PrefixCacheConfig, PrefixDemand};
use loong_kvcache::unified::UnifiedKvPool;
use loong_metrics::cache::CacheStats;
use loong_metrics::pressure::PressureStats;
use loong_metrics::record::RequestRecord;
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};
use loong_model::sib::ScalingInfoBase;
use loong_sched::types::{
    Action, DecodingRequest, PendingRequest, ScalingEvent, Scheduler, SwappedRequest, ViewScratch,
};
use loong_simcore::events::EventQueue;
use loong_simcore::ids::{ConversationId, GroupId, IdAllocator, InstanceId, RequestId};
use loong_simcore::profile;
use loong_simcore::rng::SimRng;
use loong_simcore::table::{PhaseClass, RequestTable};
use loong_simcore::time::{SimDuration, SimTime};
use loong_trace::{AdmitInfo, Gauges, NoopSink, SpanPhase, Terminal, TraceSink};
use loong_workload::request::Request;
use loong_workload::trace::Trace;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::DerefMut;

/// Fraction of GPU memory reserved for activations and buffers.
const WORKSPACE_FRACTION: f64 = 0.10;

/// Measurement noise injected when profiling the SIB.
const SIB_NOISE: f64 = 0.01;

/// Static configuration of a serving-engine run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Tensor-parallel degree of each elastic instance.
    pub tp: usize,
    /// The model being served.
    pub model: ModelConfig,
    /// Seed for all engine-internal randomness.
    pub seed: u64,
    /// Hard cap on simulated time; requests still in flight when it is
    /// reached are dropped from the records. `None` means no cap.
    pub max_sim_time: Option<SimDuration>,
    /// The host-DRAM KV swap tier. `None` (the default) disables it: no
    /// host pool exists and swap actions are rejected, keeping every run
    /// bit-for-bit on the pre-subsystem path.
    pub host_swap: Option<HostSwapConfig>,
    /// Per-instance KV slot capacity override for overload experiments;
    /// `None` computes the capacity from the memory budget as always.
    pub kv_capacity_override: Option<u64>,
    /// The prefix-cache tier. `None` (the default) disables it: finished
    /// requests release their KV exactly as before and no lookup, retention
    /// or eviction code runs, keeping every run bit-for-bit on the
    /// pre-tier path.
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Attention-cost policy the run's cost model prices attention with.
    /// `Dense` (the default) keeps every run bit-for-bit on the pre-policy
    /// path; the sparse policies model LServe-style attention kernels.
    pub attention: AttentionCostPolicy,
}

/// Configuration of the host-DRAM KV swap tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSwapConfig {
    /// Host pool capacity in KV token slots (cluster-wide).
    pub capacity_tokens: u64,
    /// The device↔host link swap transfers are costed on (PCIe).
    pub link: LinkSpec,
}

impl HostSwapConfig {
    /// Sizes the tier from the cluster's per-node DRAM: total host memory
    /// across nodes, minus the reserved fraction, divided by the model's
    /// whole-footprint KV bytes per token.
    pub fn from_cluster(
        cluster: &ClusterSpec,
        model: &ModelConfig,
        reserved_fraction: f64,
    ) -> Self {
        let budget = HostMemoryBudget::new(
            cluster.host_memory_bytes * cluster.nodes as f64,
            reserved_fraction,
            model.kv_bytes_per_token(),
        );
        HostSwapConfig {
            capacity_tokens: budget.kv_slot_capacity(),
            link: cluster.host_link,
        }
    }

    /// An explicitly sized tier over the cluster's host link (small hosts
    /// for fallback tests, huge ones for stress scenarios).
    pub fn with_tokens(cluster: &ClusterSpec, capacity_tokens: u64) -> Self {
        HostSwapConfig {
            capacity_tokens,
            link: cluster.host_link,
        }
    }
}

impl EngineConfig {
    /// The paper's single-node LoongServe configuration: 8 A800 GPUs, TP=2
    /// (four elastic instances), serving LWM-1M-Text.
    pub fn paper_single_node() -> Self {
        EngineConfig {
            cluster: ClusterSpec::single_node_a800(8),
            tp: 2,
            model: ModelConfig::lwm_1m_text(),
            seed: 0x1005e,
            max_sim_time: None,
            host_swap: None,
            kv_capacity_override: None,
            prefix_cache: None,
            attention: AttentionCostPolicy::Dense,
        }
    }

    /// KV slot capacity of one elastic instance under this configuration.
    pub fn instance_kv_capacity(&self) -> u64 {
        let budget = MemoryBudget::new(
            &self.cluster.gpu,
            self.model.weight_bytes_per_gpu(self.tp),
            WORKSPACE_FRACTION,
            self.model.kv_bytes_per_token_per_gpu(self.tp),
        );
        budget.kv_slot_capacity()
    }
}

/// Per-request dynamic state inside the engine.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Waiting in the pending queue; `prefilled` prompt tokens already
    /// processed by chunked-prefill iterations.
    Pending { prefilled: u64 },
    /// A full prefill iteration is in flight.
    Prefilling,
    /// In the decode phase, ready for the next iteration.
    DecodeReady { generated: u64 },
    /// A decode iteration is in flight.
    Decoding { generated: u64 },
    /// KV is being migrated between instances.
    Migrating { generated: u64 },
    /// KV is being copied to the host swap tier (D2H transfer in flight).
    SwappingOut { generated: u64 },
    /// Fully parked on the host swap tier, waiting for pressure to clear.
    Swapped { generated: u64 },
    /// KV is being restored from the host swap tier (H2D in flight).
    SwappingIn { generated: u64 },
    /// All output tokens produced.
    Finished,
    /// Rejected by the scheduler.
    Rejected,
}

impl Phase {
    /// The coarse class used by the request table's phase indices.
    fn class(&self) -> PhaseClass {
        match self {
            Phase::Pending { .. } => PhaseClass::Pending,
            Phase::DecodeReady { .. } => PhaseClass::DecodeReady,
            Phase::Prefilling
            | Phase::Decoding { .. }
            | Phase::Migrating { .. }
            | Phase::SwappingOut { .. }
            | Phase::SwappingIn { .. } => PhaseClass::InFlight,
            Phase::Swapped { .. } => PhaseClass::Swapped,
            Phase::Finished | Phase::Rejected => PhaseClass::Done,
        }
    }
}

#[derive(Debug, Clone)]
struct RequestState {
    request: Request,
    phase: Phase,
    prefill_start: Option<SimTime>,
    first_token: Option<SimTime>,
    finish: Option<SimTime>,
    preemptions: u32,
    /// Decode checkpoint of a preempt-and-recompute eviction: output tokens
    /// generated before the KV was discarded. The next prefill recomputes
    /// the KV of prompt *and* checkpointed tokens (vLLM's recompute
    /// semantics) and decoding resumes here rather than restarting — zero
    /// for never-preempted requests.
    resume_generated: u64,
    /// Prompt tokens adopted from the prefix cache at prefill dispatch;
    /// their KV was renamed in place, so the prefill processes (and is
    /// charged for) only the remaining suffix. Reset to zero by a
    /// preempt-and-recompute eviction, which discards the adopted KV along
    /// with everything else. Always zero with the tier disabled.
    reused: u64,
    /// True while the request may still adopt its conversation's cached
    /// prefix: set at arrival for conversation-tagged requests when the
    /// tier is enabled, cleared at its first prefill dispatch (hit or
    /// miss) or rejection. Mirrors one waiter pin in the prefix cache.
    waiting: bool,
}

impl RequestState {
    /// The prompt the next prefill must process: the original input plus
    /// any checkpointed output tokens whose KV a preemption discarded,
    /// minus tokens adopted from the prefix cache.
    fn effective_input(&self) -> u64 {
        self.request.input_len + self.resume_generated - self.reused
    }

    /// The declared output bound still ahead of the checkpoint; shrinks
    /// after a preemption so `effective_input + remaining_max_output` is
    /// invariant across evictions (admission reservations stay stable).
    fn remaining_max_output(&self) -> u64 {
        self.request
            .max_output_len
            .saturating_sub(self.resume_generated)
    }
}

/// Builds the scheduler-view entry for a pending request.
///
/// With the prefix cache enabled, the advertised `input_len` is the
/// *uncached suffix*: the prompt tokens a prefill would actually have to
/// process after adopting the conversation's retained prefix. Re-matching
/// here — at every scheduling point — is what lets a follow-up that arrived
/// while its previous turn was still decoding start hitting the cache the
/// moment that turn finishes. Admission (KV reservation and the batching
/// DP budget) therefore prices the suffix, not the full prompt; the cached
/// tokens are already allocated in the pool. With the tier disabled the
/// lookup short-circuits to zero and the entry is bit-for-bit the old one.
fn pending_entry(s: &RequestState, prefilled: u64, pool: &UnifiedKvPool) -> PendingRequest {
    let cached = if s.waiting {
        let conversation = s
            .request
            .conversation
            .expect("waiting requests have a conversation");
        pool.prefix_match_len(conversation, s.effective_input())
    } else {
        0
    };
    PendingRequest {
        id: s.request.id,
        arrival: s.request.arrival,
        input_len: s.effective_input() - cached,
        prefilled_len: prefilled,
        max_output_len: s.remaining_max_output(),
    }
}

/// Incrementally maintained idle/busy partition of the elastic instances.
///
/// Replaces the per-point re-filtering of `all_ids()` against a
/// `busy_until` map: dispatch moves an instance idle→busy, work completion
/// moves it back, and both sides iterate in instance-id order so the
/// scheduler view stays bit-for-bit identical to the old sorted rebuild.
#[derive(Debug)]
struct InstanceTracker {
    idle: BTreeSet<InstanceId>,
    busy: BTreeMap<InstanceId, SimTime>,
}

impl InstanceTracker {
    fn new(num_instances: usize) -> Self {
        InstanceTracker {
            idle: (0..num_instances).map(InstanceId::from).collect(),
            busy: BTreeMap::new(),
        }
    }

    /// Marks `instance` busy until `until`.
    fn dispatch(&mut self, instance: InstanceId, until: SimTime) {
        self.idle.remove(&instance);
        self.busy.insert(instance, until);
    }

    /// Marks `instance` idle again once its iteration completes.
    fn complete(&mut self, instance: InstanceId) {
        if self.busy.remove(&instance).is_some() {
            self.idle.insert(instance);
        }
    }

    /// When `instance` is busy, the time its iteration ends.
    #[cfg(debug_assertions)]
    fn busy_until(&self, instance: InstanceId) -> Option<SimTime> {
        self.busy.get(&instance).copied()
    }

    /// Copies the idle and busy sets into the view scratch buffers, in
    /// instance-id order.
    fn fill_view(&self, scratch: &mut ViewScratch) {
        scratch.idle.extend(self.idle.iter().copied());
        scratch.busy.extend(self.busy.iter().map(|(&i, &t)| (i, t)));
    }
}

/// Running mean of finished requests' decode latencies (the `AvgLat_d` term
/// of Eq. 2), maintained as a sum + count instead of re-summing an
/// unbounded vector at every scheduling point. Values are accumulated in
/// finish order, which is exactly the order the old full re-sum visited
/// them, so the floating-point result is bit-for-bit identical.
#[derive(Debug, Default)]
struct DecodeLatencyStats {
    sum: f64,
    count: u64,
}

impl DecodeLatencyStats {
    fn record(&mut self, latency_s: f64) {
        self.sum += latency_s;
        self.count += 1;
    }

    fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// An iteration or migration in flight.
#[derive(Debug)]
enum Work {
    Prefill {
        instances: Vec<InstanceId>,
        requests: Vec<RequestId>,
    },
    Decode {
        instances: Vec<InstanceId>,
        requests: Vec<RequestId>,
    },
    ChunkedPrefill {
        instances: Vec<InstanceId>,
        prefill_request: RequestId,
        /// Prompt tokens processed once this iteration completes.
        prefilled_after: u64,
        decode_requests: Vec<RequestId>,
    },
    Migration {
        request: RequestId,
    },
    /// A preemption teardown: the KV was already freed at action time; the
    /// (epsilon-length) event only guarantees another scheduling point sees
    /// the freed slots.
    Preempt,
    SwapOut {
        request: RequestId,
    },
    SwapIn {
        request: RequestId,
    },
}

/// The result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Completed requests with full lifecycle timestamps.
    pub records: Vec<RequestRecord>,
    /// Requests the scheduler rejected, with reasons.
    pub rejected: Vec<(RequestId, String)>,
    /// Requests neither finished nor rejected when the run ended (overload
    /// or simulated-time cap).
    pub unfinished: usize,
    /// Scaling events reported by the scheduler.
    pub scaling_events: Vec<ScalingEvent>,
    /// Total simulated time of the run.
    pub sim_time: SimTime,
    /// Number of iterations executed (prefill + decode + chunked).
    pub iterations: u64,
    /// Bytes moved by explicit KV migrations.
    pub migration_bytes: f64,
    /// Wall-clock-free sanity counter: scheduler invocations.
    pub scheduler_calls: u64,
    /// Memory-pressure activity: preempt-and-recompute evictions, swap
    /// traffic and stall time. All-zero whenever the run never crossed a
    /// pressure watermark.
    pub pressure: PressureStats,
    /// Prefix-cache activity: lookups, adoptions, reused tokens, saved
    /// prefill seconds and evictions. All-zero whenever the tier is
    /// disabled.
    pub cache: CacheStats,
    /// Total prompt tokens processed by prefill and chunked-prefill
    /// iterations. With the prefix cache enabled this counts only the
    /// uncached suffixes, so on a multi-turn trace it is strictly smaller
    /// than the cache-off figure (the reuse-correctness property pins
    /// this). Fully determined by the iteration stream the golden digests
    /// already pin, so it is not folded into them.
    pub prefilled_tokens: u64,
}

impl RunOutcome {
    /// Folds `later` into this outcome: records and rejections append,
    /// counters sum, simulated time maximises. Merges a replica's segments
    /// and a fleet's replicas alike.
    pub(crate) fn absorb(&mut self, later: RunOutcome) {
        self.records.extend(later.records);
        self.rejected.extend(later.rejected);
        self.unfinished += later.unfinished;
        self.scaling_events.extend(later.scaling_events);
        self.sim_time = self.sim_time.max(later.sim_time);
        self.iterations += later.iterations;
        self.migration_bytes += later.migration_bytes;
        self.scheduler_calls += later.scheduler_calls;
        self.pressure.merge(&later.pressure);
        self.cache.merge(&later.cache);
        self.prefilled_tokens += later.prefilled_tokens;
    }
}

/// The serving engine. `S` is its scheduler's type: any [`Scheduler`] by
/// default, a `Send` one for fleet replicas advancing on the worker pool.
pub struct ServingEngine<S: ?Sized = dyn Scheduler> {
    config: EngineConfig,
    registry: InstanceRegistry,
    cost_model: CostModel,
    sib: ScalingInfoBase,
    scheduler: Box<S>,
}

impl ServingEngine {
    /// Builds an engine for the given configuration and scheduling policy.
    ///
    /// The SIB is profiled immediately (as the real system does offline)
    /// over the parallel configurations reachable with the configured
    /// tensor-parallel degree.
    pub fn new(config: EngineConfig, scheduler: Box<dyn Scheduler>) -> Self {
        Self::with_scheduler(config, scheduler)
    }
}

impl<S: Scheduler + ?Sized> ServingEngine<S> {
    /// [`ServingEngine::new`] for any scheduler type.
    pub(crate) fn with_scheduler(config: EngineConfig, scheduler: Box<S>) -> Self {
        config.cluster.validate().expect("valid cluster");
        config.model.validate().expect("valid model");
        let registry = InstanceRegistry::build(&config.cluster, config.tp);
        let cost_model = CostModel {
            gpu: config.cluster.gpu.clone(),
            attention: config.attention,
            ..CostModel::new(config.model.clone())
        };
        let mut rng = SimRng::seed(config.seed);
        let configs: Vec<ParallelConfig> = (1..=registry.num_instances())
            .map(|sp| ParallelConfig::new(config.tp, sp))
            .collect();
        let sib = ScalingInfoBase::profile(
            &cost_model,
            &configs,
            config.cluster.intra_node_link,
            SIB_NOISE,
            &mut rng,
        );
        ServingEngine {
            config,
            registry,
            cost_model,
            sib,
            scheduler,
        }
    }

    /// The instance registry used by this engine.
    pub fn registry(&self) -> &InstanceRegistry {
        &self.registry
    }

    /// Runs the engine over a trace and returns the outcome.
    ///
    /// Equivalent to [`ServingEngine::run_traced`] with a [`NoopSink`]
    /// (and bit-for-bit identical to it with *any* sink — sinks observe,
    /// they cannot steer).
    pub fn run(&mut self, trace: &Trace) -> RunOutcome {
        self.run_traced(trace, &mut NoopSink)
    }

    /// Runs the engine over a trace, emitting every request lifecycle
    /// edge, cache event and scheduling-point gauge into `sink`: every
    /// request is injected into a `ReplicaSim`, which then advances to the
    /// end of the run.
    pub fn run_traced(&mut self, trace: &Trace, sink: &mut dyn TraceSink) -> RunOutcome {
        let mut sim = ReplicaSim::with_capacity(self, trace.requests.len());
        for req in &trace.requests {
            sim.inject(req.clone());
        }
        sim.run_to_end(sink);
        sim.finish()
    }
}

/// A resumable simulation of one serving replica.
///
/// It owns everything a run keeps between scheduling points: the request
/// table, the arrival and work-completion queues, the KV pool, the
/// idle/busy instance partition, the in-flight work and the counters. The
/// scheduler lives in the [`ServingEngine`] it drives, which the sim owns
/// (a fleet replica) or borrows ([`ServingEngine::run`]).
///
/// Requests are [`inject`](ReplicaSim::inject)ed at any time before their
/// arrival instant, and the sim advances only as far as it is asked to, so
/// a fleet can route arrivals open-loop into live replicas and stop each
/// one exactly where a crash or a control instant needs it. The events of
/// one instant form one batch and one scheduling point: arrivals first, in
/// injection order, then work completions, in dispatch order.
///
/// The loop maintains every scheduler-view input incrementally — phase
/// index sets in the [`RequestTable`], the idle/busy instance partition,
/// the KV residency index, running latency stats — so one scheduling point
/// costs O(active requests + actions) instead of O(all requests ever
/// seen). Debug builds shadow every view with a naive full-scan rebuild
/// and assert equality.
pub(crate) struct ReplicaSim<E> {
    engine: E,
    state: SimState,
}

/// The run state of a [`ReplicaSim`], apart from its engine.
struct SimState {
    pool: UnifiedKvPool,
    cache_on: bool,
    host_link: Option<LinkSpec>,
    /// Whole-model KV footprint: a swapped token leaves every GPU shard.
    kv_bytes_per_token: f64,
    deadline: Option<SimTime>,
    arrivals: EventQueue<RequestId>,
    work: EventQueue<u64>,
    /// The instant of the last batch processed (zero before the first).
    now: SimTime,
    /// True once the deadline stopped the run.
    stopped: bool,
    /// True once a crash turned every unresolved request into a casualty.
    crashed: bool,
    table: RequestTable<RequestState>,
    instances_state: InstanceTracker,
    in_flight: HashMap<u64, Work>,
    work_ids: IdAllocator<RequestId>,
    group_ids: IdAllocator<GroupId>,
    /// Completed requests, in finish order.
    finished: Vec<RequestId>,
    /// Worst-case tokens (`input_len + max_output_len`) of the injected
    /// requests neither completed nor rejected.
    unresolved_tokens: u64,
    /// First entry of `finished` not yet behind an observation window.
    window_cursor: usize,
    /// The counters and rejections of the run so far (its records,
    /// unfinished count, scaling events and makespan are filled in by
    /// [`ReplicaSim::finish`]).
    out: RunOutcome,
    decode_stats: DecodeLatencyStats,
    // Reusable per-point buffers: the steady-state loop never allocates
    // them again.
    scratch: ViewScratch,
    claimed: Vec<InstanceId>,
    #[cfg(debug_assertions)]
    audit: audit::ViewAudit,
}

impl<S: Scheduler + ?Sized, E: DerefMut<Target = ServingEngine<S>>> ReplicaSim<E> {
    /// A sim with nothing injected, its clock at zero.
    pub fn new(engine: E) -> Self {
        Self::with_capacity(engine, 0)
    }

    /// [`ReplicaSim::new`] with room for `requests` injections.
    pub fn with_capacity(engine: E, requests: usize) -> Self {
        let config = &engine.config;
        let capacity = config
            .kv_capacity_override
            .unwrap_or_else(|| config.instance_kv_capacity());
        let num_instances = engine.registry.num_instances();
        let mut pool = UnifiedKvPool::new(num_instances, capacity);
        if let Some(host) = &config.host_swap {
            pool.enable_host_tier(host.capacity_tokens);
        }
        if let Some(prefix) = &config.prefix_cache {
            pool.enable_prefix_cache(*prefix);
        }
        let state = SimState {
            cache_on: pool.prefix_enabled(),
            pool,
            host_link: config.host_swap.as_ref().map(|h| h.link),
            kv_bytes_per_token: config.model.kv_bytes_per_token(),
            deadline: config.max_sim_time.map(|d| SimTime::ZERO + d),
            arrivals: EventQueue::new(),
            work: EventQueue::new(),
            now: SimTime::ZERO,
            stopped: false,
            crashed: false,
            table: RequestTable::with_capacity(requests),
            instances_state: InstanceTracker::new(num_instances),
            in_flight: HashMap::new(),
            work_ids: IdAllocator::new(),
            group_ids: IdAllocator::new(),
            finished: Vec::new(),
            unresolved_tokens: 0,
            window_cursor: 0,
            out: RunOutcome::default(),
            decode_stats: DecodeLatencyStats::default(),
            scratch: ViewScratch::new(),
            claimed: Vec::new(),
            #[cfg(debug_assertions)]
            audit: audit::ViewAudit::default(),
        };
        ReplicaSim { engine, state }
    }

    /// Queues `req` to arrive at `req.arrival`.
    ///
    /// # Panics
    ///
    /// Panics if the sim has already processed an instant at or after the
    /// arrival, or if the id was injected before.
    pub fn inject(&mut self, req: Request) {
        let st = &mut self.state;
        assert!(
            st.out.scheduler_calls == 0 || req.arrival > st.now,
            "request {} arrives at {:?}, but the sim already ran to {:?}",
            req.id,
            req.arrival,
            st.now
        );
        st.unresolved_tokens += req.input_len + req.max_output_len;
        st.arrivals.push(req.arrival, req.id);
        st.table.insert(
            req.id,
            RequestState {
                request: req,
                phase: Phase::Pending { prefilled: 0 },
                prefill_start: None,
                first_token: None,
                finish: None,
                preemptions: 0,
                resume_generated: 0,
                reused: 0,
                waiting: false,
            },
        );
    }

    /// Requests injected so far.
    pub fn injected(&self) -> usize {
        self.state.table.len()
    }

    /// The instant of the next batch, `None` when nothing is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.state.next_event_time()
    }

    /// Processes every batch at or before `t`.
    pub fn advance_through(&mut self, t: SimTime, sink: &mut dyn TraceSink) {
        self.advance(|next| next <= t, sink);
    }

    /// Processes every remaining batch (up to the engine's
    /// `max_sim_time`, when one is set).
    pub fn run_to_end(&mut self, sink: &mut dyn TraceSink) {
        self.advance(|_| true, sink);
    }

    /// Crashes the replica at `at`: work completing by `at` still counts
    /// (the crash interrupts the machine, not the ledger), and every
    /// injected request neither completed nor rejected by then is returned
    /// as a casualty, in id order. The sim is spent afterwards: only
    /// [`ReplicaSim::finish`] remains, and its outcome counts no casualty
    /// as unfinished.
    pub fn crash(&mut self, at: SimTime, sink: &mut dyn TraceSink) -> Vec<Request> {
        self.advance_through(at, sink);
        self.state.crashed = true;
        self.state
            .table
            .iter()
            .filter(|(_, s)| !matches!(s.phase, Phase::Finished | Phase::Rejected))
            .map(|(_, s)| s.request.clone())
            .collect()
    }

    /// Ends the run. Its `sim_time` is the instant of the last batch
    /// processed — or, when a crash or the deadline stopped the run with
    /// events still queued, the instant of the first of those.
    pub fn finish(self) -> RunOutcome {
        let ReplicaSim { engine, state } = self;
        let sim_time = state.next_event_time().unwrap_or(state.now);
        let SimState {
            table,
            finished,
            crashed,
            out,
            ..
        } = state;
        let resolved = finished.len() + out.rejected.len();
        drop(finished);
        let unfinished = if crashed { 0 } else { table.len() - resolved };
        // Consuming the table frees its phase indices before the records
        // are built.
        let records = table
            .into_entries()
            .filter(|(_, s)| matches!(s.phase, Phase::Finished))
            .map(|(_, s)| record_of(&s))
            .collect();
        RunOutcome {
            records,
            unfinished,
            scaling_events: engine.scheduler.scaling_events().to_vec(),
            sim_time,
            ..out
        }
    }

    /// Reads a control window closing at `at` off a sim advanced through
    /// `at`: appends to `window` the completions inside
    /// `(window_start_s, at]` and returns the worst-case tokens
    /// (`input_len + max_output_len`) of the injected requests still
    /// unresolved at `at`.
    pub fn observe(
        &mut self,
        at: SimTime,
        window_start_s: f64,
        window: &mut Vec<RequestRecord>,
    ) -> u64 {
        let st = &mut self.state;
        debug_assert!(
            st.next_event_time().is_none_or(|t| t > at),
            "observe needs a sim advanced through {at:?}"
        );
        let finish_s = |id: RequestId| {
            let s = st.table.get(id).expect("known request");
            s.finish.expect("finished requests finished").as_secs()
        };
        while st.window_cursor < st.finished.len()
            && finish_s(st.finished[st.window_cursor]) <= window_start_s
        {
            st.window_cursor += 1;
        }
        window.extend(
            st.finished[st.window_cursor..]
                .iter()
                .map(|&id| record_of(st.table.get(id).expect("known request"))),
        );
        st.unresolved_tokens
    }

    fn advance(&mut self, mut admit: impl FnMut(SimTime) -> bool, sink: &mut dyn TraceSink) {
        while !self.state.stopped {
            let Some(t) = self.state.next_event_time() else {
                break;
            };
            if !admit(t) {
                break;
            }
            if self.state.deadline.is_some_and(|d| t > d) {
                self.state.stopped = true;
                break;
            }
            self.step(t, sink);
        }
    }

    /// Processes the batch at `now` and runs its scheduling point.
    fn step(&mut self, now: SimTime, sink: &mut dyn TraceSink) {
        let st = &mut self.state;
        st.now = now;
        let mut events = 0;
        // Requests become visible to the scheduler only once their arrival
        // event fires: admission assigns the rank that orders every
        // phase-index iteration.
        while st.arrivals.peek_time() == Some(now) {
            let id = st.arrivals.pop().expect("peeked above").payload;
            st.arrive(id, now, sink);
            events += 1;
        }
        while st.work.peek_time() == Some(now) {
            let wid = st.work.pop().expect("peeked above").payload;
            let work = st.in_flight.remove(&wid).expect("unknown work id");
            st.complete_work(work, now, sink);
            events += 1;
        }
        profile::add_events_popped(events);
        profile::add_sched_points(1);
        st.schedule(&mut self.engine, now, sink);
    }
}

impl SimState {
    /// Sets a request's phase and keeps the table's phase indices in sync.
    ///
    /// Every phase write in the engine goes through here: the phase-index sets
    /// are the *only* source of the scheduler view's pending/decoding lists, so
    /// a direct `phase =` write that skipped the class update would silently
    /// desynchronise them (the debug-build view audit would catch it).
    ///
    /// It is also the tracing chokepoint: each write emits the matching
    /// lifecycle event into the [`TraceSink`] *after* the decision is already
    /// made, so sinks observe every transition but can influence none. Engine
    /// phases map onto trace spans many-to-one — the per-iteration
    /// `DecodeReady`/`Decoding` cycle all maps to [`SpanPhase::Decode`] — and
    /// the emission is elided here whenever the span phase does not change:
    /// recorders would coalesce the repeat anyway, and the decode loop cycles
    /// phases every iteration, so skipping the no-op emission keeps the
    /// tracing overhead proportional to *span* transitions, not engine
    /// iterations. Terminal phases become [`Terminal`] events rather than
    /// spans and are always emitted.
    fn set_phase(&mut self, id: RequestId, phase: Phase, now: SimTime, sink: &mut dyn TraceSink) {
        /// The span a non-terminal engine phase belongs to.
        fn span_of(phase: &Phase) -> Option<SpanPhase> {
            match phase {
                Phase::Pending { .. } => Some(SpanPhase::Queued),
                Phase::Prefilling => Some(SpanPhase::Prefill),
                Phase::DecodeReady { .. } | Phase::Decoding { .. } => Some(SpanPhase::Decode),
                Phase::Migrating { .. } => Some(SpanPhase::Migrate),
                Phase::SwappingOut { .. } => Some(SpanPhase::SwapOut),
                Phase::Swapped { .. } => Some(SpanPhase::SwappedOut),
                Phase::SwappingIn { .. } => Some(SpanPhase::SwapIn),
                Phase::Finished | Phase::Rejected => None,
            }
        }

        match &phase {
            Phase::Finished => sink.on_terminal(now, id, Terminal::Completed),
            Phase::Rejected => sink.on_terminal(now, id, Terminal::Rejected),
            other => {
                let span = span_of(other).expect("non-terminal phase has a span");
                let prev = self.table.get(id).and_then(|s| span_of(&s.phase));
                if prev != Some(span) {
                    sink.on_phase(now, id, span);
                }
            }
        }
        let class = phase.class();
        let state = self.table.get_mut(id).expect("known request");
        state.phase = phase;
        self.table.set_class(id, class);
    }

    fn next_event_time(&self) -> Option<SimTime> {
        match (self.arrivals.peek_time(), self.work.peek_time()) {
            (Some(a), Some(w)) => Some(a.min(w)),
            (a, w) => a.or(w),
        }
    }

    fn arrive(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        self.table.admit(id);
        let s = self.table.get_mut(id).expect("known request");
        sink.on_admitted(
            now,
            AdmitInfo {
                id,
                class: s.request.class,
                conversation: s.request.conversation,
                input_len: s.request.input_len,
                output_len: s.request.output_len,
            },
        );
        if self.cache_on {
            if let Some(conversation) = s.request.conversation {
                // Pin the conversation's (current or future) entry until
                // this request's first prefill.
                s.waiting = true;
                self.pool.prefix_waiter_add(conversation);
            }
        }
        #[cfg(debug_assertions)]
        self.audit.on_arrival(id);
    }

    /// The scheduling point at `now`: prefix-cache housekeeping, the view,
    /// the scheduler call, and the execution of its actions.
    fn schedule<S: Scheduler + ?Sized>(
        &mut self,
        engine: &mut ServingEngine<S>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        // Prefix-cache housekeeping precedes the view so the scheduler
        // sees the post-eviction free slots: watermark eviction keeps
        // retained KV from crowding out admission, and head-of-queue
        // headroom eviction guarantees the FCFS head can always reserve
        // at least what it could reserve with the tier disabled (the
        // no-livelock argument: cached entries can never starve the
        // head, so cache-on runs complete whatever cache-off runs
        // complete).
        if self.cache_on {
            let head = self.table.iter_class(PhaseClass::Pending).next().map(|id| {
                let s = self.table.get(id).expect("indexed request exists");
                PrefixDemand {
                    conversation: s.request.conversation.filter(|_| s.waiting),
                    remaining_input: s.effective_input(),
                    reserve_output: s.remaining_max_output().max(1),
                }
            });
            let evicted = self.pool.prefix_evict_point(head);
            self.note_evictions(evicted, now, sink);
        }

        // Scheduling point: assemble the view from the maintained
        // indices. Iteration order is arrival order for requests and id
        // order for instances — identical to a full rebuild.
        self.scratch.clear();
        for id in self.table.iter_class(PhaseClass::Pending) {
            let s = self.table.get(id).expect("indexed request exists");
            let Phase::Pending { prefilled } = s.phase else {
                unreachable!("pending index out of sync with phase");
            };
            let entry = pending_entry(s, prefilled, &self.pool);
            self.scratch.pending.push(entry);
        }
        for id in self.table.iter_class(PhaseClass::DecodeReady) {
            let s = self.table.get(id).expect("indexed request exists");
            let Phase::DecodeReady { generated } = s.phase else {
                unreachable!("decode-ready index out of sync with phase");
            };
            self.scratch.decoding.push(DecodingRequest {
                id,
                context_len: s.request.input_len + generated,
                generated,
                decode_time_s: s
                    .first_token
                    .map(|ft| now.saturating_since(ft).as_secs())
                    .unwrap_or(0.0),
                kv_instances: self
                    .pool
                    .locations_ref(id)
                    .iter()
                    .map(|&(i, _)| i)
                    .collect(),
            });
        }
        for id in self.table.iter_class(PhaseClass::Swapped) {
            let s = self.table.get(id).expect("indexed request exists");
            let Phase::Swapped { generated } = s.phase else {
                unreachable!("swapped index out of sync with phase");
            };
            self.scratch.swapped.push(SwappedRequest {
                id,
                context_len: s.request.input_len + generated,
                generated,
                tokens: self.pool.swapped_tokens_of(id),
            });
        }
        self.instances_state.fill_view(&mut self.scratch);
        sink.on_gauges(
            now,
            Gauges {
                queue_depth: self.scratch.pending.len() as u64,
                batch_size: self.scratch.decoding.len() as u64,
                kv_utilization: self.pool.active_utilization(),
            },
        );

        #[cfg(debug_assertions)]
        self.audit.check(
            &self.table,
            &self.pool,
            &engine.registry,
            &self.instances_state,
            now,
            &self.scratch,
        );

        let view = self.scratch.view(
            now,
            &self.pool,
            &engine.registry,
            &engine.cost_model,
            &engine.sib,
            self.decode_stats.average(),
        );
        self.out.scheduler_calls += 1;
        let actions = engine.scheduler.schedule(&view);

        self.claimed.clear();
        for action in actions {
            match action {
                Action::Reject { request, reason } => self.reject(request, reason, now, sink),
                Action::Prefill {
                    instances,
                    requests,
                    retain_on,
                } => self.prefill(engine, instances, requests, retain_on, now, sink),
                Action::Decode {
                    instances,
                    masters,
                    requests,
                } => self.decode(engine, instances, masters, requests, now, sink),
                Action::ChunkedPrefill {
                    instances,
                    prefill_request,
                    chunk_tokens,
                    decode_requests,
                } => self.chunked_prefill(
                    engine,
                    instances,
                    prefill_request,
                    chunk_tokens,
                    decode_requests,
                    now,
                    sink,
                ),
                Action::Migrate { request, targets } => {
                    self.migrate(engine, request, targets, now, sink)
                }
                Action::Preempt { request } => self.preempt(request, now, sink),
                Action::SwapOut { request } => self.swap_out(request, now, sink),
                Action::SwapIn { request, targets } => self.swap_in(request, targets, now, sink),
            }
        }
    }

    fn reject(&mut self, id: RequestId, reason: String, now: SimTime, sink: &mut dyn TraceSink) {
        let Some(s) = self.table.get(id) else {
            return;
        };
        if !matches!(s.phase, Phase::Pending { .. }) {
            return;
        }
        self.unresolved_tokens -= s.request.input_len + s.request.max_output_len;
        self.stop_waiting(id);
        self.set_phase(id, Phase::Rejected, now, sink);
        self.out.rejected.push((id, reason));
    }

    #[allow(clippy::too_many_arguments)]
    fn prefill<S: Scheduler + ?Sized>(
        &mut self,
        engine: &ServingEngine<S>,
        instances: Vec<InstanceId>,
        requests: Vec<RequestId>,
        retain_on: Vec<InstanceId>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        if !self.free(&instances) {
            return;
        }
        // Atomic match → reuse: each untouched request consults the prefix
        // index exactly once, at the moment its prefill is dispatched, and
        // a hit renames the cached slots to it in place. The prefill then
        // processes (and the cost model charges) only the uncached suffix —
        // recompute evictions still re-prefill their checkpointed tokens
        // too.
        let mut prefill_reqs: Vec<PrefillRequest> = Vec::new();
        // Per-request (suffix, adopted) pairs of this batch's cache hits,
        // for cost accounting below.
        let mut adopted: Vec<(u64, u64)> = Vec::new();
        for &id in &requests {
            if !matches!(self.phase_of(id), Some(Phase::Pending { .. })) {
                continue;
            }
            if let Some((prompt, tokens)) = self.adopt_prefix(id, now, sink) {
                adopted.push((prompt - tokens, tokens));
            }
            let s = self.table.get(id).expect("known request");
            prefill_reqs.push(PrefillRequest {
                id,
                input_len: s.effective_input(),
            });
        }
        if prefill_reqs.is_empty() {
            return;
        }
        // Admission counted reclaimable slots as free; make good on it
        // before planning the retention placement.
        let needed: u64 = prefill_reqs.iter().map(|r| r.input_len).sum();
        self.evict_for(&retain_on, needed, now, sink);
        // Suffix prefills still attend over their adopted context: charge
        // the extra attention the plain suffix cost omits (zero when
        // nothing was adopted), exactly as the chunked path spans its
        // chunk over the processed prefix.
        let mut context_surcharge_s = 0.0f64;
        if !adopted.is_empty() {
            let parallel = ParallelConfig::new(engine.registry.tp(), instances.len());
            let link = engine.registry.link_between(&instances);
            for &(suffix, reused) in &adopted {
                context_surcharge_s += engine
                    .cost_model
                    .cached_context_attention_s(suffix, reused, parallel);
            }
            // Saved-prefill accounting: what prefilling the adopted tokens
            // would have cost on this group, batched per request
            // (attention is quadratic, so lumping them would overstate the
            // saving).
            let adopted_lens: Vec<u64> = adopted.iter().map(|&(_, tokens)| tokens).collect();
            self.out.cache.saved_prefill_s += engine
                .cost_model
                .prefill_cost(&adopted_lens, parallel, link)
                .total();
        }
        let group = EspGroup::new(self.group_ids.next(), instances.clone());
        let Ok(plan) = PrefillPlan::build(group, prefill_reqs, retain_on, &self.pool) else {
            return;
        };
        let Ok(outcome) =
            execute_prefill(&plan, &engine.cost_model, &engine.registry, &mut self.pool)
        else {
            return;
        };
        self.out.iterations += 1;
        self.out.prefilled_tokens += outcome.retained_tokens;
        for &id in &requests {
            if let Some(s) = self.table.get_mut(id) {
                s.prefill_start.get_or_insert(now);
                self.set_phase(id, Phase::Prefilling, now, sink);
            }
        }
        let cost_s = outcome.cost.total() + context_surcharge_s;
        self.start(
            now + SimDuration::from_secs(cost_s),
            Work::Prefill {
                instances,
                requests,
            },
        );
    }

    fn decode<S: Scheduler + ?Sized>(
        &mut self,
        engine: &ServingEngine<S>,
        instances: Vec<InstanceId>,
        masters: Vec<InstanceId>,
        requests: Vec<RequestId>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        if !self.free(&instances) {
            return;
        }
        let decode_batch = self.decode_ready(&requests);
        if decode_batch.is_empty() {
            return;
        }
        // Each batched request appends one token on a master, so headroom
        // must exist on the master set specifically — summing free slots
        // over the whole group could see room on non-master instances,
        // skip eviction, and leave a cache-crowded master stalling its
        // decodes (the pressure rescue path defers to this eviction for
        // prefix-crowded instances).
        let evict_on = if masters.is_empty() {
            &instances
        } else {
            &masters
        };
        self.evict_for(evict_on, decode_batch.len() as u64, now, sink);
        let group = EspGroup::with_masters(self.group_ids.next(), instances.clone(), masters);
        let Ok(plan) = DecodePlan::build(group, &decode_batch, &self.pool) else {
            return;
        };
        let Ok(outcome) =
            execute_decode(&plan, &engine.cost_model, &engine.registry, &mut self.pool)
        else {
            return;
        };
        self.out.iterations += 1;
        let requests: Vec<RequestId> = decode_batch.iter().map(|&(id, _)| id).collect();
        self.begin_decoding(&requests, now, sink);
        self.start(
            now + SimDuration::from_secs(outcome.cost.total()),
            Work::Decode {
                instances,
                requests,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn chunked_prefill<S: Scheduler + ?Sized>(
        &mut self,
        engine: &ServingEngine<S>,
        instances: Vec<InstanceId>,
        prefill_request: RequestId,
        chunk_tokens: u64,
        decode_requests: Vec<RequestId>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        if !self.free(&instances) {
            return;
        }
        let Some(&Phase::Pending { prefilled }) = self.phase_of(prefill_request) else {
            return;
        };
        // First chunk of an untouched request: the same atomic match →
        // reuse as the full-prefill path.
        if let Some((_, tokens)) = self.adopt_prefix(prefill_request, now, sink) {
            let parallel = ParallelConfig::new(engine.registry.tp(), instances.len());
            let link = engine.registry.link_between(&instances);
            self.out.cache.saved_prefill_s += engine
                .cost_model
                .prefill_cost(&[tokens], parallel, link)
                .total();
        }
        let state = self.table.get(prefill_request).expect("known request");
        let reused = state.reused;
        let chunk = chunk_tokens.min(state.effective_input() - prefilled);
        if chunk == 0 {
            return;
        }
        let needed = chunk + decode_requests.len() as u64;
        self.evict_for(&instances, needed, now, sink);
        // Reserve KV for the chunk on the executing instances.
        let Some(placement) = self.pool.plan(
            prefill_request,
            chunk,
            &instances,
            PlacementStrategy::PackMostFree,
        ) else {
            return;
        };
        if self.pool.commit(&placement).is_err() {
            return;
        }
        let decode_batch = self.decode_ready(&decode_requests);
        let decode_lens: Vec<u64> = decode_batch.iter().map(|&(_, len)| len).collect();
        // Append the decode tokens on the first instance.
        let master = instances[0];
        let decode_ok: Vec<RequestId> = decode_batch
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| self.pool.append(id, master, 1).is_ok())
            .collect();
        let parallel = ParallelConfig::new(engine.registry.tp(), instances.len());
        let link = engine.registry.link_between(&instances);
        // Adopted tokens are real context: the chunk's attention still
        // spans them, it just skips their KV computation (zero extra term
        // when reused = 0).
        let cost = engine.cost_model.chunked_prefill_cost(
            chunk,
            prefilled + reused,
            &decode_lens,
            parallel,
            link,
        );
        self.out.iterations += 1;
        self.out.prefilled_tokens += chunk;
        if let Some(s) = self.table.get_mut(prefill_request) {
            s.prefill_start.get_or_insert(now);
            self.set_phase(prefill_request, Phase::Prefilling, now, sink);
        }
        self.begin_decoding(&decode_ok, now, sink);
        self.start(
            now + SimDuration::from_secs(cost.total()),
            Work::ChunkedPrefill {
                instances,
                prefill_request,
                prefilled_after: prefilled + chunk,
                decode_requests: decode_ok,
            },
        );
    }

    fn migrate<S: Scheduler + ?Sized>(
        &mut self,
        engine: &ServingEngine<S>,
        request: RequestId,
        targets: Vec<InstanceId>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        let Some(&Phase::DecodeReady { generated }) = self.phase_of(request) else {
            return;
        };
        self.evict_for(&targets, self.pool.tokens_of(request), now, sink);
        let Ok(summary) = migrate_request(
            request,
            &targets,
            &mut self.pool,
            &engine.cost_model,
            &engine.registry,
        ) else {
            return;
        };
        self.out.migration_bytes += summary.total_bytes;
        self.set_phase(request, Phase::Migrating { generated }, now, sink);
        self.table
            .get_mut(request)
            .expect("known request")
            .preemptions += 1;
        let done = now + SimDuration::from_secs(summary.time_s.max(1e-6));
        self.start(done, Work::Migration { request });
    }

    fn preempt(&mut self, request: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        let Some(&Phase::DecodeReady { generated }) = self.phase_of(request) else {
            return;
        };
        // Discard the KV and send the request back to the pending queue; it
        // keeps its admission rank, so it re-prefills in FCFS position once
        // pressure clears. The checkpoint makes the next prefill recompute
        // prompt + generated KV and decoding resume in place, so each
        // output token is generated exactly once (vLLM's recompute
        // semantics).
        self.pool.release(request);
        sink.on_preempted(now, request);
        self.set_phase(request, Phase::Pending { prefilled: 0 }, now, sink);
        let state = self.table.get_mut(request).expect("known request");
        state.resume_generated = generated;
        // Any adopted prefix KV was just discarded with the rest; the
        // recompute prefill covers it again.
        state.reused = 0;
        state.preemptions += 1;
        self.out.pressure.preemptions += 1;
        // Freeing memory schedules no work of its own; the epsilon event
        // guarantees a next scheduling point that sees the freed slots.
        self.start(now + SimDuration::from_secs(1e-6), Work::Preempt);
    }

    fn swap_out(&mut self, request: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        let Some(&Phase::DecodeReady { generated }) = self.phase_of(request) else {
            return;
        };
        let Some(link) = self.host_link else {
            return;
        };
        let Ok(tokens) = self.pool.swap_out(request) else {
            return;
        };
        // Device slots free immediately (the DMA drains asynchronously);
        // the request itself stalls for the D2H transfer before it is
        // parked.
        let bytes = tokens as f64 * self.kv_bytes_per_token;
        let transfer_s = link.transfer_time(bytes).max(1e-6);
        self.set_phase(request, Phase::SwappingOut { generated }, now, sink);
        let stats = &mut self.out.pressure;
        stats.swap_out_events += 1;
        stats.swap_out_bytes += bytes;
        stats.swap_stall_s += transfer_s;
        stats.max_outstanding_swapped_tokens = stats
            .max_outstanding_swapped_tokens
            .max(self.pool.total_swapped());
        self.start(
            now + SimDuration::from_secs(transfer_s),
            Work::SwapOut { request },
        );
    }

    fn swap_in(
        &mut self,
        request: RequestId,
        targets: Vec<InstanceId>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        let Some(&Phase::Swapped { generated }) = self.phase_of(request) else {
            return;
        };
        let Some(link) = self.host_link else {
            return;
        };
        self.evict_for(&targets, self.pool.swapped_tokens_of(request), now, sink);
        let Ok(tokens) = self
            .pool
            .swap_in(request, &targets, PlacementStrategy::PackMostFree)
        else {
            return;
        };
        // Device slots are reserved now (no oversubscription while the H2D
        // transfer is in flight); the request resumes decoding when it
        // completes.
        let bytes = tokens as f64 * self.kv_bytes_per_token;
        let transfer_s = link.transfer_time(bytes).max(1e-6);
        self.set_phase(request, Phase::SwappingIn { generated }, now, sink);
        self.out.pressure.swap_in_events += 1;
        self.out.pressure.swap_in_bytes += bytes;
        self.out.pressure.swap_stall_s += transfer_s;
        self.start(
            now + SimDuration::from_secs(transfer_s),
            Work::SwapIn { request },
        );
    }

    /// The phase of `id`, if the sim holds it.
    fn phase_of(&self, id: RequestId) -> Option<&Phase> {
        self.table.get(id).map(|s| &s.phase)
    }

    /// True when none of `instances` is busy or already claimed at this
    /// scheduling point.
    fn free(&self, instances: &[InstanceId]) -> bool {
        instances
            .iter()
            .all(|i| !self.claimed.contains(i) && self.scratch.idle.contains(i))
    }

    /// The decode-ready requests among `ids`, with their context lengths.
    fn decode_ready(&self, ids: &[RequestId]) -> Vec<(RequestId, u64)> {
        ids.iter()
            .filter_map(|&id| {
                let s = self.table.get(id)?;
                match s.phase {
                    Phase::DecodeReady { generated } => Some((id, s.request.input_len + generated)),
                    _ => None,
                }
            })
            .collect()
    }

    /// Moves the decode-ready requests among `ids` into a decode iteration.
    fn begin_decoding(&mut self, ids: &[RequestId], now: SimTime, sink: &mut dyn TraceSink) {
        for &id in ids {
            if let Some(&Phase::DecodeReady { generated }) = self.phase_of(id) {
                self.set_phase(id, Phase::Decoding { generated }, now, sink);
            }
        }
    }

    /// Dispatches `work` to finish at `done`, claiming its instances.
    fn start(&mut self, done: SimTime, work: Work) {
        for &inst in work.instances() {
            self.instances_state.dispatch(inst, done);
            self.claimed.push(inst);
        }
        let wid = self.work_ids.next().raw();
        self.in_flight.insert(wid, work);
        self.work.push(done, wid);
    }

    /// Releases `id`'s pin on its conversation's cached prefix, if it
    /// still holds one, returning the conversation.
    fn stop_waiting(&mut self, id: RequestId) -> Option<ConversationId> {
        let s = self.table.get_mut(id).filter(|s| s.waiting)?;
        s.waiting = false;
        let conversation = s
            .request
            .conversation
            .expect("waiting requests have a conversation");
        self.pool.prefix_waiter_drop(conversation);
        Some(conversation)
    }

    /// The prefix-cache lookup at `id`'s first prefill dispatch (hit or
    /// miss, it happens once): on a hit the cached slots are renamed to
    /// `id` in place. Returns `(prompt, adopted tokens)` on a hit.
    fn adopt_prefix(
        &mut self,
        id: RequestId,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) -> Option<(u64, u64)> {
        let conversation = self.stop_waiting(id)?;
        self.out.cache.lookups += 1;
        let s = self.table.get_mut(id).expect("known request");
        let prompt = s.effective_input();
        let tokens = self.pool.prefix_adopt(id, conversation, prompt)?;
        s.reused = tokens;
        self.out.cache.hits += 1;
        self.out.cache.reused_tokens += tokens;
        sink.on_cache_adopt(now, id, tokens);
        Some((prompt, tokens))
    }

    /// Evicts cached prefixes until `instances` have `needed` free slots
    /// (a no-op with the tier disabled).
    fn evict_for(
        &mut self,
        instances: &[InstanceId],
        needed: u64,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        if self.cache_on {
            let evicted = self.pool.prefix_evict_for_instances(instances, needed);
            self.note_evictions(evicted, now, sink);
        }
    }

    fn note_evictions(
        &mut self,
        (entries, tokens): (u64, u64),
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        self.out.cache.evicted_entries += entries;
        self.out.cache.evicted_tokens += tokens;
        if entries > 0 {
            sink.on_cache_evict(now, entries, tokens);
        }
    }

    /// Applies the effects of a completed piece of work, updating the phase
    /// indices and the idle/busy partition as it goes.
    fn complete_work(&mut self, work: Work, now: SimTime, sink: &mut dyn TraceSink) {
        for &inst in work.instances() {
            self.instances_state.complete(inst);
        }
        match work {
            Work::Prefill { requests, .. } => {
                for id in requests {
                    self.prompt_done(id, now, sink);
                }
            }
            Work::Decode { requests, .. } => {
                for id in requests {
                    self.advance_decode(id, now, sink);
                }
            }
            Work::ChunkedPrefill {
                prefill_request,
                prefilled_after,
                decode_requests,
                ..
            } => {
                let effective_input = self
                    .table
                    .get(prefill_request)
                    .expect("known request")
                    .effective_input();
                if prefilled_after >= effective_input {
                    self.prompt_done(prefill_request, now, sink);
                } else {
                    let phase = Phase::Pending {
                        prefilled: prefilled_after,
                    };
                    self.set_phase(prefill_request, phase, now, sink);
                }
                for id in decode_requests {
                    self.advance_decode(id, now, sink);
                }
            }
            Work::Migration { request } => {
                if let Some(&Phase::Migrating { generated }) = self.phase_of(request) {
                    self.set_phase(request, Phase::DecodeReady { generated }, now, sink);
                }
            }
            // The phase was reset at action time; the event only forced a
            // scheduling point.
            Work::Preempt => {}
            Work::SwapOut { request } => {
                if let Some(&Phase::SwappingOut { generated }) = self.phase_of(request) {
                    self.set_phase(request, Phase::Swapped { generated }, now, sink);
                }
            }
            Work::SwapIn { request } => {
                if let Some(&Phase::SwappingIn { generated }) = self.phase_of(request) {
                    self.set_phase(request, Phase::DecodeReady { generated }, now, sink);
                }
            }
        }
    }

    /// `id`'s prompt is fully prefilled: the first output token is out —
    /// or, for a recompute eviction, the KV is rebuilt up to the
    /// checkpoint so decoding resumes there.
    fn prompt_done(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        let s = self.table.get_mut(id).expect("known request");
        s.first_token.get_or_insert(now);
        let generated = s.resume_generated.max(1);
        if s.request.output_len <= generated {
            self.finish_request(id, now, sink);
        } else {
            self.set_phase(id, Phase::DecodeReady { generated }, now, sink);
        }
    }

    /// One decode iteration completed for `id`: emit a token, finishing the
    /// request if that was the last one.
    fn advance_decode(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        let s = self.table.get(id).expect("known request");
        if let Phase::Decoding { generated } = s.phase {
            let generated = generated + 1;
            if generated >= s.request.output_len {
                self.finish_request(id, now, sink);
            } else {
                self.set_phase(id, Phase::DecodeReady { generated }, now, sink);
            }
        }
    }

    fn finish_request(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        let state = self.table.get_mut(id).expect("known request");
        state.finish = Some(now);
        let first_token = state.first_token;
        let conversation = state.request.conversation;
        self.unresolved_tokens -= state.request.input_len + state.request.max_output_len;
        self.finished.push(id);
        self.set_phase(id, Phase::Finished, now, sink);
        if let Some(ft) = first_token {
            self.decode_stats.record(now.saturating_since(ft).as_secs());
        }
        // With the prefix cache enabled, a conversation turn's full context
        // (prompt + generated KV) is retained in place — it is exactly the
        // shared history the next turn's prompt extends. Everything else
        // releases as before.
        match conversation {
            Some(conversation) if self.pool.prefix_enabled() => {
                let retained = self.pool.prefix_retain(id, conversation, now);
                if retained > 0 {
                    let total = self.pool.prefix().expect("enabled").retained_tokens();
                    self.out.cache.retained_tokens_high_water =
                        self.out.cache.retained_tokens_high_water.max(total);
                }
            }
            _ => {
                self.pool.release(id);
            }
        }
    }
}

/// The record of a request that completed.
fn record_of(s: &RequestState) -> RequestRecord {
    RequestRecord {
        id: s.request.id,
        arrival: s.request.arrival,
        input_len: s.request.input_len,
        output_len: s.request.output_len,
        prefill_start: s.prefill_start.expect("finished requests started prefill"),
        first_token: s
            .first_token
            .expect("finished requests produced a first token"),
        finish: s.finish.expect("finished requests finished"),
        preemptions: s.preemptions,
        class: s.request.class,
    }
}

impl Work {
    /// The instances this work occupies until it completes.
    fn instances(&self) -> &[InstanceId] {
        match self {
            Work::Prefill { instances, .. }
            | Work::Decode { instances, .. }
            | Work::ChunkedPrefill { instances, .. } => instances,
            Work::Migration { .. } | Work::Preempt | Work::SwapOut { .. } | Work::SwapIn { .. } => {
                &[]
            }
        }
    }
}

/// Debug-build shadow of the incrementally maintained scheduler-view state.
///
/// Every scheduling point, [`ViewAudit::check`] rebuilds the
/// pending/decoding/idle/busy lists the slow way — a full scan over the
/// append-only arrival log and over every per-instance pool, exactly the
/// code the incremental indices replaced — and asserts the scratch buffers
/// match element for element. Compiled only with debug assertions, so
/// release builds (and benches) pay nothing; `cargo test` exercises it on
/// every engine run, including the view-equivalence proptest over random
/// traces.
#[cfg(debug_assertions)]
mod audit {
    use super::*;

    #[derive(Default)]
    pub(super) struct ViewAudit {
        /// Arrival log, in event order: the old engine's `arrived` vector.
        arrived: Vec<RequestId>,
    }

    impl ViewAudit {
        pub(super) fn on_arrival(&mut self, id: RequestId) {
            self.arrived.push(id);
        }

        pub(super) fn check(
            &self,
            table: &RequestTable<RequestState>,
            pool: &UnifiedKvPool,
            registry: &InstanceRegistry,
            instances_state: &InstanceTracker,
            now: SimTime,
            scratch: &ViewScratch,
        ) {
            table
                .check_invariants()
                .expect("request-table phase indices consistent");
            pool.check_invariants()
                .expect("kv-pool residency index consistent");

            // Eviction-disjointness: prefix retention only ever holds KV of
            // *finished* requests, so cached entries and the active working
            // set (the requests pressure policies may victimise) can never
            // overlap.
            if let Some(cache) = pool.prefix() {
                for (conversation, entry) in cache.entries() {
                    let owner = table.get(entry.owner).expect("cached owners are known");
                    assert!(
                        matches!(owner.phase, Phase::Finished),
                        "prefix entry for {conversation} retains KV of {} which is {:?}, not finished",
                        entry.owner,
                        owner.phase
                    );
                }
            }

            let naive_pending: Vec<PendingRequest> = self
                .arrived
                .iter()
                .filter_map(|&id| {
                    let s = table.get(id)?;
                    match s.phase {
                        Phase::Pending { prefilled } => Some(pending_entry(s, prefilled, pool)),
                        _ => None,
                    }
                })
                .collect();
            assert_eq!(
                scratch.pending, naive_pending,
                "incremental pending view diverged from full-scan rebuild"
            );

            let naive_decoding: Vec<DecodingRequest> = self
                .arrived
                .iter()
                .filter_map(|&id| {
                    let s = table.get(id)?;
                    match s.phase {
                        Phase::DecodeReady { generated } => Some(DecodingRequest {
                            id,
                            context_len: s.request.input_len + generated,
                            generated,
                            decode_time_s: s
                                .first_token
                                .map(|ft| now.saturating_since(ft).as_secs())
                                .unwrap_or(0.0),
                            // The naive path: scan every instance pool.
                            kv_instances: (0..pool.num_instances())
                                .map(InstanceId::from)
                                .filter(|&i| pool.instance(i).hosts(id))
                                .collect(),
                        }),
                        _ => None,
                    }
                })
                .collect();
            assert_eq!(
                scratch.decoding, naive_decoding,
                "incremental decoding view diverged from full-scan rebuild"
            );

            let naive_swapped: Vec<SwappedRequest> = self
                .arrived
                .iter()
                .filter_map(|&id| {
                    let s = table.get(id)?;
                    match s.phase {
                        Phase::Swapped { generated } => Some(SwappedRequest {
                            id,
                            context_len: s.request.input_len + generated,
                            generated,
                            tokens: pool.host().map(|h| h.swapped_tokens_of(id)).unwrap_or(0),
                        }),
                        _ => None,
                    }
                })
                .collect();
            assert_eq!(
                scratch.swapped, naive_swapped,
                "incremental swapped view diverged from full-scan rebuild"
            );

            // The old engine re-filtered every instance against `busy_until`
            // with a time comparison; the tracker instead moves instances
            // between sets on dispatch/complete. Equivalence additionally
            // proves no stale busy entry (end time <= now) ever survives to
            // a scheduling point.
            let naive_idle: Vec<InstanceId> = registry
                .all_ids()
                .into_iter()
                .filter(|&i| {
                    instances_state
                        .busy_until(i)
                        .map(|t| t <= now)
                        .unwrap_or(true)
                })
                .collect();
            assert_eq!(
                scratch.idle, naive_idle,
                "incremental idle set diverged from busy_until re-filter"
            );
            for &(inst, until) in &scratch.busy {
                assert!(
                    until > now,
                    "busy view contains stale entry: {inst} ended at {until:?} <= now {now:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::SystemKind;
    use loong_workload::arrival::ArrivalProcess;
    use loong_workload::datasets::DatasetKind;

    fn small_trace(rate: f64, count: usize, seed: u64) -> Trace {
        let mut rng = SimRng::seed(seed);
        Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate },
            count,
            &mut rng,
        )
    }

    fn engine_for(kind: SystemKind) -> ServingEngine {
        let config = EngineConfig::paper_single_node();
        let tp = kind.tp(config.cluster.gpus_per_node);
        let config = EngineConfig { tp, ..config };
        let registry = InstanceRegistry::build(&config.cluster, tp);
        let scheduler = kind.build_scheduler(&registry.all_ids(), None, None);
        ServingEngine::new(config, scheduler)
    }

    #[test]
    fn instance_kv_capacity_is_plausible_for_lwm_on_a800() {
        let config = EngineConfig::paper_single_node();
        let capacity = config.instance_kv_capacity();
        // Two 80 GB GPUs minus weights and workspace at 256 KiB/token/GPU:
        // a few hundred thousand tokens.
        assert!(
            capacity > 150_000 && capacity < 400_000,
            "capacity {capacity}"
        );
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut engine = engine_for(SystemKind::LoongServe);
        let outcome = engine.run(&Trace::from_requests("empty", vec![]));
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.unfinished, 0);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn single_request_lifecycle_timestamps_are_ordered() {
        let mut engine = engine_for(SystemKind::LoongServe);
        let request = Request::new(RequestId(0), SimTime::from_secs(1.0), 5_000, 20);
        let outcome = engine.run(&Trace::from_requests("single", vec![request]));
        assert_eq!(outcome.records.len(), 1);
        let r = &outcome.records[0];
        assert!(r.validate().is_ok());
        assert!(r.prefill_start >= SimTime::from_secs(1.0));
        assert!(r.first_token > r.prefill_start);
        assert!(r.finish > r.first_token);
        // 20 output tokens need 19 decode iterations plus the prefill.
        assert_eq!(outcome.iterations, 20);
    }

    #[test]
    fn scheduler_name_is_exposed() {
        let engine = engine_for(SystemKind::Vllm);
        assert!(engine.scheduler.name().contains("vLLM"));
        assert_eq!(engine.registry().num_instances(), 1);
    }

    #[test]
    fn concurrent_requests_share_the_cluster() {
        let mut engine = engine_for(SystemKind::LoongServe);
        let trace = small_trace(10.0, 30, 5);
        let outcome = engine.run(&trace);
        assert_eq!(
            outcome.records.len() + outcome.unfinished + outcome.rejected.len(),
            30
        );
        assert!(
            outcome.records.len() >= 28,
            "almost all short requests should finish"
        );
        assert!(outcome.scheduler_calls > 0);
        assert!(outcome.sim_time > SimTime::ZERO);
    }

    #[test]
    fn identical_engines_produce_identical_outcomes() {
        let trace = small_trace(5.0, 20, 9);
        let mut a = engine_for(SystemKind::LoongServe);
        let mut b = engine_for(SystemKind::LoongServe);
        let oa = a.run(&trace);
        let ob = b.run(&trace);
        assert_eq!(oa.records, ob.records);
        assert_eq!(oa.iterations, ob.iterations);
    }

    /// A LoongServe engine whose runs stop at `cap`, as a crash at `cap`
    /// would stop them.
    fn engine_capped_at(cap: SimTime) -> ServingEngine {
        let mut engine = engine_for(SystemKind::LoongServe);
        engine.config.max_sim_time = Some(SimDuration::from_secs(cap.as_secs()));
        engine
    }

    #[test]
    fn a_paused_sim_reads_and_crashes_like_a_run_capped_at_the_instant() {
        let trace = small_trace(6.0, 40, 21);
        let full = engine_for(SystemKind::LoongServe).run(&trace);
        // Exact completion instants (the pause processes their batch, as
        // the capped run does) and instants between completions.
        let instants = full.records.iter().step_by(4).flat_map(|r| {
            [
                r.finish,
                SimTime::from_secs(r.finish.as_secs() * 0.5 + 0.05),
            ]
        });
        for at in instants {
            let window_start_s = at.as_secs() - 2.0;
            let capped = engine_capped_at(at).run(&trace);
            let resolved: BTreeSet<RequestId> = capped
                .records
                .iter()
                .map(|r| r.id)
                .chain(capped.rejected.iter().map(|r| r.0))
                .collect();
            let unresolved: Vec<&Request> = trace
                .requests
                .iter()
                .filter(|r| !resolved.contains(&r.id))
                .collect();
            let backlog: u64 = unresolved
                .iter()
                .map(|r| r.input_len + r.max_output_len)
                .sum();
            let in_window: Vec<RequestRecord> = capped
                .records
                .iter()
                .filter(|r| r.finish.as_secs() > window_start_s)
                .copied()
                .collect();

            let mut engine = engine_for(SystemKind::LoongServe);
            let mut sim = ReplicaSim::new(&mut engine);
            for req in &trace.requests {
                sim.inject(req.clone());
            }
            sim.advance_through(at, &mut NoopSink);
            let mut window = Vec::new();
            assert_eq!(
                sim.observe(at, window_start_s, &mut window),
                backlog,
                "{at:?}"
            );
            window.sort_by_key(|r| r.id);
            assert_eq!(window, in_window, "{at:?}");

            let casualties: Vec<RequestId> =
                sim.crash(at, &mut NoopSink).iter().map(|r| r.id).collect();
            let expected: Vec<RequestId> = unresolved.iter().map(|r| r.id).collect();
            assert_eq!(casualties, expected, "{at:?}");
            let crashed = sim.finish();
            assert_eq!(crashed.records, capped.records, "{at:?}");
            assert_eq!(crashed.sim_time, capped.sim_time, "{at:?}");
            assert_eq!(crashed.scheduler_calls, capped.scheduler_calls, "{at:?}");
            assert_eq!(crashed.unfinished, 0);
        }
    }

    #[test]
    fn pausing_a_sim_does_not_change_its_run() {
        let trace = small_trace(6.0, 40, 22);
        let full = engine_for(SystemKind::LoongServe).run(&trace);
        let mut engine = engine_for(SystemKind::LoongServe);
        let mut sim = ReplicaSim::new(&mut engine);
        for req in &trace.requests {
            sim.inject(req.clone());
        }
        for record in full.records.iter().step_by(3) {
            sim.advance_through(record.finish, &mut NoopSink);
            sim.observe(record.finish, 0.0, &mut Vec::new());
        }
        sim.run_to_end(&mut NoopSink);
        let resumed = sim.finish();
        assert_eq!(resumed.records, full.records);
        assert_eq!(resumed.sim_time, full.sim_time);
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(resumed.scheduler_calls, full.scheduler_calls);
    }
}
