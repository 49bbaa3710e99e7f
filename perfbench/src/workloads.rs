//! The three workloads. Each builds its inputs from the workload seed,
//! runs them through the public entry points of the serving stack, and
//! reduces the outcome to a [`Sim`]: the simulated result every metric
//! and correctness check reads.
//!
//! All arrivals are open loop: they follow the seeded schedule whatever
//! the system does. Fleets run serially (`parallel: false`).

use crate::heap;
use crate::probe::{timed, Forwarding, SchedLedger, Spans};
use crate::stats::{self, Rung};
use loongserve::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = [
    "engine-mixed",
    "fleet-stream-crash",
    "fleet-flash-autoscale",
];

// engine-mixed: one replica, the paper's Mixed dataset.
/// The rung latency, attainment, goodput and speed are read at (req/s).
const LATENCY_RATE: f64 = 0.2;
/// Requests in each trace of the ladder and of the latency panel.
const RUNG_REQUESTS: usize = 2_000;
/// Independent traces pooled at the latency rung, so that the simulator's
/// work per run, and with it requests per wall-second, varies little from
/// seed to seed. With twelve, median TTFT still spread by a fifth of its
/// median over ten seeds; with 24, by under a sixth.
const PANEL_TRACES: u64 = 24;

// fleet-stream-crash: the million-scale smoke shape.
const STREAM_REQUESTS: usize = 20_000;
const STREAM_RATE: f64 = 120.0;
const STREAM_REPLICAS: usize = 4;
const STREAM_CRASH_PERIOD_S: f64 = 30.0;

// fleet-flash-autoscale: the autoscale bench's trace and controllers.
const FLASH_EVENTS: usize = 600;
const FLASH_MAX_REPLICAS: usize = 4;
/// Independent flash traces pooled per run. The autoscaler's replica-seconds
/// and the flash stragglers' TPOT vary from trace to trace; with eighteen
/// pooled, p99 TPOT still spread by up to 0.19 of its median over ten
/// seeds, so 27 are pooled.
const FLASH_TRACES: u64 = 27;
/// Every replica crashes once per period (staggered, down 1 s). The crash
/// boundaries end the elastic loop's replay segments; without them the
/// replayed work varies threefold from seed to seed (1.4M to 2.9M
/// scheduling points per trace), which no seed-to-seed bound can hold.
/// The traced pass still runs one trace without crashes to report that
/// replay (`fleet.replay_ratio_without_crashes`).
const FLASH_CRASH_PERIOD_S: f64 = 30.0;

/// Sub-seed `j` of a workload seed, for workloads that pool several
/// independent traces.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(j)
}

/// The simulated result of one run of a workload, pooled over its traces.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    pub sent: usize,
    pub records: Vec<RequestRecord>,
    pub rejected: usize,
    pub shed: usize,
    pub failed: usize,
    pub unfinished: usize,
    /// SLO-met completions (class SLOs on the mixed-class workload).
    pub met: usize,
    pub replica_seconds: f64,
    /// Scheduler calls whose results the run kept.
    pub scheduler_calls: u64,
    pub iterations: u64,
    pub migration_bytes: f64,
    pub scale_ups: u64,
    pub proactive_scale_downs: u64,
    pub reactive_scale_downs: u64,
    pub cache: CacheStats,
    pub preemptions: u64,
    pub prefilled_tokens: u64,
    /// Sum over runs of max ÷ mean requests assigned per replica.
    pub imbalance_sum: f64,
    pub runs: u64,
    pub reliability: ReliabilityStats,
    /// Fleet scale events; replica-seconds live in `replica_seconds`.
    pub elasticity: ElasticityStats,
    pub frontend_peak_resident: usize,
    pub ledger: TraceLedger,
    pub attribution: TimeAttribution,
    /// FNV-1a over every simulated outcome, in run order.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, words: &[u64]) -> u64 {
    if h == 0 {
        h = FNV_OFFSET;
    }
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl Sim {
    /// Folds one engine outcome (a replica's, or a bare engine's) into the
    /// per-engine counters.
    fn absorb_engine(&mut self, o: &RunOutcome) {
        for e in &o.scaling_events {
            match e.kind {
                ScalingEventKind::ScaleUp => self.scale_ups += 1,
                ScalingEventKind::ProactiveScaleDown => self.proactive_scale_downs += 1,
                ScalingEventKind::ReactiveScaleDown => self.reactive_scale_downs += 1,
            }
        }
        self.prefilled_tokens += o.prefilled_tokens;
    }

    /// Folds in the common ledgers of one run and hashes its outcome.
    #[allow(clippy::too_many_arguments)]
    fn absorb(
        &mut self,
        sent: usize,
        mut fleet: FleetOutcome,
        failed: &[RequestId],
        shed: &[RequestId],
        replica_seconds: f64,
        base: &SloSpec,
        per_class: bool,
    ) {
        self.sent += sent;
        self.rejected += fleet.rejected.len();
        self.unfinished += fleet.unfinished;
        self.failed += failed.len();
        self.shed += shed.len();
        self.met += stats::met(&fleet.records, base, per_class);
        self.replica_seconds += replica_seconds;
        self.scheduler_calls += fleet.scheduler_calls;
        self.iterations += fleet.iterations;
        self.migration_bytes += fleet.migration_bytes;
        self.cache.merge(&fleet.cache);
        self.preemptions += fleet.pressure.preemptions;
        let assigned: Vec<f64> = fleet
            .per_replica
            .iter()
            .map(|r| r.assigned as f64)
            .collect();
        let mean = assigned.iter().sum::<f64>() / assigned.len().max(1) as f64;
        if mean > 0.0 {
            self.imbalance_sum += assigned.iter().copied().fold(0.0, f64::max) / mean;
        }
        self.runs += 1;
        for r in &fleet.per_replica {
            self.absorb_engine(&r.outcome);
        }
        let mut h = fnv(
            self.digest,
            &[
                sent as u64,
                fleet.unfinished as u64,
                fleet.sim_time.as_secs().to_bits(),
                fleet.iterations,
                fleet.scheduler_calls,
            ],
        );
        for r in &fleet.records {
            h = fnv(
                h,
                &[
                    r.id.raw(),
                    r.output_len,
                    r.prefill_start.as_secs().to_bits(),
                    r.first_token.as_secs().to_bits(),
                    r.finish.as_secs().to_bits(),
                ],
            );
        }
        for id in fleet
            .rejected
            .iter()
            .map(|r| r.0)
            .chain(failed.iter().copied())
        {
            h = fnv(h, &[id.raw()]);
        }
        for id in shed {
            h = fnv(h, &[id.raw()]);
        }
        self.digest = h;
        // Move, not copy: the benchmark should add as little as it can to
        // the program's peak memory.
        if self.records.is_empty() {
            self.records = std::mem::take(&mut fleet.records);
        } else {
            self.records.append(&mut fleet.records);
        }
    }

    fn absorb_run(&mut self, sent: usize, mut o: RunOutcome) {
        let sim_s = o.sim_time.as_secs();
        let fleet = FleetOutcome {
            assignments: Vec::new(),
            records: std::mem::take(&mut o.records),
            rejected: std::mem::take(&mut o.rejected),
            unfinished: o.unfinished,
            sim_time: o.sim_time,
            iterations: o.iterations,
            migration_bytes: o.migration_bytes,
            scheduler_calls: o.scheduler_calls,
            pressure: o.pressure,
            cache: o.cache,
            per_replica: vec![ReplicaOutcome {
                replica: ReplicaId::from(0usize),
                assigned: sent,
                outcome: o,
            }],
        };
        let base = SloSpec::default_for_lwm();
        self.absorb(sent, fleet, &[], &[], sim_s, &base, false);
        self.frontend_peak_resident = self.frontend_peak_resident.max(sent);
    }

    /// Every request sent ends in exactly one ledger and every completion's
    /// timestamps are causally ordered.
    pub fn check(&self) -> Result<(), String> {
        let accounted =
            self.records.len() + self.rejected + self.shed + self.failed + self.unfinished;
        if accounted != self.sent {
            return Err(format!(
                "{} completed + {} rejected + {} shed + {} failed + {} unfinished != {} sent",
                self.records.len(),
                self.rejected,
                self.shed,
                self.failed,
                self.unfinished,
                self.sent
            ));
        }
        self.records.iter().try_for_each(|r| r.validate())
    }

    /// Requests that did not complete, as a share of requests sent.
    pub fn failed_share(&self) -> f64 {
        (self.sent - self.records.len()) as f64 / self.sent as f64
    }
}

// ---------------------------------------------------------------- inputs

fn panel_trace(seed: u64, rate: f64, j: u64) -> Trace {
    WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, RUNG_REQUESTS, sub_seed(seed, j))
}

/// Every replica crashes once per `period` seconds, staggered evenly, and
/// recovers one second later.
fn staggered_crashes(replicas: usize, period: f64, horizon: f64) -> FailureSchedule {
    let mut events = Vec::new();
    for r in 0..replicas {
        let mut at = period * (r as f64 + 1.0) / replicas as f64;
        while at < horizon {
            events.push(FailureEvent::new(
                ReplicaId::from(r),
                SimTime::from_secs(at),
                SimTime::from_secs(at + 1.0),
            ));
            at += period;
        }
    }
    FailureSchedule::from_events(events)
}

fn stream_fleet() -> FleetConfig {
    FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        STREAM_REPLICAS,
        RouterPolicy::JoinShortestQueue,
    )
}

fn stream_reliability() -> ReliabilityConfig {
    let horizon = STREAM_REQUESTS as f64 / STREAM_RATE + 200.0;
    ReliabilityConfig::new(staggered_crashes(
        STREAM_REPLICAS,
        STREAM_CRASH_PERIOD_S,
        horizon,
    ))
    .with_retry(RetryPolicy::exponential(3, 0.25))
    .with_sla_window(60.0)
}

fn stream(seed: u64) -> TraceStream {
    TraceStream::dataset(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate: STREAM_RATE },
        STREAM_REQUESTS,
        &mut SimRng::seed(seed),
    )
}

fn flash_trace(seed: u64, j: u64) -> Trace {
    let arrivals = ArrivalProcess::DiurnalFlash {
        trough_rate: 0.4,
        peak_rate: 1.2,
        period_secs: 300.0,
        flash_start_s: 80.0,
        flash_secs: 50.0,
        flash_rate: 8.0,
    };
    Trace::generate_mixed_classes(
        arrivals,
        FLASH_EVENTS,
        &MixedClassProfile::overload_mix(),
        &mut SimRng::seed(sub_seed(seed, j)),
    )
}

fn flash_fleet() -> FleetConfig {
    let mut config = FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        FLASH_MAX_REPLICAS,
        RouterPolicy::PrefixAffinity,
    );
    config.prefix_cache = Some(PrefixCacheConfig::default());
    config
}

/// The autoscale bench's controllers.
fn flash_controllers() -> ElasticConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, FLASH_MAX_REPLICAS);
    scaler.control_interval_s = 10.0;
    scaler.cooldown_s = 5.0;
    scaler.provisioning_delay_s = 5.0;
    scaler.scale_up_backlog_tokens = 24_000;
    scaler.scale_down_backlog_tokens = 12_000;
    let mut admission = AdmissionConfig::overload_defaults();
    admission.replica_capacity_tokens = 25_000;
    admission.service_tokens_per_s = 8_000.0;
    ElasticConfig::new(scaler)
        .with_signal_slo(SloSpec::scaled_from_baseline(
            0.05,
            0.002,
            0.05,
            2.0 * SloSpec::PAPER_SCALE,
        ))
        .with_admission(admission)
}

/// The controllers under the rolling crash schedule.
fn flash_elastic() -> ElasticConfig {
    let horizon = 900.0;
    flash_controllers()
        .with_schedule(staggered_crashes(
            FLASH_MAX_REPLICAS,
            FLASH_CRASH_PERIOD_S,
            horizon,
        ))
        .with_retry(RetryPolicy::exponential(3, 0.25))
}

// ------------------------------------------------------------ untimed pass

/// A workload's inputs with its engine or fleet constructed: everything
/// `setup_s` times. Built a few times per process, so the variants' sizes
/// do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Engine(Vec<(Trace, ServingEngine)>),
    Stream(TraceStream, FleetEngine, ReliabilityConfig),
    Flash(Vec<(Trace, FleetEngine)>, ElasticConfig),
}

pub fn prepare(workload: &str, seed: u64) -> Prepared {
    match workload {
        "engine-mixed" => Prepared::Engine(
            (0..PANEL_TRACES)
                .map(|j| {
                    let trace = panel_trace(seed, LATENCY_RATE, j);
                    let engine = ServingEngine::new(
                        EngineConfig::paper_single_node(),
                        Box::new(LoongServeScheduler::new()),
                    );
                    (trace, engine)
                })
                .collect(),
        ),
        "fleet-stream-crash" => Prepared::Stream(
            stream(seed),
            FleetEngine::new(stream_fleet()),
            stream_reliability(),
        ),
        "fleet-flash-autoscale" => Prepared::Flash(
            (0..FLASH_TRACES)
                .map(|j| (flash_trace(seed, j), FleetEngine::new(flash_fleet())))
                .collect(),
            flash_elastic(),
        ),
        other => panic!("unknown workload {other}"),
    }
}

/// Host measurements of the run calls of one untimed run: the engine or
/// fleet calls themselves, not the reduction of their outcomes.
#[derive(Debug, Default)]
pub struct Host {
    /// Wall seconds inside the run calls.
    pub wall_s: f64,
    /// For each run call, the most heap it held at once above what was
    /// held when it began: its working set and the outcome it returns.
    pub heap_bytes: Vec<f64>,
}

impl Host {
    /// Calls `f`, adding its wall time and its heap peak.
    fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let held = heap::reset_peak();
        let start = Instant::now();
        let out = f();
        self.wall_s += start.elapsed().as_secs_f64();
        self.heap_bytes.push((heap::peak_bytes() - held) as f64);
        out
    }

    /// Mean heap peak of the run calls, in MiB. Pooled workloads average
    /// over their traces rather than take the largest.
    pub fn heap_mib(&self) -> f64 {
        let n = self.heap_bytes.len().max(1) as f64;
        self.heap_bytes.iter().sum::<f64>() / n / (1024.0 * 1024.0)
    }
}

/// Runs prepared inputs with no benchmark timer inside the run. Returns
/// the simulated result and the host measurements of the run calls.
pub fn run(prepared: Prepared) -> (Sim, Host) {
    let mut sim = Sim::default();
    let mut host = Host::default();
    match prepared {
        Prepared::Engine(panel) => {
            for (trace, mut engine) in panel {
                let outcome = host.measure(|| engine.run(&trace));
                sim.absorb_run(trace.len(), outcome);
            }
        }
        Prepared::Stream(stream, mut fleet, rel) => {
            let mut recorder = TraceRecorder::new(TraceConfig::default());
            let (o, footprint) =
                host.measure(|| fleet.run_reliable_stream_traced(stream, &rel, &mut recorder));
            absorb_reliable(&mut sim, o, footprint.streamed_requests);
            sim.frontend_peak_resident = footprint.peak_resident_requests;
            sim.ledger = recorder.ledger();
            sim.attribution = recorder.attribution();
        }
        Prepared::Flash(traces, cfg) => {
            for (trace, mut fleet) in traces {
                let o = host.measure(|| fleet.run_elastic(&trace, &cfg));
                absorb_elastic(&mut sim, o, trace.len());
            }
        }
    }
    (sim, host)
}

fn absorb_reliable(sim: &mut Sim, o: ReliableFleetOutcome, sent: usize) {
    let failed: Vec<RequestId> = o.failed.iter().map(|f| f.id).collect();
    let replica_seconds = o.fleet.replicas() as f64 * o.fleet.sim_time.as_secs();
    let base = SloSpec::default_for_lwm();
    sim.reliability.merge(&o.reliability);
    sim.absorb(sent, o.fleet, &failed, &[], replica_seconds, &base, false);
}

fn absorb_elastic(sim: &mut Sim, o: ElasticFleetOutcome, sent: usize) {
    let failed: Vec<RequestId> = o.failed.iter().map(|f| f.id).collect();
    let shed: Vec<RequestId> = o.shed.iter().map(|s| s.id).collect();
    let base = SloSpec::default_for_lwm();
    let rs = o.elasticity.replica_seconds;
    sim.reliability.merge(&o.reliability);
    let e = &mut sim.elasticity;
    e.scale_up_events += o.elasticity.scale_up_events;
    e.scale_down_events += o.elasticity.scale_down_events;
    sim.absorb(sent, o.fleet, &failed, &shed, rs, &base, true);
    // The materialised frontend holds the whole trace.
    sim.frontend_peak_resident = sim.frontend_peak_resident.max(sent);
}

// ------------------------------------------------------------- traced pass

/// Named per-layer values of one traced run: `(value, unit)`.
pub type Layers = BTreeMap<&'static str, (f64, &'static str)>;

/// Host-side timings the traced pass gathers around layer calls.
#[derive(Debug, Default)]
struct Timings {
    gen_s: f64,
    generated: usize,
    engine_new_s: Vec<f64>,
    engine_run_s: f64,
    route_s: f64,
    routed: usize,
    points: u64,
    events: u64,
    /// Wall of the timed run, and of the same run without the recorder.
    run_s: f64,
    recorder_off_s: f64,
    /// Scheduling points ÷ kept scheduler calls of one flash trace run
    /// without the crash schedule.
    replay_ratio_without_crashes: f64,
}

/// Replays `trace` through one engine whose scheduler is wrapped in the
/// forwarding probe. Returns the run's outcome. The caller decides whether
/// the run's `SelfProfile` counters belong to the workload.
fn probed_engine_run(
    config: EngineConfig,
    trace: &Trace,
    spans: &Rc<RefCell<Spans>>,
    ledger: &Rc<RefCell<SchedLedger>>,
    t: &mut Timings,
) -> RunOutcome {
    let (mut engine, new_s) = timed(spans, "engine.new", || {
        let inner = Box::new(LoongServeScheduler::new());
        let probe = Forwarding::new(inner, ledger.clone(), spans.clone());
        ServingEngine::new(config, Box::new(probe))
    });
    t.engine_new_s.push(new_s);
    let (outcome, run_s) = timed(spans, "engine.run", || engine.run(trace));
    t.engine_run_s += run_s;
    outcome
}

/// Times `FleetEngine::route` over a materialised trace.
fn time_route(
    config: FleetConfig,
    trace: &Trace,
    spans: &Rc<RefCell<Spans>>,
    t: &mut Timings,
) -> Vec<usize> {
    let mut fleet = FleetEngine::new(config);
    let (assignment, s) = timed(spans, "router.route", || fleet.route(trace));
    t.route_s += s;
    t.routed += trace.len();
    assignment
}

/// One traced run of a workload: the same simulation as [`run`], with
/// spans around each layer call, plus the side measurements the layer
/// table needs. Returns the simulated result (which must equal the untimed
/// pass's) and the per-layer values.
pub fn traced(workload: &str, seed: u64, spans: &Rc<RefCell<Spans>>) -> (Sim, Layers, f64) {
    let ledger = Rc::new(RefCell::new(SchedLedger::default()));
    let mut t = Timings::default();
    let mut sim = Sim::default();
    let mut layers = Layers::new();
    match workload {
        "engine-mixed" => {
            for j in 0..PANEL_TRACES {
                let (trace, g) = timed(spans, "workload.generate", || {
                    panel_trace(seed, LATENCY_RATE, j)
                });
                t.gen_s += g;
                t.generated += trace.len();
                let router = FleetConfig::paper_fleet(
                    SystemKind::LoongServe,
                    1,
                    RouterPolicy::JoinShortestQueue,
                );
                time_route(router, &trace, spans, &mut t);
                let profile = SelfProfile::start();
                let outcome = probed_engine_run(
                    EngineConfig::paper_single_node(),
                    &trace,
                    spans,
                    &ledger,
                    &mut t,
                );
                let c = profile.report().counters;
                t.points += c.sched_points;
                t.events += c.events_popped;
                sim.absorb_run(trace.len(), outcome);
            }
            t.run_s = t.engine_run_s;
        }
        "fleet-stream-crash" => {
            let (trace, g) = timed(spans, "workload.generate", || stream(seed).collect_trace());
            t.gen_s = g;
            t.generated = trace.len();
            let assignment = time_route(stream_fleet(), &trace, spans, &mut t);
            let rel = stream_reliability();
            let profile = SelfProfile::start();
            let ((o, footprint, recorder), run_s) = timed(spans, "fleet.run", || {
                let mut fleet = FleetEngine::new(stream_fleet());
                let mut recorder = TraceRecorder::new(TraceConfig::default());
                let (o, fp) = fleet.run_reliable_stream_traced(stream(seed), &rel, &mut recorder);
                (o, fp, recorder)
            });
            let c = profile.report().counters;
            t.points = c.sched_points;
            t.events = c.events_popped;
            t.run_s = run_s;
            absorb_reliable(&mut sim, o, footprint.streamed_requests);
            sim.frontend_peak_resident = footprint.peak_resident_requests;
            sim.ledger = recorder.ledger();
            sim.attribution = recorder.attribution();
            let (_, off_s) = timed(spans, "fleet.run_recorder_off", || {
                FleetEngine::new(stream_fleet()).run_reliable_stream(stream(seed), &rel)
            });
            t.recorder_off_s = off_s;
            let share = trace
                .split_by_assignment(STREAM_REPLICAS, &assignment)
                .swap_remove(0);
            probed_engine_run(
                EngineConfig::paper_single_node(),
                &share,
                spans,
                &ledger,
                &mut t,
            );
        }
        "fleet-flash-autoscale" => {
            let cfg = flash_elastic();
            let mut replay_share = None;
            for j in 0..FLASH_TRACES {
                let (trace, g) = timed(spans, "workload.generate", || flash_trace(seed, j));
                t.gen_s += g;
                t.generated += trace.len();
                let assignment = time_route(flash_fleet(), &trace, spans, &mut t);
                if j == 0 {
                    let share = trace.split_by_assignment(FLASH_MAX_REPLICAS, &assignment);
                    replay_share = share.into_iter().next();
                }
                let profile = SelfProfile::start();
                let (o, run_s) = timed(spans, "fleet.run", || {
                    FleetEngine::new(flash_fleet()).run_elastic(&trace, &cfg)
                });
                let c = profile.report().counters;
                t.points += c.sched_points;
                t.events += c.events_popped;
                t.run_s += run_s;
                absorb_elastic(&mut sim, o, trace.len());
            }
            let trace = flash_trace(seed, 0);
            let profile = SelfProfile::start();
            let (o, _) = timed(spans, "fleet.run_without_crashes", || {
                FleetEngine::new(flash_fleet()).run_elastic(&trace, &flash_controllers())
            });
            let points = profile.report().counters.sched_points as f64;
            t.replay_ratio_without_crashes = per(points, o.fleet.scheduler_calls as f64);
            let mut config = EngineConfig::paper_single_node();
            config.prefix_cache = Some(PrefixCacheConfig::default());
            let share = replay_share.expect("at least one flash trace");
            probed_engine_run(config, &share, spans, &ledger, &mut t);
        }
        other => panic!("unknown workload {other}"),
    }
    layer_values(&sim, &t, &ledger.borrow(), &mut layers);
    (sim, layers, t.run_s)
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

fn layer_values(sim: &Sim, t: &Timings, l: &SchedLedger, out: &mut Layers) {
    let sent = sim.sent as f64;
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        out.insert(name, (value, unit));
    };
    put(
        "workload.gen_ns_per_req",
        per(t.gen_s * 1e9, t.generated as f64),
        "ns",
    );
    put("engine.new_s", stats::median(&t.engine_new_s), "s");
    // The forwarding scheduler runs on the engine workload's own runs and,
    // on fleets, on a replay of replica 0's routed share (see layers.md).
    let calls = l.calls as f64;
    put(
        "engine.self_ns_per_sched_point",
        per((t.engine_run_s - l.busy_s) * 1e9, calls),
        "ns",
    );
    put(
        "engine.sched_points_per_req",
        per(sim.scheduler_calls as f64, sent),
        "count",
    );
    put("engine.events_per_req", per(t.events as f64, sent), "count");
    put(
        "engine.iterations_per_req",
        per(sim.iterations as f64, sent),
        "count",
    );
    put("sched.ns_per_call", per(l.busy_s * 1e9, calls), "ns");
    put("sched.share", per(l.busy_s, t.engine_run_s), "share");
    put(
        "sched.pending_per_call",
        per(l.pending as f64, calls),
        "count",
    );
    put(
        "sched.decoding_per_call",
        per(l.decoding as f64, calls),
        "count",
    );
    put(
        "sched.actions_per_call",
        per(l.actions as f64, calls),
        "count",
    );
    put("sched.idle_noop_calls", l.idle_noop_calls as f64, "count");
    let mut waits: Vec<f64> = sim.records.iter().map(|r| r.queueing_delay()).collect();
    waits.sort_by(f64::total_cmp);
    let wait = stats::Latency::of(waits);
    put("sched.queue_wait_p50_s", wait.map_or(0.0, |w| w.p50), "s");
    put("sched.queue_wait_p99_s", wait.map_or(0.0, |w| w.tail), "s");
    put(
        "esp.prefill_group_size_mean",
        per(l.prefill_instances as f64, l.prefills as f64),
        "instances",
    );
    put(
        "esp.decode_group_size_mean",
        per(l.decode_instances as f64, l.decodes as f64),
        "instances",
    );
    put(
        "esp.proactive_scale_downs_per_req",
        per(sim.proactive_scale_downs as f64, sent),
        "count",
    );
    put(
        "esp.scale_ups_per_req",
        per(sim.scale_ups as f64, sent),
        "count",
    );
    put(
        "esp.reactive_scale_downs_per_req",
        per(sim.reactive_scale_downs as f64, sent),
        "count",
    );
    put(
        "esp.migration_gib",
        sim.migration_bytes / f64::from(1u32 << 30),
        "GiB",
    );
    let c = &sim.cache;
    put(
        "kvcache.prefix_hit_share",
        per(c.hits as f64, c.lookups as f64),
        "share",
    );
    let reused = c.reused_tokens as f64;
    put(
        "kvcache.reused_token_share",
        per(reused, reused + sim.prefilled_tokens as f64),
        "share",
    );
    put("kvcache.evicted_tokens", c.evicted_tokens as f64, "tokens");
    put(
        "kvcache.retained_high_water_tokens",
        c.retained_tokens_high_water as f64,
        "tokens",
    );
    put(
        "kvcache.prefilled_tokens_per_req",
        per(sim.prefilled_tokens as f64, sent),
        "tokens",
    );
    put("kvcache.preemptions", sim.preemptions as f64, "count");
    put(
        "router.ns_per_route",
        per(t.route_s * 1e9, t.routed as f64),
        "ns",
    );
    put(
        "router.assigned_imbalance",
        per(sim.imbalance_sum, sim.runs as f64),
        "ratio",
    );
    put(
        "fleet.sched_points_per_req",
        per(t.points as f64, sent),
        "count",
    );
    put(
        "fleet.replay_ratio",
        per(t.points as f64, sim.scheduler_calls as f64),
        "ratio",
    );
    put(
        "fleet.replay_ratio_without_crashes",
        t.replay_ratio_without_crashes,
        "ratio",
    );
    put(
        "fleet.frontend_peak_resident",
        sim.frontend_peak_resident as f64,
        "requests",
    );
    let r = &sim.reliability;
    put("reliability.crashes", r.crashes as f64, "count");
    put("reliability.retries", r.retries_scheduled as f64, "count");
    put(
        "reliability.reprefill_tokens",
        r.re_prefilled_tokens as f64,
        "tokens",
    );
    put("reliability.failed", sim.failed as f64, "count");
    let e = &sim.elasticity;
    put("elastic.scale_ups", e.scale_up_events as f64, "count");
    put("elastic.scale_downs", e.scale_down_events as f64, "count");
    put("elastic.replica_seconds", sim.replica_seconds, "replica-s");
    put("elastic.shed", sim.shed as f64, "count");
    let recorder_share = if t.recorder_off_s > 0.0 {
        t.run_s / t.recorder_off_s - 1.0
    } else {
        0.0
    };
    put("trace.recorder_share", recorder_share, "share");
    put("trace.spans", sim.ledger.spans_recorded as f64, "count");
    put(
        "trace.sampled_requests",
        sim.ledger.sampled_requests as f64,
        "count",
    );
    put("trace.series_bins", sim.ledger.series_bins as f64, "count");
    let a = sim.attribution.total();
    let total = a.total_s();
    put("trace.stage_share.queue", per(a.queued_s, total), "share");
    put(
        "trace.stage_share.prefill",
        per(a.prefill_s, total),
        "share",
    );
    put("trace.stage_share.decode", per(a.decode_s, total), "share");
    put(
        "trace.stage_share.retry",
        per(a.retry_prefill_s, total),
        "share",
    );
    put("slo.failed_share", sim.failed_share(), "share");
}

/// The engine workload's offered-rate ladder, one trace per rung.
/// Untimed: the rungs that strand requests end early, so their wall time
/// says nothing.
pub fn ladder(seed: u64) -> Vec<(Rung, Sim)> {
    DatasetKind::Mixed
        .figure10_rates()
        .into_iter()
        .map(|rate| {
            let trace = panel_trace(seed, rate, 0);
            let mut engine = ServingEngine::new(
                EngineConfig::paper_single_node(),
                Box::new(LoongServeScheduler::new()),
            );
            let mut sim = Sim::default();
            sim.absorb_run(trace.len(), engine.run(&trace));
            let rung = Rung {
                rate,
                attainment: stats::attainment(sim.met, sim.sent),
                unfinished: sim.unfinished,
            };
            (rung, sim)
        })
        .collect()
}
