//! Whole-outcome goldens for the fleet runs that compose every tier.
//!
//! `tests/fleet_equivalence.rs` and `tests/elasticity_properties.rs` pin
//! plain and armed-idle fleets. The runs pinned here are the ones where
//! the fleet loop does the most: crashes interrupting live replicas,
//! retries re-entering routing, the circuit breaker, admission control,
//! autoscaling with drains, and a crash striking a replica mid-drain.
//!
//! Each digest folds the complete outcome — records, rejections, failures,
//! sheds, scale events, route instants, and the elasticity, reliability
//! and SLA-window ledgers as raw bits. Every run is executed four ways
//! (materialised, streamed, on the worker pool, and traced); all four
//! must hash to the same pinned constant.

use loongserve::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::Digest;

/// The four ways each pinned run is executed.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Materialised,
    Streamed,
    Pooled,
    Traced,
}

const VARIANTS: [Variant; 4] = [
    Variant::Materialised,
    Variant::Streamed,
    Variant::Pooled,
    Variant::Traced,
];

fn fleet_digest(d: &mut Digest, outcome: &FleetOutcome) {
    d.word(outcome.assignments.len() as u64);
    for &(id, replica) in &outcome.assignments {
        d.word(id.raw());
        d.word(replica.raw());
    }
    d.word(outcome.per_replica.len() as u64);
    for r in &outcome.per_replica {
        d.word(r.replica.raw());
        d.word(r.assigned as u64);
        d.outcome(&r.outcome);
    }
    d.word(outcome.records.len() as u64);
    for r in &outcome.records {
        d.word(r.id.raw());
        d.time(r.finish);
    }
    d.word(outcome.rejected.len() as u64);
    for (id, reason) in &outcome.rejected {
        d.word(id.raw());
        d.str(reason);
    }
    d.word(outcome.unfinished as u64);
    d.time(outcome.sim_time);
    d.word(outcome.iterations);
    d.word(outcome.migration_bytes.to_bits());
    d.word(outcome.scheduler_calls);
}

fn reliable_digest(outcome: &ReliableFleetOutcome) -> u64 {
    let mut d = Digest::new();
    fleet_digest(&mut d, &outcome.fleet);
    d.failed(&outcome.failed);
    d.reliability(&outcome.reliability, &outcome.sla_windows);
    d.0
}

fn elastic_digest(outcome: &ElasticFleetOutcome) -> u64 {
    let mut d = Digest::new();
    fleet_digest(&mut d, &outcome.fleet);
    d.failed(&outcome.failed);
    d.word(outcome.shed.len() as u64);
    for s in &outcome.shed {
        d.word(s.id.raw());
        d.time(s.at);
        d.str(s.class.label());
        d.str(&format!("{:?}", s.reason));
    }
    d.word(outcome.scale_events.len() as u64);
    for e in &outcome.scale_events {
        d.time(e.at);
        d.word(e.active_after as u64);
        match e.kind {
            FleetScaleKind::Activated { replica, ready_at } => {
                d.word(1);
                d.word(replica.raw());
                d.time(ready_at);
            }
            FleetScaleKind::Retired { replica, drain_s } => {
                d.word(2);
                d.word(replica.raw());
                d.word(drain_s.to_bits());
            }
        }
    }
    d.word(outcome.route_instants.len() as u64);
    for &t in &outcome.route_instants {
        d.time(t);
    }
    let e = &outcome.elasticity;
    for w in [
        e.scale_up_events,
        e.scale_down_events,
        e.drains_completed,
        e.total_drain_s.to_bits(),
        e.max_drain_s.to_bits(),
        e.replica_seconds.to_bits(),
        e.min_active_replicas,
        e.max_active_replicas,
        e.shed_interactive,
        e.shed_standard,
        e.shed_best_effort,
        e.deadline_rejections,
        e.provisioning_s.to_bits(),
    ] {
        d.word(w);
    }
    d.reliability(&outcome.reliability, &outcome.sla_windows);
    d.0
}

fn build_fleet(config: &FleetConfig, variant: Variant) -> FleetEngine {
    let mut config = config.clone();
    config.parallel = matches!(variant, Variant::Pooled);
    FleetEngine::new(config)
}

fn run_elastic(
    config: &FleetConfig,
    trace: &Trace,
    cfg: &ElasticConfig,
    variant: Variant,
) -> ElasticFleetOutcome {
    let mut fleet = build_fleet(config, variant);
    match variant {
        Variant::Materialised | Variant::Pooled => fleet.run_elastic(trace, cfg),
        Variant::Streamed => {
            let (outcome, footprint) =
                fleet.run_elastic_stream(TraceStream::from_trace(trace.clone()), cfg);
            assert_eq!(footprint.streamed_requests, trace.len());
            outcome
        }
        Variant::Traced => {
            let mut recorder = TraceRecorder::new(TraceConfig::sample_all());
            fleet.run_elastic_traced(trace, cfg, &mut recorder)
        }
    }
}

fn run_reliable(
    config: &FleetConfig,
    trace: &Trace,
    rel: &ReliabilityConfig,
    variant: Variant,
) -> ReliableFleetOutcome {
    let mut fleet = build_fleet(config, variant);
    match variant {
        Variant::Materialised | Variant::Pooled => fleet.run_reliable(trace, rel),
        Variant::Streamed => {
            let (outcome, footprint) =
                fleet.run_reliable_stream(TraceStream::from_trace(trace.clone()), rel);
            assert_eq!(footprint.streamed_requests, trace.len());
            outcome
        }
        Variant::Traced => {
            let mut recorder = TraceRecorder::new(TraceConfig::sample_all());
            fleet.run_reliable_traced(trace, rel, &mut recorder)
        }
    }
}

/// The autoscale smoke trace: 280 diurnal + flash-crowd arrival events of
/// mixed classes (seed 2026, as in `crates/bench/benches/autoscale.rs`).
fn autoscale_smoke_trace() -> Trace {
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
        280,
        &MixedClassProfile::overload_mix(),
        &mut SimRng::seed(2026),
    )
}

/// The autoscale bench's controllers with admission armed, composed with
/// rolling crashes and retries.
fn autoscale_smoke_controllers() -> ElasticConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, 4);
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
        .with_schedule(FailureSchedule::staggered(4, 40.0, 900.0))
        .with_retry(RetryPolicy::exponential(3, 0.25))
        .with_sla_window(30.0)
}

const AUTOSCALE_SMOKE_GOLDEN: u64 = 0x288e_4540_a793_795d;

#[test]
fn autoscale_smoke_under_crashes_admission_and_affinity_is_pinned() {
    let trace = autoscale_smoke_trace();
    let cfg = autoscale_smoke_controllers();
    let mut config =
        FleetConfig::paper_fleet(SystemKind::LoongServe, 4, RouterPolicy::PrefixAffinity);
    config.prefix_cache = Some(PrefixCacheConfig::default());
    let reference = run_elastic(&config, &trace, &cfg, Variant::Materialised);
    // The run must exercise what it claims to pin.
    assert!(reference.elasticity.scale_up_events >= 1);
    assert!(reference.elasticity.scale_down_events >= 1);
    assert!(!reference.shed.is_empty());
    assert!(reference.reliability.retries_scheduled >= 1);
    assert!(reference.fleet.cache.hits >= 1);
    assert_eq!(reference.total_requests(), trace.len());
    let golden = elastic_digest(&reference);
    for variant in VARIANTS {
        let outcome = run_elastic(&config, &trace, &cfg, variant);
        assert_eq!(elastic_digest(&outcome), golden, "{variant:?}");
    }
    assert_eq!(golden, AUTOSCALE_SMOKE_GOLDEN, "got {golden:#018x}");
}

const RELIABLE_BREAKER_GOLDEN: u64 = 0xc755_12a8_d2d7_15c6;

#[test]
fn reliable_run_with_retries_and_breaker_is_pinned() {
    let trace = Trace::generate(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate: 3.0 },
        150,
        &mut SimRng::seed(4242),
    );
    // Replica 0 crash-loops early, enough to trip a breaker that opens
    // after two failures; replica 2 crashes once later on.
    let mut events: Vec<FailureEvent> = (0..4)
        .map(|i| {
            let at = 2.0 + 3.0 * i as f64;
            FailureEvent::new(
                ReplicaId(0),
                SimTime::from_secs(at),
                SimTime::from_secs(at + 1.0),
            )
        })
        .collect();
    events.push(FailureEvent::new(
        ReplicaId(2),
        SimTime::from_secs(25.0),
        SimTime::from_secs(27.5),
    ));
    let rel = ReliabilityConfig::new(FailureSchedule::from_events(events))
        .with_retry(RetryPolicy::exponential(2, 0.5))
        .with_breaker(CircuitBreakerConfig::new(2, 60.0, 20.0))
        .with_sla_window(10.0);
    let config =
        FleetConfig::paper_fleet(SystemKind::LoongServe, 3, RouterPolicy::JoinShortestQueue);
    let reference = run_reliable(&config, &trace, &rel, Variant::Materialised);
    assert!(reference.reliability.breaker_opens >= 1);
    assert!(reference.reliability.retries_scheduled >= 1);
    assert_eq!(reference.total_requests(), trace.len());
    let golden = reliable_digest(&reference);
    for variant in VARIANTS {
        let outcome = run_reliable(&config, &trace, &rel, variant);
        assert_eq!(reliable_digest(&outcome), golden, "{variant:?}");
    }
    assert_eq!(golden, RELIABLE_BREAKER_GOLDEN, "got {golden:#018x}");
}

const CRASH_MID_DRAIN_GOLDEN: u64 = 0x7d76_852e_f14d_f020;

#[test]
fn crash_mid_drain_is_pinned() {
    // Round-robin puts the long pair on replica 0 and the shorter pair on
    // replica 1; the autoscaler drains replica 1 at 5 s and a crash
    // strikes it at 8 s, mid-drain.
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
    let config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
    let reference = run_elastic(&config, &trace, &cfg, Variant::Materialised);
    assert!(reference.reliability.retries_scheduled >= 1);
    assert_eq!(reference.elasticity.drains_completed, 1);
    let golden = elastic_digest(&reference);
    for variant in VARIANTS {
        let outcome = run_elastic(&config, &trace, &cfg, variant);
        assert_eq!(elastic_digest(&outcome), golden, "{variant:?}");
    }
    assert_eq!(golden, CRASH_MID_DRAIN_GOLDEN, "got {golden:#018x}");
}
