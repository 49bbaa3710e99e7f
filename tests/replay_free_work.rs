//! Replay-free work: a fleet executes each replica iteration once.
//!
//! Replicas are live sims that advance only as far as a crash or a control
//! instant needs them, so observing the fleet costs no simulated work.
//! The scheduling points a run executes are counted by the process-global
//! `SelfProfile` counters, which is why this suite is a binary of its own
//! with a single test: no other test may run simulations concurrently.

use loongserve::prelude::*;

/// A diurnal + flash-crowd trace of mixed classes, busy enough that the
/// autoscaler scales up and back down.
fn flash_trace() -> Trace {
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
        160,
        &MixedClassProfile::overload_mix(),
        &mut SimRng::seed(2026),
    )
}

fn fleet(replicas: usize) -> FleetEngine {
    FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        replicas,
        RouterPolicy::JoinShortestQueue,
    ))
}

/// Runs `f`, returning its result and the scheduling points it executed.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let profile = SelfProfile::start();
    let out = f();
    (out, profile.report().counters.sched_points)
}

#[test]
fn fleets_execute_each_scheduling_point_once() {
    let trace = flash_trace();

    // Armed-idle control instants observe the live replicas without
    // re-running them: exactly the static fleet's work.
    let (plain, plain_points) = counted(|| fleet(4).run(&trace));
    let (idle, idle_points) =
        counted(|| fleet(4).run_elastic(&trace, &ElasticConfig::armed_idle(4)));
    assert_eq!(plain_points, plain.scheduler_calls);
    assert_eq!(idle.fleet.scheduler_calls, plain.scheduler_calls);
    assert_eq!(
        idle_points, plain_points,
        "armed-idle elastic run executed {idle_points} scheduling points, the static run {plain_points}"
    );

    // Autoscaled under rolling crashes: every executed scheduling point is
    // one some replica segment counts — at most one more per crash.
    let mut scaler = AutoscalerConfig::overload_defaults(1, 4);
    scaler.control_interval_s = 10.0;
    scaler.cooldown_s = 5.0;
    scaler.provisioning_delay_s = 5.0;
    scaler.scale_up_backlog_tokens = 24_000;
    scaler.scale_down_backlog_tokens = 12_000;
    let crashes: Vec<FailureEvent> = (0..4u64)
        .map(|r| {
            let at = 15.0 + 30.0 * r as f64;
            FailureEvent::new(
                ReplicaId(r),
                SimTime::from_secs(at),
                SimTime::from_secs(at + 1.0),
            )
        })
        .collect();
    let cfg = ElasticConfig::new(scaler)
        .with_initial(2)
        .with_schedule(FailureSchedule::from_events(crashes))
        .with_retry(RetryPolicy::exponential(3, 0.25));
    let (scaled, scaled_points) = counted(|| fleet(4).run_elastic(&trace, &cfg));
    assert!(scaled.elasticity.scale_up_events + scaled.elasticity.scale_down_events >= 1);
    assert!(
        scaled.reliability.failed_attempts >= 1,
        "a crash must interrupt work"
    );
    let executed: u64 = scaled
        .fleet
        .per_replica
        .iter()
        .map(|r| r.outcome.scheduler_calls)
        .sum();
    let crashes = scaled.reliability.crashes;
    assert!(
        (executed..=executed + crashes).contains(&scaled_points),
        "autoscaled run executed {scaled_points} scheduling points for {executed} counted \
         by its replicas ({crashes} crashes)"
    );
}
