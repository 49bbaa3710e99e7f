//! Properties of the fleet-scale execution paths: streamed traces and
//! pooled (parallel) replica execution.
//!
//! Three contracts are pinned here, matching `DESIGN.md` §Fleet-scale
//! execution:
//!
//! * **Streamed ≡ materialised** — for every run path (`run`,
//!   `run_reliable`, `run_elastic`), every router policy (passthrough
//!   included) and every generator family, consuming the workload lazily
//!   through a [`TraceStream`] produces the same outcome, field for field
//!   and bit for bit, as materialising the [`Trace`] first. The streamed
//!   path may never buy its O(active + pending-retries) memory bound with
//!   a single changed timestamp.
//! * **Parallel ≡ serial** — with `FleetConfig::parallel` flipped on, the
//!   bounded worker pool advances replicas concurrently but settles
//!   them in replica-id order, so reliable and elastic runs under crash
//!   schedules (retries, breakers, scale events and all) reproduce the
//!   serial outcome bit for bit.
//! * **Footprint accounting** — the [`FleetFootprint`] returned by the
//!   streamed paths counts every pulled request exactly once and its
//!   resident high-water never exceeds the stream length.
//!
//! The generator-level bit-identity (stream vs. batch sampling) is pinned
//! separately in `crates/workload/src/stream.rs`; this suite is about the
//! *run* paths consuming the stream.

use loongserve::prelude::*;
use proptest::prelude::*;

const PROPTEST_SEED: u64 = 0x57e8_a811_0808_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

/// The six router policies, passthrough included — every equivalence here
/// must hold for all of them.
fn policy(idx: usize) -> RouterPolicy {
    match idx {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::JoinShortestQueue,
        2 => RouterPolicy::LeastKvLoad,
        3 => RouterPolicy::PowerOfTwoChoices { seed: 0xdecade },
        4 => RouterPolicy::PrefixAffinity,
        _ => RouterPolicy::Passthrough,
    }
}

fn fleet(replicas: usize, policy: RouterPolicy, parallel: bool) -> FleetEngine {
    let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, policy);
    config.parallel = parallel;
    FleetEngine::new(config)
}

/// A crash schedule dense enough to exercise several crashes within the
/// simulated horizon.
fn crash_schedule(replicas: usize, seed: u64) -> FailureSchedule {
    FailureSchedule::generate(
        replicas,
        SimDuration::from_secs(300.0),
        90.0,
        15.0,
        seed ^ 0xfa11,
    )
}

fn reliability_config(schedule: FailureSchedule, retry_sel: usize) -> ReliabilityConfig {
    let config = ReliabilityConfig::new(schedule).with_sla_window(30.0);
    match retry_sel {
        0 => config,
        1 => config.with_retry(RetryPolicy::exponential(2, 0.5)),
        _ => config
            .with_retry(RetryPolicy::exponential(3, 0.25))
            .with_breaker(CircuitBreakerConfig::new(3, 30.0, 120.0)),
    }
}

fn elastic_config(max_replicas: usize, schedule: FailureSchedule) -> ElasticConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, max_replicas);
    scaler.control_interval_s = 20.0;
    scaler.cooldown_s = 10.0;
    scaler.provisioning_delay_s = 7.0;
    scaler.scale_up_backlog_tokens = 30_000;
    scaler.scale_down_backlog_tokens = 8_000;
    ElasticConfig::new(scaler)
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(2, 0.5))
        .with_sla_window(30.0)
}

/// The generator families swept by the streamed≡materialised properties.
/// Each arm builds the trace and the stream from *independent* RNGs with
/// the same seed, so the comparison also re-proves generator bit-identity
/// end to end through the run path.
fn trace_and_stream(family: usize, count: usize, seed: u64) -> (Trace, TraceStream) {
    match family {
        0 => {
            let arrivals = ArrivalProcess::Poisson { rate: 6.0 };
            let trace = Trace::generate(
                DatasetKind::ShareGpt,
                arrivals,
                count,
                &mut SimRng::seed(seed),
            );
            let stream = TraceStream::dataset(
                DatasetKind::ShareGpt,
                arrivals,
                count,
                &mut SimRng::seed(seed),
            );
            (trace, stream)
        }
        1 => {
            let arrivals = ArrivalProcess::Poisson { rate: 2.0 };
            let profile = MultiTurnProfile::sharegpt();
            let trace = Trace::generate_multi_turn(
                DatasetKind::ShareGpt,
                &profile,
                arrivals,
                count,
                &mut SimRng::seed(seed),
            );
            let stream = TraceStream::multi_turn(
                DatasetKind::ShareGpt,
                &profile,
                arrivals,
                count,
                &mut SimRng::seed(seed),
            );
            (trace, stream)
        }
        _ => {
            let arrivals = ArrivalProcess::Poisson { rate: 3.0 };
            let profile = MixedClassProfile::overload_mix();
            let trace =
                Trace::generate_mixed_classes(arrivals, count, &profile, &mut SimRng::seed(seed));
            let stream =
                TraceStream::mixed_classes(arrivals, count, &profile, &mut SimRng::seed(seed));
            (trace, stream)
        }
    }
}

/// Footprint sanity shared by every streamed path: each trace request was
/// pulled exactly once, and the resident high-water is within the stream.
fn assert_footprint(footprint: &FleetFootprint, trace: &Trace) {
    assert_eq!(footprint.streamed_requests, trace.len());
    assert!(footprint.peak_resident_requests <= trace.len());
    assert!(trace.is_empty() || footprint.peak_resident_requests > 0);
}

proptest! {
    #![proptest_config(ci_config(8))]

    /// (a) `run_stream` ≡ `run` across generator families and every
    /// router policy, serial and pooled.
    #[test]
    fn streamed_plain_run_matches_materialized(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
        family in 0usize..3,
        parallel_sel in 0usize..2,
    ) {
        let parallel = parallel_sel == 1;
        let (trace, stream) = trace_and_stream(family, count, seed);
        let materialized = fleet(replicas, policy(policy_idx), parallel).run(&trace);
        let (streamed, footprint) =
            fleet(replicas, policy(policy_idx), parallel).run_stream(stream);
        prop_assert_eq!(format!("{materialized:?}"), format!("{streamed:?}"));
        assert_footprint(&footprint, &trace);
    }

    /// (b) `run_reliable_stream` ≡ `run_reliable` under crash schedules,
    /// retry corners and every router policy.
    #[test]
    fn streamed_reliable_run_matches_materialized(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
        family in 0usize..3,
        retry_sel in 0usize..3,
    ) {
        let (trace, stream) = trace_and_stream(family, count, seed);
        let rel = reliability_config(crash_schedule(replicas, seed), retry_sel);
        let materialized = fleet(replicas, policy(policy_idx), false).run_reliable(&trace, &rel);
        let (streamed, footprint) =
            fleet(replicas, policy(policy_idx), false).run_reliable_stream(stream, &rel);
        prop_assert_eq!(format!("{materialized:?}"), format!("{streamed:?}"));
        assert_footprint(&footprint, &trace);
    }

    /// (c) `run_elastic_stream` ≡ `run_elastic` with crashes, retries and
    /// the autoscaler all armed, for every router policy.
    #[test]
    fn streamed_elastic_run_matches_materialized(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
        family in 0usize..3,
    ) {
        let (trace, stream) = trace_and_stream(family, count, seed);
        let cfg = elastic_config(max_replicas, crash_schedule(max_replicas, seed));
        let materialized =
            fleet(max_replicas, policy(policy_idx), false).run_elastic(&trace, &cfg);
        let (streamed, footprint) =
            fleet(max_replicas, policy(policy_idx), false).run_elastic_stream(stream, &cfg);
        prop_assert_eq!(format!("{materialized:?}"), format!("{streamed:?}"));
        assert_footprint(&footprint, &trace);
    }

    /// (d) Pooled replica execution ≡ serial for `run_reliable`: crashes,
    /// casualties and retries resolve identically when the crashing
    /// replicas advance on the worker pool.
    #[test]
    fn parallel_and_serial_reliable_runs_agree(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
        retry_sel in 0usize..3,
    ) {
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate: 6.0 },
            count,
            &mut SimRng::seed(seed),
        );
        let rel = reliability_config(crash_schedule(replicas, seed), retry_sel);
        let serial = fleet(replicas, policy(policy_idx), false).run_reliable(&trace, &rel);
        let pooled = fleet(replicas, policy(policy_idx), true).run_reliable(&trace, &rel);
        prop_assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    }

    /// (e) Pooled replica execution ≡ serial for `run_elastic`: crashes,
    /// control-instant observations, drains and final runs all go
    /// through the pool without moving a bit.
    #[test]
    fn parallel_and_serial_elastic_runs_agree(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
    ) {
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate: 6.0 },
            count,
            &mut SimRng::seed(seed),
        );
        let cfg = elastic_config(max_replicas, crash_schedule(max_replicas, seed));
        let serial = fleet(max_replicas, policy(policy_idx), false).run_elastic(&trace, &cfg);
        let pooled = fleet(max_replicas, policy(policy_idx), true).run_elastic(&trace, &cfg);
        prop_assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    }
}

/// A `from_trace` stream replays an explicit trace verbatim through the
/// plain run path — the adapter the benches use to stream a pre-built
/// workload.
#[test]
fn from_trace_stream_replays_verbatim_through_run() {
    let trace = Trace::generate(
        DatasetKind::LEval,
        ArrivalProcess::Poisson { rate: 1.5 },
        24,
        &mut SimRng::seed(404),
    );
    let materialized = fleet(3, RouterPolicy::JoinShortestQueue, false).run(&trace);
    let (streamed, footprint) = fleet(3, RouterPolicy::JoinShortestQueue, false)
        .run_stream(TraceStream::from_trace(trace.clone()));
    assert_eq!(format!("{materialized:?}"), format!("{streamed:?}"));
    assert_eq!(footprint.streamed_requests, trace.len());
}

/// A crash restarts its replica empty, so under a crash-rich schedule the
/// resident high-water stays strictly below the stream length — the
/// O(active + pending-retries) memory claim, pinned on a concrete workload.
#[test]
fn crash_boundaries_bound_the_resident_footprint() {
    // Arrivals spread over ~400s with a crash roughly every 40s: many
    // crashes, each emptying its replica before it fills again.
    let trace = Trace::generate(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate: 0.5 },
        200,
        &mut SimRng::seed(11),
    );
    let schedule = FailureSchedule::generate(2, SimDuration::from_secs(400.0), 40.0, 10.0, 77);
    let rel = ReliabilityConfig::new(schedule)
        .with_retry(RetryPolicy::exponential(2, 0.5))
        .with_sla_window(30.0);
    let stream = TraceStream::from_trace(trace.clone());
    let (outcome, footprint) =
        fleet(2, RouterPolicy::JoinShortestQueue, false).run_reliable_stream(stream, &rel);
    assert_eq!(outcome.total_requests(), trace.len());
    assert_eq!(footprint.streamed_requests, trace.len());
    assert!(
        footprint.peak_resident_requests < trace.len() / 2,
        "crashes must empty their replicas: peak {} vs {} streamed",
        footprint.peak_resident_requests,
        trace.len()
    );
}
