//! Properties of the elasticity tier: fleet runs under SLO-driven
//! autoscaling, admission control and load shedding — composed, in the
//! hardest cases, with failure injection.
//!
//! Five contracts are pinned here, matching the tier's module docs:
//!
//! * **Exactly-once accounting** — over random mixed-class traces, elastic
//!   autoscalers, admission controllers and failure schedules, under every
//!   router policy, each trace request ends in exactly one of the five
//!   ledgers (completed, rejected, shed, terminally failed, unfinished).
//! * **Drains kill nothing** — a drained replica accepts no new routes
//!   from the drain decision until (at least) a later re-activation, and —
//!   absent failure injection — everything already routed to it completes.
//! * **Crash × drain composition** — a crash striking mid-drain converts
//!   the remainder into ordinary casualties: they retry or fail terminally
//!   under the retry policy, and the five-way partition still holds, for
//!   all six router policies.
//! * **Determinism** — for a fixed seed, identical elastic runs agree bit
//!   for bit (assignments, records, sheds, scale events, both ledgers,
//!   SLA windows) under *every* router policy.
//! * **Armed-but-idle neutrality** — an autoscaler pinned to the fleet
//!   size plus a shedder that can never fire reproduce the pinned golden
//!   digests of `tests/fleet_equivalence.rs` bit for bit, even though
//!   control instants (and their observations of live replicas) still
//!   execute.

use loongserve::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::Digest;

const PROPTEST_SEED: u64 = 0xe1a5_71c5_0808_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

fn sharegpt_trace(rate: f64, count: usize, seed: u64) -> Trace {
    WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, seed)
}

/// The overload workload shape: diurnal arrivals with a flash crowd,
/// classified into interactive / long-document / multi-turn streams.
fn mixed_trace(count: usize, seed: u64) -> Trace {
    let arrivals = ArrivalProcess::DiurnalFlash {
        trough_rate: 1.0,
        peak_rate: 5.0,
        period_secs: 120.0,
        flash_start_s: 40.0,
        flash_secs: 20.0,
        flash_rate: 12.0,
    };
    let mut rng = SimRng::seed(seed);
    Trace::generate_mixed_classes(
        arrivals,
        count,
        &MixedClassProfile::overload_mix(),
        &mut rng,
    )
}

fn fleet(replicas: usize, policy: RouterPolicy) -> FleetEngine {
    FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        replicas,
        policy,
    ))
}

/// The six router policies, passthrough included — every sweep must hold
/// for all of them.
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

/// An autoscaler sized for the short property traces: 20 s control
/// windows, quick cooldown, a provisioning delay deliberately coprime
/// with the control interval (no boundary ever coincides with a
/// ready-instant).
fn property_scaler(max_replicas: usize) -> AutoscalerConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, max_replicas);
    scaler.control_interval_s = 20.0;
    scaler.cooldown_s = 10.0;
    scaler.provisioning_delay_s = 7.0;
    scaler.scale_up_backlog_tokens = 30_000;
    scaler.scale_down_backlog_tokens = 8_000;
    scaler
}

/// The admission corners swept by the property tests: unarmed, armed but
/// unreachable, and a tight controller that really sheds under the flash.
fn admission_corner(sel: usize) -> Option<AdmissionConfig> {
    match sel {
        0 => None,
        1 => Some(AdmissionConfig::never_sheds()),
        _ => {
            let mut adm = AdmissionConfig::overload_defaults();
            adm.replica_capacity_tokens = 15_000;
            Some(adm)
        }
    }
}

/// Same digest as `tests/fleet_equivalence.rs` (via the shared
/// `golden_util` field walk): a bit-for-bit digest of a [`FleetOutcome`].
fn fleet_digest(outcome: &FleetOutcome) -> u64 {
    let mut d = Digest::new();
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
    d.word(outcome.unfinished as u64);
    d.time(outcome.sim_time);
    d.word(outcome.iterations);
    d.word(outcome.migration_bytes.to_bits());
    d.word(outcome.scheduler_calls);
    d.0
}

/// Checks the five-way exactly-once partition: every trace id lands in
/// precisely one of completed / rejected / shed / terminally-failed /
/// unfinished, and the elasticity ledger agrees with the lists.
fn assert_exactly_once(trace: &Trace, outcome: &ElasticFleetOutcome) {
    let trace_ids: BTreeSet<RequestId> = trace.requests.iter().map(|r| r.id).collect();
    let completed: BTreeSet<RequestId> = outcome.fleet.records.iter().map(|r| r.id).collect();
    let rejected: BTreeSet<RequestId> = outcome.fleet.rejected.iter().map(|r| r.0).collect();
    let failed: BTreeSet<RequestId> = outcome.failed.iter().map(|f| f.id).collect();
    let shed: BTreeSet<RequestId> = outcome.shed.iter().map(|s| s.id).collect();

    // No ledger holds duplicates...
    prop_assert_eq!(completed.len(), outcome.fleet.records.len());
    prop_assert_eq!(rejected.len(), outcome.fleet.rejected.len());
    prop_assert_eq!(failed.len(), outcome.failed.len());
    prop_assert_eq!(shed.len(), outcome.shed.len());
    // ...every ledger holds only trace ids...
    prop_assert!(completed.is_subset(&trace_ids));
    prop_assert!(rejected.is_subset(&trace_ids));
    prop_assert!(failed.is_subset(&trace_ids));
    prop_assert!(shed.is_subset(&trace_ids));
    // ...the ledgers are pairwise disjoint...
    prop_assert!(completed.is_disjoint(&rejected));
    prop_assert!(completed.is_disjoint(&failed));
    prop_assert!(completed.is_disjoint(&shed));
    prop_assert!(rejected.is_disjoint(&failed));
    prop_assert!(rejected.is_disjoint(&shed));
    prop_assert!(failed.is_disjoint(&shed));
    // ...and with `unfinished` they partition the trace exactly.
    prop_assert_eq!(
        completed.len() + rejected.len() + failed.len() + shed.len() + outcome.fleet.unfinished,
        trace.len()
    );
    prop_assert_eq!(outcome.total_requests(), trace.len());

    // The elasticity ledger's class counters are the shed list, recounted.
    let by_class = |class: TrafficClass| outcome.shed.iter().filter(|s| s.class == class).count();
    prop_assert_eq!(
        outcome.elasticity.shed_interactive,
        by_class(TrafficClass::Interactive) as u64
    );
    prop_assert_eq!(
        outcome.elasticity.shed_standard,
        by_class(TrafficClass::Standard) as u64
    );
    prop_assert_eq!(
        outcome.elasticity.shed_best_effort,
        by_class(TrafficClass::BestEffort) as u64
    );
    prop_assert_eq!(outcome.elasticity.shed_total(), outcome.shed.len() as u64);
    // Scale events and the reliability ledger agree with their lists too.
    prop_assert_eq!(
        outcome.elasticity.drains_completed,
        outcome
            .scale_events
            .iter()
            .filter(|e| matches!(e.kind, FleetScaleKind::Retired { .. }))
            .count() as u64
    );
    prop_assert_eq!(
        outcome.reliability.retries_exhausted,
        outcome.failed.len() as u64
    );
    prop_assert!(outcome.reliability.recovered_requests <= outcome.reliability.failed_attempts);
    prop_assert_eq!(
        outcome.route_instants.len(),
        outcome.fleet.assignments.len()
    );
}

/// Checks that no route lands on a replica between its retirement and its
/// next re-activation: the drain removes the victim from the routable set
/// durably, not just until the next control instant.
fn assert_no_routes_to_retired(outcome: &ElasticFleetOutcome) {
    // Per replica, the chronological [retired, reactivated) windows.
    #[derive(Clone, Copy)]
    enum Edge {
        Out(SimTime),
        In(SimTime),
    }
    let mut edges: std::collections::BTreeMap<ReplicaId, Vec<Edge>> =
        std::collections::BTreeMap::new();
    for event in &outcome.scale_events {
        match event.kind {
            FleetScaleKind::Retired { replica, .. } => {
                edges.entry(replica).or_default().push(Edge::Out(event.at));
            }
            FleetScaleKind::Activated { replica, ready_at } => {
                edges.entry(replica).or_default().push(Edge::In(ready_at));
            }
        }
    }
    for (i, &(id, replica)) in outcome.fleet.assignments.iter().enumerate() {
        let at = outcome.route_instants[i];
        let Some(timeline) = edges.get(&replica) else {
            continue;
        };
        // The replica's routability at `at`: scan the (chronological)
        // event list for the last edge at or before the route instant.
        let mut forbidden = false;
        for edge in timeline {
            match *edge {
                Edge::Out(t) if t <= at => forbidden = true,
                Edge::In(t) if t <= at => forbidden = false,
                _ => {}
            }
        }
        prop_assert!(
            !forbidden,
            "{id:?} routed to {replica} at {at}, inside a retirement window"
        );
    }
}

proptest! {
    #![proptest_config(ci_config(6))]

    /// (a) Exactly-once accounting over the full cross product: mixed-class
    /// diurnal+flash traces, elastic autoscaling, the admission corners and
    /// every router policy.
    #[test]
    fn every_request_lands_in_exactly_one_of_five_ledgers(
        seed in 0u64..1_000_000,
        count in 20usize..40,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
        admission_sel in 0usize..3,
    ) {
        let trace = mixed_trace(count, seed);
        let mut cfg = ElasticConfig::new(property_scaler(max_replicas));
        if let Some(adm) = admission_corner(admission_sel) {
            cfg = cfg.with_admission(adm);
        }
        let outcome = fleet(max_replicas, policy(policy_idx)).run_elastic(&trace, &cfg);
        assert_exactly_once(&trace, &outcome);
        assert_no_routes_to_retired(&outcome);
        // Without failure injection nothing can fail terminally, and a
        // replica-second was spent on every completion.
        prop_assert!(outcome.failed.is_empty());
        prop_assert!(outcome.elasticity.replica_seconds >= 0.0);
        prop_assert!(
            outcome.fleet.records.is_empty() || outcome.elasticity.replica_seconds > 0.0
        );
    }

    /// (b) Drains kill nothing: without failure injection, every request
    /// the fleet admitted completes (or is rejected by a replica's own
    /// engine) even while the autoscaler grows and shrinks the fleet, and
    /// drained replicas take no new work until re-activated.
    #[test]
    fn drained_replicas_finish_their_work_and_take_no_new_routes(
        seed in 0u64..1_000_000,
        count in 20usize..40,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
    ) {
        let trace = mixed_trace(count, seed);
        let cfg = ElasticConfig::new(property_scaler(max_replicas))
            .with_initial(max_replicas);
        let outcome = fleet(max_replicas, policy(policy_idx)).run_elastic(&trace, &cfg);
        assert_exactly_once(&trace, &outcome);
        assert_no_routes_to_retired(&outcome);
        prop_assert!(outcome.failed.is_empty(), "no crash, no terminal failures");
        prop_assert_eq!(outcome.fleet.unfinished, 0, "drains run to completion");
        prop_assert_eq!(
            outcome.fleet.records.len() + outcome.fleet.rejected.len() + outcome.shed.len(),
            trace.len()
        );
        // Drain bookkeeping is internally consistent.
        prop_assert!(outcome.elasticity.max_drain_s <= outcome.elasticity.total_drain_s + 1e-9);
        for event in &outcome.scale_events {
            if let FleetScaleKind::Retired { drain_s, .. } = event.kind {
                prop_assert!(drain_s >= 0.0);
                prop_assert!(drain_s <= outcome.elasticity.max_drain_s + 1e-9);
            }
        }
    }

    /// (c) Crash × drain composition: failure injection, retries and the
    /// elastic autoscaler together, under every router policy. Casualties
    /// (including work lost when a crash interrupts a drain) retry or fail
    /// terminally; the five-way partition and the retired-window contract
    /// both hold.
    #[test]
    fn crashes_during_scaling_resolve_through_the_retry_ledger(
        seed in 0u64..1_000_000,
        count in 18usize..36,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
        retry_sel in 0usize..2,
    ) {
        let trace = mixed_trace(count, seed);
        let schedule = FailureSchedule::generate(
            max_replicas,
            SimDuration::from_secs(240.0),
            80.0,
            15.0,
            seed ^ 0xe1a5,
        );
        let retry = if retry_sel == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::exponential(2, 0.5)
        };
        let cfg = ElasticConfig::new(property_scaler(max_replicas))
            .with_initial(max_replicas)
            .with_schedule(schedule)
            .with_retry(retry)
            .with_admission(AdmissionConfig::never_sheds())
            .with_sla_window(30.0);
        let outcome = fleet(max_replicas, policy(policy_idx)).run_elastic(&trace, &cfg);
        assert_exactly_once(&trace, &outcome);
        assert_no_routes_to_retired(&outcome);
        // Fail-fast: every lost attempt is terminal. With budget: terminal
        // failures only after the budget is spent.
        if retry_sel == 0 {
            prop_assert_eq!(outcome.reliability.retries_scheduled, 0);
            prop_assert_eq!(
                outcome.reliability.failed_attempts,
                outcome.failed.len() as u64
            );
        }
        prop_assert_eq!(
            outcome.reliability.crashes,
            cfg.schedule.events().len() as u64
        );
        // The availability series spans the run whenever anything completed.
        if !outcome.fleet.records.is_empty() {
            prop_assert!(!outcome.sla_windows.is_empty());
        }
    }

    /// (d) Determinism: for a fixed seed the whole elastic outcome —
    /// fleet digest, sheds, scale events, route instants, both ledgers,
    /// SLA windows — is reproduced bit for bit under every router policy.
    #[test]
    fn elastic_outcomes_are_deterministic_for_a_fixed_seed_under_every_policy(
        seed in 0u64..1_000_000,
        count in 16usize..30,
        max_replicas in 2usize..4,
        admission_sel in 0usize..3,
    ) {
        let trace = mixed_trace(count, seed);
        let schedule = FailureSchedule::generate(
            max_replicas,
            SimDuration::from_secs(200.0),
            100.0,
            12.0,
            seed ^ 0xd37e,
        );
        for idx in 0..6 {
            let mut cfg = ElasticConfig::new(property_scaler(max_replicas))
                .with_schedule(schedule.clone())
                .with_retry(RetryPolicy::exponential(2, 0.5));
            if let Some(adm) = admission_corner(admission_sel) {
                cfg = cfg.with_admission(adm);
            }
            let a = fleet(max_replicas, policy(idx)).run_elastic(&trace, &cfg);
            let b = fleet(max_replicas, policy(idx)).run_elastic(&trace, &cfg);
            prop_assert_eq!(fleet_digest(&a.fleet), fleet_digest(&b.fleet));
            prop_assert_eq!(&a.fleet.assignments, &b.fleet.assignments);
            prop_assert_eq!(&a.shed, &b.shed);
            prop_assert_eq!(&a.scale_events, &b.scale_events);
            prop_assert_eq!(&a.route_instants, &b.route_instants);
            prop_assert_eq!(&a.failed, &b.failed);
            prop_assert_eq!(a.elasticity, b.elasticity);
            prop_assert_eq!(a.reliability, b.reliability);
            prop_assert_eq!(&a.sla_windows, &b.sla_windows);
        }
    }
}

// ---------------------------------------------------------------------------
// Armed-but-idle golden pins.
//
// The constants below are *the same* goldens as `tests/fleet_equivalence.rs`
// pins for the plain fleet (same trace recipes, same digest walk): an
// autoscaler pinned to the fleet size plus a shedder that can never fire
// must not move a bit, even though control instants — observations of
// the live replicas included — still execute. Re-capture (only for intentional behaviour
// changes) via that suite's GOLDEN_PRINT procedure; the three files
// (`fleet_equivalence`, `reliability_properties`, this one) must stay in
// lockstep.
// ---------------------------------------------------------------------------

const GOLDEN_FLEET_2X_ROUND_ROBIN: u64 = 0xb4a0_4cc9_72b0_c57f;
const GOLDEN_FLEET_4X_JSQ: u64 = 0x3598_362b_d2d5_f0d0;
const GOLDEN_FLEET_4X_P2C: u64 = 0x922d_41e0_3abc_c691;

fn assert_armed_idle_invariants(outcome: &ElasticFleetOutcome, n: u64) {
    assert!(outcome.shed.is_empty());
    assert!(outcome.scale_events.is_empty());
    assert!(outcome.failed.is_empty());
    assert!(outcome.reliability.is_zero());
    assert_eq!(outcome.elasticity.scale_up_events, 0);
    assert_eq!(outcome.elasticity.scale_down_events, 0);
    assert_eq!(outcome.elasticity.shed_total(), 0);
    assert_eq!(outcome.elasticity.min_active_replicas, n);
    assert_eq!(outcome.elasticity.max_active_replicas, n);
    assert!(outcome.elasticity.replica_seconds > 0.0);
}

#[test]
fn armed_idle_two_replica_round_robin_stays_on_golden() {
    let trace = sharegpt_trace(12.0, 80, 4242);
    let outcome =
        fleet(2, RouterPolicy::RoundRobin).run_elastic(&trace, &ElasticConfig::armed_idle(2));
    assert_eq!(
        fleet_digest(&outcome.fleet),
        GOLDEN_FLEET_2X_ROUND_ROBIN,
        "armed-but-idle elasticity tier moved the 2x round-robin golden"
    );
    assert_armed_idle_invariants(&outcome, 2);
}

#[test]
fn armed_idle_four_replica_jsq_stays_on_golden() {
    let trace = sharegpt_trace(24.0, 80, 4242);
    let outcome = fleet(4, RouterPolicy::JoinShortestQueue)
        .run_elastic(&trace, &ElasticConfig::armed_idle(4));
    assert_eq!(
        fleet_digest(&outcome.fleet),
        GOLDEN_FLEET_4X_JSQ,
        "armed-but-idle elasticity tier moved the 4x JSQ golden"
    );
    assert_armed_idle_invariants(&outcome, 4);
}

#[test]
fn armed_idle_four_replica_p2c_stays_on_golden() {
    let trace = sharegpt_trace(24.0, 80, 4242);
    let outcome = fleet(4, RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 })
        .run_elastic(&trace, &ElasticConfig::armed_idle(4));
    assert_eq!(
        fleet_digest(&outcome.fleet),
        GOLDEN_FLEET_4X_P2C,
        "armed-but-idle elasticity tier moved the 4x p2c golden"
    );
    assert_armed_idle_invariants(&outcome, 4);
}

#[test]
fn armed_idle_summary_rolls_up_a_clean_elasticity_ledger() {
    let trace = sharegpt_trace(12.0, 40, 9);
    let outcome =
        fleet(2, RouterPolicy::LeastKvLoad).run_elastic(&trace, &ElasticConfig::armed_idle(2));
    let summary = outcome.summary(
        "LoongServe x2",
        "ShareGPT",
        12.0,
        &SloSpec::default_for_lwm(),
    );
    assert!(summary.reliability.is_zero());
    assert!(
        !summary.elasticity.is_zero(),
        "replica-seconds always accrue"
    );
    assert_eq!(summary.elasticity.shed_total(), 0);
    assert_eq!(summary.success_ratio(), 1.0);
}
