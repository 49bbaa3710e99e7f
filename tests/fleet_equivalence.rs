//! Fleet-tier equivalence and determinism goldens.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Single-replica identity.** A 1-replica [`FleetEngine`] must be the
//!    bare [`ServingEngine`] with routing glued on: under the passthrough
//!    router (and, since every policy degenerates to "the only replica",
//!    under all four load-balancing policies too) the fleet's merged
//!    outcome equals the single engine's [`RunOutcome`] **bit for bit** —
//!    every timestamp, every rejection reason, every counter.
//! 2. **Multi-replica determinism.** 2- and 4-replica fleet runs pin a
//!    64-bit digest of the full [`FleetOutcome`] — assignments, per-replica
//!    outcomes, merged records — alongside the single-engine goldens in
//!    `tests/determinism_golden.rs`. Routing or merge refactors must not
//!    move a bit.
//! 3. **Every policy under crashes.** Each of the six routing policies
//!    serves the same multi-turn trace on a 3-replica fleet with rolling
//!    crashes and retries, so every policy — P2C and round-robin included —
//!    routes over shrunken candidate sets and re-routes retries. Each run
//!    pins a digest of the whole reliable outcome.
//!
//! To re-capture after an *intentional* behaviour change, run:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test fleet_equivalence -- --nocapture
//! ```

use loongserve::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::Digest;

/// A bit-for-bit digest of everything in a [`FleetOutcome`].
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

fn sharegpt_trace(rate: f64, count: usize, seed: u64) -> Trace {
    WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, seed)
}

/// Asserts that a fleet's merged outcome equals the single engine's, field
/// by field, bit for bit.
fn assert_outcome_equal(fleet: &FleetOutcome, single: &RunOutcome) {
    assert_eq!(fleet.records, single.records, "records diverged");
    assert_eq!(fleet.rejected, single.rejected, "rejections diverged");
    assert_eq!(fleet.unfinished, single.unfinished, "unfinished diverged");
    assert_eq!(fleet.sim_time, single.sim_time, "sim time diverged");
    assert_eq!(fleet.iterations, single.iterations, "iterations diverged");
    assert_eq!(
        fleet.migration_bytes.to_bits(),
        single.migration_bytes.to_bits(),
        "migration bytes diverged"
    );
    assert_eq!(
        fleet.scheduler_calls, single.scheduler_calls,
        "scheduler calls diverged"
    );
}

fn single_outcome(kind: SystemKind, trace: &Trace) -> RunOutcome {
    let system = SystemUnderTest::paper_single_node(kind);
    let mut engine = system.build_engine(Some(trace));
    engine.run(trace)
}

fn fleet_outcome(
    kind: SystemKind,
    replicas: usize,
    policy: RouterPolicy,
    trace: &Trace,
) -> FleetOutcome {
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(kind, replicas, policy));
    fleet.run(trace)
}

#[test]
fn one_replica_passthrough_is_the_bare_engine_bit_for_bit() {
    let trace = sharegpt_trace(6.0, 60, 4242);
    let single = single_outcome(SystemKind::LoongServe, &trace);
    let fleet = fleet_outcome(SystemKind::LoongServe, 1, RouterPolicy::Passthrough, &trace);
    assert_outcome_equal(&fleet, &single);
    // The one replica saw the whole trace.
    assert_eq!(fleet.per_replica.len(), 1);
    assert_eq!(fleet.per_replica[0].assigned, trace.len());
    assert!(fleet
        .assignments
        .iter()
        .all(|&(_, replica)| replica == ReplicaId(0)));
}

#[test]
fn one_replica_passthrough_matches_for_baseline_systems_too() {
    let trace = sharegpt_trace(6.0, 40, 99);
    for kind in [SystemKind::Vllm, SystemKind::DistServe] {
        let single = single_outcome(kind, &trace);
        let fleet = fleet_outcome(kind, 1, RouterPolicy::Passthrough, &trace);
        assert_outcome_equal(&fleet, &single);
    }
}

#[test]
fn every_policy_degenerates_to_passthrough_on_one_replica() {
    let trace = sharegpt_trace(4.0, 30, 7);
    let single = single_outcome(SystemKind::LoongServe, &trace);
    for policy in RouterPolicy::all_policies() {
        let fleet = fleet_outcome(SystemKind::LoongServe, 1, policy, &trace);
        assert_outcome_equal(&fleet, &single);
    }
}

fn check(label: &str, expected: u64, actual: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {label} = 0x{actual:016x}");
        return;
    }
    assert_eq!(
        actual, expected,
        "{label}: FleetOutcome digest changed: expected 0x{expected:016x}, got 0x{actual:016x}. \
         Router/merge refactors must be bit-for-bit neutral; re-capture with GOLDEN_PRINT=1 \
         only for intentional behaviour changes."
    );
}

#[test]
fn two_replica_round_robin_outcome_is_pinned() {
    let trace = sharegpt_trace(12.0, 80, 4242);
    let fleet = fleet_outcome(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin, &trace);
    assert_eq!(fleet.total_requests(), 80);
    check(
        "fleet_2x_round_robin",
        GOLDEN_FLEET_2X_ROUND_ROBIN,
        fleet_digest(&fleet),
    );
}

#[test]
fn four_replica_jsq_outcome_is_pinned() {
    let trace = sharegpt_trace(24.0, 80, 4242);
    let fleet = fleet_outcome(
        SystemKind::LoongServe,
        4,
        RouterPolicy::JoinShortestQueue,
        &trace,
    );
    assert_eq!(fleet.total_requests(), 80);
    check("fleet_4x_jsq", GOLDEN_FLEET_4X_JSQ, fleet_digest(&fleet));
}

#[test]
fn four_replica_p2c_outcome_is_pinned() {
    let trace = sharegpt_trace(24.0, 80, 4242);
    let fleet = fleet_outcome(
        SystemKind::LoongServe,
        4,
        RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 },
        &trace,
    );
    check("fleet_4x_p2c", GOLDEN_FLEET_4X_P2C, fleet_digest(&fleet));
}

#[test]
fn repeated_fleet_runs_reproduce_the_digest() {
    let trace = sharegpt_trace(12.0, 40, 9);
    let a = fleet_digest(&fleet_outcome(
        SystemKind::LoongServe,
        2,
        RouterPolicy::LeastKvLoad,
        &trace,
    ));
    let b = fleet_digest(&fleet_outcome(
        SystemKind::LoongServe,
        2,
        RouterPolicy::LeastKvLoad,
        &trace,
    ));
    assert_eq!(a, b, "identical seeds must reproduce identical fleet runs");
}

/// A multi-turn ShareGPT trace on a 3-replica fleet whose replicas each
/// crash for one second every six seconds, staggered so one of the three
/// is down half the time; casualties retry with backoff.
fn crash_run(policy: RouterPolicy) -> (Trace, FailureSchedule, ReliableFleetOutcome) {
    let trace = Trace::generate_multi_turn(
        DatasetKind::ShareGpt,
        &MultiTurnProfile::sharegpt(),
        ArrivalProcess::Poisson { rate: 2.0 },
        24,
        &mut SimRng::seed(0x9011c7),
    );
    let schedule = FailureSchedule::staggered(3, 6.0, 120.0);
    let rel =
        ReliabilityConfig::new(schedule.clone()).with_retry(RetryPolicy::exponential(3, 0.25));
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(SystemKind::LoongServe, 3, policy));
    let outcome = fleet.run_reliable(&trace, &rel);
    (trace, schedule, outcome)
}

fn reliable_digest(outcome: &ReliableFleetOutcome) -> u64 {
    let mut d = Digest(fleet_digest(&outcome.fleet));
    d.failed(&outcome.failed);
    d.reliability(&outcome.reliability, &outcome.sla_windows);
    d.0
}

#[test]
fn every_policy_under_rolling_crashes_is_pinned() {
    let policies = [
        (RouterPolicy::Passthrough, GOLDEN_CRASH_PASSTHROUGH),
        (RouterPolicy::RoundRobin, GOLDEN_CRASH_ROUND_ROBIN),
        (RouterPolicy::JoinShortestQueue, GOLDEN_CRASH_JSQ),
        (RouterPolicy::LeastKvLoad, GOLDEN_CRASH_LEAST_KV),
        (
            RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 },
            GOLDEN_CRASH_P2C,
        ),
        (RouterPolicy::PrefixAffinity, GOLDEN_CRASH_PREFIX_AFFINITY),
    ];
    for (policy, golden) in policies {
        let (trace, schedule, outcome) = crash_run(policy);
        // The run must exercise what it claims to pin: arrivals while a
        // replica is down, crash casualties retried, every request settled.
        assert!(trace
            .requests
            .iter()
            .any(|r| (0..3).any(|i| schedule.is_down(ReplicaId(i), r.arrival))));
        assert!(trace.requests.iter().any(|r| r.conversation.is_some()));
        assert!(outcome.reliability.retries_scheduled >= 1, "{policy:?}");
        assert_eq!(outcome.total_requests(), trace.len(), "{policy:?}");
        check(
            &format!("crash_{}", policy.label()),
            golden,
            reliable_digest(&outcome),
        );
    }
}

// Captured at fleet-tier introduction; see module docs for the re-capture
// procedure.
const GOLDEN_FLEET_2X_ROUND_ROBIN: u64 = 0xb4a0_4cc9_72b0_c57f;
const GOLDEN_FLEET_4X_JSQ: u64 = 0x3598_362b_d2d5_f0d0;
const GOLDEN_FLEET_4X_P2C: u64 = 0x922d_41e0_3abc_c691;

// Captured before the routing policies were folded into one `Router` value;
// the fold had to leave all six unchanged.
const GOLDEN_CRASH_PASSTHROUGH: u64 = 0xa863_c98f_1ac9_1431;
const GOLDEN_CRASH_ROUND_ROBIN: u64 = 0xbf21_5e46_99c9_570a;
const GOLDEN_CRASH_JSQ: u64 = 0xdcf2_abd6_ab17_623d;
const GOLDEN_CRASH_LEAST_KV: u64 = 0xb290_094b_0434_2fd7;
const GOLDEN_CRASH_P2C: u64 = 0x1495_9024_f21e_7ac5;
const GOLDEN_CRASH_PREFIX_AFFINITY: u64 = 0xdbef_571f_445c_ed98;
