//! The cluster router: assigning arriving requests to fleet replicas.
//!
//! LoongServe's elastic groups live inside one replica (one 8-GPU node with
//! its own global manager and unified KV pool). Serving "heavy traffic from
//! millions of users" needs a tier above that: a fleet of replicas behind a
//! dispatcher that decides, per arriving request, which replica serves it —
//! the same tier DistServe assumes above its prefill/decode pools. This
//! module is that dispatcher's policy layer.
//!
//! A [`Router`] sees one [`RouteRequest`] at a time, in arrival order, plus
//! the fleet's per-replica [`ReplicaLoad`] snapshot, and returns the
//! [`ReplicaId`] to serve it. Load accounting is owned by the
//! [`FleetLoadTracker`], which the fleet engine updates **incrementally** —
//! O(1) per assignment — so routing never scans a replica's full request
//! table, preserving the engine's O(active) invariant at fleet scope.
//!
//! Every shipped policy is deterministic: identically-seeded runs route
//! identically, bit for bit. Ties are always broken by the lowest
//! [`ReplicaId`] (loads are iterated in replica-id order with a
//! strictly-less comparison), and the power-of-two-choices policy draws its
//! probe pairs from a seeded [`SimRng`](loong_simcore::rng::SimRng)
//! substream.

mod affinity;
mod jsq;
mod least_kv;
mod p2c;
mod passthrough;
mod round_robin;

pub use affinity::PrefixAffinityRouter;
pub use jsq::JoinShortestQueueRouter;
pub use least_kv::LeastKvLoadRouter;
pub use p2c::PowerOfTwoChoicesRouter;
pub use passthrough::PassthroughRouter;
pub use round_robin::RoundRobinRouter;

use loong_simcore::ids::{ConversationId, ReplicaId, RequestId};
use loong_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// What the router may observe about an arriving request.
///
/// Mirrors what a real cluster frontend knows at admission time: the prompt
/// length and the user-declared output bound — never the true output length,
/// which the simulator knows but hides from all policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteRequest {
    /// The request.
    pub id: RequestId,
    /// Arrival time at the fleet frontend.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// User-declared bound on the output length.
    pub max_output_len: u64,
    /// The request's conversation, if it is a multi-turn follow-up. A real
    /// frontend knows this at admission (it is the session the request
    /// arrived on), so affinity policies may use it.
    pub conversation: Option<ConversationId>,
}

impl RouteRequest {
    /// What the router sees of `req`, arriving at its `arrival` instant.
    pub fn of(req: &loong_workload::request::Request) -> Self {
        RouteRequest {
            id: req.id,
            arrival: req.arrival,
            input_len: req.input_len,
            max_output_len: req.max_output_len,
            conversation: req.conversation,
        }
    }

    /// Worst-case tokens the request will queue behind it: prompt plus the
    /// declared output bound (the router's analogue of queued work).
    pub fn queued_tokens(&self) -> u64 {
        self.input_len + self.max_output_len
    }
}

/// Incrementally maintained load statistics of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaLoad {
    /// The replica these statistics describe.
    pub replica: ReplicaId,
    /// Requests assigned to this replica so far.
    pub assigned_requests: u64,
    /// Sum of `input_len + max_output_len` over assigned requests — the
    /// worst-case queued work, the join-shortest-queue criterion.
    pub queued_tokens: u64,
    /// Sum of `input_len` over assigned requests — the dominant KV-cache
    /// footprint for long-context workloads, the least-KV-load criterion.
    pub kv_tokens: u64,
}

impl ReplicaLoad {
    fn new(replica: ReplicaId) -> Self {
        ReplicaLoad {
            replica,
            assigned_requests: 0,
            queued_tokens: 0,
            kv_tokens: 0,
        }
    }
}

/// The fleet's per-replica load accounting.
///
/// Owned by the fleet engine, shown read-only to routers. Updates are O(1)
/// per assignment: running sums only, never a scan of assigned requests.
#[derive(Debug, Clone)]
pub struct FleetLoadTracker {
    loads: Vec<ReplicaLoad>,
}

impl FleetLoadTracker {
    /// Creates a tracker for `replicas` idle replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "a fleet needs at least one replica");
        FleetLoadTracker {
            loads: (0..replicas)
                .map(|r| ReplicaLoad::new(ReplicaId::from(r)))
                .collect(),
        }
    }

    /// The per-replica loads, in replica-id order.
    pub fn loads(&self) -> &[ReplicaLoad] {
        &self.loads
    }

    /// Number of replicas tracked.
    pub fn replicas(&self) -> usize {
        self.loads.len()
    }

    /// Accounts `request` as assigned to `replica`.
    ///
    /// # Panics
    ///
    /// Panics if the replica is out of range.
    pub fn on_assign(&mut self, replica: ReplicaId, request: &RouteRequest) {
        let load = &mut self.loads[replica.index()];
        load.assigned_requests += 1;
        load.queued_tokens += request.queued_tokens();
        load.kv_tokens += request.input_len;
    }
}

/// The routing-policy interface.
///
/// Implementations must be deterministic: the same construction parameters
/// and the same sequence of `route` calls must produce the same assignments.
pub trait Router {
    /// Chooses the replica to serve `request` from `candidates`. `loads`
    /// is the fleet's current per-replica accounting, in replica-id order;
    /// `candidates` is the **routable** subset — healthy replicas, in
    /// strictly ascending id order, never empty (see
    /// [`crate::reliability::healthy_candidates`]) — and the returned id
    /// must be one of them. A failure-free fleet passes every replica
    /// ([`all_replicas`]), which reproduces the pre-reliability behaviour
    /// of every policy bit for bit.
    fn route(
        &mut self,
        request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId;

    /// Notifies the policy that `replica` has been **removed** from the
    /// fleet (drained and retired by a scale-down, as opposed to a crash
    /// it may come back from). Stateless policies ignore this; stateful
    /// ones must drop any durable preference for the replica — a retired
    /// replica's device pool is gone, so a pin that survives removal would
    /// silently become valid again if the id is later re-activated cold.
    fn on_replica_removed(&mut self, _replica: ReplicaId) {}
}

/// The full candidate set: every replica of an `n`-replica fleet, in
/// ascending id order. What a fleet without health tracking routes over.
pub fn all_replicas(n: usize) -> Vec<ReplicaId> {
    (0..n).map(ReplicaId::from).collect()
}

/// Validates a candidate set: non-empty, strictly ascending, in range of
/// `loads`. Debug-only on the hot path; policies call it on entry so every
/// policy rejects a malformed set the same way.
pub(crate) fn check_candidates(loads: &[ReplicaLoad], candidates: &[ReplicaId]) {
    assert!(
        !candidates.is_empty(),
        "cannot route over an empty candidate set"
    );
    debug_assert!(
        candidates.windows(2).all(|w| w[0] < w[1]),
        "candidates must be strictly ascending"
    );
    debug_assert!(
        candidates.last().expect("non-empty").index() < loads.len(),
        "candidate out of range of the load table"
    );
}

/// Selects the candidate minimising `key`, breaking ties towards the
/// lowest replica id. This is the **one** sorted-candidate tie-break all
/// load-comparing policies share (JSQ, least-KV, the affinity fallback):
/// candidates are iterated in ascending id order with a strictly-less
/// comparison, so no policy can diverge on tie-break order when the
/// candidate set shrinks around a failure.
pub(crate) fn argmin_among(
    loads: &[ReplicaLoad],
    candidates: &[ReplicaId],
    key: impl Fn(&ReplicaLoad) -> u64,
) -> ReplicaId {
    check_candidates(loads, candidates);
    let mut best = candidates[0];
    let mut best_key = key(&loads[best.index()]);
    for &candidate in &candidates[1..] {
        let k = key(&loads[candidate.index()]);
        if k < best_key {
            best = candidate;
            best_key = k;
        }
    }
    best
}

/// The deterministic routing policies shipped with the fleet tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Every request goes to replica 0. The single-replica identity policy:
    /// a 1-replica fleet under `Passthrough` must be bit-for-bit identical
    /// to a bare serving engine.
    Passthrough,
    /// Cycle through replicas in id order.
    RoundRobin,
    /// Join the replica with the fewest queued tokens
    /// (`input_len + max_output_len` running sum).
    JoinShortestQueue,
    /// Join the replica with the smallest KV-cache footprint
    /// (`input_len` running sum).
    LeastKvLoad,
    /// Probe two distinct replicas drawn from a seeded RNG and join the one
    /// with fewer queued tokens.
    PowerOfTwoChoices {
        /// Seed of the probe-order RNG substream.
        seed: u64,
    },
    /// Pin every conversation to the replica that served its first turn
    /// (where the prefix cache retains its context); first turns and
    /// untagged requests fall back to least-KV-load placement.
    PrefixAffinity,
}

impl RouterPolicy {
    /// All four fleet routing policies compared in the fleet experiments
    /// (passthrough is the single-replica identity, not a policy to sweep).
    pub fn all_policies() -> Vec<RouterPolicy> {
        vec![
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvLoad,
            RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 },
            RouterPolicy::PrefixAffinity,
        ]
    }

    /// Builds the router implementing this policy.
    pub fn build(&self) -> Box<dyn Router> {
        match *self {
            RouterPolicy::Passthrough => Box::new(PassthroughRouter::new()),
            RouterPolicy::RoundRobin => Box::new(RoundRobinRouter::new()),
            RouterPolicy::JoinShortestQueue => Box::new(JoinShortestQueueRouter::new()),
            RouterPolicy::LeastKvLoad => Box::new(LeastKvLoadRouter::new()),
            RouterPolicy::PowerOfTwoChoices { seed } => {
                Box::new(PowerOfTwoChoicesRouter::new(seed))
            }
            RouterPolicy::PrefixAffinity => Box::new(PrefixAffinityRouter::new()),
        }
    }

    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::Passthrough => "passthrough",
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::LeastKvLoad => "least-kv-load",
            RouterPolicy::PowerOfTwoChoices { .. } => "power-of-two-choices",
            RouterPolicy::PrefixAffinity => "prefix-affinity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn req(id: u64, input_len: u64, max_output_len: u64) -> RouteRequest {
        RouteRequest {
            id: RequestId(id),
            arrival: SimTime::from_secs(id as f64),
            input_len,
            max_output_len,
            conversation: None,
        }
    }

    #[test]
    fn tracker_accumulates_o1_running_sums() {
        let mut tracker = FleetLoadTracker::new(2);
        tracker.on_assign(ReplicaId(0), &req(0, 100, 50));
        tracker.on_assign(ReplicaId(1), &req(1, 10, 5));
        tracker.on_assign(ReplicaId(0), &req(2, 1, 1));
        let loads = tracker.loads();
        assert_eq!(loads[0].assigned_requests, 2);
        assert_eq!(loads[0].queued_tokens, 152);
        assert_eq!(loads[0].kv_tokens, 101);
        assert_eq!(loads[1].assigned_requests, 1);
        assert_eq!(loads[1].queued_tokens, 15);
        assert_eq!(loads[1].kv_tokens, 10);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_is_rejected() {
        let _ = FleetLoadTracker::new(0);
    }

    #[test]
    fn argmin_breaks_ties_towards_lowest_replica() {
        let mut tracker = FleetLoadTracker::new(3);
        let all = all_replicas(3);
        // All loads equal: the winner must be replica 0.
        assert_eq!(
            argmin_among(tracker.loads(), &all, |l| l.queued_tokens),
            ReplicaId(0)
        );
        // Make replica 0 heavier; 1 and 2 tie at zero -> replica 1 wins.
        tracker.on_assign(ReplicaId(0), &req(0, 10, 10));
        assert_eq!(
            argmin_among(tracker.loads(), &all, |l| l.queued_tokens),
            ReplicaId(1)
        );
    }

    #[test]
    fn argmin_only_considers_candidates() {
        let tracker = FleetLoadTracker::new(4);
        // All loads tie at zero, but replica 0 is not a candidate: the
        // lowest *candidate* id wins, not the lowest replica id.
        assert_eq!(
            argmin_among(tracker.loads(), &[ReplicaId(2), ReplicaId(3)], |l| l
                .queued_tokens),
            ReplicaId(2)
        );
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn empty_candidate_set_is_rejected() {
        let tracker = FleetLoadTracker::new(2);
        let _ = argmin_among(tracker.loads(), &[], |l| l.queued_tokens);
    }

    #[test]
    fn all_replicas_is_the_ascending_identity_set() {
        assert_eq!(
            all_replicas(3),
            vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]
        );
        assert!(all_replicas(0).is_empty());
    }

    #[test]
    fn policies_serialise() {
        let p = RouterPolicy::PowerOfTwoChoices { seed: 7 };
        let json = serde_json::to_string(&p).expect("serialise");
        let back: RouterPolicy = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(p, back);
    }
}
