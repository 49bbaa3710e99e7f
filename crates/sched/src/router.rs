//! The cluster router: assigning arriving requests to fleet replicas.
//!
//! LoongServe's elastic groups live inside one replica (one 8-GPU node with
//! its own global manager and unified KV pool). Serving "heavy traffic from
//! millions of users" needs a tier above that: a fleet of replicas behind a
//! dispatcher that decides, per arriving request, which replica serves it —
//! the same tier DistServe assumes above its prefill/decode pools. This
//! module is that dispatcher's policy layer.
//!
//! A [`Router`] is built from a [`RouterPolicy`] and sees one
//! [`RouteRequest`] at a time, in arrival order, plus the fleet's
//! per-replica [`ReplicaLoad`] snapshot, and returns the [`ReplicaId`] to
//! serve it. The set of policies is closed, so there is no trait: one
//! `match` on the policy is the whole decision, and the router holds the
//! only routing state there is (the round-robin counter, the
//! power-of-two-choices probe stream and the prefix-affinity pins). Load
//! accounting is owned by the [`FleetLoadTracker`], which the fleet engine
//! updates **incrementally** — O(1) per assignment — so routing never scans
//! a replica's full request table, preserving the engine's O(active)
//! invariant at fleet scope.
//!
//! Every policy is deterministic: identically-seeded runs route
//! identically, bit for bit. Ties are always broken by the lowest
//! [`ReplicaId`] (candidates are iterated in ascending id order with a
//! strictly-less comparison), and the power-of-two-choices policy draws its
//! probe pairs from a seeded [`SimRng`] substream.

use loong_simcore::ids::{ConversationId, ReplicaId, RequestId};
use loong_simcore::rng::SimRng;
use loong_simcore::time::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Sum of `input_len + max_output_len` over assigned requests — the
    /// worst-case queued work, the join-shortest-queue criterion.
    pub queued_tokens: u64,
    /// Sum of `input_len` over assigned requests — the dominant KV-cache
    /// footprint for long-context workloads, the least-KV-load criterion.
    pub kv_tokens: u64,
}

/// The fleet's per-replica load accounting.
///
/// Owned by the fleet engine, shown read-only to the router. Updates are
/// O(1) per assignment: running sums only, never a scan of assigned
/// requests.
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
                .map(|r| ReplicaLoad {
                    replica: ReplicaId::from(r),
                    queued_tokens: 0,
                    kv_tokens: 0,
                })
                .collect(),
        }
    }

    /// The per-replica loads, in replica-id order.
    pub fn loads(&self) -> &[ReplicaLoad] {
        &self.loads
    }

    /// Accounts `request` as assigned to `replica`.
    ///
    /// # Panics
    ///
    /// Panics if the replica is out of range.
    pub fn on_assign(&mut self, replica: ReplicaId, request: &RouteRequest) {
        let load = &mut self.loads[replica.index()];
        load.queued_tokens += request.queued_tokens();
        load.kv_tokens += request.input_len;
    }
}

/// Selects the candidate minimising `key`, breaking ties towards the
/// lowest replica id. This is the **one** sorted-candidate tie-break all
/// load-comparing policies share (JSQ, least-KV, the affinity fallback):
/// candidates are iterated in ascending id order with a strictly-less
/// comparison, so no policy can diverge on tie-break order when the
/// candidate set shrinks around a failure.
fn argmin_among(
    loads: &[ReplicaLoad],
    candidates: &[ReplicaId],
    key: impl Fn(&ReplicaLoad) -> u64,
) -> ReplicaId {
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

/// The deterministic routing policies of the fleet tier.
///
/// The load-comparing policies read the tracker's **cumulative assigned
/// work, never drained**: the routing tier gets no completion or KV-release
/// feedback from the replicas, so over a long trace with idle gaps
/// "shortest queue" means "least total work ever assigned". That is the
/// honest capability of a dispatcher that must not scan replica state (the
/// fleet's O(active) invariant); drain-aware variants belong in a
/// feedback-coupled router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Every request goes to the first routable replica — replica 0 while
    /// it is healthy, the lowest healthy id otherwise.
    ///
    /// The identity of the fleet tier: a 1-replica fleet under passthrough
    /// must produce the bare serving engine's outcome bit for bit (pinned
    /// by `tests/fleet_equivalence.rs`). Over larger fleets it is the
    /// degenerate "no load balancing" baseline, useful only for
    /// experiments about imbalance.
    Passthrough,
    /// Cycle through the routable replicas in id order: request *k* goes to
    /// the *k mod |candidates|*-th healthy replica.
    ///
    /// Oblivious to load, but on homogeneous replicas with exchangeable
    /// requests it is the strongest simple baseline, needing neither seed
    /// nor tie-breaking. With every replica routable the cycle is
    /// *k mod N* over replica ids; when replicas drop out the counter keeps
    /// advancing by one per request, cycling over whatever sorted candidate
    /// set each decision sees.
    RoundRobin,
    /// Join the candidate with the fewest queued tokens
    /// (`input_len + max_output_len` running sum).
    ///
    /// "Queue length" is measured in worst-case tokens, not requests: for
    /// long-context workloads a single 200K-token prompt outweighs hundreds
    /// of chat requests, so counting requests would badly misjudge skewed
    /// mixes.
    JoinShortestQueue,
    /// Join the candidate with the smallest KV-cache footprint
    /// (`input_len` running sum).
    ///
    /// Differs from join-shortest-queue in counting prompts only. In
    /// LoongServe the unified KV pool is the scarce per-replica resource —
    /// one million-token prompt pins ~488 GB of KV — while the declared
    /// output bound mostly predicts *time*, not *memory*. On prompt-skewed
    /// mixes the two policies can disagree sharply.
    LeastKvLoad,
    /// Probe two distinct candidates drawn from a seeded RNG and join the
    /// one with fewer queued tokens.
    ///
    /// Sampling two queues and joining the shorter gets exponentially close
    /// to join-shortest-queue while probing O(1) replicas per request. The
    /// probe pair comes from a [`SimRng`] substream of `seed`, so
    /// identically-seeded runs probe — and therefore route — identically.
    /// Probes are drawn as *indices into the sorted candidate slice*, so
    /// every draw lands on a healthy replica; two or more candidates cost
    /// exactly two draws per request, one candidate costs none. A
    /// probe-pair tie breaks towards the lower replica id, independent of
    /// draw order.
    PowerOfTwoChoices {
        /// Seed of the probe-order RNG substream.
        seed: u64,
    },
    /// Pin every conversation to the replica that served its first turn
    /// (where the prefix cache retains its context); first turns and
    /// untagged requests fall back to least-KV-load placement.
    ///
    /// Prefix reuse is replica-local, so a follow-up routed anywhere else
    /// re-prefills its whole history. A pin is honoured only while its
    /// replica is routable: when a crash removes it, the conversation
    /// **re-pins** by least-KV, because the crashed replica lost its device
    /// pool and the new replica is now the only one that could retain the
    /// re-prefilled prefix. The pin map grows by one entry per conversation
    /// (O(log n) per decision).
    PrefixAffinity,
}

impl RouterPolicy {
    /// All five fleet routing policies compared in the fleet experiments
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

/// One fleet run's router: a [`RouterPolicy`] plus the routing state it
/// accumulates. Identical construction and an identical sequence of
/// [`Router::route`] calls produce identical assignments.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    /// Round-robin: requests routed so far.
    next: u64,
    /// Power-of-two-choices: the probe stream.
    probes: Option<SimRng>,
    /// Prefix affinity: each conversation's replica.
    pins: BTreeMap<ConversationId, ReplicaId>,
}

impl Router {
    /// A fresh router for `policy`.
    pub fn new(policy: RouterPolicy) -> Self {
        let probes = match policy {
            RouterPolicy::PowerOfTwoChoices { seed } => Some(SimRng::seed(seed).fork("p2c-probes")),
            _ => None,
        };
        Router {
            policy,
            next: 0,
            probes,
            pins: BTreeMap::new(),
        }
    }

    /// Chooses the replica to serve `request` from `candidates`. `loads`
    /// is the fleet's current per-replica accounting, in replica-id order;
    /// `candidates` is the **routable** subset — healthy replicas, in
    /// strictly ascending id order, never empty (see
    /// [`crate::reliability::healthy_candidates`]) — and the returned id is
    /// one of them. A failure-free fleet passes every replica.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty; debug builds also reject an
    /// unsorted or out-of-range candidate set.
    pub fn route(
        &mut self,
        request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
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
        match self.policy {
            RouterPolicy::Passthrough => candidates[0],
            RouterPolicy::RoundRobin => {
                let choice = candidates[(self.next % candidates.len() as u64) as usize];
                self.next += 1;
                choice
            }
            RouterPolicy::JoinShortestQueue => argmin_among(loads, candidates, |l| l.queued_tokens),
            RouterPolicy::LeastKvLoad => argmin_among(loads, candidates, |l| l.kv_tokens),
            RouterPolicy::PowerOfTwoChoices { .. } => {
                let n = candidates.len();
                if n == 1 {
                    return candidates[0];
                }
                // Two distinct probes: the first uniform, the second from
                // the remaining n-1 slots, shifted past the first.
                let rng = self.probes.as_mut().expect("built with a probe stream");
                let first = rng.gen_range(0..n);
                let mut second = rng.gen_range(0..n - 1);
                if second >= first {
                    second += 1;
                }
                // Compare in candidate order so a tie breaks to the lower id
                // no matter in which order the probes were drawn.
                let lo = candidates[first.min(second)];
                let hi = candidates[first.max(second)];
                if loads[hi.index()].queued_tokens < loads[lo.index()].queued_tokens {
                    hi
                } else {
                    lo
                }
            }
            RouterPolicy::PrefixAffinity => {
                let Some(conversation) = request.conversation else {
                    return argmin_among(loads, candidates, |l| l.kv_tokens);
                };
                if let Some(&replica) = self.pins.get(&conversation) {
                    if candidates.binary_search(&replica).is_ok() {
                        return replica;
                    }
                }
                let replica = argmin_among(loads, candidates, |l| l.kv_tokens);
                self.pins.insert(conversation, replica);
                replica
            }
        }
    }

    /// Notifies the router that `replica` has been **removed** from the
    /// fleet (drained and retired by a scale-down, as opposed to a crash it
    /// may come back from), dropping every affinity pin to it. Crash
    /// re-pinning is lazy — the pin is replaced on the conversation's next
    /// turn — but a retired replica's pool is gone for good, and its id may
    /// later be re-activated as a **cold** replica; a surviving pin would
    /// then route follow-ups to a pool that holds nothing of their prefix.
    pub fn on_replica_removed(&mut self, replica: ReplicaId) {
        self.pins.retain(|_, &mut pinned| pinned != replica);
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

    pub(super) fn conv_req(id: u64, input: u64, conversation: u64) -> RouteRequest {
        RouteRequest {
            conversation: Some(ConversationId(conversation)),
            ..req(id, input, 64)
        }
    }

    /// Every replica of an `n`-replica fleet, in ascending id order.
    pub(super) fn all_replicas(n: usize) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId::from).collect()
    }

    #[test]
    fn tracker_accumulates_o1_running_sums() {
        let mut tracker = FleetLoadTracker::new(2);
        tracker.on_assign(ReplicaId(0), &req(0, 100, 50));
        tracker.on_assign(ReplicaId(1), &req(1, 10, 5));
        tracker.on_assign(ReplicaId(0), &req(2, 1, 1));
        let loads = tracker.loads();
        assert_eq!(loads[0].queued_tokens, 152);
        assert_eq!(loads[0].kv_tokens, 101);
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
        let mut router = Router::new(RouterPolicy::JoinShortestQueue);
        let _ = router.route(&req(0, 10, 10), tracker.loads(), &[]);
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

// One test module per policy.
#[cfg(test)]
mod passthrough {
    mod tests {
        use crate::router::tests::*;
        use crate::router::*;

        #[test]
        fn everything_lands_on_replica_zero() {
            let mut router = Router::new(RouterPolicy::Passthrough);
            let tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            for i in 0..10 {
                assert_eq!(
                    router.route(&req(i, 100, 10), tracker.loads(), &all),
                    ReplicaId(0)
                );
            }
        }

        #[test]
        fn falls_over_to_the_lowest_healthy_replica() {
            let mut router = Router::new(RouterPolicy::Passthrough);
            let tracker = FleetLoadTracker::new(3);
            // Replica 0 is unhealthy: the identity policy degrades to "first
            // healthy id" rather than routing into the crash.
            assert_eq!(
                router.route(
                    &req(0, 100, 10),
                    tracker.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod round_robin {
    mod tests {
        use crate::router::tests::*;
        use crate::router::*;

        #[test]
        fn cycles_in_replica_id_order() {
            let mut router = Router::new(RouterPolicy::RoundRobin);
            let tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            let picks: Vec<u64> = (0..7)
                .map(|i| router.route(&req(i, 10, 10), tracker.loads(), &all).raw())
                .collect();
            assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        }

        #[test]
        fn excluded_replicas_are_skipped_without_stalling_the_cycle() {
            let mut router = Router::new(RouterPolicy::RoundRobin);
            let tracker = FleetLoadTracker::new(3);
            let healthy = [ReplicaId(0), ReplicaId(2)];
            // Replica 1 is unhealthy: the cycle covers {0, 2} in sorted order.
            let picks: Vec<u64> = (0..4)
                .map(|i| {
                    router
                        .route(&req(i, 10, 10), tracker.loads(), &healthy)
                        .raw()
                })
                .collect();
            assert_eq!(picks, vec![0, 2, 0, 2]);
            // When replica 1 recovers, the counter has still advanced one per
            // request, so the cycle re-phases deterministically.
            let all = all_replicas(3);
            assert_eq!(
                router.route(&req(9, 10, 10), tracker.loads(), &all),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod jsq {
    mod tests {
        use crate::router::tests::*;
        use crate::router::*;

        #[test]
        fn picks_least_queued_tokens_not_fewest_requests() {
            let mut router = Router::new(RouterPolicy::JoinShortestQueue);
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // Replica 0: one huge request. Replica 1: three small ones.
            tracker.on_assign(ReplicaId(0), &req(0, 100_000, 64));
            for i in 1..4 {
                tracker.on_assign(ReplicaId(1), &req(i, 100, 64));
            }
            // Fewest requests is replica 0, but fewest queued tokens is 1.
            assert_eq!(
                router.route(&req(9, 10, 10), tracker.loads(), &all),
                ReplicaId(1)
            );
        }

        #[test]
        fn ties_break_to_lowest_replica() {
            let mut router = Router::new(RouterPolicy::JoinShortestQueue);
            let tracker = FleetLoadTracker::new(4);
            let all = all_replicas(4);
            assert_eq!(
                router.route(&req(0, 10, 10), tracker.loads(), &all),
                ReplicaId(0)
            );
        }

        #[test]
        fn unhealthy_replicas_are_excluded_even_when_emptiest() {
            let mut router = Router::new(RouterPolicy::JoinShortestQueue);
            let mut tracker = FleetLoadTracker::new(3);
            // Replica 0 is idle (global argmin) but unhealthy; among the
            // candidates, 2 is lighter than 1.
            tracker.on_assign(ReplicaId(1), &req(0, 1_000, 64));
            tracker.on_assign(ReplicaId(2), &req(1, 100, 64));
            assert_eq!(
                router.route(
                    &req(9, 10, 10),
                    tracker.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(2)
            );
            // Candidate ties break towards the lowest *candidate* id.
            let idle = FleetLoadTracker::new(3);
            assert_eq!(
                router.route(
                    &req(10, 10, 10),
                    idle.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod least_kv {
    mod tests {
        use crate::router::tests::*;
        use crate::router::*;

        #[test]
        fn ignores_output_bounds_when_comparing_load() {
            let mut router = Router::new(RouterPolicy::LeastKvLoad);
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // Replica 0: small prompt, huge declared output (heavy queue, light
            // KV). Replica 1: large prompt, tiny output (light queue, heavy KV).
            tracker.on_assign(ReplicaId(0), &req(0, 100, 60_000));
            tracker.on_assign(ReplicaId(1), &req(1, 50_000, 64));
            // JSQ would pick replica 1; least-KV must pick replica 0.
            assert_eq!(
                router.route(&req(2, 10, 10), tracker.loads(), &all),
                ReplicaId(0)
            );
        }

        #[test]
        fn unhealthy_replicas_are_excluded_even_when_emptiest() {
            let mut router = Router::new(RouterPolicy::LeastKvLoad);
            let mut tracker = FleetLoadTracker::new(3);
            // Replica 0 holds no KV (global argmin) but is unhealthy; among the
            // candidates, replica 2 holds less.
            tracker.on_assign(ReplicaId(1), &req(0, 10_000, 64));
            tracker.on_assign(ReplicaId(2), &req(1, 100, 64));
            assert_eq!(
                router.route(
                    &req(9, 10, 10),
                    tracker.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(2)
            );
            // Candidate ties break towards the lowest *candidate* id.
            let idle = FleetLoadTracker::new(3);
            assert_eq!(
                router.route(
                    &req(10, 10, 10),
                    idle.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod p2c {
    mod tests {
        use crate::router::tests::*;
        use crate::router::*;

        fn p2c(seed: u64) -> Router {
            Router::new(RouterPolicy::PowerOfTwoChoices { seed })
        }

        #[test]
        fn identical_seeds_probe_identically() {
            let tracker = FleetLoadTracker::new(8);
            let all = all_replicas(8);
            let route_all = |seed: u64| -> Vec<u64> {
                let mut router = p2c(seed);
                (0..64)
                    .map(|i| router.route(&req(i, 100, 10), tracker.loads(), &all).raw())
                    .collect()
            };
            assert_eq!(route_all(42), route_all(42));
            assert_ne!(route_all(42), route_all(43), "seeds must matter");
        }

        #[test]
        fn prefers_the_less_loaded_probe() {
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // With two replicas the probe pair is always {0, 1}.
            tracker.on_assign(ReplicaId(0), &req(0, 10_000, 64));
            let mut router = p2c(7);
            for i in 0..16 {
                assert_eq!(
                    router.route(&req(i, 10, 10), tracker.loads(), &all),
                    ReplicaId(1)
                );
            }
        }

        #[test]
        fn probe_tie_breaks_to_lower_replica_id() {
            let tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            let mut router = p2c(11);
            // All loads are zero, so every probe pair ties; with two replicas
            // the pair is {0, 1} and the lower id must always win.
            for i in 0..16 {
                assert_eq!(
                    router.route(&req(i, 10, 10), tracker.loads(), &all),
                    ReplicaId(0)
                );
            }
        }

        #[test]
        fn single_replica_needs_no_draws() {
            let tracker = FleetLoadTracker::new(1);
            let all = all_replicas(1);
            let mut router = p2c(3);
            assert_eq!(
                router.route(&req(0, 10, 10), tracker.loads(), &all),
                ReplicaId(0)
            );
        }

        #[test]
        fn probes_never_land_on_excluded_replicas() {
            let tracker = FleetLoadTracker::new(4);
            let healthy = [ReplicaId(1), ReplicaId(3)];
            let mut router = p2c(5);
            // Probes are indices into the candidate slice, so replicas 0 and 2
            // are unreachable no matter what the RNG draws; all loads tie, so
            // the lower candidate id wins every time.
            for i in 0..32 {
                assert_eq!(
                    router.route(&req(i, 10, 10), tracker.loads(), &healthy),
                    ReplicaId(1)
                );
            }
        }

        #[test]
        fn single_candidate_keeps_probe_stream_aligned() {
            // A decision over one candidate must not consume RNG draws: the
            // probe sequence after the degenerate call matches a router that
            // never saw it.
            let tracker = FleetLoadTracker::new(4);
            let all = all_replicas(4);
            let mut skipped = p2c(9);
            let mut fresh = p2c(9);
            assert_eq!(
                skipped.route(&req(0, 10, 10), tracker.loads(), &[ReplicaId(2)]),
                ReplicaId(2)
            );
            for i in 1..32 {
                assert_eq!(
                    skipped.route(&req(i, 10, 10), tracker.loads(), &all),
                    fresh.route(&req(i, 10, 10), tracker.loads(), &all)
                );
            }
        }
    }
}

#[cfg(test)]
mod affinity {
    mod tests {
        use crate::router::tests::*;
        use crate::router::*;

        #[test]
        fn follow_ups_stick_to_the_first_turn_replica() {
            let mut router = Router::new(RouterPolicy::PrefixAffinity);
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // Turn 0 of conversation 7 lands on the emptiest replica (0).
            let first = conv_req(0, 1_000, 7);
            let r0 = router.route(&first, tracker.loads(), &all);
            assert_eq!(r0, ReplicaId(0));
            tracker.on_assign(r0, &first);
            // Load replica 0 heavily: a fresh conversation prefers replica 1...
            tracker.on_assign(ReplicaId(0), &req(1, 500_000, 64));
            assert_eq!(
                router.route(&conv_req(2, 1_000, 8), tracker.loads(), &all),
                ReplicaId(1)
            );
            // ...but conversation 7's follow-up still goes to replica 0, where
            // its prefix is retained.
            assert_eq!(
                router.route(&conv_req(3, 3_000, 7), tracker.loads(), &all),
                ReplicaId(0)
            );
            assert_eq!(router.pins.len(), 2);
        }

        #[test]
        fn untagged_requests_fall_back_to_least_kv() {
            let mut router = Router::new(RouterPolicy::PrefixAffinity);
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            tracker.on_assign(ReplicaId(0), &req(0, 50_000, 64));
            assert_eq!(
                router.route(&req(1, 10, 10), tracker.loads(), &all),
                ReplicaId(1)
            );
            assert!(router.pins.is_empty());
        }

        #[test]
        fn retired_pin_is_dropped_and_does_not_resurrect_cold() {
            let mut router = Router::new(RouterPolicy::PrefixAffinity);
            let mut tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            // Conversation 5 pins to replica 0 (emptiest), 7 to replica 1.
            let first = conv_req(0, 2_000, 5);
            assert_eq!(router.route(&first, tracker.loads(), &all), ReplicaId(0));
            tracker.on_assign(ReplicaId(0), &first);
            let r = conv_req(1, 1_000, 7);
            assert_eq!(router.route(&r, tracker.loads(), &all), ReplicaId(1));
            tracker.on_assign(ReplicaId(1), &r);
            assert_eq!(router.pins.len(), 2);

            // Replica 0 drains and retires: its pin must be dropped durably,
            // pins to other replicas untouched.
            router.on_replica_removed(ReplicaId(0));
            assert_eq!(router.pins.len(), 1);

            // The id later re-activates as a *cold* replica with an empty pool
            // and zero tracked load. Without the removal hook, the stale pin
            // would be "routable" again and send the follow-up to a pool that
            // holds nothing; with it, the conversation re-pins by least-KV —
            // which is the cold replica on merit (emptiest), and durably so.
            let mut cold = FleetLoadTracker::new(3);
            cold.on_assign(ReplicaId(1), &req(90, 50_000, 64));
            cold.on_assign(ReplicaId(2), &req(91, 40_000, 64));
            let follow_up = conv_req(3, 4_000, 5);
            let repinned = router.route(&follow_up, cold.loads(), &all);
            assert_eq!(repinned, ReplicaId(0), "re-pin is by load, not stale state");
            assert_eq!(router.pins.len(), 2);
            // Conversation 7's pin to replica 1 survived the removal.
            assert_eq!(
                router.route(&conv_req(4, 1_000, 7), cold.loads(), &all),
                ReplicaId(1)
            );
        }

        #[test]
        fn crashed_pin_re_pins_to_a_healthy_candidate() {
            let mut router = Router::new(RouterPolicy::PrefixAffinity);
            let mut tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            // Conversation 5 pins to replica 0.
            let first = conv_req(0, 2_000, 5);
            assert_eq!(router.route(&first, tracker.loads(), &all), ReplicaId(0));
            tracker.on_assign(ReplicaId(0), &first);
            // Replica 0 crashes: the follow-up must re-pin among {1, 2}; with
            // replica 2 lighter in KV, it wins over the old pin *and* over the
            // lower-id healthy replica.
            tracker.on_assign(ReplicaId(1), &req(1, 9_000, 64));
            let healthy = [ReplicaId(1), ReplicaId(2)];
            assert_eq!(
                router.route(&conv_req(2, 2_000, 5), tracker.loads(), &healthy),
                ReplicaId(2)
            );
            // The re-pin is durable: once replica 0 recovers (empty pool), the
            // conversation stays with replica 2, which now holds its prefix.
            assert_eq!(
                router.route(&conv_req(3, 2_000, 5), tracker.loads(), &all),
                ReplicaId(2)
            );
            assert_eq!(router.pins.len(), 1);
        }
    }
}
