//! Prefix-affinity routing for multi-turn workloads.

use super::{argmin_among, ReplicaLoad, RouteRequest, Router};
use loong_simcore::ids::{ConversationId, ReplicaId};
use std::collections::BTreeMap;

/// Routes follow-up turns to the replica that served their conversation's
/// previous turns — the replica whose unified KV pool retains the shared
/// prefix — and falls back to least-KV-load placement for first turns and
/// untagged requests.
///
/// Prefix reuse is replica-local: a retained prefix lives in one replica's
/// device pool, so a follow-up routed anywhere else re-prefills its whole
/// history no matter how good the cache is. Affinity is therefore the fleet
/// half of the prefix-cache tier. The conversation→replica map grows by one
/// entry per conversation (O(conversations) state, O(log n) per decision).
///
/// A pin is honoured only while the pinned replica is routable. When a
/// crash removes it from the candidate set, the conversation **re-pins**:
/// the fallback picks the least-KV candidate (shared `argmin_among`
/// tie-break) and the map is updated, because the crashed replica lost its
/// device pool — after recovery it holds nothing for this conversation, so
/// the *new* replica is now the only one that could retain the re-prefilled
/// prefix.
#[derive(Debug, Clone, Default)]
pub struct PrefixAffinityRouter {
    assigned: BTreeMap<ConversationId, ReplicaId>,
}

impl PrefixAffinityRouter {
    /// Creates a prefix-affinity router with an empty conversation map.
    pub fn new() -> Self {
        PrefixAffinityRouter {
            assigned: BTreeMap::new(),
        }
    }

    /// Number of conversations with a pinned replica.
    pub fn conversations(&self) -> usize {
        self.assigned.len()
    }
}

impl Router for PrefixAffinityRouter {
    fn route(
        &mut self,
        request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        let Some(conversation) = request.conversation else {
            return argmin_among(loads, candidates, |l| l.kv_tokens);
        };
        if let Some(&replica) = self.assigned.get(&conversation) {
            if candidates.binary_search(&replica).is_ok() {
                return replica;
            }
        }
        let replica = argmin_among(loads, candidates, |l| l.kv_tokens);
        self.assigned.insert(conversation, replica);
        replica
    }

    /// Drops every pin to the retired replica. Crash re-pinning (above) is
    /// lazy — the pin is replaced on the conversation's next turn — but
    /// that is only sound while the replica *might* return with its id. A
    /// retired replica's pool is gone for good, and the id may later be
    /// re-activated as a **cold** replica; a surviving pin would then route
    /// follow-ups to a pool that holds nothing of their prefix. Removal
    /// therefore durably un-pins, and the next turn re-pins by least-KV.
    fn on_replica_removed(&mut self, replica: ReplicaId) {
        self.assigned.retain(|_, &mut pinned| pinned != replica);
    }
}

#[cfg(test)]
mod tests {
    use super::super::all_replicas;
    use super::super::tests::req;
    use super::*;
    use crate::router::FleetLoadTracker;

    fn conv_req(id: u64, input: u64, conversation: u64) -> RouteRequest {
        RouteRequest {
            conversation: Some(ConversationId(conversation)),
            ..req(id, input, 64)
        }
    }

    #[test]
    fn follow_ups_stick_to_the_first_turn_replica() {
        let mut router = PrefixAffinityRouter::new();
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
        assert_eq!(router.conversations(), 2);
    }

    #[test]
    fn untagged_requests_fall_back_to_least_kv() {
        let mut router = PrefixAffinityRouter::new();
        let mut tracker = FleetLoadTracker::new(2);
        let all = all_replicas(2);
        tracker.on_assign(ReplicaId(0), &req(0, 50_000, 64));
        assert_eq!(
            router.route(&req(1, 10, 10), tracker.loads(), &all),
            ReplicaId(1)
        );
        assert_eq!(router.conversations(), 0);
    }

    #[test]
    fn retired_pin_is_dropped_and_does_not_resurrect_cold() {
        let mut router = PrefixAffinityRouter::new();
        let mut tracker = FleetLoadTracker::new(3);
        let all = all_replicas(3);
        // Conversation 5 pins to replica 0 (emptiest), 7 to replica 1.
        let first = conv_req(0, 2_000, 5);
        assert_eq!(router.route(&first, tracker.loads(), &all), ReplicaId(0));
        tracker.on_assign(ReplicaId(0), &first);
        let r = conv_req(1, 1_000, 7);
        assert_eq!(router.route(&r, tracker.loads(), &all), ReplicaId(1));
        tracker.on_assign(ReplicaId(1), &r);
        assert_eq!(router.conversations(), 2);

        // Replica 0 drains and retires: its pin must be dropped durably,
        // pins to other replicas untouched.
        router.on_replica_removed(ReplicaId(0));
        assert_eq!(router.conversations(), 1);

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
        assert_eq!(router.conversations(), 2);
        // Conversation 7's pin to replica 1 survived the removal.
        assert_eq!(
            router.route(&conv_req(4, 1_000, 7), cold.loads(), &all),
            ReplicaId(1)
        );
    }

    #[test]
    fn crashed_pin_re_pins_to_a_healthy_candidate() {
        let mut router = PrefixAffinityRouter::new();
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
        assert_eq!(router.conversations(), 1);
    }
}
