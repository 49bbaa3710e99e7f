//! Join-shortest-queue routing by queued tokens.

use super::{argmin_among, ReplicaLoad, RouteRequest, Router};
use loong_simcore::ids::ReplicaId;

/// Joins the candidate replica with the fewest queued tokens.
///
/// "Queue length" is measured in worst-case tokens, not requests: the
/// running sum of `input_len + max_output_len` over assigned requests. For
/// long-context workloads a single 200K-token prompt outweighs hundreds of
/// chat requests, so counting requests would badly misjudge skewed mixes.
/// Ties break towards the lowest candidate id via the shared
/// `argmin_among` helper.
///
/// The routing tier gets no completion feedback from the replicas, so the
/// sums are **cumulative assigned work, never drained**: over a long trace
/// with idle gaps this is "join the least-total-work replica", which
/// converges towards token-weighted balancing rather than the
/// instantaneous-queue-depth JSQ of a feedback-coupled frontend. That is
/// the honest capability of a dispatcher that must not scan replica state
/// (the fleet's O(active) invariant); drain-aware variants belong in a
/// future feedback-coupled router.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueueRouter;

impl JoinShortestQueueRouter {
    /// Creates a join-shortest-queue router.
    pub fn new() -> Self {
        JoinShortestQueueRouter
    }
}

impl Router for JoinShortestQueueRouter {
    fn route(
        &mut self,
        _request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        argmin_among(loads, candidates, |l| l.queued_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::super::all_replicas;
    use super::super::tests::req;
    use super::*;
    use crate::router::FleetLoadTracker;

    #[test]
    fn picks_least_queued_tokens_not_fewest_requests() {
        let mut router = JoinShortestQueueRouter::new();
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
        let mut router = JoinShortestQueueRouter::new();
        let tracker = FleetLoadTracker::new(4);
        let all = all_replicas(4);
        assert_eq!(
            router.route(&req(0, 10, 10), tracker.loads(), &all),
            ReplicaId(0)
        );
    }

    #[test]
    fn unhealthy_replicas_are_excluded_even_when_emptiest() {
        let mut router = JoinShortestQueueRouter::new();
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
