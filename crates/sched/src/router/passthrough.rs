//! The single-replica identity router.

use super::{check_candidates, ReplicaLoad, RouteRequest, Router};
use loong_simcore::ids::ReplicaId;

/// Routes every request to the first routable replica.
///
/// This is the identity of the fleet tier: a 1-replica fleet under
/// passthrough must produce the bare serving engine's outcome bit for bit
/// (pinned by `tests/fleet_equivalence.rs`) — with the full candidate set
/// the first candidate is replica 0, the historical behaviour. It also
/// works over larger fleets — as the degenerate "no load balancing"
/// baseline — but that is only useful for experiments about imbalance.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughRouter;

impl PassthroughRouter {
    /// Creates the passthrough router.
    pub fn new() -> Self {
        PassthroughRouter
    }
}

impl Router for PassthroughRouter {
    fn route(
        &mut self,
        _request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        check_candidates(loads, candidates);
        candidates[0]
    }
}

#[cfg(test)]
mod tests {
    use super::super::all_replicas;
    use super::super::tests::req;
    use super::*;
    use crate::router::FleetLoadTracker;

    #[test]
    fn everything_lands_on_replica_zero() {
        let mut router = PassthroughRouter::new();
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
        let mut router = PassthroughRouter::new();
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
