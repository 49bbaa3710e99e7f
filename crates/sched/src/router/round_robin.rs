//! Round-robin routing.

use super::{check_candidates, ReplicaLoad, RouteRequest, Router};
use loong_simcore::ids::ReplicaId;

/// Cycles through the routable replicas in id order: request *k* goes to
/// the *k mod |candidates|*-th healthy replica.
///
/// Oblivious to load, but on homogeneous replicas with exchangeable
/// requests it is the strongest simple baseline — and it is trivially
/// deterministic, needing neither seed nor tie-breaking. With every
/// replica routable the cycle is *k mod N* over replica ids, exactly the
/// pre-reliability behaviour; when replicas drop out the counter keeps
/// advancing by one per request, cycling over whatever sorted candidate
/// set each decision sees.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinRouter {
    next: u64,
}

impl RoundRobinRouter {
    /// Creates a round-robin router starting at the first candidate.
    pub fn new() -> Self {
        RoundRobinRouter { next: 0 }
    }
}

impl Router for RoundRobinRouter {
    fn route(
        &mut self,
        _request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        check_candidates(loads, candidates);
        let choice = candidates[(self.next % candidates.len() as u64) as usize];
        self.next += 1;
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::super::all_replicas;
    use super::super::tests::req;
    use super::*;
    use crate::router::FleetLoadTracker;

    #[test]
    fn cycles_in_replica_id_order() {
        let mut router = RoundRobinRouter::new();
        let tracker = FleetLoadTracker::new(3);
        let all = all_replicas(3);
        let picks: Vec<u64> = (0..7)
            .map(|i| router.route(&req(i, 10, 10), tracker.loads(), &all).raw())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn excluded_replicas_are_skipped_without_stalling_the_cycle() {
        let mut router = RoundRobinRouter::new();
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
