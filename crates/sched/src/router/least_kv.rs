//! Least-KV-load routing.

use super::{argmin_among, ReplicaLoad, RouteRequest, Router};
use loong_simcore::ids::ReplicaId;

/// Joins the candidate replica with the smallest KV-cache footprint: the
/// running sum of `input_len` over assigned requests.
///
/// Differs from join-shortest-queue in what it counts: prompts only. In
/// LoongServe the unified KV pool is the scarce per-replica resource — one
/// million-token prompt pins ~488 GB of KV — while the declared output
/// bound mostly predicts *time*, not *memory*. On prompt-skewed mixes the
/// two policies can disagree sharply. Ties break towards the lowest
/// candidate id via the shared `argmin_among` helper.
///
/// Like join-shortest-queue, the sum is cumulative assigned work — the
/// routing tier gets no release feedback from the replicas' KV pools, so
/// this balances total prompt tokens ever assigned, not instantaneous
/// residency.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastKvLoadRouter;

impl LeastKvLoadRouter {
    /// Creates a least-KV-load router.
    pub fn new() -> Self {
        LeastKvLoadRouter
    }
}

impl Router for LeastKvLoadRouter {
    fn route(
        &mut self,
        _request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        argmin_among(loads, candidates, |l| l.kv_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::super::all_replicas;
    use super::super::tests::req;
    use super::*;
    use crate::router::FleetLoadTracker;

    #[test]
    fn ignores_output_bounds_when_comparing_load() {
        let mut router = LeastKvLoadRouter::new();
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
        let mut router = LeastKvLoadRouter::new();
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
