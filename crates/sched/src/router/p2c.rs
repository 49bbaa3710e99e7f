//! Power-of-two-choices routing with a seeded probe order.

use super::{check_candidates, ReplicaLoad, RouteRequest, Router};
use loong_simcore::ids::ReplicaId;
use loong_simcore::rng::SimRng;
use rand::Rng;

/// Probes two distinct candidate replicas drawn from a seeded RNG and joins
/// the one with fewer queued tokens.
///
/// The classic load-balancing result: sampling two queues and joining the
/// shorter one gets exponentially close to join-shortest-queue while
/// probing O(1) replicas per request — the shape that matters once a fleet
/// is too large to scan. The probe pair comes from a [`SimRng`] substream
/// seeded at construction, so identically-seeded runs probe — and therefore
/// route — identically. Probes are drawn as *indices into the sorted
/// candidate slice*, so with the full fleet routable the draws are exactly
/// the pre-reliability ones (bit-for-bit replay), and with a shrunken set
/// every draw still lands on a healthy replica. A probe-pair tie breaks
/// towards the lower candidate index — the lower replica id, since
/// candidates are sorted — independent of draw order.
#[derive(Debug, Clone)]
pub struct PowerOfTwoChoicesRouter {
    rng: SimRng,
}

impl PowerOfTwoChoicesRouter {
    /// Creates a power-of-two-choices router with the given probe seed.
    pub fn new(seed: u64) -> Self {
        PowerOfTwoChoicesRouter {
            rng: SimRng::seed(seed).fork("p2c-probes"),
        }
    }
}

impl Router for PowerOfTwoChoicesRouter {
    fn route(
        &mut self,
        _request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        check_candidates(loads, candidates);
        let n = candidates.len();
        if n == 1 {
            return candidates[0];
        }
        // Two distinct probes: draw the first uniformly, the second from
        // the remaining n-1 slots, shifted past the first. For a fixed
        // candidate count of two or more, every request costs exactly two
        // RNG draws regardless of the outcome, so the probe stream stays
        // aligned across replays; a single candidate (handled above) needs
        // none.
        let first = self.rng.gen_range(0..n);
        let mut second = self.rng.gen_range(0..n - 1);
        if second >= first {
            second += 1;
        }
        // Compare in candidate order so a tie breaks to the lower id no
        // matter in which order the probes were drawn.
        let (lo, hi) = (first.min(second), first.max(second));
        let (lo, hi) = (candidates[lo], candidates[hi]);
        if loads[hi.index()].queued_tokens < loads[lo.index()].queued_tokens {
            hi
        } else {
            lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::all_replicas;
    use super::super::tests::req;
    use super::*;
    use crate::router::FleetLoadTracker;

    #[test]
    fn identical_seeds_probe_identically() {
        let tracker = FleetLoadTracker::new(8);
        let all = all_replicas(8);
        let route_all = |seed: u64| -> Vec<u64> {
            let mut router = PowerOfTwoChoicesRouter::new(seed);
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
        let mut router = PowerOfTwoChoicesRouter::new(7);
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
        let mut router = PowerOfTwoChoicesRouter::new(11);
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
        let mut router = PowerOfTwoChoicesRouter::new(3);
        assert_eq!(
            router.route(&req(0, 10, 10), tracker.loads(), &all),
            ReplicaId(0)
        );
    }

    #[test]
    fn probes_never_land_on_excluded_replicas() {
        let tracker = FleetLoadTracker::new(4);
        let healthy = [ReplicaId(1), ReplicaId(3)];
        let mut router = PowerOfTwoChoicesRouter::new(5);
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
        let mut skipped = PowerOfTwoChoicesRouter::new(9);
        let mut fresh = PowerOfTwoChoicesRouter::new(9);
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
