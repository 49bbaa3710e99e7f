//! Shared digest machinery for the golden determinism suites.
//!
//! Both `tests/determinism_golden.rs` (single engine) and
//! `tests/fleet_equivalence.rs` (fleet tier) pin 64-bit digests of complete
//! outcomes. The field walk lives here, once: when `RunOutcome` grows a
//! field, extending [`outcome_digest`] updates **every** golden suite at
//! the same time, so no suite can silently keep pinning the old shape.
//!
//! Included into each test binary via `#[path = "golden_util.rs"]`; the
//! pinned constants stay in the suites themselves. Each suite uses a
//! different subset of the helpers, so unused-item lints are silenced
//! per-binary here.
#![allow(dead_code)]

use loongserve::prelude::*;

/// FNV-1a over a stream of u64 words.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn time(&mut self, t: SimTime) {
        self.word(t.as_secs().to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }

    /// Folds every field of a [`RunOutcome`] into the digest.
    pub fn outcome(&mut self, outcome: &RunOutcome) {
        self.word(outcome.records.len() as u64);
        for r in &outcome.records {
            self.word(r.id.raw());
            self.time(r.arrival);
            self.word(r.input_len);
            self.word(r.output_len);
            self.time(r.prefill_start);
            self.time(r.first_token);
            self.time(r.finish);
            self.word(r.preemptions as u64);
        }
        self.word(outcome.rejected.len() as u64);
        for (id, reason) in &outcome.rejected {
            self.word(id.raw());
            self.str(reason);
        }
        self.word(outcome.unfinished as u64);
        self.word(outcome.scaling_events.len() as u64);
        for e in &outcome.scaling_events {
            self.time(e.at);
            self.word(e.delta_instances as u64);
        }
        self.time(outcome.sim_time);
        self.word(outcome.iterations);
        self.word(outcome.migration_bytes.to_bits());
        self.word(outcome.scheduler_calls);
        // The pressure block participates only when the run actually
        // experienced pressure: an unpressured run must keep reproducing
        // the pre-subsystem digests bit for bit (the zero-cost-when-
        // disabled invariant the golden constants pin), while pressured
        // runs still pin every counter.
        if !outcome.pressure.is_zero() {
            self.word(outcome.pressure.preemptions);
            self.word(outcome.pressure.swap_out_events);
            self.word(outcome.pressure.swap_in_events);
            self.word(outcome.pressure.swap_out_bytes.to_bits());
            self.word(outcome.pressure.swap_in_bytes.to_bits());
            self.word(outcome.pressure.swap_stall_s.to_bits());
            self.word(outcome.pressure.max_outstanding_swapped_tokens);
        }
        // Same contract for the prefix-cache block: cache-off (and
        // never-hit) runs keep reproducing the pre-tier digests bit for
        // bit, while cache-active runs pin every counter. `prefilled_tokens`
        // is deliberately not folded on the zero-cache path: it is fully
        // determined by the iteration stream the digest already pins, and
        // folding it unconditionally would invalidate the pinned constants
        // without adding discrimination.
        if !outcome.cache.is_zero() {
            self.word(outcome.cache.lookups);
            self.word(outcome.cache.hits);
            self.word(outcome.cache.reused_tokens);
            self.word(outcome.cache.saved_prefill_s.to_bits());
            self.word(outcome.cache.evicted_entries);
            self.word(outcome.cache.evicted_tokens);
            self.word(outcome.cache.retained_tokens_high_water);
            self.word(outcome.prefilled_tokens);
        }
    }
}

impl Digest {
    /// Folds the fleet's failed-request ledger into the digest.
    pub fn failed(&mut self, failed: &[FailedRequest]) {
        self.word(failed.len() as u64);
        for f in failed {
            self.word(f.id.raw());
            self.time(f.at);
            self.word(f.replica.raw());
            self.str(&f.reason);
        }
    }

    /// Folds the reliability ledger and its SLA windows into the digest.
    pub fn reliability(&mut self, stats: &ReliabilityStats, windows: &[SlaWindow]) {
        self.word(stats.crashes);
        self.word(stats.downtime_s.to_bits());
        self.word(stats.failed_attempts);
        self.word(stats.retries_scheduled);
        self.word(stats.retries_exhausted);
        self.word(stats.re_prefilled_tokens);
        self.word(stats.recovered_requests);
        self.word(stats.breaker_opens);
        self.word(windows.len() as u64);
        for w in windows {
            self.word(w.start_s.to_bits());
            self.word(w.end_s.to_bits());
            self.word(w.completed);
            self.word(w.failed);
        }
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// A bit-for-bit digest of everything in a [`RunOutcome`].
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut d = Digest::new();
    d.outcome(outcome);
    d.0
}
