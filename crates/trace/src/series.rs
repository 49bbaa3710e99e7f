//! Always-on streaming aggregation: per-replica and fleet-scope
//! timeseries.
//!
//! Unlike spans (sampled, bounded by the recorder cap), series are fed by
//! **every** event and scheduling point but cost only their bins: counters
//! are [`BinnedCounter`]s and gauges keep `(sum, count, max)` per bin, so
//! total memory is `O(makespan / bin_width)` per replica regardless of how
//! many requests stream through — the "bins" half of the recorder's
//! `O(sampled + bins)` residency ledger.

use loong_metrics::{bin_index, BinnedCounter};
use loong_simcore::time::SimTime;

/// A binned gauge: per-bin mean and max of a sampled signal.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSeries {
    bin_width_s: f64,
    sums: Vec<f64>,
    counts: Vec<u64>,
    maxes: Vec<f64>,
}

impl GaugeSeries {
    /// Creates an empty gauge series with the given bin width.
    pub fn new(bin_width_s: f64) -> Self {
        assert!(
            bin_width_s > 0.0 && bin_width_s.is_finite(),
            "bin width must be positive and finite"
        );
        GaugeSeries {
            bin_width_s,
            sums: Vec::new(),
            counts: Vec::new(),
            maxes: Vec::new(),
        }
    }

    /// Records one sample of the signal at time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = bin_index(self.bin_width_s, t);
        if idx >= self.counts.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
            self.maxes.resize(idx + 1, f64::NEG_INFINITY);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
        self.maxes[idx] = self.maxes[idx].max(value);
    }

    /// Number of bins materialised so far.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Mean of the samples in bin `idx` (0.0 for empty bins).
    pub fn mean(&self, idx: usize) -> f64 {
        match self.counts.get(idx) {
            Some(&c) if c > 0 => self.sums[idx] / c as f64,
            _ => 0.0,
        }
    }

    /// Maximum sample in bin `idx` (0.0 for empty bins).
    pub fn max(&self, idx: usize) -> f64 {
        match self.counts.get(idx) {
            Some(&c) if c > 0 => self.maxes[idx],
            _ => 0.0,
        }
    }

    /// Number of samples in bin `idx`.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Merges another gauge series into this one, bin-wise. Mirrors
    /// [`BinnedCounter::merge`]: merging an empty series is the identity,
    /// merging into an empty series adopts the other's width, and two
    /// non-empty series must agree on width.
    pub fn merge(&mut self, other: &GaugeSeries) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.bin_width_s = other.bin_width_s;
        } else {
            assert!(
                self.bin_width_s == other.bin_width_s,
                "cannot merge gauge series with different bin widths"
            );
        }
        if other.counts.len() > self.counts.len() {
            self.sums.resize(other.counts.len(), 0.0);
            self.counts.resize(other.counts.len(), 0);
            self.maxes.resize(other.counts.len(), f64::NEG_INFINITY);
        }
        for i in 0..other.counts.len() {
            self.sums[i] += other.sums[i];
            self.counts[i] += other.counts[i];
            self.maxes[i] = self.maxes[i].max(other.maxes[i]);
        }
    }
}

/// The per-replica timeseries block.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSeries {
    /// Mean/max pending queue depth per bin.
    pub queue_depth: GaugeSeries,
    /// Mean/max decode batch size per bin.
    pub batch_size: GaugeSeries,
    /// Mean/max device KV utilisation per bin.
    pub kv_utilization: GaugeSeries,
    /// Completions per bin.
    pub completions: BinnedCounter,
    /// Completions that met their class-scaled SLO, per bin.
    pub slo_hits: BinnedCounter,
    /// Preemptions per bin.
    pub preemptions: BinnedCounter,
    /// Prefix-cache adoptions per bin.
    pub cache_adopts: BinnedCounter,
    /// Prefix-cache entry evictions per bin.
    pub cache_evictions: BinnedCounter,
}

impl ReplicaSeries {
    /// Creates an empty block with the given bin width.
    pub fn new(bin_width_s: f64) -> Self {
        ReplicaSeries {
            queue_depth: GaugeSeries::new(bin_width_s),
            batch_size: GaugeSeries::new(bin_width_s),
            kv_utilization: GaugeSeries::new(bin_width_s),
            completions: BinnedCounter::new(bin_width_s),
            slo_hits: BinnedCounter::new(bin_width_s),
            preemptions: BinnedCounter::new(bin_width_s),
            cache_adopts: BinnedCounter::new(bin_width_s),
            cache_evictions: BinnedCounter::new(bin_width_s),
        }
    }

    /// Merges another block into this one, series-wise.
    pub fn merge(&mut self, other: &ReplicaSeries) {
        self.queue_depth.merge(&other.queue_depth);
        self.batch_size.merge(&other.batch_size);
        self.kv_utilization.merge(&other.kv_utilization);
        self.completions.merge(&other.completions);
        self.slo_hits.merge(&other.slo_hits);
        self.preemptions.merge(&other.preemptions);
        self.cache_adopts.merge(&other.cache_adopts);
        self.cache_evictions.merge(&other.cache_evictions);
    }

    /// Total materialised bins across every series in the block.
    pub fn bins(&self) -> u64 {
        (self.queue_depth.len()
            + self.batch_size.len()
            + self.kv_utilization.len()
            + self.completions.bins().len()
            + self.slo_hits.bins().len()
            + self.preemptions.bins().len()
            + self.cache_adopts.bins().len()
            + self.cache_evictions.bins().len()) as u64
    }
}

/// Fleet-scope event counters (no single replica owns these).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSeries {
    /// Replica crashes per bin.
    pub crashes: BinnedCounter,
    /// Admission sheds per bin.
    pub sheds: BinnedCounter,
    /// Retries scheduled per bin.
    pub retries: BinnedCounter,
    /// Terminal failures per bin.
    pub failures: BinnedCounter,
}

impl FleetSeries {
    /// Creates an empty block with the given bin width.
    pub fn new(bin_width_s: f64) -> Self {
        FleetSeries {
            crashes: BinnedCounter::new(bin_width_s),
            sheds: BinnedCounter::new(bin_width_s),
            retries: BinnedCounter::new(bin_width_s),
            failures: BinnedCounter::new(bin_width_s),
        }
    }

    /// Merges another block into this one, series-wise.
    pub fn merge(&mut self, other: &FleetSeries) {
        self.crashes.merge(&other.crashes);
        self.sheds.merge(&other.sheds);
        self.retries.merge(&other.retries);
        self.failures.merge(&other.failures);
    }

    /// Total materialised bins across every series in the block.
    pub fn bins(&self) -> u64 {
        (self.crashes.bins().len()
            + self.sheds.bins().len()
            + self.retries.bins().len()
            + self.failures.bins().len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_bins_track_mean_and_max() {
        let mut g = GaugeSeries::new(10.0);
        g.record(SimTime::from_secs(1.0), 2.0);
        g.record(SimTime::from_secs(2.0), 6.0);
        g.record(SimTime::from_secs(15.0), 3.0);
        assert_eq!(g.len(), 2);
        assert_eq!(g.mean(0), 4.0);
        assert_eq!(g.max(0), 6.0);
        assert_eq!(g.count(0), 2);
        assert_eq!(g.mean(1), 3.0);
        assert_eq!(g.mean(7), 0.0);
    }

    #[test]
    fn gauge_merge_mirrors_counter_merge_semantics() {
        let mut a = GaugeSeries::new(10.0);
        let empty = GaugeSeries::new(99.0);
        a.record(SimTime::from_secs(5.0), 1.0);
        // Empty merges are identity regardless of width.
        a.merge(&empty);
        assert_eq!(a.len(), 1);
        // Merging into empty adopts the width.
        let mut b = GaugeSeries::new(1.0);
        b.merge(&a);
        assert_eq!(b.len(), 1);
        assert_eq!(b.mean(0), 1.0);
        b.record(SimTime::from_secs(15.0), 3.0);
        assert_eq!(b.len(), 2);
    }
}
