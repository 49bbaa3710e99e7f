//! Metric arithmetic shared by every workload: order statistics, the tail
//! percentile rule, SLO attainment over requests sent, TPOT, and the
//! highest ladder rung that meets the SLO.

use loongserve::prelude::*;

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_LADDER: [f64; 3] = [0.50, 0.90, 0.99];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted, non-empty sample: the mean of the two middle
/// values when the count is even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, for a sample of `n`; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|q| n - (q * n as f64).ceil() as usize >= MIN_BEYOND)
}

/// A latency distribution summarised as its median and its tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples the summary was taken over.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// The percentile [`tail_percentile`] chose (0.99 once there are at
    /// least 1,000 samples).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Latency {
    /// Summarises `values`; `None` when there are too few samples for
    /// even the median to have ten beyond it.
    pub fn of(mut values: Vec<f64>) -> Option<Latency> {
        let tail_q = tail_percentile(values.len())?;
        values.sort_by(f64::total_cmp);
        Some(Latency {
            samples: values.len(),
            p50: quantile(&values, 0.5),
            tail_q,
            tail: quantile(&values, tail_q),
        })
    }
}

/// Arrival to first token of every completed request.
pub fn ttft(records: &[RequestRecord]) -> Vec<f64> {
    records.iter().map(|r| r.input_latency()).collect()
}

/// Each completed request's mean gap between output tokens, and how many
/// requests were left out because they produced at most one token.
pub fn tpot(records: &[RequestRecord]) -> (Vec<f64>, usize) {
    let gaps: Vec<f64> = records
        .iter()
        .filter(|r| r.output_len > 1)
        .map(|r| r.output_latency() / (r.output_len - 1) as f64)
        .collect();
    let excluded = records.len() - gaps.len();
    (gaps, excluded)
}

/// Completed requests that met their SLO: the class SLO when `per_class`,
/// the base SLO otherwise.
pub fn met(records: &[RequestRecord], base: &SloSpec, per_class: bool) -> usize {
    records
        .iter()
        .filter(|r| {
            let slo = if per_class {
                class_slo(base, r.class)
            } else {
                *base
            };
            slo.met_by(r)
        })
        .count()
}

/// SLO attainment over requests **sent**: a request that was rejected,
/// shed, failed or never finished counts as a miss.
pub fn attainment(met: usize, sent: usize) -> f64 {
    assert!(sent > 0, "attainment over zero requests sent");
    met as f64 / sent as f64
}

/// One rung of an offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate (req/s).
    pub rate: f64,
    /// SLO attainment over requests sent.
    pub attainment: f64,
    /// Requests neither finished nor rejected when the run ended.
    pub unfinished: usize,
}

/// The highest rung with attainment ≥ 0.90 and no unfinished request; 0
/// when no rung passes.
pub fn max_rate_at_slo(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.attainment >= 0.90 && r.unfinished == 0)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, output_len: u64, first_token: f64, finish: f64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            input_len: 1_000,
            output_len,
            prefill_start: SimTime::ZERO,
            first_token: SimTime::from_secs(first_token),
            finish: SimTime::from_secs(finish),
            preemptions: 0,
            class: TrafficClass::Interactive,
        }
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // p99 of 1,000 leaves exactly ten beyond it; 999 leaves nine.
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(99), Some(0.50));
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(19), None);
        let lat = Latency::of((1..=1_000).map(f64::from).collect()).expect("enough samples");
        assert_eq!(
            (lat.samples, lat.p50, lat.tail_q, lat.tail),
            (1_000, 500.0, 0.99, 990.0)
        );
        let beyond = (1..=1_000).filter(|&v| f64::from(v) > lat.tail).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn attainment_is_over_requests_sent() {
        let slo = SloSpec::default_for_lwm();
        // Two completions meet the SLO; eight more requests were sent but
        // rejected, shed, failed or left unfinished.
        let records = vec![record(0, 10, 0.1, 0.2), record(1, 10, 0.1, 0.2)];
        let m = met(&records, &slo, false);
        assert_eq!(m, 2);
        assert_eq!(attainment(m, 10), 0.2);
        // A completion that misses the SLO is a miss too.
        let slow = vec![record(2, 10, 1e6, 2e6)];
        assert_eq!(attainment(met(&slow, &slo, false), 1), 0.0);
    }

    #[test]
    fn tpot_excludes_single_token_outputs() {
        let records = vec![
            record(0, 1, 1.0, 1.0),
            record(1, 0, 1.0, 1.0),
            record(2, 5, 1.0, 3.0),
        ];
        let (gaps, excluded) = tpot(&records);
        assert_eq!(gaps, vec![0.5]);
        assert_eq!(excluded, 2);
    }

    #[test]
    fn max_rate_is_zero_when_no_rung_passes() {
        let failing = [
            Rung {
                rate: 0.1,
                attainment: 0.85,
                unfinished: 0,
            },
            Rung {
                rate: 0.2,
                attainment: 0.95,
                unfinished: 3,
            },
        ];
        assert_eq!(max_rate_at_slo(&failing), 0.0);
        let mixed = [
            Rung {
                rate: 0.1,
                attainment: 0.97,
                unfinished: 0,
            },
            Rung {
                rate: 0.2,
                attainment: 0.91,
                unfinished: 0,
            },
            Rung {
                rate: 0.3,
                attainment: 0.80,
                unfinished: 0,
            },
        ];
        assert_eq!(max_rate_at_slo(&mixed), 0.2);
    }
}
