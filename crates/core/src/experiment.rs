//! Experiment runners: rate sweeps, goodput curves and system comparisons.
//!
//! Each figure in the paper's evaluation is a sweep over offered request
//! rates for one or more systems. These helpers generate the trace once per
//! rate (so every system sees exactly the same arrivals and lengths), run
//! the systems — on the bounded worker pool when asked — and collect
//! the per-run summaries needed to reproduce the figure.

use crate::systems::{SystemKind, SystemUnderTest};
use loong_metrics::slo::{goodput, SloPoint, SloSpec};
use loong_metrics::summary::RunSummary;
use loong_simcore::pool::run_indexed;
use loong_simcore::rng::SimRng;
use loong_workload::arrival::ArrivalProcess;
use loong_workload::datasets::DatasetKind;
use loong_workload::trace::Trace;
use serde::{Deserialize, Serialize};

/// The workload side of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One of the standard datasets.
    Dataset(DatasetKind),
    /// The Figure-12 Zipf-reshaped mixture with the given exponent.
    ZipfMixed {
        /// The Zipf exponent (1.0, 1.2 or 1.4 in the paper).
        exponent: f64,
    },
}

impl WorkloadSpec {
    /// Generates the trace for this workload at a given rate and size.
    pub fn generate(&self, rate: f64, count: usize, seed: u64) -> Trace {
        let mut rng = SimRng::seed(seed);
        match *self {
            WorkloadSpec::Dataset(kind) => {
                Trace::generate(kind, ArrivalProcess::Poisson { rate }, count, &mut rng)
            }
            WorkloadSpec::ZipfMixed { exponent } => Trace::generate_zipf_mixed(
                exponent,
                ArrivalProcess::Poisson { rate },
                count,
                &mut rng,
            ),
        }
    }

    /// A human-readable label.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Dataset(kind) => kind.name().to_string(),
            WorkloadSpec::ZipfMixed { exponent } => format!("Mixed Zipf={exponent:.1}"),
        }
    }
}

/// Configuration of a rate sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The workload to serve.
    pub workload: WorkloadSpec,
    /// Offered request rates to sweep (requests/second).
    pub rates: Vec<f64>,
    /// Number of requests per run.
    pub requests_per_run: usize,
    /// The SLO used for attainment and goodput.
    pub slo: SloSpec,
    /// Seed shared by all runs of the sweep (the trace at each rate is
    /// identical across systems).
    pub seed: u64,
    /// Run the rates of the sweep on the bounded worker pool
    /// ([`run_indexed`]); the summaries come back in rate order either way.
    pub parallel: bool,
}

/// The result of sweeping one system over the configured rates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// The system's report label.
    pub system: String,
    /// The workload label.
    pub workload: String,
    /// One summary per offered rate, in rate order.
    pub summaries: Vec<RunSummary>,
    /// The SLO-attainment curve derived from the summaries.
    pub slo_curve: Vec<SloPoint>,
    /// P90 goodput (requests/second).
    pub p90_goodput: f64,
    /// Highest offered rate whose run completed every request (a proxy for
    /// the maximum sustainable throughput under the latency SLO).
    pub max_completed_rate: f64,
}

/// Runs a rate sweep for one system.
pub fn sweep_system(system: &SystemUnderTest, config: &SweepConfig) -> SweepResult {
    let run_one = |i: usize| -> RunSummary {
        let rate = config.rates[i];
        let trace = config
            .workload
            .generate(rate, config.requests_per_run, config.seed);
        let (summary, _outcome) = system.run(&trace, rate, &config.slo);
        summary
    };

    let summaries: Vec<RunSummary> = if config.parallel {
        run_indexed(config.rates.len(), run_one)
    } else {
        (0..config.rates.len()).map(run_one).collect()
    };

    let total = config.requests_per_run.max(1);
    let slo_curve: Vec<SloPoint> = summaries
        .iter()
        .map(|s| SloPoint {
            request_rate: s.request_rate,
            // Requests that never completed violate the SLO by definition.
            attainment: s.slo_attainment * s.completed as f64 / total as f64,
            throughput: s.throughput_rps,
        })
        .collect();
    let p90_goodput = goodput(&slo_curve, 0.9);
    let max_completed_rate = summaries
        .iter()
        .filter(|s| s.completed == total)
        .map(|s| s.request_rate)
        .fold(0.0, f64::max);

    SweepResult {
        system: system.kind.label().to_string(),
        workload: config.workload.label(),
        summaries,
        slo_curve,
        p90_goodput,
        max_completed_rate,
    }
}

/// Runs the same sweep for several systems (the shape of Figures 10–12).
pub fn compare_systems(
    kinds: &[SystemKind],
    config: &SweepConfig,
    build: impl Fn(SystemKind) -> SystemUnderTest,
) -> Vec<SweepResult> {
    kinds
        .iter()
        .map(|&kind| sweep_system(&build(kind), config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_spec_generates_matching_traces() {
        let spec = WorkloadSpec::Dataset(DatasetKind::ShareGpt);
        let a = spec.generate(5.0, 20, 3);
        let b = spec.generate(5.0, 20, 3);
        assert_eq!(a, b, "same seed must give the same trace");
        assert_eq!(a.len(), 20);
        assert_eq!(spec.label(), "ShareGPT");
        assert_eq!(
            WorkloadSpec::ZipfMixed { exponent: 1.2 }.label(),
            "Mixed Zipf=1.2"
        );
    }

    #[test]
    fn pooled_sweep_matches_the_serial_sweep() {
        let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
        let mut config = SweepConfig {
            workload: WorkloadSpec::Dataset(DatasetKind::ShareGpt),
            rates: vec![2.0, 8.0, 16.0],
            requests_per_run: 20,
            slo: SloSpec::default_for_lwm(),
            seed: 5,
            parallel: false,
        };
        let serial = sweep_system(&system, &config);
        config.parallel = true;
        let pooled = sweep_system(&system, &config);
        assert_eq!(pooled.summaries, serial.summaries);
        assert_eq!(pooled.slo_curve, serial.slo_curve);
        assert_eq!(pooled.p90_goodput.to_bits(), serial.p90_goodput.to_bits());
    }
}
