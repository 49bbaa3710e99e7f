//! Shared helpers for the figure-reproduction benchmark harness.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! LoongServe paper: it prints a markdown/CSV rendition to stdout (captured
//! into `bench_output.txt` by the top-level instructions) and also writes
//! the CSV under `target/figures/` for plotting.

use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Directory where benches drop their CSV outputs.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("figures");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a figure's CSV payload, returning the path it was written to.
pub fn write_figure_csv(name: &str, contents: &str) -> PathBuf {
    let path = figures_dir().join(name);
    if let Err(err) = fs::write(&path, contents) {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
    path
}

/// Prints a section header so figure outputs are easy to locate in the
/// captured bench log.
pub fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Normalises a series so its maximum is 1.0, matching the paper's
/// "normalised iteration time" axes.
pub fn normalize(values: &[f64]) -> Vec<f64> {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return values.to_vec();
    }
    values.iter().map(|v| v / max).collect()
}

/// Runs `routine` once untimed, then `calls` times, prints the mean wall
/// time per call under `label`, and returns that mean. This is the whole
/// timing harness of the micro-benchmarks: no statistics beyond the mean.
pub fn time_mean<O>(label: &str, calls: u32, mut routine: impl FnMut() -> O) -> Duration {
    assert!(calls > 0, "time_mean needs at least one timed call");
    black_box(routine());
    let start = Instant::now();
    for _ in 0..calls {
        black_box(routine());
    }
    let mean = start.elapsed() / calls;
    println!("bench {label}: {mean:?}/call (n={calls})");
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_to_unit_max() {
        let n = normalize(&[1.0, 2.0, 4.0]);
        assert_eq!(n, vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize(&[]), Vec::<f64>::new());
        assert_eq!(normalize(&[0.0]), vec![0.0]);
    }

    #[test]
    fn harness_runs() {
        let mut runs = 0u32;
        time_mean("trivial", 3, || {
            runs += 1;
            black_box(5u8)
        });
        assert_eq!(runs, 4, "one untimed warm-up call plus three timed calls");
    }

    #[test]
    fn figures_dir_is_creatable() {
        let dir = figures_dir();
        assert!(dir.ends_with("figures"));
    }
}
