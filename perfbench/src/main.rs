//! The repository benchmark: simulator speed and simulated SLO goodput on
//! three workloads, timed layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-mixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no benchmark timer
//! inside a run. `--trace 1` is a separate pass that wraps each layer call
//! in a span, reports the per-layer metrics, and writes the spans to
//! `$CARGO_TARGET_DIR/perfbench/` (`target/perfbench/` by default). The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `layers.md` for what
//! each metric measures and which end-to-end metric it should move.

mod heap;
mod probe;
mod stats;
mod workloads;

use probe::Spans;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Layers, Sim};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Untimed runs per invocation, at least, whatever `--seconds` says.
const MIN_REPS: usize = 1;
/// Set-ups timed back to back before the runs, at least, and for at least
/// `SETUP_WINDOW_S`; `setup_s` is their median. A set-up of microseconds
/// needs thousands of samples before its median holds from process to
/// process.
const SETUPS: usize = 41;
const SETUP_WINDOW_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Outcome checks and run counts for the result line.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    /// Checks one workload run: the outcome ledgers, and, when given, the
    /// digest it must reproduce.
    fn check(&mut self, what: &str, sim: &Sim, reference: Option<u64>) {
        self.attempted += sim.runs;
        let mut problem = sim.check().err();
        if let Some(want) = reference {
            if sim.digest != want {
                problem = Some(format!(
                    "outcome digest {:016x} differs from the untimed pass's {want:016x}",
                    sim.digest
                ));
            }
        }
        if let Some(p) = problem {
            self.failed += sim.runs;
            self.problems.push(format!("{what}: {p}"));
        }
    }
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// The simulated end-to-end metrics of a run, printed with their sample
/// counts.
fn sim_metrics(sim: &Sim, m: &mut Metrics) {
    let (ttft, tpot) = latencies(sim);
    put(m, "ttft_p50_s", ttft.p50, "s");
    put(m, "tpot_p50_s", tpot.p50, "s");
    put(m, "tpot_p99_s", tpot.tail, "s");
    put(
        m,
        "slo_attainment",
        stats::attainment(sim.met, sim.sent),
        "share",
    );
    put(
        m,
        "goodput_per_replica_s",
        sim.met as f64 / sim.replica_seconds,
        "req/replica-s",
    );
}

fn latencies(sim: &Sim) -> (stats::Latency, stats::Latency) {
    let ttft = stats::Latency::of(stats::ttft(&sim.records)).expect("enough completions for TTFT");
    let (gaps, excluded) = stats::tpot(&sim.records);
    let tpot = stats::Latency::of(gaps).expect("enough completions for TPOT");
    println!(
        "ttft: {} completed samples, p50 {:.6} s, p{} {:.6} s",
        ttft.samples,
        ttft.p50,
        ttft.tail_q * 100.0,
        ttft.tail
    );
    println!(
        "tpot: {} samples ({excluded} with output_len <= 1 excluded), p50 {:.6} s, p{} {:.6} s",
        tpot.samples,
        tpot.p50,
        tpot.tail_q * 100.0,
        tpot.tail
    );
    println!(
        "requests: {} sent, {} completed, {} rejected, {} shed, {} failed, {} unfinished, {} met the SLO",
        sim.sent,
        sim.records.len(),
        sim.rejected,
        sim.shed,
        sim.failed,
        sim.unfinished,
        sim.met
    );
    (ttft, tpot)
}

/// The untimed pass: the end-to-end metrics.
fn end_to_end(args: &Args, verdict: &mut Verdict) -> Metrics {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        let setup = Instant::now();
        drop(workloads::prepare(&args.workload, args.seed));
        setups.push(setup.elapsed().as_secs_f64());
    }
    let mut speeds = Vec::new();
    let mut reference: Option<Sim> = None;
    let mut heap_mib = Vec::new();
    while speeds.len() < MIN_REPS || start.elapsed() < budget {
        let (sim, host) = workloads::run(workloads::prepare(&args.workload, args.seed));
        heap_mib.push(host.heap_mib());
        verdict.check("untimed run", &sim, reference.as_ref().map(|r| r.digest));
        speeds.push(sim.records.len() as f64 / host.wall_s);
        if reference.is_none() {
            reference = Some(sim);
        }
    }
    println!(
        "untimed: {} runs, sim req/wall-s {:?}, peak heap MiB {:?}; {} set-ups",
        speeds.len(),
        speeds.iter().map(|s| s.round()).collect::<Vec<_>>(),
        heap_mib
            .iter()
            .map(|h| (h * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        setups.len()
    );
    let sim = reference.expect("at least one run");
    let mut m = Metrics::new();
    put(
        &mut m,
        "sim_req_per_wall_s",
        stats::median(&speeds),
        "req/s",
    );
    put(&mut m, "setup_s", stats::median(&setups), "s");
    put(&mut m, "peak_heap_mib", stats::median(&heap_mib), "MiB");
    sim_metrics(&sim, &mut m);
    m
}

/// The traced pass: the per-layer metrics.
fn per_layer(args: &Args, verdict: &mut Verdict) -> Metrics {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (reference, host) = workloads::run(workloads::prepare(&args.workload, args.seed));
    verdict.check("untimed run", &reference, None);
    let spans = Rc::new(RefCell::new(Spans::new()));
    let mut reps: Vec<Layers> = Vec::new();
    let mut traced_s = Vec::new();
    while reps.is_empty() || start.elapsed() < budget {
        let (sim, layers, run_s) = workloads::traced(&args.workload, args.seed, &spans);
        verdict.check("traced run", &sim, Some(reference.digest));
        reps.push(layers);
        traced_s.push(run_s);
    }
    let mut m = Metrics::new();
    for name in reps[0].keys() {
        let values: Vec<f64> = reps.iter().map(|r| r[name].0).collect();
        put(&mut m, name, stats::median(&values), reps[0][name].1);
    }
    put(
        &mut m,
        "bench.timer_overhead",
        stats::median(&traced_s) / host.wall_s - 1.0,
        "share",
    );
    let (ttft, _) = latencies(&reference);
    put(&mut m, "slo.ttft_p99_s", ttft.tail, "s");
    let max_rate = if args.workload == "engine-mixed" {
        ladder(args.seed, &mut m, verdict)
    } else {
        0.0
    };
    put(&mut m, "slo.max_rate_at_slo_rps", max_rate, "req/s");
    println!("traced: {} runs", reps.len());
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match spans.borrow().write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => verdict
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
    m
}

/// Runs the engine workload's ladder; `failed_share` replaces the
/// latency-rung value with the whole ladder's. Returns the highest rung
/// that meets the SLO.
fn ladder(seed: u64, m: &mut Metrics, verdict: &mut Verdict) -> f64 {
    let rungs = workloads::ladder(seed);
    let (mut sent, mut completed) = (0, 0);
    for (rung, sim) in &rungs {
        verdict.check("ladder rung", sim, None);
        println!(
            "rung {:>5} req/s: {} sent, {} completed, {} unfinished, attainment {:.4}",
            rung.rate,
            sim.sent,
            sim.records.len(),
            sim.unfinished,
            rung.attainment
        );
        sent += sim.sent;
        completed += sim.records.len();
    }
    put(
        m,
        "slo.failed_share",
        (sent - completed) as f64 / sent as f64,
        "share",
    );
    let rungs: Vec<stats::Rung> = rungs.into_iter().map(|(r, _)| r).collect();
    stats::max_rate_at_slo(&rungs)
}

/// The process's peak resident set (`VmHWM`), in MiB. Printed, not a
/// metric: it also counts pages the system allocator has freed but kept,
/// and that share moves by several MiB between runs of the same seed.
fn vm_hwm_mib() -> Option<f64> {
    proc_field("/proc/self/status", "VmHWM:").map(|kb| kb / 1024.0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (clock ticks of 1/100 s).
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// nproc, CPU model, compiler and commit, printed with every result.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_output("rustc", &["--version"]);
    // Only this checkout's own history: a checkout without `.git` reports
    // "none" rather than whatever repository encloses it.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "none".to_string()
    };
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let wall = Instant::now();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {}", host_fingerprint());
    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        per_layer(&args, &mut verdict)
    } else {
        end_to_end(&args, &mut verdict)
    };
    for (name, (value, _)) in &metrics {
        if !value.is_finite() {
            verdict.problems.push(format!("{name} is not finite"));
        }
    }
    for p in &verdict.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "process wall_s {:.3} cpu_s {} vm_hwm_mib {} (seed {})",
        wall.elapsed().as_secs_f64(),
        cpu_seconds().map_or("unknown".to_string(), |c| format!("{c:.2}")),
        vm_hwm_mib().map_or("unknown".to_string(), |m| format!("{m:.1}")),
        args.seed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        verdict.problems.is_empty(),
        verdict.attempted,
        verdict.failed,
        body.join(",")
    );
}
