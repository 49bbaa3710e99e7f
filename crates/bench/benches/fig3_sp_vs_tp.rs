//! Figure 3: fixed sequence parallelism + tensor parallelism vs. pure tensor
//! parallelism, for both phases, across batch-size/length combinations.
//!
//! The paper's point: adding SP to TP costs nothing and often helps for long
//! sequences — the prerequisite for building *elastic* SP on top of it.

use loong_bench::{banner, write_figure_csv};
use loong_cluster::gpu::LinkSpec;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};

fn main() {
    let cm = CostModel::new(ModelConfig::lwm_1m_text());
    let link = LinkSpec::nvlink_a800();
    // All three strategies use the same eight GPUs.
    let strategies = [
        ("SP=1,TP=8", ParallelConfig::new(8, 1)),
        ("SP=2,TP=4", ParallelConfig::new(4, 2)),
        ("SP=4,TP=2", ParallelConfig::new(2, 4)),
    ];
    // The paper's batch-size / per-request-length pairs.
    let cases: Vec<(usize, u64)> = vec![
        (512, 1_000),
        (128, 5_000),
        (64, 10_000),
        (16, 50_000),
        (4, 100_000),
        (1, 500_000),
    ];

    banner("Figure 3 — fixed SPxTP vs pure TP (8 GPUs)");
    let mut csv = String::from("phase,batch_size,len,strategy,iteration_time_s\n");

    println!("\nprefill phase (iteration time in seconds):");
    println!(
        "{:>6} {:>9} | {:>12} {:>12} {:>12} | best",
        "BS", "Len", "SP1TP8", "SP2TP4", "SP4TP2"
    );
    for &(bs, len) in &cases {
        let lens = vec![len; bs];
        let times: Vec<f64> = strategies
            .iter()
            .map(|(_, p)| cm.prefill_cost(&lens, *p, link).total())
            .collect();
        for (i, (name, _)) in strategies.iter().enumerate() {
            csv.push_str(&format!("prefill,{bs},{len},{name},{:.9}\n", times[i]));
        }
        let best = strategies[times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)]
        .0;
        println!(
            "{:>6} {:>9} | {:>12.4} {:>12.4} {:>12.4} | {}",
            bs, len, times[0], times[1], times[2], best
        );
    }

    println!("\ndecode phase (iteration time in seconds):");
    println!(
        "{:>6} {:>9} | {:>12} {:>12} {:>12} | best",
        "BS", "Len", "SP1TP8", "SP2TP4", "SP4TP2"
    );
    for &(bs, len) in &cases {
        let ctx = vec![len; bs];
        let times: Vec<f64> = strategies
            .iter()
            .map(|(_, p)| cm.decode_cost(&ctx, *p, p.sp, link).total())
            .collect();
        for (i, (name, _)) in strategies.iter().enumerate() {
            csv.push_str(&format!("decode,{bs},{len},{name},{:.9}\n", times[i]));
        }
        let best = strategies[times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)]
        .0;
        println!(
            "{:>6} {:>9} | {:>12.5} {:>12.5} {:>12.5} | {}",
            bs, len, times[0], times[1], times[2], best
        );
    }

    let path = write_figure_csv("fig3_sp_vs_tp.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
