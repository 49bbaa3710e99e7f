//! Figure 2: scalability of requests with different lengths in the prefill
//! and decode phases as the degree of tensor parallelism grows.
//!
//! The paper's observation: long prefills scale almost linearly with more
//! GPUs, while short prefills and (especially) decode steps barely improve,
//! which is why a single static parallelism degree cannot fit both.

use loong_bench::{banner, normalize, write_figure_csv};
use loong_cluster::gpu::LinkSpec;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};

fn main() {
    let cm = CostModel::new(ModelConfig::lwm_1m_text());
    let link = LinkSpec::nvlink_a800();
    let tps = [1usize, 2, 4, 8];

    banner("Figure 2 — iteration time vs. degree of tensor parallelism");
    let mut csv = String::from("phase,batch_size,len,tp,iteration_time_s,normalized\n");

    let prefill_cases: Vec<(usize, u64)> = vec![
        (16, 10),
        (16, 50),
        (16, 100),
        (16, 500),
        (1, 100),
        (1, 1_000),
        (1, 10_000),
        (1, 100_000),
    ];
    println!("\nprefill phase (iteration time in seconds):");
    println!(
        "{:>6} {:>9} | {:>10} {:>10} {:>10} {:>10} | speedup 1->8",
        "BS", "Len", "TP=1", "TP=2", "TP=4", "TP=8"
    );
    for (bs, len) in prefill_cases {
        let lens = vec![len; bs];
        let times: Vec<f64> = tps
            .iter()
            .map(|&tp| {
                cm.prefill_cost(&lens, ParallelConfig::new(tp, 1), link)
                    .total()
            })
            .collect();
        let norm = normalize(&times);
        for (i, &tp) in tps.iter().enumerate() {
            csv.push_str(&format!(
                "prefill,{bs},{len},{tp},{:.9},{:.6}\n",
                times[i], norm[i]
            ));
        }
        println!(
            "{:>6} {:>9} | {:>10.4} {:>10.4} {:>10.4} {:>10.4} | {:>6.2}x",
            bs,
            len,
            times[0],
            times[1],
            times[2],
            times[3],
            times[0] / times[3]
        );
    }

    let decode_cases: Vec<(usize, u64)> = vec![
        (16, 10),
        (16, 100),
        (16, 1_000),
        (1, 100),
        (1, 1_000),
        (1, 10_000),
        (1, 100_000),
    ];
    println!("\ndecode phase (iteration time in seconds):");
    println!(
        "{:>6} {:>9} | {:>10} {:>10} {:>10} {:>10} | speedup 1->8",
        "BS", "Len", "TP=1", "TP=2", "TP=4", "TP=8"
    );
    for (bs, len) in decode_cases {
        let ctx = vec![len; bs];
        let times: Vec<f64> = tps
            .iter()
            .map(|&tp| {
                cm.decode_cost(&ctx, ParallelConfig::new(tp, 1), 1, link)
                    .total()
            })
            .collect();
        let norm = normalize(&times);
        for (i, &tp) in tps.iter().enumerate() {
            csv.push_str(&format!(
                "decode,{bs},{len},{tp},{:.9},{:.6}\n",
                times[i], norm[i]
            ));
        }
        println!(
            "{:>6} {:>9} | {:>10.5} {:>10.5} {:>10.5} {:>10.5} | {:>6.2}x",
            bs,
            len,
            times[0],
            times[1],
            times[2],
            times[3],
            times[0] / times[3]
        );
    }

    // The §2.4 headline: 100K-token prefill vs 1K-token prefill on 8 GPUs.
    let p8 = ParallelConfig::new(8, 1);
    let ratio =
        cm.prefill_cost(&[100_000], p8, link).total() / cm.prefill_cost(&[1_000], p8, link).total();
    println!("\n100K-token prefill is {ratio:.1}x slower than 1K-token prefill on 8 GPUs (paper reports ~106x)");

    let path = write_figure_csv("fig2_scalability.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
