//! Figure 14: overhead of the elastic scaling mechanisms.
//!
//! (a) Prefill iterations with vs. without proactive scale-down folded in —
//!     the overhead must stay negligible (<2% in the paper).
//! (b) Decode iterations with 1 / 2 / 4 sequence-parallel masters — the
//!     multi-master mechanism should roughly halve latency at large batch
//!     sizes and cost <10% at batch size 1.

use loong_bench::{banner, write_figure_csv};
use loong_cluster::gpu::LinkSpec;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};

fn main() {
    let cm = CostModel::new(ModelConfig::lwm_1m_text());
    let link = LinkSpec::nvlink_a800();
    let p = ParallelConfig::new(2, 4);
    // The paper's batch-size / prompt-length pairs.
    let cases: Vec<(usize, u64)> = vec![
        (1024, 10),
        (256, 100),
        (64, 1_000),
        (16, 10_000),
        (4, 50_000),
        (2, 100_000),
        (1, 200_000),
    ];

    banner("Figure 14a — prefill with vs without proactive scale-down (SP4TP2)");
    let mut csv = String::from("panel,batch_size,len,variant,iteration_time_s\n");
    println!(
        "{:>6} {:>9} | {:>14} {:>14} | overhead",
        "BS", "Len", "w/o scale-down", "w/ scale-down"
    );
    for &(bs, len) in &cases {
        let lens = vec![len; bs];
        let base = cm.prefill_cost(&lens, p, link).total();
        let total_tokens: u64 = lens.iter().sum();
        let with = base + cm.proactive_scale_down_overhead(total_tokens, p);
        let overhead = (with - base) / base * 100.0;
        csv.push_str(&format!("a,{bs},{len},without,{base:.9}\n"));
        csv.push_str(&format!("a,{bs},{len},with,{with:.9}\n"));
        println!(
            "{:>6} {:>9} | {:>14.4} {:>14.4} | {:>6.2}%",
            bs, len, base, with, overhead
        );
        assert!(overhead < 2.0, "proactive scale-down overhead exceeded 2%");
    }

    banner("Figure 14b — decode with 1 / 2 / 4 SP masters (SP4TP2)");
    println!(
        "{:>6} {:>9} | {:>12} {:>12} {:>12} | 1->4 speedup",
        "BS", "Len", "1 master", "2 masters", "4 masters"
    );
    for &(bs, len) in &cases {
        let ctx = vec![len; bs];
        let t1 = cm.decode_cost(&ctx, p, 1, link).total();
        let t2 = cm.decode_cost(&ctx, p, 2.min(bs.max(1)), link).total();
        let t4 = cm.decode_cost(&ctx, p, 4.min(bs.max(1)), link).total();
        csv.push_str(&format!("b,{bs},{len},1master,{t1:.9}\n"));
        csv.push_str(&format!("b,{bs},{len},2masters,{t2:.9}\n"));
        csv.push_str(&format!("b,{bs},{len},4masters,{t4:.9}\n"));
        println!(
            "{:>6} {:>9} | {:>12.5} {:>12.5} {:>12.5} | {:>6.2}x",
            bs,
            len,
            t1,
            t2,
            t4,
            t1 / t4
        );
    }

    let path = write_figure_csv("fig14_scaling_overhead.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
