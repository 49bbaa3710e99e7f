//! Pluggable attention-cost policies: dense vs LServe-style sparsity.
//!
//! Shows the `AttentionCostPolicy` API end to end: first at the cost-model
//! level (page-sparse decode cost goes flat beyond its token budget while
//! dense keeps growing), then through a full engine run of the Mixed
//! long-context workload under each policy, where hierarchical prefill
//! sparsity dominates goodput because the workload is prefill-bound.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sparse_attention
//! ```
//!
//! Set `LOONG_SMOKE=1` for the reduced configuration CI uses.

use loongserve::prelude::*;

fn main() {
    let smoke = std::env::var("LOONG_SMOKE").is_ok();

    // --- Cost-model level: decode iteration time vs context, per policy ---
    let link = LinkSpec::nvlink_a800();
    let parallel = ParallelConfig::new(2, 4); // the paper's SP=4, TP=2 node
    let policies = AttentionCostPolicy::ablation_set();
    println!("decode iteration time (s), batch of 8, SP=4 TP=2:");
    println!(
        "{:>10} | {:>12} {:>14} {:>14}",
        "context", "dense", "page-sparse", "hierarchical"
    );
    for ctx in [16_384u64, 131_072, 1_048_576] {
        let lens = vec![ctx; 8];
        let t: Vec<f64> = policies
            .iter()
            .map(|p| {
                CostModel::new(ModelConfig::lwm_1m_text())
                    .with_attention(*p)
                    .decode_cost(&lens, parallel, parallel.sp, link)
                    .total()
            })
            .collect();
        println!("{:>10} | {:>12.6} {:>14.6} {:>14.6}", ctx, t[0], t[1], t[2]);
    }
    println!(
        "page-sparse decode saturates at its {}-token budget; dense scans the whole KV cache.\n",
        match AttentionCostPolicy::page_sparse() {
            AttentionCostPolicy::PageSparseDecode(p) => p.token_budget() as u64,
            _ => unreachable!(),
        }
    );

    // --- Engine level: the Mixed workload under each policy ---
    let count = if smoke { 24 } else { 96 };
    let rate = 0.8;
    let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, count, 2025);
    let slo = SloSpec::default_for_lwm();
    println!("LoongServe on Mixed, {count} requests at {rate} req/s:");
    println!(
        "{:>22} {:>10} {:>12} {:>12} {:>10}",
        "policy", "completed", "makespan_s", "goodput_rps", "slo"
    );
    for policy in &policies {
        let system =
            SystemUnderTest::paper_single_node(SystemKind::LoongServe).with_attention(*policy);
        let (summary, outcome) = system.run(&trace, rate, &slo);
        assert_eq!(
            outcome.unfinished,
            0,
            "policy {} left work behind",
            policy.label()
        );
        println!(
            "{:>22} {:>10} {:>12.1} {:>12.4} {:>10.3}",
            policy.label(),
            summary.completed,
            summary.makespan_s,
            summary.throughput_rps,
            summary.slo_attainment
        );
    }
}
