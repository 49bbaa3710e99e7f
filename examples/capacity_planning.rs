//! Capacity planning with the cost model and the analytical model.
//!
//! ```bash
//! cargo run --release --example capacity_planning
//! ```
//!
//! A downstream user of the library often wants to answer "what DoP should I
//! give a request of length L?" and "how many concurrent 100K-token sessions
//! fit on one node?" without running a full serving simulation. This example
//! uses the roofline cost model, the fitted analytical model and the memory
//! budget directly.

use loongserve::prelude::*;

fn main() {
    let model = ModelConfig::lwm_1m_text();
    let cluster = ClusterSpec::single_node_a800(8);
    let cost = CostModel::new(model.clone());
    let nvlink = cluster.intra_node_link;

    println!(
        "model: {} ({:.1}B params, {:.0} KiB KV per token)",
        model.name,
        model.param_count() / 1e9,
        model.kv_bytes_per_token() / 1024.0
    );

    // 1. Prefill latency vs degree of parallelism for several prompt lengths.
    println!("\nprefill latency (s) by parallelism strategy:");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "len", "TP2", "SP2TP2", "SP4TP2", "TP8"
    );
    for len in [1_000u64, 10_000, 50_000, 100_000, 500_000, 1_000_000] {
        let t = |tp: usize, sp: usize| {
            cost.prefill_cost(&[len], ParallelConfig::new(tp, sp), nvlink)
                .total()
        };
        println!(
            "{:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            len,
            t(2, 1),
            t(2, 2),
            t(2, 4),
            t(8, 1)
        );
    }

    // 2. Decode latency vs batch size for 1 vs 4 masters.
    println!("\ndecode latency (ms) on 4 instances (TP=2), context 10K tokens:");
    println!("{:>10} {:>12} {:>12}", "batch", "1 master", "4 masters");
    for bs in [1usize, 16, 64, 256, 1024] {
        let ctx = vec![10_000u64; bs];
        let p = ParallelConfig::new(2, 4);
        println!(
            "{:>10} {:>12.2} {:>12.2}",
            bs,
            cost.decode_cost(&ctx, p, 1, nvlink).total() * 1e3,
            cost.decode_cost(&ctx, p, 4, nvlink).total() * 1e3
        );
    }

    // 3. Memory capacity: how many concurrent sessions of a given length fit?
    let budget = MemoryBudget::new(
        &cluster.gpu,
        model.weight_bytes_per_gpu(2),
        0.10,
        model.kv_bytes_per_token_per_gpu(2),
    );
    let per_instance = budget.kv_slot_capacity();
    let total = per_instance * 4;
    println!(
        "\nKV capacity: {per_instance} tokens per TP=2 instance, {total} tokens across the node"
    );
    for len in [10_000u64, 100_000, 500_000, 1_000_000] {
        println!("  {:>9}-token sessions: {:>4} concurrent (unified pool), {:>4} under per-instance locality",
            len, total / len, (per_instance / len) * 4);
    }

    // 4. The fitted analytical model (Eq. 7) for quick what-if queries.
    let mut rng = SimRng::seed(1);
    let sib = ScalingInfoBase::profile(
        &cost,
        &[ParallelConfig::new(2, 4), ParallelConfig::new(2, 2)],
        nvlink,
        0.01,
        &mut rng,
    );
    let m = sib
        .prefill_model(ParallelConfig::new(2, 4))
        .expect("profiled");
    println!(
        "\nfitted analytical model for SP4TP2: alpha={:.4e} beta={:.4e} gamma={:.4e}",
        m.alpha, m.beta, m.gamma
    );
    for len in [20_000u64, 200_000, 800_000] {
        let predicted = m.predict(&[len]);
        let measured = cost
            .prefill_cost(&[len], ParallelConfig::new(2, 4), nvlink)
            .total();
        println!(
            "  len {:>7}: predicted {:>8.2} s, roofline {:>8.2} s ({:+.1}% error)",
            len,
            predicted,
            measured,
            (predicted - measured) / measured * 100.0
        );
    }
}
