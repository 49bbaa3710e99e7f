//! Figure 15: accuracy of the fitted analytical model (Eq. 7) against
//! "measured" (roofline-substrate) prefill iteration times, for the three
//! parallelism strategies SP2TP4, SP4TP2 and SP8TP1 and batch sizes 1–8.

use loong_bench::{banner, write_figure_csv};
use loong_cluster::gpu::LinkSpec;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};
use loong_model::sib::ScalingInfoBase;
use loong_simcore::rng::SimRng;

fn main() {
    let cm = CostModel::new(ModelConfig::lwm_1m_text());
    let link = LinkSpec::nvlink_a800();
    let strategies = [
        ("SP2TP4", ParallelConfig::new(4, 2)),
        ("SP4TP2", ParallelConfig::new(2, 4)),
        ("SP8TP1", ParallelConfig::new(1, 8)),
    ];
    let mut rng = SimRng::seed(15);
    let configs: Vec<ParallelConfig> = strategies.iter().map(|(_, p)| *p).collect();
    // Profile with 1% measurement noise, exactly as the real SIB would see.
    let sib = ScalingInfoBase::profile(&cm, &configs, link, 0.01, &mut rng);

    banner("Figure 15 — analytical model (alpha + beta*Sum(l) + gamma*Sum(l^2)) accuracy");
    let mut csv = String::from("strategy,batch_size,input_len,predicted_s,measured_s,rel_error\n");
    let batch_sizes = [1usize, 2, 4, 8];
    let lens: Vec<u64> = vec![25_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000];

    let mut worst: f64 = 0.0;
    for (name, parallel) in strategies {
        let model = sib.prefill_model(parallel).expect("profiled");
        println!(
            "\n{name}: alpha={:.4e}  beta={:.4e}  gamma={:.4e}",
            model.alpha, model.beta, model.gamma
        );
        println!(
            "{:>4} {:>9} | {:>12} {:>12} | error",
            "BS", "Len", "predicted", "measured"
        );
        let mut errors = Vec::new();
        for &bs in &batch_sizes {
            for &len in &lens {
                // Keep the total token count within the context window.
                if bs as u64 * len > cm.model.max_context_len as u64 {
                    continue;
                }
                let batch = vec![len; bs];
                let predicted = model.predict(&batch);
                let measured = cm.prefill_cost(&batch, parallel, link).total();
                let err = ((predicted - measured) / measured).abs();
                errors.push(err);
                worst = worst.max(err);
                csv.push_str(&format!(
                    "{name},{bs},{len},{predicted:.6},{measured:.6},{err:.6}\n"
                ));
                if bs == 1 || len == 100_000 {
                    println!(
                        "{:>4} {:>9} | {:>12.3} {:>12.3} | {:>6.2}%",
                        bs,
                        len,
                        predicted,
                        measured,
                        err * 100.0
                    );
                }
            }
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        let max_err = errors.iter().copied().fold(0.0f64, f64::max);
        println!(
            "mean relative error {:.2}%, max {:.2}% over {} batches",
            mean_err * 100.0,
            max_err * 100.0,
            errors.len()
        );
    }
    println!(
        "\nworst-case relative error across all strategies: {:.2}% (paper reports <10%)",
        worst * 100.0
    );

    let path = write_figure_csv("fig15_model_accuracy.csv", &csv);
    println!("CSV written to {}", path.display());
}
