//! Ablation A1: solver lookahead on vs off (dead-end rate) and theory
//! propagation on vs off (per-character solver cost), plus the thread- and
//! batch-scaling studies of the parallel record-level decoder.
//!
//! Usage: `cargo run -p lejit-bench --release --bin ablation_lookahead`
//! (`LEJIT_THREADS=n` pins the worker count, `LEJIT_BATCH=n` the records
//! per batched forward pass; outputs are byte-identical for every value,
//! only wall time changes.)

use lejit_bench::{experiments, print_table, BenchEnv, Scale};

fn main() {
    let env = BenchEnv::build(Scale::from_env());
    let table = experiments::ablation_lookahead(&env);
    print_table("Ablation A1: solver lookahead", &table);
    let scaling = experiments::thread_scaling(&env);
    print_table(
        &format!(
            "Thread scaling: LeJIT imputation, {} windows (env default: {} threads)",
            env.eval_windows().len(),
            env.threads
        ),
        &scaling,
    );
    let batching = experiments::batch_scaling(&env);
    print_table(
        &format!(
            "Batch scaling: LeJIT imputation, {} windows, {} threads (env default: batch {})",
            env.eval_windows().len(),
            env.threads,
            env.batch
        ),
        &batching,
    );
    let forward = experiments::batch_forward_throughput(&env);
    print_table(
        "Batched forward throughput (model only): KV-cache lanes per weight sweep",
        &forward,
    );
}
