//! Regenerates the multi-tenant noisy-neighbour experiment: three quiet
//! tenants establish a solo baseline, a fourth joins with closed-loop demand
//! ~10× the quota it is granted, and the gateway's deterministic token
//! bucket defers the excess before it reaches the router — the quiet
//! tenants' p99 stays within 10% of the solo baseline.
//!
//! Arguments: `[operations] [summary_json_path]` — the first overrides the
//! committed-operation count (default 1500; CI passes a smoke value), the
//! second writes the machine-readable `BENCH_*.json` summary the perf gate
//! compares against `crates/bench/baselines/`.
fn main() {
    let operations = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(1_500);
    let report = recipe_bench::fig_tenancy(operations);
    recipe_bench::print_rows(
        "Multi-tenant gateway: noisy-neighbour containment via token-bucket admission",
        &report.rows,
    );
    println!(
        "\nnoisy tenant clamped to {} ops/s; p99 quiet tenants solo {:.1} us -> all tenants contended {:.1} us \
         ({:+.1}%, containment bound < +10%)",
        report.noisy_quota_ops_per_sec,
        report.solo.total.p99_latency_us,
        report.contained.total.p99_latency_us,
        report.p99_degradation * 100.0,
    );
    println!("per-tenant admission accounting (contended run):");
    for t in &report.contained.gateway.tenants {
        println!(
            "  {:<8} admitted {:>6}  throttled {:>6}  rejected {:>4}  committed ops {:>6}",
            t.tenant, t.admitted, t.throttled, t.rejected, t.committed_ops
        );
    }
    let summary = recipe_bench::tenancy_summary(&report);
    println!("\n{}", serde_json::to_string_pretty(&summary).unwrap());
    if let Some(path) = std::env::args().nth(2) {
        recipe_bench::write_summary(&path, &summary).expect("summary written");
        println!("summary written to {path}");
    }
}
