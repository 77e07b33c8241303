//! The timing wrapper must be invisible to the simulation: a traced trial
//! (every replica wrapped, telemetry on) produces exactly the statistics of
//! the untraced trial of the same workload and seed.

use recipe_perfbench::trial;
use recipe_perfbench::workload::Workload;

#[test]
fn traced_runs_reproduce_untraced_stats_exactly() {
    for workload in Workload::ALL {
        let mut shape = workload.shape();
        // Long enough on the sharded workload for the leader crash (20 ms)
        // and its recovery (60 ms) to land inside the run.
        shape.ops = if shape.leader_crash.is_some() {
            2_500
        } else {
            600
        };
        let plain = trial::run(&shape, 7, false).expect("untraced trial passes its checks");
        let traced = trial::run(&shape, 7, true).expect("traced trial passes its checks");
        for (a, b) in plain.rounds.iter().zip(&traced.rounds) {
            assert_eq!(a.stats, b.stats, "{}", workload.name());
            assert_eq!(a.drawn, b.drawn, "{}", workload.name());
            assert_eq!(a.diverged_keys, b.diverged_keys, "{}", workload.name());
            assert_eq!(a.counters, b.counters, "{}", workload.name());
        }
        assert!(plain.same_outcome(&traced));
        let ledger = traced.ledger.expect("traced trials carry a ledger");
        assert!(ledger.message.calls > 0 && ledger.client_request.calls > 0);
        assert!(plain.ledger.is_none() && plain.rounds.iter().all(|r| r.telemetry.is_none()));
        assert!(traced.rounds.iter().all(|r| r.telemetry.is_some()));
        if shape.leader_crash.is_some() {
            let elapsed = plain.rounds.iter().map(|r| r.stats.total.elapsed_secs);
            assert!(
                elapsed.fold(1.0, f64::min) > 0.06,
                "every round outlasts the recovery"
            );
            assert!(
                ledger.other.calls > 0,
                "recovery hooks ran through the wrapper"
            );
        }
    }
}
