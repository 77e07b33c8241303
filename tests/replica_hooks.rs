//! The 2PC participant and recovery hooks of every KV-backed replica, driven
//! through one table.
//!
//! R-Raft, R-CR, R-ABD and PBFT are 2PC participants: each locks and stages
//! through its store, commits staged writes under its own write-timestamp
//! rule, carries replicated prepare records across failover, and resumes its
//! write counter at the freshest restored timestamp after a restart. The
//! rules differ in one place only — the timestamp a commit write takes:
//!
//! * R-Raft, R-CR and PBFT stamp `(write counter + 1, node)`;
//! * R-ABD stamps the strictly-newer Lamport successor of the key's stored
//!   timestamp, so installs converge under its write-if-newer rule.
//!
//! R-AllConcur and Damysus are not participants and must keep voting
//! `Unsupported`.

use recipe::bft::{DamysusReplica, PbftReplica};
use recipe::core::{Membership, Operation};
use recipe::net::NodeId;
use recipe::protocols::{AbdReplica, AllConcurReplica, ChainReplica, RaftReplica};
use recipe::sim::{CostProfile, SimCluster, SimConfig};
use recipe_sim::{RangeEntry, RangeStateTransfer, Replica, TxnVote};

/// How a protocol stamps a 2PC commit write.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// `(write counter + 1, node)`.
    NextCounter,
    /// The stored timestamp's strictly-newer successor for this node.
    StrictlyNewer,
}

/// One row of the table: how to build a group and read its write counter.
struct Case<R> {
    name: &'static str,
    group: fn() -> Vec<R>,
    counter: fn(&R) -> u64,
    rule: Rule,
}

fn put(key: &str, value: &str) -> Operation {
    Operation::Put {
        key: key.as_bytes().to_vec(),
        value: value.as_bytes().to_vec(),
    }
}

fn get(key: &str) -> Operation {
    Operation::Get {
        key: key.as_bytes().to_vec(),
    }
}

fn entry(key: &str, value: &str, ts_logical: u64, ts_node: u64) -> RangeEntry {
    RangeEntry {
        key: key.as_bytes().to_vec(),
        value: value.as_bytes().to_vec(),
        ts_logical,
        ts_node,
    }
}

fn conflict(key: &str) -> TxnVote {
    TxnVote::Conflict {
        key: key.as_bytes().to_vec(),
    }
}

/// The timestamp `rule` gives a commit write of a key stored at `stored`
/// on a replica whose write counter read `counter` before the write.
fn expected_ts(rule: Rule, counter: u64, stored: (u64, u64), node: u64) -> (u64, u64) {
    match rule {
        Rule::NextCounter => (counter + 1, node),
        Rule::StrictlyNewer => (stored.0 + 1, node),
    }
}

fn stamps(entries: &[RangeEntry]) -> Vec<(Vec<u8>, Vec<u8>, u64, u64)> {
    entries
        .iter()
        .map(|e| (e.key.clone(), e.value.clone(), e.ts_logical, e.ts_node))
        .collect()
}

/// prepare → conflicting prepare → commit on the group's node 0, checking
/// the protocol's timestamp rule on the returned entries.
fn prepare_conflict_commit<R: Replica + RangeStateTransfer>(case: &Case<R>) {
    let name = case.name;
    let mut group = (case.group)();
    let node = &mut group[0];
    node.import_range(&[entry("a", "old", 7, 2)]);
    let start = (case.counter)(node);

    let txn = [put("a", "1"), get("b"), put("c", "3")];
    assert_eq!(node.txn_prepare(1, &txn), TxnVote::Granted, "{name}");
    // Writes and reads both lock; a conflicting prepare takes nothing.
    assert_eq!(
        node.txn_prepare(2, &[put("x", "9"), put("a", "2")]),
        conflict("a"),
        "{name}"
    );
    assert_eq!(node.txn_prepare(3, &[get("b")]), conflict("b"), "{name}");
    assert_eq!(
        node.txn_prepare(4, &[put("x", "9")]),
        TxnVote::Granted,
        "{name}"
    );
    node.txn_abort(4);

    let committed = node.txn_commit(1);
    let a = expected_ts(case.rule, start, (7, 2), 0);
    let c = expected_ts(case.rule, start + 1, (0, 0), 0);
    assert_eq!(
        stamps(&committed),
        vec![
            (b"a".to_vec(), b"1".to_vec(), a.0, a.1),
            (b"c".to_vec(), b"3".to_vec(), c.0, c.1),
        ],
        "{name}: commit timestamps"
    );
    assert_eq!((case.counter)(node), start + 2, "{name}: write counter");
    let stored = node.read_entry(b"a").unwrap().unwrap();
    assert_eq!((stored.ts_logical, stored.ts_node), a, "{name}");
    assert_eq!(stored.value, b"1", "{name}");

    // Re-commit is an idempotent no-op; commit released every lock.
    assert!(node.txn_commit(1).is_empty(), "{name}: re-commit");
    assert_eq!((case.counter)(node), start + 2, "{name}");
    assert_eq!(
        node.txn_prepare(5, &[put("a", "5"), get("b")]),
        TxnVote::Granted,
        "{name}"
    );
    node.txn_abort(5);
    assert!(node.txn_commit(5).is_empty(), "{name}: commit after abort");
    assert_eq!(
        node.read_entry(b"a").unwrap().unwrap().value,
        b"1",
        "{name}"
    );
}

/// txn_export_records → txn_import_record → txn_adopt_replicated moves the
/// in-flight set from node 0 to node 1, which then commits it under its
/// own node id.
fn records_move_and_adopt<R: Replica + RangeStateTransfer>(case: &Case<R>) {
    let name = case.name;
    let mut group = (case.group)();
    let (donor, rest) = group.split_first_mut().unwrap();
    let joiner = &mut rest[0];

    assert_eq!(
        donor.txn_prepare(10, &[put("k", "v"), get("r")]),
        TxnVote::Granted,
        "{name}"
    );
    donor.txn_stage_replicated(11, &[put("m", "w")]);
    donor.txn_stage_replicated(12, &[put("z", "q")]);
    donor.txn_drop_replicated(12);
    // A passive record holds no locks on the node that stages it.
    assert_eq!(
        donor.txn_prepare(13, &[put("m", "x")]),
        TxnVote::Granted,
        "{name}"
    );
    donor.txn_abort(13);

    let records = donor.txn_export_records();
    let ids: Vec<u64> = records.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![10, 11], "{name}: exported records");
    assert_eq!(
        records[0].1,
        vec![
            (b"k".to_vec(), None),
            (b"r".to_vec(), None),
            (b"k".to_vec(), Some(b"v".to_vec())),
        ],
        "{name}: record wire form"
    );

    for (txn_id, ops) in &records {
        joiner.txn_import_record(*txn_id, ops);
    }
    assert_eq!(
        joiner.txn_prepare(20, &[put("k", "y")]),
        TxnVote::Granted,
        "{name}"
    );
    joiner.txn_abort(20);
    assert_eq!(
        joiner.txn_adopt_replicated(),
        vec![10, 11],
        "{name}: adopted"
    );
    assert!(joiner.txn_adopt_replicated().is_empty(), "{name}");
    // Adoption took the locks.
    assert_eq!(joiner.txn_prepare(21, &[get("r")]), conflict("r"), "{name}");

    let start = (case.counter)(joiner);
    let k = expected_ts(case.rule, start, (0, 0), 1);
    assert_eq!(
        stamps(&joiner.txn_commit(10)),
        vec![(b"k".to_vec(), b"v".to_vec(), k.0, k.1)],
        "{name}: adopted commit"
    );
    let m = expected_ts(case.rule, start + 1, (0, 0), 1);
    assert_eq!(
        stamps(&joiner.txn_commit(11)),
        vec![(b"m".to_vec(), b"w".to_vec(), m.0, m.1)],
        "{name}"
    );
}

/// A crashed node restarts with an empty lock table, catches up from a
/// live peer's snapshot, and resumes its write counter at the freshest
/// restored logical timestamp.
fn restart_resumes_the_write_counter<R: Replica + RangeStateTransfer>(case: &Case<R>) {
    let name = case.name;
    let mut group = (case.group)();
    let n = group.len();
    for (idx, replica) in group.iter_mut().enumerate() {
        replica.import_range(&[entry("base", "b", 41, 0)]);
        if idx != 1 {
            // Committed while node 1 was down: only the snapshot carries it.
            replica.import_range(&[entry("late", "l", 57, 2)]);
        }
    }
    assert_eq!(
        group[1].txn_prepare(30, &[put("base", "volatile")]),
        TxnVote::Granted,
        "{name}"
    );
    group[0].txn_stage_replicated(31, &[put("inflight", "i")]);

    let mut cluster = SimCluster::new(group, SimConfig::uniform(n, CostProfile::recipe()));
    cluster.set_external_clients(true);
    cluster.crash_at(NodeId(1), 1_000);
    cluster.recover_at(NodeId(1), 2_000);
    while cluster.peek_next_at().is_some_and(|at| at <= 2_000) {
        cluster.step();
    }
    assert!(
        cluster.crashed_nodes().is_empty(),
        "{name}: node 1 rejoined"
    );

    let node = cluster.replica_mut(NodeId(1));
    assert_eq!((case.counter)(node), 57, "{name}: resumed write counter");
    assert_eq!(node.read_entry(b"late").unwrap().unwrap().ts_logical, 57);
    // The pre-crash prepare died with the enclave; the donor's in-flight
    // record came back as a passive copy.
    assert_eq!(
        node.txn_prepare(32, &[put("base", "fresh")]),
        TxnVote::Granted,
        "{name}: volatile lock table"
    );
    assert_eq!(node.txn_adopt_replicated(), vec![31], "{name}");
    let fresh = node.txn_commit(32);
    let ts = expected_ts(case.rule, 57, (41, 0), 1);
    assert_eq!(
        stamps(&fresh),
        vec![(b"base".to_vec(), b"fresh".to_vec(), ts.0, ts.1)],
        "{name}: first commit after restart"
    );
}

fn run<R: Replica + RangeStateTransfer>(case: Case<R>) {
    prepare_conflict_commit(&case);
    records_move_and_adopt(&case);
    restart_resumes_the_write_counter(&case);
}

fn group_of<R>(n: usize, make: fn(u64, Membership) -> R) -> Vec<R> {
    let membership = Membership::of_size(n, (n - 1) / 2);
    (0..n as u64)
        .map(|id| make(id, membership.clone()))
        .collect()
}

#[test]
fn kv_backed_participants_follow_their_timestamp_rule() {
    run(Case {
        name: "R-Raft",
        group: || group_of(3, |id, m| RaftReplica::recipe(id, m, false)),
        counter: RaftReplica::committed_entries,
        rule: Rule::NextCounter,
    });
    run(Case {
        name: "R-CR",
        group: || group_of(3, |id, m| ChainReplica::recipe(id, m, false)),
        counter: ChainReplica::applied_writes,
        rule: Rule::NextCounter,
    });
    run(Case {
        name: "R-ABD",
        group: || group_of(3, |id, m| AbdReplica::recipe(id, m, false)),
        counter: AbdReplica::applied_writes,
        rule: Rule::StrictlyNewer,
    });
    run(Case {
        name: "PBFT",
        group: || {
            let membership = Membership::of_size(4, 1);
            (0..4)
                .map(|id| PbftReplica::new(id, membership.clone()))
                .collect()
        },
        counter: PbftReplica::executed_ops,
        rule: Rule::NextCounter,
    });
}

#[test]
fn non_participants_vote_unsupported() {
    let ops = [put("a", "1")];
    let mut allconcur = AllConcurReplica::recipe(0, Membership::of_size(3, 1), false);
    assert_eq!(allconcur.txn_prepare(1, &ops), TxnVote::Unsupported);
    assert!(allconcur.txn_commit(1).is_empty());
    assert!(allconcur.txn_export_records().is_empty());
    let mut damysus = DamysusReplica::new(0, Membership::of_size(3, 1));
    assert_eq!(damysus.txn_prepare(1, &ops), TxnVote::Unsupported);
    assert!(damysus.txn_commit(1).is_empty());
    assert!(damysus.txn_export_records().is_empty());
}
