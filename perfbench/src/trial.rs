//! One trial: [`ROUNDS`] deployments, each built, driven through
//! `ShardedCluster::run_requests`, quiesced and checked.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use recipe_core::Membership;
use recipe_protocols::RaftReplica;
use recipe_shard::{PolicyReplica, ResolvedShardPolicy, ShardedCluster, ShardedRunStats};
use recipe_sim::{RangeStateTransfer, Replica};
use recipe_telemetry::{ProtocolCounters, TelemetryConfig, TelemetryReport};

use crate::timed::{Ledger, SharedLedger, Timed};
use crate::workload::{RequestSource, Shape, TIMELINE_BUCKET_NS};

/// Virtual time the cluster settles for after the run, before replica state
/// is compared (several heartbeat periods).
const QUIESCE_NS: u64 = 200_000_000;

/// A replica type the benchmark can deploy: R-Raft, or R-Raft under the
/// timing wrapper.
pub trait BenchReplica: Replica + RangeStateTransfer {
    /// The R-Raft replica underneath.
    fn raft(&mut self) -> &mut RaftReplica;
}

impl BenchReplica for RaftReplica {
    fn raft(&mut self) -> &mut RaftReplica {
        self
    }
}

impl BenchReplica for Timed<RaftReplica> {
    fn raft(&mut self) -> &mut RaftReplica {
        self.inner_mut()
    }
}

/// Deployments per trial, each under its own seed derived from the run's:
/// closed-loop throughput differs by several percent between seeds, and the
/// mean of independent deployments is that much steadier.
pub const ROUNDS: u64 = 3;

/// One deployment's outcome: a pure function of the shape and its seed.
#[derive(Debug, Clone)]
pub struct Round {
    /// The driver's statistics.
    pub stats: ShardedRunStats,
    /// Requests the clients drew.
    pub drawn: u64,
    /// Written keys where some replica disagrees with its group's majority
    /// after quiescing.
    pub diverged_keys: u64,
    /// Shield and batcher counters of every replica when the run ended.
    pub counters: ProtocolCounters,
    /// Virtual cost attribution (traced trials only).
    pub telemetry: Option<TelemetryReport>,
}

impl Round {
    /// Requests that committed (a transaction counts once).
    pub fn committed_requests(&self) -> u64 {
        self.stats.total.committed - self.stats.txn.committed_ops + self.stats.txn.committed
    }

    /// Requests the gateway refused.
    pub fn rejected(&self) -> u64 {
        self.stats.gateway.tenants.iter().map(|t| t.rejected).sum()
    }

    /// `(attempts, failed attempts)`: an aborted transaction attempt, a
    /// gateway rejection and a request still uncommitted when the run ended
    /// each count as failed.
    pub fn attempts(&self) -> (u64, u64) {
        let aborted = self.stats.txn.aborted;
        let uncommitted = self
            .drawn
            .saturating_sub(self.committed_requests() + self.rejected());
        (
            self.drawn + aborted,
            aborted + self.rejected() + uncommitted,
        )
    }

    /// The longest virtual window, in ms, in which nothing committed: the
    /// longest run of empty timeline buckets after the first commit.
    pub fn max_stall_ms(&self) -> f64 {
        let buckets = &self.stats.timeline;
        let first = buckets.iter().position(|b| b.committed > 0).unwrap_or(0);
        let (mut longest, mut run) = (0u64, 0u64);
        for bucket in &buckets[first..] {
            run = if bucket.committed == 0 { run + 1 } else { 0 };
            longest = longest.max(run);
        }
        (longest * TIMELINE_BUCKET_NS) as f64 / 1e6
    }

    fn same_outcome(&self, other: &Round) -> bool {
        self.stats == other.stats
            && self.drawn == other.drawn
            && self.diverged_keys == other.diverged_keys
            && self.counters == other.counters
    }
}

/// What one trial measured: [`ROUNDS`] deployments run back to back.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Wall seconds inside `run_requests`, over all rounds.
    pub wall_s: f64,
    /// The rounds, in seed order.
    pub rounds: Vec<Round>,
    /// Hook wall times over all rounds (traced trials only).
    pub ledger: Option<Ledger>,
}

impl Trial {
    fn sum(&self, f: impl Fn(&Round) -> u64) -> u64 {
        self.rounds.iter().map(f).sum()
    }

    fn mean(&self, f: impl Fn(&Round) -> f64) -> f64 {
        self.rounds.iter().map(f).sum::<f64>() / self.rounds.len() as f64
    }

    /// Operations committed.
    pub fn ops(&self) -> u64 {
        self.sum(|r| r.stats.total.committed)
    }

    /// Wall microseconds per committed operation.
    pub fn wall_us_per_op(&self) -> f64 {
        self.wall_s * 1e6 / self.ops() as f64
    }

    /// Committed ops per virtual second, averaged over the rounds.
    pub fn vops_per_s(&self) -> f64 {
        self.mean(|r| r.stats.total.throughput_ops)
    }

    /// Median issue-to-reply latency, averaged over the rounds.
    pub fn p50_us(&self) -> f64 {
        self.mean(|r| r.stats.total.p50_latency_us)
    }

    /// 99th-percentile latency, averaged over the rounds.
    pub fn p99_us(&self) -> f64 {
        self.mean(|r| r.stats.total.p99_latency_us)
    }

    /// The longest stall of any round.
    pub fn max_stall_ms(&self) -> f64 {
        self.rounds
            .iter()
            .map(Round::max_stall_ms)
            .fold(0.0, f64::max)
    }

    /// Failed attempts over all attempts.
    pub fn error_rate(&self) -> f64 {
        let attempts = self.sum(|r| r.attempts().0);
        let failed = self.sum(|r| r.attempts().1);
        failed as f64 / attempts.max(1) as f64
    }

    /// Diverged keys over all rounds.
    pub fn diverged_keys(&self) -> u64 {
        self.sum(|r| r.diverged_keys)
    }

    /// Requests drawn over all rounds.
    pub fn drawn(&self) -> u64 {
        self.sum(|r| r.drawn)
    }

    /// Requests the gateway refused over all rounds.
    pub fn rejected(&self) -> u64 {
        self.sum(Round::rejected)
    }

    /// True when both trials produced the same virtual outcome in every
    /// round.
    pub fn same_outcome(&self, other: &Trial) -> bool {
        self.rounds.len() == other.rounds.len()
            && self
                .rounds
                .iter()
                .zip(&other.rounds)
                .all(|(a, b)| a.same_outcome(b))
    }
}

/// The seed of round `round` of a run seeded with `seed`.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(ROUNDS).wrapping_add(round)
}

/// Runs one trial of `shape` under `seed`; `traced` deploys every replica
/// under the timing wrapper and turns the telemetry attribution on.
pub fn run(shape: &Shape, seed: u64, traced: bool) -> Result<Trial, String> {
    let ledger: Option<SharedLedger> = traced.then(SharedLedger::default);
    let mut trial = Trial {
        wall_s: 0.0,
        rounds: Vec::new(),
        ledger: None,
    };
    for round in 0..ROUNDS {
        let seed = round_seed(seed, round);
        let (wall_s, outcome) = match &ledger {
            None => drive(shape, seed, None, RaftReplica::build_replica)?,
            Some(ledger) => drive(
                shape,
                seed,
                Some(ledger),
                |shard, id, membership, policy| {
                    Timed::new(
                        RaftReplica::build_replica(shard, id, membership, policy),
                        Rc::clone(ledger),
                    )
                },
            )?,
        };
        trial.wall_s += wall_s;
        trial.rounds.push(outcome);
    }
    trial.ledger = ledger.map(|ledger| ledger.take());
    Ok(trial)
}

/// Builds the deployment, the router and the request source: the work
/// `setup_s` times.
fn build<R: BenchReplica>(
    shape: &Shape,
    seed: u64,
    telemetry: bool,
    make: impl FnMut(usize, u64, Membership, &ResolvedShardPolicy) -> R,
) -> (ShardedCluster<R>, RequestSource) {
    let mut spec = shape.spec(seed);
    if telemetry {
        spec = spec.with_telemetry(TelemetryConfig {
            enabled: true,
            // Only the cost attribution is read; a small span cap keeps the
            // tracer's memory flat.
            max_spans: 1024,
        });
    }
    let cluster = ShardedCluster::build_with(spec, make);
    let source = RequestSource::new(shape, seed, cluster.router().clone());
    (cluster, source)
}

/// Wall seconds to set up `shape`'s untraced deployment (enclave launch,
/// key provisioning, the router and the generators), without running it.
pub fn setup_only(shape: &Shape, seed: u64) -> f64 {
    let setup = Instant::now();
    let built = build(shape, seed, false, RaftReplica::build_replica);
    let setup_s = setup.elapsed().as_secs_f64();
    drop(black_box(built));
    setup_s
}

/// One round; with a `ledger`, the replicas `make` builds time their hooks
/// into it. Quiescing and the checks are left out of the ledger.
fn drive<R: BenchReplica>(
    shape: &Shape,
    seed: u64,
    ledger: Option<&SharedLedger>,
    make: impl FnMut(usize, u64, Membership, &ResolvedShardPolicy) -> R,
) -> Result<(f64, Round), String> {
    let (mut cluster, mut source) = build(shape, seed, ledger.is_some(), make);

    let start = Instant::now();
    let stats = cluster.run_requests(|client, _seq| Some(source.next(client)));
    let wall_s = start.elapsed().as_secs_f64();
    let timed = ledger.map(|ledger| ledger.borrow().clone());

    let counters = protocol_counters(&cluster);
    let telemetry = cluster.take_telemetry_report();
    cluster.quiesce(QUIESCE_NS);

    let mut round = Round {
        stats,
        drawn: source.drawn(),
        diverged_keys: 0,
        counters,
        telemetry,
    };
    check_run(shape, &round)?;
    round.diverged_keys = check_replicas(&mut cluster, &source)?;
    for shard in 0..cluster.shards() {
        let crashed = cluster.shard(shard).crashed_nodes();
        if !crashed.is_empty() {
            return Err(format!("shard {shard}: nodes {crashed:?} left crashed"));
        }
    }
    if shape.copy_probability > 0.0 {
        let injected = round.stats.total.messages_replayed;
        let rejected = protocol_counters(&cluster).rejected_frames;
        if injected == 0 {
            return Err("the adversary injected no duplicate or replay".into());
        }
        if rejected < injected {
            return Err(format!(
                "shields rejected {rejected} frames but the adversary injected {injected} copies"
            ));
        }
    }
    if let (Some(ledger), Some(timed)) = (ledger, timed) {
        *ledger.borrow_mut() = timed;
    }
    Ok((wall_s, round))
}

/// Sums the shield and batcher counters of every replica.
fn protocol_counters<R: BenchReplica>(cluster: &ShardedCluster<R>) -> ProtocolCounters {
    let mut sum = ProtocolCounters::default();
    for shard in 0..cluster.shards() {
        let group = cluster.shard(shard);
        for node in group.node_ids() {
            if let Some(counters) = group.replica(node).protocol_counters() {
                sum.merge(&counters);
            }
        }
    }
    sum
}

/// The driver-side checks: commit target reached, reads and writes account
/// for every commit, and the gateway refused nothing (every tenant is
/// authorized and unthrottled).
fn check_run(shape: &Shape, round: &Round) -> Result<(), String> {
    let total = &round.stats.total;
    if total.committed < shape.ops as u64 {
        return Err(format!(
            "committed {} of the {} target ops",
            total.committed, shape.ops
        ));
    }
    if total.committed_reads + total.committed_writes != total.committed {
        return Err(format!(
            "{} reads + {} writes != {} committed",
            total.committed_reads, total.committed_writes, total.committed
        ));
    }
    if round.rejected() > 0 {
        return Err(format!(
            "the gateway rejected {} requests",
            round.rejected()
        ));
    }
    Ok(())
}

/// Compares every written key across its group after quiescing. A majority
/// of replicas must hold one value, that value must be one the workload
/// wrote to the key, and a key written by a committed request must not be
/// missing from the majority. Returns the number of keys where a minority
/// replica disagrees with the majority (counted, not failed).
fn check_replicas<R: BenchReplica>(
    cluster: &mut ShardedCluster<R>,
    source: &RequestSource,
) -> Result<u64, String> {
    let mut diverged = 0u64;
    for (key, writes) in source.keys() {
        let shard = cluster.router().shard_for_key(key);
        let group = cluster.shard_mut(shard);
        let held: Vec<Option<Vec<u8>>> = group
            .node_ids()
            .into_iter()
            .map(|node| group.replica_mut(node).raft().local_read(key))
            .collect();
        let majority = held
            .iter()
            .find(|v| 2 * held.iter().filter(|w| w == v).count() > held.len());
        let name = String::from_utf8_lossy(key);
        match majority {
            Some(Some(value)) if !writes.values.contains(value) => {
                return Err(format!(
                    "shard {shard}: key {name} holds a value never written"
                ));
            }
            Some(None) | None if writes.committed => {
                return Err(format!(
                    "shard {shard}: committed write to key {name} missing from the majority"
                ));
            }
            _ => {}
        }
        if majority.is_none() || held.iter().any(|v| Some(v) != majority) {
            diverged += 1;
        }
    }
    Ok(diverged)
}
