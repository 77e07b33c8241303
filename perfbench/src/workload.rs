//! The three benchmark workloads, the deployments they run on, and the
//! request source that generates their traffic and remembers what it wrote.
//!
//! Why each workload exists (the same text is recorded in `BENCHMARK.json`):
//!
//! * `raft-write-heavy` — nearly every op is a replicated write, so the
//!   shield, the JSON wire codec, `AuthLayer` and the MAC do the work. 10%
//!   reads (not the paper's 50%) puts both p50 and p99 on write-commit
//!   latency.
//! * `confidential-read-heavy` — reads are served at the leader and each
//!   opens a sealed 1 KiB value, so the KV store and AEAD do the work while
//!   shield and codec do little. A codec gain should be flat here.
//! * `sharded-txn-adversarial` — the only workload where the sharded driver,
//!   router, gateway, 2PC coordinator, batcher, the shield's reject path and
//!   crash recovery do real work.

use std::collections::HashMap;

use recipe_core::{Operation, Request};
use recipe_gateway::{scoped_prefix, GatewayConfig, TenantSpec};
use recipe_net::{CrashPlan, FaultPlan, NodeId};
use recipe_protocols::BatchConfig;
use recipe_shard::{DeploymentSpec, ShardPolicy, ShardRouter};
use recipe_workload::{
    KeyDistribution, TxnWorkloadGenerator, TxnWorkloadSpec, WorkloadOp, WorkloadRequest,
    WorkloadSpec,
};

/// Virtual width of one throughput-timeline bucket (`max_stall_ms` is a run
/// of empty buckets).
pub const TIMELINE_BUCKET_NS: u64 = 100_000;

/// Tenant names behind the gateway, when a workload enables it.
pub const TENANTS: [&str; 2] = ["alpha", "beta"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 group × 3 R-Raft, plaintext, 10% reads of 256 B values.
    RaftWriteHeavy,
    /// 1 group × 3 R-Raft, confidential, 95% reads of 1 KiB values.
    ConfidentialReadHeavy,
    /// 4 groups × 3 R-Raft, confidential, batch 8, 10% cross-shard txns,
    /// gateway, duplicate/replay adversary and a leader crash on shard 0.
    ShardedTxnAdversarial,
}

/// The knobs one workload sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Replica groups (3 R-Raft replicas each).
    pub shards: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Commit target of one deployment, in operations.
    pub ops: usize,
    /// Share of single-key operations that are reads.
    pub read_ratio: f64,
    /// Bytes per written value.
    pub value_size: usize,
    /// Payload encryption and sealed storage on every group.
    pub confidential: bool,
    /// Leader-side batch size (1 = unbatched).
    pub batch_ops: usize,
    /// Share of requests that are 3-op transactions spanning up to 2 shards.
    pub txn_fraction: f64,
    /// Unthrottled tenants behind the gateway (0 = gateway off).
    pub tenants: usize,
    /// Duplicate and replay probability of the replication-plane adversary.
    pub copy_probability: f64,
    /// Upper bound of the adversary's uniform extra delivery delay.
    pub max_extra_delay_ns: u64,
    /// `(crash_at_ns, recover_at_ns)` of shard 0's initial leader.
    pub leader_crash: Option<(u64, u64)>,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::RaftWriteHeavy,
        Workload::ConfidentialReadHeavy,
        Workload::ShardedTxnAdversarial,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RaftWriteHeavy => "raft-write-heavy",
            Workload::ConfidentialReadHeavy => "confidential-read-heavy",
            Workload::ShardedTxnAdversarial => "sharded-txn-adversarial",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape at its benchmark size.
    pub fn shape(self) -> Shape {
        let base = Shape {
            shards: 1,
            clients: 24,
            ops: 0,
            read_ratio: 0.0,
            value_size: 256,
            confidential: false,
            batch_ops: 1,
            txn_fraction: 0.0,
            tenants: 0,
            copy_probability: 0.0,
            max_extra_delay_ns: 0,
            leader_crash: None,
        };
        match self {
            Workload::RaftWriteHeavy => Shape {
                ops: 4_000,
                read_ratio: 0.10,
                ..base
            },
            Workload::ConfidentialReadHeavy => Shape {
                ops: 4_000,
                read_ratio: 0.95,
                value_size: 1024,
                confidential: true,
                ..base
            },
            // The crash lands early and the leader stays down past the 35 ms
            // election timeout, so a failover happens. These times are fixed:
            // `diverged_keys` reports a known recovery defect and must not be
            // tuned away by moving them.
            Workload::ShardedTxnAdversarial => Shape {
                shards: 4,
                clients: 48,
                ops: 6_000,
                read_ratio: 0.50,
                confidential: true,
                batch_ops: 8,
                txn_fraction: 0.10,
                tenants: 2,
                copy_probability: 0.05,
                max_extra_delay_ns: 200_000,
                leader_crash: Some((20_000_000, 60_000_000)),
                ..base
            },
        }
    }
}

impl Shape {
    /// The deployment this shape runs on, seeded with `seed`.
    pub fn spec(&self, seed: u64) -> DeploymentSpec {
        let mut spec = DeploymentSpec::new(self.shards, 3)
            .with_seed(seed)
            .with_clients(self.clients, self.ops)
            .with_batching(if self.batch_ops > 1 {
                BatchConfig::of_ops(self.batch_ops)
            } else {
                BatchConfig::unbatched()
            })
            .with_timeline_bucket_ns(TIMELINE_BUCKET_NS);
        if self.confidential {
            spec = spec.confidential();
        }
        if self.copy_probability > 0.0 || self.max_extra_delay_ns > 0 {
            spec = spec.with_fault_plan(FaultPlan {
                duplicate_probability: self.copy_probability,
                replay_probability: self.copy_probability,
                max_extra_delay_ns: self.max_extra_delay_ns,
                ..FaultPlan::benign()
            });
        }
        if self.tenants > 0 {
            let mut gateway = GatewayConfig::enabled();
            for name in &TENANTS[..self.tenants] {
                gateway = gateway.with_tenant(TenantSpec::new(*name));
            }
            spec = spec.with_gateway(gateway);
        }
        if let Some((crash_at, recover_at)) = self.leader_crash {
            let plan = CrashPlan::none().crash_recover(NodeId(0), crash_at, recover_at);
            spec = spec.with_shard_policy(0, ShardPolicy::new().with_crash_plan(plan));
        }
        spec
    }

    /// The YCSB-style request stream of this shape, seeded with `seed`.
    fn workload_spec(&self, seed: u64) -> TxnWorkloadSpec {
        TxnWorkloadSpec {
            base: WorkloadSpec {
                key_space: 10_000,
                read_ratio: self.read_ratio,
                value_size: self.value_size,
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
                seed,
            },
            txn_fraction: self.txn_fraction,
            ops_per_txn: 3,
            fan_out: 2,
        }
    }
}

/// What the request source wrote to one (tenant-scoped) key.
#[derive(Debug, Clone, Default)]
pub struct KeyWrites {
    /// Every value generated for the key.
    pub values: Vec<Vec<u8>>,
    /// A write to the key belongs to a request known to have committed.
    pub committed: bool,
}

/// Generates one run's requests and remembers every write.
///
/// Values are stamped with a run-unique write number, so the correctness
/// check can tell which write a replica holds. The driver is a closed loop
/// and a gateway rejection is the only way a request ends uncommitted before
/// the run stops, so when a client draws its next request its previous one
/// committed (the check requires no rejections). Only each client's last
/// request is left in doubt.
pub struct RequestSource {
    generator: TxnWorkloadGenerator,
    router: ShardRouter,
    prefixes: Vec<Vec<u8>>,
    value_size: usize,
    writes: u64,
    drawn: u64,
    keys: HashMap<Vec<u8>, KeyWrites>,
    last_written: HashMap<u64, Vec<Vec<u8>>>,
}

impl RequestSource {
    /// A source for `shape` under `seed`, placing keys with `router`.
    pub fn new(shape: &Shape, seed: u64, router: ShardRouter) -> Self {
        RequestSource {
            generator: shape.workload_spec(seed).generator(),
            router,
            prefixes: TENANTS[..shape.tenants]
                .iter()
                .map(|name| scoped_prefix(name))
                .collect(),
            value_size: shape.value_size,
            writes: 0,
            drawn: 0,
            keys: HashMap::new(),
            last_written: HashMap::new(),
        }
    }

    /// The key as the replicas store it: tenant-scoped when the gateway is
    /// on (the gateway assigns clients to tenants round-robin).
    fn stored_key(prefixes: &[Vec<u8>], client: u64, key: &[u8]) -> Vec<u8> {
        if prefixes.is_empty() {
            return key.to_vec();
        }
        let mut scoped = prefixes[(client % prefixes.len() as u64) as usize].clone();
        scoped.extend_from_slice(key);
        scoped
    }

    /// Client `client`'s next request.
    pub fn next(&mut self, client: u64) -> Request {
        self.drawn += 1;
        if let Some(keys) = self.last_written.remove(&client) {
            for key in keys {
                self.keys.entry(key).or_default().committed = true;
            }
        }
        let (router, prefixes) = (&self.router, &self.prefixes);
        let request = self
            .generator
            .next_request(&|key| router.shard_for_key(&Self::stored_key(prefixes, client, key)));
        let ops = match request {
            WorkloadRequest::Single(op) => vec![op],
            WorkloadRequest::Txn(ops) => ops,
        };
        let is_txn = ops.len() > 1;
        let mut written = Vec::new();
        let ops: Vec<Operation> = ops
            .into_iter()
            .map(|op| match op {
                WorkloadOp::Read { key } => Operation::Get { key },
                WorkloadOp::Write { key, .. } => {
                    self.writes += 1;
                    let mut value = vec![0xAB; self.value_size.max(8)];
                    value[..8].copy_from_slice(&self.writes.to_le_bytes());
                    let stored = Self::stored_key(&self.prefixes, client, &key);
                    self.keys
                        .entry(stored.clone())
                        .or_default()
                        .values
                        .push(value.clone());
                    written.push(stored);
                    Operation::Put { key, value }
                }
            })
            .collect();
        self.last_written.insert(client, written);
        if is_txn {
            Request::Txn(ops)
        } else {
            Request::Single(ops.into_iter().next().expect("a single request has one op"))
        }
    }

    /// Requests drawn so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Every key written, with what was written to it.
    pub fn keys(&self) -> &HashMap<Vec<u8>, KeyWrites> {
        &self.keys
    }
}
