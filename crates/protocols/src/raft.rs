//! R-Raft: the Recipe transformation of Raft (leader-based, total order).
//!
//! The protocol structure follows Figure 1 and §3.4: the leader serializes all
//! writes into a log, broadcasts each entry to the followers (replication phase),
//! marks it replicated after a majority of ACKs, then broadcasts a commit message
//! and answers the client once a majority acknowledged the commit. Reads are
//! linearizable by forwarding them to the leader, which answers from its local
//! partitioned KV store (its position in every write quorum plus the trusted lease
//! make the local read safe).
//!
//! Leader failure is detected through heartbeats guarded by the trusted lease
//! (§3.5): followers that observe an expired lease vote for the next view; once a
//! quorum of votes for the same view is gathered the new leader takes over.
//! Committed entries survive the change because they reside in a majority of KV
//! stores.

use std::collections::{HashMap, HashSet};

use recipe_core::{
    wire_enum, ClientReply, ClientRequest, ConfidentialityMode, Membership, Operation, Wire,
};
use recipe_kv::{PartitionedKvStore, Timestamp};
use recipe_net::NodeId;
use recipe_sim::{Ctx, KvBacked, RangeEntry, Replica, RestartReport};

use crate::batch::{BatchConfig, Batcher};
use crate::shield::ProtocolShield;

/// Timer token: leader heartbeat tick.
const TOKEN_HEARTBEAT: u64 = 1;
/// Timer token: follower failure-detector tick.
const TOKEN_FAILURE_DETECTOR: u64 = 2;
/// Timer token: flush partially-filled batches (time-budget trigger).
const TOKEN_BATCH_FLUSH: u64 = 3;
/// Heartbeat period in nanoseconds.
const HEARTBEAT_PERIOD_NS: u64 = 10_000_000; // 10 ms
/// Lease / election timeout in nanoseconds.
const ELECTION_TIMEOUT_NS: u64 = 35_000_000; // 35 ms

/// Raft protocol messages (carried as Recipe-shielded payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMsg {
    /// Leader → followers: replicate one log entry.
    Append {
        /// The leader's view.
        view: u64,
        /// Log index of the entry.
        index: u64,
        /// Key written.
        key: Vec<u8>,
        /// Value written.
        value: Vec<u8>,
        /// Issuing client.
        client_id: u64,
        /// The client's request id.
        request_id: u64,
    },
    /// Follower → leader: entry buffered.
    AppendAck {
        /// The follower's view.
        view: u64,
        /// Log index acknowledged.
        index: u64,
    },
    /// Leader → followers: apply the entry.
    Commit {
        /// The leader's view.
        view: u64,
        /// Log index to apply.
        index: u64,
    },
    /// Follower → leader: entry applied.
    CommitAck {
        /// The follower's view.
        view: u64,
        /// Log index applied.
        index: u64,
    },
    /// Leader → followers: liveness heartbeat.
    Heartbeat {
        /// The leader's view.
        view: u64,
    },
    /// Any node → all: vote to move to `new_view`.
    ViewChange {
        /// The view voted for.
        new_view: u64,
    },
}

wire_enum!(RaftMsg {
    0 => Append { view, index, key, value, client_id, request_id },
    1 => AppendAck { view, index },
    2 => Commit { view, index },
    3 => CommitAck { view, index },
    4 => Heartbeat { view },
    5 => ViewChange { new_view },
});

#[derive(Debug, Clone)]
struct PendingEntry {
    key: Vec<u8>,
    value: Vec<u8>,
    client_id: u64,
    request_id: u64,
    append_acks: HashSet<u64>,
    commit_acks: HashSet<u64>,
    replicated: bool,
    replied: bool,
}

/// A Raft replica (native or Recipe-transformed).
pub struct RaftReplica {
    id: NodeId,
    membership: Membership,
    shield: ProtocolShield,
    kv: PartitionedKvStore,
    view: u64,
    next_index: u64,
    /// Leader-side replication state per log index.
    pending: HashMap<u64, PendingEntry>,
    /// Follower-side uncommitted entries per log index.
    uncommitted: HashMap<u64, (Vec<u8>, Vec<u8>)>,
    /// Timestamp (virtual ns) of the last heartbeat observed from the leader.
    last_heartbeat_ns: u64,
    /// Views this replica has already voted for.
    voted: HashSet<u64>,
    /// Votes received per candidate view.
    view_votes: HashMap<u64, HashSet<u64>>,
    /// Number of committed (applied) entries — used by tests and recovery.
    committed_entries: u64,
    /// Outgoing-message batcher (unbatched by default; see
    /// [`RaftReplica::with_batching`]).
    batcher: Batcher,
}

impl RaftReplica {
    /// Builds a Recipe-transformed replica (R-Raft).
    ///
    /// `confidentiality` is the group's policy — a
    /// [`recipe_core::ConfidentialityMode`] resolved by the deployment spec
    /// (see `recipe_shard::DeploymentSpec`), or a legacy `bool` via
    /// `From<bool>`. Confidential replicas also seal their stored values.
    pub fn recipe(
        id: u64,
        membership: Membership,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        Self::with_shield(
            NodeId(id),
            membership.clone(),
            ProtocolShield::recipe(NodeId(id), &membership, confidentiality.into()),
        )
    }

    /// Builds a native (untransformed) replica.
    pub fn native(id: u64, membership: Membership) -> Self {
        Self::with_shield(NodeId(id), membership, ProtocolShield::native(NodeId(id)))
    }

    fn with_shield(id: NodeId, membership: Membership, shield: ProtocolShield) -> Self {
        let kv = PartitionedKvStore::new(shield.store_config());
        RaftReplica {
            id,
            membership,
            shield,
            kv,
            view: 0,
            next_index: 0,
            pending: HashMap::new(),
            uncommitted: HashMap::new(),
            last_heartbeat_ns: 0,
            voted: HashSet::new(),
            view_votes: HashMap::new(),
            committed_entries: 0,
            batcher: Batcher::new(BatchConfig::unbatched()),
        }
    }

    /// Enables leader-side batching: outgoing protocol messages accumulate per
    /// destination and drain as one amortized frame per flush (ops, byte or
    /// time budget — see [`BatchConfig`]). `BatchConfig::unbatched()` restores
    /// the one-message-per-op seed behaviour.
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batcher = Batcher::new(config);
        self
    }

    /// The current view (term).
    pub fn view(&self) -> u64 {
        self.view
    }

    /// True if this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.membership.leader_for_view(self.view) == self.id
    }

    /// Number of entries this replica has applied to its KV store.
    pub fn committed_entries(&self) -> u64 {
        self.committed_entries
    }

    /// Reads a key directly from the local store (test/verification helper).
    pub fn local_read(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.kv.get(key).ok().map(|r| r.value)
    }

    /// Messages rejected by the authentication layer.
    pub fn rejected_messages(&self) -> u64 {
        self.shield.rejected()
    }

    fn peers(&self) -> Vec<NodeId> {
        self.membership.peers_of(self.id)
    }

    fn quorum(&self) -> usize {
        self.membership.quorum()
    }

    fn send(&mut self, ctx: &mut Ctx, dst: NodeId, msg: &RaftMsg) {
        self.enqueue(ctx, dst, msg.to_wire());
    }

    fn broadcast(&mut self, ctx: &mut Ctx, msg: &RaftMsg) {
        for peer in self.peers() {
            self.send(ctx, peer, msg);
        }
    }

    /// Sends `payload` to `dst` through the batching pipeline: immediately as a
    /// single shielded message when batching is off, otherwise accumulated and
    /// flushed on the first trigger (ops/byte budget now, time budget via
    /// [`TOKEN_BATCH_FLUSH`]).
    fn enqueue(&mut self, ctx: &mut Ctx, dst: NodeId, payload: Vec<u8>) {
        if !self.batcher.is_batching() {
            let wire = self.shield.wrap(dst, 1, &payload);
            ctx.send(dst, wire);
            return;
        }
        let shield = &mut self.shield;
        self.batcher
            .enqueue(ctx, TOKEN_BATCH_FLUSH, dst, 1, payload, |ctx, dst, ops| {
                let count = ops.len() as u32;
                ctx.send_batch(dst, shield.wrap_batch(dst, ops), count);
            });
    }

    fn apply_write(&mut self, key: &[u8], value: &[u8]) {
        let ts = Timestamp::new(self.committed_entries + 1, self.id.0);
        let _ = self.kv.write(key, value, ts);
        self.committed_entries += 1;
    }

    fn handle_protocol_message(&mut self, from: NodeId, msg: RaftMsg, ctx: &mut Ctx) {
        match msg {
            RaftMsg::Append {
                view,
                index,
                key,
                value,
                client_id: _,
                request_id: _,
            } => {
                if view != self.view || self.is_leader() {
                    return;
                }
                self.uncommitted.insert(index, (key, value));
                let ack = RaftMsg::AppendAck { view, index };
                self.send(ctx, from, &ack);
            }
            RaftMsg::AppendAck { view, index } => {
                if view != self.view || !self.is_leader() {
                    return;
                }
                let quorum = self.quorum();
                let mut newly_replicated = false;
                if let Some(entry) = self.pending.get_mut(&index) {
                    entry.append_acks.insert(from.0);
                    if !entry.replicated && entry.append_acks.len() >= quorum {
                        entry.replicated = true;
                        newly_replicated = true;
                    }
                }
                if newly_replicated {
                    // Apply locally and instruct followers to commit.
                    let (key, value) = {
                        let entry = &self.pending[&index];
                        (entry.key.clone(), entry.value.clone())
                    };
                    self.apply_write(&key, &value);
                    if let Some(entry) = self.pending.get_mut(&index) {
                        entry.commit_acks.insert(self.id.0);
                    }
                    let commit = RaftMsg::Commit {
                        view: self.view,
                        index,
                    };
                    self.broadcast(ctx, &commit);
                }
            }
            RaftMsg::Commit { view, index } => {
                if view != self.view || self.is_leader() {
                    return;
                }
                if let Some((key, value)) = self.uncommitted.remove(&index) {
                    self.apply_write(&key, &value);
                }
                let ack = RaftMsg::CommitAck { view, index };
                self.send(ctx, from, &ack);
            }
            RaftMsg::CommitAck { view, index } => {
                if view != self.view || !self.is_leader() {
                    return;
                }
                let quorum = self.quorum();
                if let Some(entry) = self.pending.get_mut(&index) {
                    entry.commit_acks.insert(from.0);
                    if !entry.replied && entry.commit_acks.len() >= quorum {
                        entry.replied = true;
                        ctx.reply(ClientReply {
                            client_id: entry.client_id,
                            request_id: entry.request_id,
                            value: None,
                            found: false,
                            replier: self.id.0,
                        });
                    }
                }
            }
            RaftMsg::Heartbeat { view } => {
                if view > self.view {
                    // A heartbeat from a newer view: the election happened
                    // while this replica was down (or partitioned) — adopt
                    // the view instead of waiting out another election. In
                    // crash-free runs the view never advances, so this
                    // branch is never taken there.
                    self.install_view(view, ctx);
                }
                if view >= self.view {
                    self.last_heartbeat_ns = ctx.now().as_nanos();
                }
            }
            RaftMsg::ViewChange { new_view } => {
                if new_view <= self.view {
                    return;
                }
                self.view_votes.entry(new_view).or_default().insert(from.0);
                // Vote ourselves (once per view) and echo the vote to everyone.
                if self.voted.insert(new_view) {
                    self.view_votes
                        .entry(new_view)
                        .or_default()
                        .insert(self.id.0);
                    let vote = RaftMsg::ViewChange { new_view };
                    self.broadcast(ctx, &vote);
                }
                let votes = self.view_votes.get(&new_view).map(|v| v.len()).unwrap_or(0);
                if votes >= self.quorum() {
                    self.install_view(new_view, ctx);
                }
            }
        }
    }

    fn install_view(&mut self, view: u64, ctx: &mut Ctx) {
        self.view = view;
        self.shield.set_view(view);
        self.last_heartbeat_ns = ctx.now().as_nanos();
        // Any in-flight leader state from the previous view is discarded; committed
        // entries are already in the KV stores of a majority.
        self.pending.clear();
        if self.is_leader() {
            // Failover adoption: in-flight transactions the crashed leader
            // prepared become real (locked) prepares on the new leader, so
            // the 2PC coordinator's commit/abort frames resolve them here.
            let _ = self.kv.txn_adopt_replicated();
            let beat = RaftMsg::Heartbeat { view: self.view };
            self.broadcast(ctx, &beat);
            ctx.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
        }
    }
}

impl Replica for RaftReplica {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        if !self.is_leader() {
            // The distributed data-store layer normally routes around this; drop.
            return;
        }
        if self.kv.is_locked(request.operation.key()) {
            // An in-flight transaction holds the key (2PL isolation): defer
            // by dropping — the client's retransmission resubmits the
            // operation after the transaction committed or aborted. With no
            // transactions in flight this branch never taken, so the
            // single-key path is bit-identical to the pre-transaction API.
            return;
        }
        match request.operation {
            Operation::Get { key } => {
                // Linearizable local read at the leader.
                let read = self.kv.get(&key).ok();
                ctx.reply(ClientReply {
                    client_id: request.client_id,
                    request_id: request.request_id,
                    found: read.is_some(),
                    value: Some(read.map(|r| r.value).unwrap_or_default()),
                    replier: self.id.0,
                });
            }
            Operation::Put { key, value } => {
                let index = self.next_index;
                self.next_index += 1;
                let mut entry = PendingEntry {
                    key: key.clone(),
                    value: value.clone(),
                    client_id: request.client_id,
                    request_id: request.request_id,
                    append_acks: HashSet::new(),
                    commit_acks: HashSet::new(),
                    replicated: false,
                    replied: false,
                };
                entry.append_acks.insert(self.id.0);
                self.pending.insert(index, entry);
                let append = RaftMsg::Append {
                    view: self.view,
                    index,
                    key,
                    value,
                    client_id: request.client_id,
                    request_id: request.request_id,
                };
                self.broadcast(ctx, &append);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        for (_kind, payload) in self.shield.unwrap(from, bytes) {
            if let Some(msg) = RaftMsg::decode(&payload) {
                self.handle_protocol_message(from, msg, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        match token {
            0 => {
                // Initial kick from the simulator: start heartbeats / failure detection.
                self.last_heartbeat_ns = ctx.now().as_nanos();
                if self.is_leader() {
                    let beat = RaftMsg::Heartbeat { view: self.view };
                    self.broadcast(ctx, &beat);
                    ctx.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
                }
                ctx.set_timer(ELECTION_TIMEOUT_NS, TOKEN_FAILURE_DETECTOR);
            }
            TOKEN_HEARTBEAT if self.is_leader() => {
                let beat = RaftMsg::Heartbeat { view: self.view };
                self.broadcast(ctx, &beat);
                ctx.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
            }
            TOKEN_BATCH_FLUSH => {
                let shield = &mut self.shield;
                self.batcher.flush_timer(ctx, |ctx, dst, ops| {
                    let count = ops.len() as u32;
                    ctx.send_batch(dst, shield.wrap_batch(dst, ops), count);
                });
            }
            TOKEN_FAILURE_DETECTOR => {
                if !self.is_leader() {
                    let elapsed = ctx.now().as_nanos().saturating_sub(self.last_heartbeat_ns);
                    if elapsed > ELECTION_TIMEOUT_NS {
                        let new_view = self.view + 1;
                        if self.voted.insert(new_view) {
                            self.view_votes
                                .entry(new_view)
                                .or_default()
                                .insert(self.id.0);
                            let vote = RaftMsg::ViewChange { new_view };
                            self.broadcast(ctx, &vote);
                        }
                    }
                }
                ctx.set_timer(ELECTION_TIMEOUT_NS, TOKEN_FAILURE_DETECTOR);
            }
            _ => {}
        }
    }

    fn coordinates_writes(&self) -> bool {
        self.is_leader()
    }

    fn coordinates_reads(&self) -> bool {
        self.is_leader()
    }

    fn protocol_counters(&self) -> Option<recipe_telemetry::ProtocolCounters> {
        let mut counters = self.shield.counters();
        self.batcher.fold_counters(&mut counters);
        Some(counters)
    }

    fn protocol_name(&self) -> &'static str {
        if self.shield.mode().is_recipe() {
            "R-Raft"
        } else {
            "Raft"
        }
    }

    recipe_sim::kv_backed_hooks!(txn_participant);

    fn current_view(&self) -> u64 {
        self.view
    }

    fn channel_send_counter(&self, peer: NodeId) -> u64 {
        self.shield.send_counter_to(peer)
    }

    fn resync_channel_from(&mut self, peer: NodeId, peer_send_counter: u64) {
        self.shield.resync_from(peer, peer_send_counter);
    }

    fn on_restart(
        &mut self,
        view: u64,
        snapshot: Option<Vec<RangeEntry>>,
        ctx: &mut Ctx,
    ) -> RestartReport {
        // Everything volatile died with the process: in-flight leader state,
        // uncommitted follower entries, election bookkeeping, queued batches
        // and the 2PC lock table (the rest of the group holds the replicated
        // prepare records and resolves in-flight transactions).
        self.pending.clear();
        self.uncommitted.clear();
        self.voted.clear();
        self.view_votes.clear();
        self.batcher = Batcher::new(*self.batcher.config());

        // Adopt the view the attestation service observed among live peers so
        // traffic from a deposed leader can never be accepted.
        self.view = view;
        self.shield.set_view(view);
        self.last_heartbeat_ns = ctx.now().as_nanos();

        // Rollback-protected rehydration plus the catch-up snapshot; the
        // committed-entry counter restarts at the highest verified log
        // position, never behind it (the trusted counter story).
        let report = self.restart_store(snapshot);

        if self.is_leader() {
            let beat = RaftMsg::Heartbeat { view: self.view };
            self.broadcast(ctx, &beat);
            ctx.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
        }
        ctx.set_timer(ELECTION_TIMEOUT_NS, TOKEN_FAILURE_DETECTOR);
        report
    }
}

impl KvBacked for RaftReplica {
    fn store(&mut self) -> &mut PartitionedKvStore {
        &mut self.kv
    }

    /// Committed entries: a 2PC commit write takes the next log position,
    /// exactly like a replicated single-key write.
    fn write_counter(&mut self) -> &mut u64 {
        &mut self.committed_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cluster;
    use recipe_sim::{ClientModel, CostProfile, SimCluster, SimConfig};

    fn cluster(n: usize, ops: usize) -> SimCluster<RaftReplica> {
        let replicas = build_cluster(n, (n - 1) / 2, |id, m| RaftReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(n, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 16,
            total_operations: ops,
        };
        SimCluster::new(replicas, config)
    }

    fn put_workload(client: u64, seq: u64) -> Operation {
        Operation::Put {
            key: format!("key-{}", (client * 7 + seq) % 50).into_bytes(),
            value: vec![b'v'; 256],
        }
    }

    fn mixed_workload(client: u64, seq: u64) -> Operation {
        if (client + seq).is_multiple_of(2) {
            put_workload(client, seq)
        } else {
            Operation::Get {
                key: format!("key-{}", (client * 7 + seq) % 50).into_bytes(),
            }
        }
    }

    #[test]
    fn writes_commit_and_replicate_to_all_nodes() {
        let mut cluster = cluster(3, 200);
        let stats = cluster.run(put_workload);
        assert_eq!(stats.committed, 200);
        // Every replica applied (at least) every committed entry; the leader may have
        // applied a few more that were still in flight when the run stopped.
        for id in 0..3 {
            let applied = cluster.replica(NodeId(id)).committed_entries();
            assert!(applied >= 195, "replica {id} applied only {applied}");
        }
        assert_eq!(cluster.replica(NodeId(0)).rejected_messages(), 0);
    }

    #[test]
    fn reads_are_served_by_the_leader() {
        let mut cluster = cluster(3, 300);
        let stats = cluster.run(mixed_workload);
        assert_eq!(stats.committed, 300);
        assert!(stats.committed_reads > 0);
        assert!(stats.committed_writes > 0);
        assert!(cluster.replica(NodeId(0)).is_leader());
    }

    #[test]
    fn replicas_agree_on_values_after_the_run() {
        let mut cluster = cluster(3, 150);
        cluster.run(put_workload);
        // All replicas hold identical values for every key the leader holds.
        let keys: Vec<Vec<u8>> = (0..50).map(|i| format!("key-{i}").into_bytes()).collect();
        for key in keys {
            let leader_value = cluster.replica_mut(NodeId(0)).local_read(&key);
            for id in 1..3 {
                assert_eq!(
                    cluster.replica_mut(NodeId(id)).local_read(&key),
                    leader_value,
                    "divergence on {:?}",
                    String::from_utf8_lossy(&key)
                );
            }
        }
    }

    #[test]
    fn leader_crash_triggers_view_change_and_progress_resumes() {
        let replicas = build_cluster(3, 1, |id, m| RaftReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 8,
            total_operations: 400,
        };
        config.max_virtual_ns = 3_000_000_000;
        let mut cluster = SimCluster::new(replicas, config);
        cluster.crash_at(NodeId(0), 2_000_000); // crash the initial leader at 2 ms
        let stats = cluster.run(put_workload);
        // A new leader took over and kept committing.
        let new_view = cluster
            .replica(NodeId(1))
            .view()
            .max(cluster.replica(NodeId(2)).view());
        assert!(new_view >= 1, "view change never happened");
        assert!(cluster.replica(NodeId(new_view % 3)).is_leader());
        assert!(stats.committed >= 200, "committed {}", stats.committed);
    }

    #[test]
    fn batched_cluster_commits_everything_and_matches_unbatched_state() {
        let run = |batch: usize| {
            let replicas = build_cluster(3, 1, |id, m| {
                RaftReplica::recipe(id, m, false).with_batching(BatchConfig::of_ops(batch))
            });
            let mut config = SimConfig::uniform(3, CostProfile::recipe().with_batch_ops(batch));
            config.clients = ClientModel {
                clients: 32,
                total_operations: 300,
            };
            let mut cluster = SimCluster::new(replicas, config);
            let stats = cluster.run(put_workload);
            (stats, cluster)
        };
        let (unbatched_stats, _) = run(1);
        let (batched_stats, mut batched) = run(16);
        assert_eq!(unbatched_stats.committed, 300);
        // One batched ack frame can commit several ops inside a single event,
        // so the closed loop may overshoot its target by a frame's worth.
        assert!(
            (300..320).contains(&batched_stats.committed),
            "committed {}",
            batched_stats.committed
        );
        // Batching coalesces frames: fewer wire messages carry more ops (the
        // full state-identity property is pinned by tests/batching.rs with an
        // open-loop schedule).
        assert!(batched_stats.messages_delivered < unbatched_stats.messages_delivered);
        assert!(batched_stats.ops_delivered > batched_stats.messages_delivered);
        // In-shard replication still works under batching: replicas agree on
        // every key the leader holds.
        for i in 0..50 {
            let key = format!("key-{i}").into_bytes();
            let leader = batched.replica_mut(NodeId(0)).local_read(&key);
            for id in 1..3 {
                let follower = batched.replica_mut(NodeId(id)).local_read(&key);
                if let (Some(x), Some(y)) = (&leader, &follower) {
                    assert_eq!(x, y, "divergence on key-{i}");
                }
            }
        }
        assert_eq!(batched.replica(NodeId(0)).rejected_messages(), 0);
    }

    #[test]
    fn native_and_recipe_variants_report_their_names() {
        let m = Membership::of_size(3, 1);
        let recipe = RaftReplica::recipe(0, m.clone(), false);
        let native = RaftReplica::native(0, m);
        assert_eq!(recipe.protocol_name(), "R-Raft");
        assert_eq!(native.protocol_name(), "Raft");
    }

    #[test]
    fn byzantine_network_does_not_break_agreement() {
        use recipe_net::FaultPlan;
        let replicas = build_cluster(3, 1, |id, m| RaftReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 8,
            total_operations: 150,
        };
        // Replays and duplicates are adversarial but do not create gaps in the
        // per-channel counter sequence (the original message still arrives), so the
        // protocol keeps committing while the shield rejects the injected copies.
        // Tampering is exercised separately (see the chain-replication test): a
        // tampered message is dropped and, without the CFT protocol's own
        // retransmission, stalls that channel — which is the expected fail-safe
        // behaviour, not silent corruption.
        config.fault_plan = FaultPlan {
            replay_probability: 0.08,
            duplicate_probability: 0.08,
            ..FaultPlan::default()
        };
        config.max_virtual_ns = 5_000_000_000;
        let mut cluster = SimCluster::new(replicas, config);
        let stats = cluster.run(put_workload);
        assert_eq!(stats.committed, 150);
        assert!(stats.messages_replayed > 0);
        // Tampered/replayed traffic was rejected by the shield, not executed:
        // replicas never diverge.
        for i in 0..50 {
            let key = format!("key-{i}").into_bytes();
            let v0 = cluster.replica_mut(NodeId(0)).local_read(&key);
            let v1 = cluster.replica_mut(NodeId(1)).local_read(&key);
            let v2 = cluster.replica_mut(NodeId(2)).local_read(&key);
            // A replica may trail by in-flight commits, but committed values never
            // conflict: any two present values must be equal.
            for (a, b) in [(&v0, &v1), (&v0, &v2), (&v1, &v2)] {
                if let (Some(x), Some(y)) = (a, b) {
                    assert_eq!(x, y);
                }
            }
        }
        let rejected: u64 = (0..3)
            .map(|id| cluster.replica(NodeId(id)).rejected_messages())
            .sum();
        assert!(
            rejected > 0,
            "the shield should have rejected adversarial traffic"
        );
    }
}
