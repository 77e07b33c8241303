//! The calibrated cost model that drives the simulator's virtual clock.
//!
//! Every unit of work a replica performs is converted into virtual nanoseconds:
//!
//! * **network send/receive** — delegated to [`recipe_net::NetCostModel`], so the
//!   protocol experiments and the Figure 6b network microbenchmark share one set of
//!   transport parameters;
//! * **authentication layer** — MAC computation/verification and counter handling
//!   per shielded message;
//! * **application processing** — request parsing, KV index work, queueing; scaled
//!   by the TEE execution penalty and by EPC pressure when values are large
//!   (Figure 3) — the [`recipe_tee::EpcModel`] supplies the pressure curve;
//! * **confidentiality** — an extra encrypt/decrypt pass over the payload
//!   (Figure 5);
//! * **baseline handicaps** — the PBFT baseline (BFT-Smart) runs over kernel
//!   sockets without direct I/O (paper Table 2) and carries a heavier per-message
//!   software stack, expressed as its own [`CostProfile`].
//!
//! Calibration targets the *relative* numbers the paper reports; the README
//! section "Reproducing the paper's experiments" lists the binary for every figure.

use recipe_net::{ExecMode, NetCostModel, Transport};
use recipe_tee::EpcModel;
use recipe_telemetry::{CostBreakdown, CostCategory};
use serde::{Deserialize, Serialize};

/// Cumulative truncation: accumulates f64 cost components in expression order
/// and yields the integer nanoseconds each component adds on top of the
/// previous truncation, so that the emitted integers always sum to the
/// truncation of the full sum — exactly what the cost functions charge.
#[derive(Debug, Default)]
struct Cum {
    acc: f64,
    prev: u64,
}

impl Cum {
    fn push(&mut self, component: f64) -> u64 {
        self.acc += component;
        let cur = self.acc as u64;
        let delta = cur - self.prev;
        self.prev = cur;
        delta
    }
}

/// Per-node execution profile: where the node runs and which layers it pays for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Native or TEE execution.
    pub exec: ExecMode,
    /// Kernel sockets or direct I/O.
    pub transport: Transport,
    /// Whether the Recipe authentication/non-equivocation layer is active.
    pub shielded: bool,
    /// Whether payloads/values are encrypted (confidential mode).
    pub confidential: bool,
    /// Whether this node verifies/produces asymmetric signatures per message
    /// (classical BFT baselines) instead of symmetric MACs.
    pub uses_signatures: bool,
    /// Fixed application-level processing cost per message, nanoseconds
    /// (request parsing, queue handling, index update).
    pub app_base_ns: f64,
    /// Usable EPC bytes for this node's enclave (drives the value-size cliff).
    pub epc_bytes: usize,
    /// Approximate enclave-resident working set in bytes *excluding* per-message
    /// payload buffers (index, metadata, protocol queues).
    pub resident_bytes: usize,
    /// Number of message payloads resident in enclave buffers at a time
    /// (batching factor; larger batches stress the EPC, §B.3).
    pub inflight_messages: usize,
    /// Leader-side batching factor: how many protocol ops ride in one wire
    /// frame. `1` disables batching. The experiment harness derives the
    /// replicas' `BatchConfig` from this field (see `recipe-bench`), keeping
    /// replica batching and profile bookkeeping in sync; the cost accounting
    /// itself charges by the actual op count carried on each frame
    /// (`batch_send_cost_ns`/`batch_recv_cost_ns`).
    pub batch_ops: usize,
}

impl CostProfile {
    /// A Recipe-transformed replica: TEE + direct I/O + authentication layer.
    pub fn recipe() -> Self {
        CostProfile {
            exec: ExecMode::Tee,
            transport: Transport::DirectIo,
            shielded: true,
            confidential: false,
            uses_signatures: false,
            app_base_ns: 550.0,
            epc_bytes: recipe_tee::epc::DEFAULT_EPC_BYTES,
            resident_bytes: 2 * 1024 * 1024,
            inflight_messages: 2_048,
            batch_ops: 1,
        }
    }

    /// The same stack without the authentication layer and outside a TEE — the
    /// "native" baseline of Figure 6a.
    pub fn native_cft() -> Self {
        CostProfile {
            exec: ExecMode::Native,
            transport: Transport::DirectIo,
            shielded: false,
            confidential: false,
            uses_signatures: false,
            app_base_ns: 550.0,
            epc_bytes: usize::MAX / 2,
            resident_bytes: 0,
            inflight_messages: 0,
            batch_ops: 1,
        }
    }

    /// The PBFT baseline (BFT-Smart): no TEE, kernel sockets, signature-based
    /// authentication, heavier per-message software stack (managed runtime,
    /// request batching pipeline).
    pub fn pbft_baseline() -> Self {
        CostProfile {
            exec: ExecMode::Native,
            transport: Transport::KernelSockets,
            shielded: false,
            confidential: false,
            uses_signatures: true,
            app_base_ns: 2_400.0,
            epc_bytes: usize::MAX / 2,
            resident_bytes: 0,
            inflight_messages: 0,
            batch_ops: 1,
        }
    }

    /// The Damysus baseline: TEE-assisted streamlined HotStuff, kernel sockets
    /// (paper Table 2 marks hybrid BFT protocols as not using direct I/O).
    pub fn damysus_baseline() -> Self {
        CostProfile {
            exec: ExecMode::Tee,
            transport: Transport::KernelSockets,
            shielded: true,
            confidential: false,
            uses_signatures: false,
            app_base_ns: 1_100.0,
            epc_bytes: recipe_tee::epc::DEFAULT_EPC_BYTES,
            resident_bytes: 2 * 1024 * 1024,
            inflight_messages: 256,
            batch_ops: 1,
        }
    }

    /// Enables confidential mode on this profile.
    pub fn confidential(mut self) -> Self {
        self.confidential = true;
        self
    }

    /// Sets confidential mode from a per-group policy: the encryption cost
    /// term follows the group's [`recipe_core::ConfidentialityMode`], so a
    /// mixed deployment charges it exactly on the shards whose policy asks
    /// for it. Overwrites (in both directions) whatever the profile carried.
    pub fn with_confidentiality(mut self, mode: recipe_core::ConfidentialityMode) -> Self {
        self.confidential = mode.is_confidential();
        self
    }

    /// Sets the batching factor (in-flight payload buffers inside the enclave).
    pub fn with_inflight(mut self, messages: usize) -> Self {
        self.inflight_messages = messages;
        self
    }

    /// Sets the leader-side batching factor (ops per wire frame).
    pub fn with_batch_ops(mut self, ops: usize) -> Self {
        self.batch_ops = ops.max(1);
        self
    }
}

/// The full protocol cost model: network parameters plus crypto/app constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCostModel {
    /// Shared network cost parameters (also used by the Figure 6b bench).
    pub net: NetCostModel,
    /// Cost of a MAC computation or verification, nanoseconds (fixed part).
    pub mac_ns: f64,
    /// Per-byte cost of MAC/hash computation, nanoseconds.
    pub mac_per_byte_ns: f64,
    /// Cost of an asymmetric signature generation/verification, nanoseconds.
    pub signature_ns: f64,
    /// Per-byte cost of symmetric encryption (confidential mode), nanoseconds.
    pub encrypt_per_byte_ns: f64,
    /// Multiplier on application processing when executed inside a TEE
    /// (enclave transitions, shielded memory accesses).
    pub tee_app_penalty: f64,
    /// One-way network propagation delay between any two nodes, nanoseconds
    /// (same-rack datacenter fabric).
    pub link_latency_ns: u64,
    /// Time a client waits between receiving a reply and issuing its next request.
    pub client_think_ns: u64,
    /// Marginal cost per additional op inside a batch frame, nanoseconds
    /// (sub-frame parsing/dispatch; the fixed transport + MAC/AEAD setup is
    /// charged once per frame).
    pub batch_op_overhead_ns: f64,
}

impl Default for ProtocolCostModel {
    fn default() -> Self {
        ProtocolCostModel {
            net: NetCostModel::default(),
            mac_ns: 380.0,
            mac_per_byte_ns: 0.45,
            signature_ns: 14_000.0,
            encrypt_per_byte_ns: 1.1,
            tee_app_penalty: 2.6,
            link_latency_ns: 5_000,
            client_think_ns: 1_000,
            batch_op_overhead_ns: 40.0,
        }
    }
}

impl ProtocolCostModel {
    /// Cost for a node with `profile` to send one message of `payload_bytes`.
    pub fn send_cost_ns(&self, profile: &CostProfile, payload_bytes: usize) -> u64 {
        self.message_cost_f64(profile, payload_bytes) as u64
    }

    /// Cost for a node with `profile` to send one **batch frame** carrying
    /// `ops` protocol messages in `frame_bytes` total.
    ///
    /// This is where the batching pipeline's cost accounting lives: the fixed
    /// per-message overheads — transport setup, MAC/AEAD fixed cost, signature —
    /// are charged **once per frame**, not once per op; each op past the first
    /// pays only the [`ProtocolCostModel::batch_op_overhead_ns`] marginal plus
    /// its share of the per-byte work already captured by `frame_bytes`.
    /// Degenerates to [`ProtocolCostModel::send_cost_ns`] at `ops == 1`.
    pub fn batch_send_cost_ns(&self, profile: &CostProfile, ops: usize, frame_bytes: usize) -> u64 {
        if ops <= 1 {
            return self.send_cost_ns(profile, frame_bytes);
        }
        (self.message_cost_f64(profile, frame_bytes) + (ops - 1) as f64 * self.batch_op_overhead_ns)
            as u64
    }

    /// Cost for a node with `profile` to receive and fully process one message of
    /// `payload_bytes` (transport + authentication + application work).
    pub fn recv_cost_ns(&self, profile: &CostProfile, payload_bytes: usize) -> u64 {
        // Truncate the message and application terms separately, exactly as the
        // seed did: a joint truncation can differ by 1 ns, which is enough to
        // reorder events and break bit-for-bit parity of unbatched runs.
        self.message_cost_f64(profile, payload_bytes) as u64
            + self.app_cost_f64(profile, payload_bytes) as u64
    }

    /// Cost for a node with `profile` to receive and fully process one **batch
    /// frame** of `ops` messages in `frame_bytes` total: the fixed transport +
    /// authentication cost once per frame (single MAC check, single counter,
    /// one AEAD pass), but the **application work is still charged per op** —
    /// amortization must not hide real per-request processing. EPC pressure is
    /// evaluated per frame via [`ProtocolCostModel::batch_epc_pressure`] (§B.3).
    /// Degenerates to [`ProtocolCostModel::recv_cost_ns`] at `ops == 1`.
    pub fn batch_recv_cost_ns(&self, profile: &CostProfile, ops: usize, frame_bytes: usize) -> u64 {
        if ops <= 1 {
            return self.recv_cost_ns(profile, frame_bytes);
        }
        let pressure = self.batch_epc_pressure(profile, ops, frame_bytes);
        (self.message_cost_f64(profile, frame_bytes)
            + (ops - 1) as f64 * self.batch_op_overhead_ns
            + ops as f64 * self.app_cost_with_pressure(profile, pressure)) as u64
    }

    /// Application-only processing cost (no transport), e.g. applying a committed
    /// write to the local KV store.
    pub fn app_cost_ns(&self, profile: &CostProfile, payload_bytes: usize) -> u64 {
        self.app_cost_f64(profile, payload_bytes) as u64
    }

    fn app_cost_f64(&self, profile: &CostProfile, payload_bytes: usize) -> f64 {
        self.app_cost_with_pressure(profile, self.epc_pressure(profile, payload_bytes))
    }

    fn app_cost_with_pressure(&self, profile: &CostProfile, pressure: f64) -> f64 {
        let tee_mult = match profile.exec {
            ExecMode::Native => 1.0,
            ExecMode::Tee => self.tee_app_penalty,
        };
        profile.app_base_ns * tee_mult * pressure
    }

    /// EPC paging pressure factor for this node, given the payload size of the
    /// messages it is currently handling.
    pub fn epc_pressure(&self, profile: &CostProfile, payload_bytes: usize) -> f64 {
        if profile.exec == ExecMode::Native {
            return 1.0;
        }
        let mut epc = EpcModel::new(profile.epc_bytes);
        let resident = profile.resident_bytes + profile.inflight_messages * payload_bytes;
        let _ = epc.allocate(resident);
        epc.pressure_factor()
    }

    /// EPC paging pressure for a node handling **batch frames** of `ops` ops in
    /// `frame_bytes` total. Batching repacks the same in-flight op payloads
    /// into `inflight_messages / ops` frames — the resident population does not
    /// multiply with the frame size, but each frame is enclave-resident as a
    /// unit, so large frames of large values still cross the EPC cliff (§B.3).
    /// Degenerates to [`ProtocolCostModel::epc_pressure`] at `ops == 1`.
    pub fn batch_epc_pressure(&self, profile: &CostProfile, ops: usize, frame_bytes: usize) -> f64 {
        if profile.exec == ExecMode::Native {
            return 1.0;
        }
        let ops = ops.max(1);
        let frames = (profile.inflight_messages / ops).max(1);
        let mut epc = EpcModel::new(profile.epc_bytes);
        let resident = profile.resident_bytes + frames * frame_bytes;
        let _ = epc.allocate(resident);
        epc.pressure_factor()
    }

    /// EPC paging pressure while a migration chunk of `staged_bytes` is staged
    /// inside the enclave on top of the node's resident working set. Snapshot
    /// export/import batches whole chunks through enclave memory, so large
    /// chunks of large values cross the EPC cliff exactly like large batch
    /// frames do (§B.3) — which is why the migration controller ships bounded
    /// chunks instead of one monolithic snapshot.
    pub fn migration_epc_pressure(&self, profile: &CostProfile, staged_bytes: usize) -> f64 {
        if profile.exec == ExecMode::Native {
            return 1.0;
        }
        let mut epc = EpcModel::new(profile.epc_bytes);
        let _ = epc.allocate(profile.resident_bytes + staged_bytes);
        epc.pressure_factor()
    }

    /// Cost for the donor leader to export one snapshot/catch-up chunk of
    /// `entries` records totalling `payload_bytes`: per-entry index walk and
    /// integrity re-hash (the partitioned store verifies every value it copies
    /// out of host memory) plus the per-byte hash work, all under the EPC
    /// pressure of staging the chunk. The shield/wire leg is charged
    /// separately via [`ProtocolCostModel::send_cost_ns`] on the sealed frame.
    pub fn snapshot_export_cost_ns(
        &self,
        profile: &CostProfile,
        entries: usize,
        payload_bytes: usize,
    ) -> u64 {
        let pressure = self.migration_epc_pressure(profile, payload_bytes);
        (entries as f64 * self.app_cost_with_pressure(profile, pressure)
            + payload_bytes as f64 * self.mac_per_byte_ns) as u64
    }

    /// Cost for a restarting replica to rehydrate rollback-protected state:
    /// every host-resident record is re-read through the verified path —
    /// per-entry store work under the same EPC pressure a bulk scan of
    /// `payload_bytes` causes, plus the per-byte MAC of re-verifying the
    /// sealed values against the trusted counter. Same shape as a snapshot
    /// export (both are verified bulk scans of the local store).
    pub fn recovery_cost_ns(
        &self,
        profile: &CostProfile,
        entries: usize,
        payload_bytes: usize,
    ) -> u64 {
        self.snapshot_export_cost_ns(profile, entries, payload_bytes)
    }

    /// Cost for a recipient replica to verify and apply one chunk of `entries`
    /// records in a sealed frame of `frame_bytes`: the frame's transport +
    /// authentication cost once (single MAC/AEAD pass over the chunk — the
    /// same amortization the batch path gets), then per-entry store writes
    /// under the staging EPC pressure.
    pub fn snapshot_import_cost_ns(
        &self,
        profile: &CostProfile,
        entries: usize,
        frame_bytes: usize,
    ) -> u64 {
        let pressure = self.migration_epc_pressure(profile, frame_bytes);
        (self.message_cost_f64(profile, frame_bytes)
            + entries as f64 * self.app_cost_with_pressure(profile, pressure)) as u64
    }

    /// EPC paging pressure while a transaction prepare stages `staged_bytes`
    /// of locked keys and pending writes inside the enclave on top of the
    /// node's resident working set. Staged state is enclave-resident from
    /// prepare until commit/abort (the lock table is trusted metadata like
    /// the index), so many large in-flight prepares cross the EPC cliff
    /// exactly like large batch frames and migration chunks do (§B.3).
    pub fn txn_epc_pressure(&self, profile: &CostProfile, staged_bytes: usize) -> f64 {
        self.migration_epc_pressure(profile, staged_bytes)
    }

    /// Cost for a participant leader to verify and execute one 2PC prepare
    /// frame of `ops` operations totalling `payload_bytes`: the sealed
    /// frame's transport + authentication cost once (single MAC/AEAD pass),
    /// then per-op lock + staging work under the EPC pressure of keeping the
    /// staged writes enclave-resident (`staged_bytes` is the store's total
    /// in-flight staged footprint *including* this prepare).
    pub fn txn_prepare_cost_ns(
        &self,
        profile: &CostProfile,
        ops: usize,
        payload_bytes: usize,
        staged_bytes: usize,
    ) -> u64 {
        let pressure = self.txn_epc_pressure(profile, staged_bytes);
        (self.message_cost_f64(profile, payload_bytes)
            + ops.max(1) as f64 * self.app_cost_with_pressure(profile, pressure)) as u64
    }

    /// Cost for a participant leader to verify and execute one 2PC
    /// commit/abort frame resolving `writes` staged writes totalling
    /// `payload_bytes`: the frame's transport + authentication cost once,
    /// then per-write apply work (the same application work a single-key
    /// write pays — amortization covers the shield, never the store).
    pub fn txn_commit_cost_ns(
        &self,
        profile: &CostProfile,
        writes: usize,
        payload_bytes: usize,
    ) -> u64 {
        let pressure = self.txn_epc_pressure(profile, payload_bytes);
        (self.message_cost_f64(profile, 64)
            + writes as f64 * self.app_cost_with_pressure(profile, pressure)
            + payload_bytes as f64 * self.mac_per_byte_ns) as u64
    }

    // -----------------------------------------------------------------------
    // Cost attribution (telemetry)
    // -----------------------------------------------------------------------
    //
    // Each `*_breakdown` function mirrors its `*_cost_ns` sibling and splits
    // the charged integer across `recipe_telemetry::CostCategory` slots. The
    // invariant every one of them keeps (pinned by tests below):
    //
    //     breakdown.total() == the exact u64 the cost function returns
    //
    // which is what lets the attribution table reconcile against the virtual
    // clock. To guarantee it, the component terms are accumulated in the same
    // floating-point expression order the cost functions use and cumulatively
    // truncated (`Cum`); sub-splits of a jointly-added term (MAC bytes vs the
    // fixed counter slot, TEE multiplier vs EPC pressure) divide the already-
    // truncated integer, so rounding crumbs can never change the total.

    /// Attribution twin of [`ProtocolCostModel::send_cost_ns`].
    pub fn send_breakdown(&self, profile: &CostProfile, payload_bytes: usize) -> CostBreakdown {
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_message_parts(&mut b, &mut cum, profile, payload_bytes);
        b
    }

    /// Attribution twin of [`ProtocolCostModel::batch_send_cost_ns`].
    pub fn batch_send_breakdown(
        &self,
        profile: &CostProfile,
        ops: usize,
        frame_bytes: usize,
    ) -> CostBreakdown {
        if ops <= 1 {
            return self.send_breakdown(profile, frame_bytes);
        }
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_message_parts(&mut b, &mut cum, profile, frame_bytes);
        b.add(
            CostCategory::BatchOverhead,
            cum.push((ops - 1) as f64 * self.batch_op_overhead_ns),
        );
        b
    }

    /// Attribution twin of [`ProtocolCostModel::recv_cost_ns`]. The message
    /// and application terms are truncated separately, exactly like the cost
    /// function (see the comment there on event-order parity).
    pub fn recv_breakdown(&self, profile: &CostProfile, payload_bytes: usize) -> CostBreakdown {
        let mut b = CostBreakdown::new();
        let mut msg = Cum::default();
        self.add_message_parts(&mut b, &mut msg, profile, payload_bytes);
        let mut app = Cum::default();
        self.add_app_parts(
            &mut b,
            &mut app,
            profile,
            1.0,
            self.epc_pressure(profile, payload_bytes),
        );
        b
    }

    /// Attribution twin of [`ProtocolCostModel::batch_recv_cost_ns`].
    pub fn batch_recv_breakdown(
        &self,
        profile: &CostProfile,
        ops: usize,
        frame_bytes: usize,
    ) -> CostBreakdown {
        if ops <= 1 {
            return self.recv_breakdown(profile, frame_bytes);
        }
        let pressure = self.batch_epc_pressure(profile, ops, frame_bytes);
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_message_parts(&mut b, &mut cum, profile, frame_bytes);
        b.add(
            CostCategory::BatchOverhead,
            cum.push((ops - 1) as f64 * self.batch_op_overhead_ns),
        );
        self.add_app_parts(&mut b, &mut cum, profile, ops as f64, pressure);
        b
    }

    /// Attribution twin of [`ProtocolCostModel::snapshot_export_cost_ns`].
    pub fn snapshot_export_breakdown(
        &self,
        profile: &CostProfile,
        entries: usize,
        payload_bytes: usize,
    ) -> CostBreakdown {
        let pressure = self.migration_epc_pressure(profile, payload_bytes);
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_app_parts(&mut b, &mut cum, profile, entries as f64, pressure);
        b.add(
            CostCategory::Mac,
            cum.push(payload_bytes as f64 * self.mac_per_byte_ns),
        );
        b
    }

    /// Attribution twin of [`ProtocolCostModel::recovery_cost_ns`].
    pub fn recovery_breakdown(
        &self,
        profile: &CostProfile,
        entries: usize,
        payload_bytes: usize,
    ) -> CostBreakdown {
        self.snapshot_export_breakdown(profile, entries, payload_bytes)
    }

    /// Attribution twin of [`ProtocolCostModel::snapshot_import_cost_ns`].
    pub fn snapshot_import_breakdown(
        &self,
        profile: &CostProfile,
        entries: usize,
        frame_bytes: usize,
    ) -> CostBreakdown {
        let pressure = self.migration_epc_pressure(profile, frame_bytes);
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_message_parts(&mut b, &mut cum, profile, frame_bytes);
        self.add_app_parts(&mut b, &mut cum, profile, entries as f64, pressure);
        b
    }

    /// Attribution twin of [`ProtocolCostModel::txn_prepare_cost_ns`].
    pub fn txn_prepare_breakdown(
        &self,
        profile: &CostProfile,
        ops: usize,
        payload_bytes: usize,
        staged_bytes: usize,
    ) -> CostBreakdown {
        let pressure = self.txn_epc_pressure(profile, staged_bytes);
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_message_parts(&mut b, &mut cum, profile, payload_bytes);
        self.add_app_parts(&mut b, &mut cum, profile, ops.max(1) as f64, pressure);
        b
    }

    /// Attribution twin of [`ProtocolCostModel::txn_commit_cost_ns`].
    pub fn txn_commit_breakdown(
        &self,
        profile: &CostProfile,
        writes: usize,
        payload_bytes: usize,
    ) -> CostBreakdown {
        let pressure = self.txn_epc_pressure(profile, payload_bytes);
        let mut b = CostBreakdown::new();
        let mut cum = Cum::default();
        self.add_message_parts(&mut b, &mut cum, profile, 64);
        self.add_app_parts(&mut b, &mut cum, profile, writes as f64, pressure);
        b.add(
            CostCategory::Mac,
            cum.push(payload_bytes as f64 * self.mac_per_byte_ns),
        );
        b
    }

    /// Pushes the message-cost components (transport, shield, signature,
    /// AEAD) in the exact accumulation order of
    /// [`ProtocolCostModel::message_cost_f64`].
    fn add_message_parts(
        &self,
        b: &mut CostBreakdown,
        cum: &mut Cum,
        profile: &CostProfile,
        payload_bytes: usize,
    ) {
        b.add(
            CostCategory::Transport,
            cum.push(
                self.net
                    .message_cost_ns(profile.transport, profile.exec, payload_bytes),
            ),
        );
        if profile.shielded {
            let mac_bytes = payload_bytes as f64 * self.mac_per_byte_ns;
            let shield = cum.push(self.mac_ns + mac_bytes);
            let mac = (mac_bytes as u64).min(shield);
            b.add(CostCategory::Mac, mac);
            b.add(CostCategory::CounterSlot, shield - mac);
        }
        if profile.uses_signatures {
            b.add(CostCategory::Signature, cum.push(self.signature_ns));
        }
        if profile.confidential {
            b.add(
                CostCategory::Aead,
                cum.push(payload_bytes as f64 * self.encrypt_per_byte_ns),
            );
        }
    }

    /// Pushes the application-work term `ops × app_cost_with_pressure` and
    /// splits its integer between base app work, the TEE-execution excess and
    /// the EPC-pressure excess (rounding crumbs land in the base slot).
    fn add_app_parts(
        &self,
        b: &mut CostBreakdown,
        cum: &mut Cum,
        profile: &CostProfile,
        ops: f64,
        pressure: f64,
    ) {
        let acwp = self.app_cost_with_pressure(profile, pressure);
        let total = cum.push(ops * acwp);
        let tee_mult = match profile.exec {
            ExecMode::Native => 1.0,
            ExecMode::Tee => self.tee_app_penalty,
        };
        let no_pressure = profile.app_base_ns * tee_mult;
        let epc = ((ops * (acwp - no_pressure)) as u64).min(total);
        let tee = ((ops * (no_pressure - profile.app_base_ns)) as u64).min(total - epc);
        b.add(CostCategory::EpcPressure, epc);
        b.add(CostCategory::TeeExec, tee);
        b.add(CostCategory::App, total - epc - tee);
    }

    fn message_cost_f64(&self, profile: &CostProfile, payload_bytes: usize) -> f64 {
        let mut cost = self
            .net
            .message_cost_ns(profile.transport, profile.exec, payload_bytes);
        if profile.shielded {
            cost += self.mac_ns + payload_bytes as f64 * self.mac_per_byte_ns;
        }
        if profile.uses_signatures {
            cost += self.signature_ns;
        }
        if profile.confidential {
            cost += payload_bytes as f64 * self.encrypt_per_byte_ns;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipe_profile_is_cheaper_per_message_than_pbft() {
        let m = ProtocolCostModel::default();
        let recipe = m.recv_cost_ns(&CostProfile::recipe(), 256);
        let pbft = m.recv_cost_ns(&CostProfile::pbft_baseline(), 256);
        assert!(
            pbft > recipe,
            "PBFT per-message cost ({pbft}) should exceed Recipe's ({recipe})"
        );
    }

    #[test]
    fn native_cft_is_cheaper_than_recipe() {
        // Figure 6a: the transformation + TEE costs something (2x-15x end to end).
        let m = ProtocolCostModel::default();
        let native = m.recv_cost_ns(&CostProfile::native_cft(), 256);
        let recipe = m.recv_cost_ns(&CostProfile::recipe(), 256);
        let ratio = recipe as f64 / native as f64;
        assert!(ratio > 1.5, "ratio was {ratio:.2}");
        assert!(ratio < 20.0, "ratio was {ratio:.2}");
    }

    #[test]
    fn confidentiality_adds_cost_proportional_to_payload() {
        let m = ProtocolCostModel::default();
        let plain = m.recv_cost_ns(&CostProfile::recipe(), 1024);
        let conf = m.recv_cost_ns(&CostProfile::recipe().confidential(), 1024);
        assert!(conf > plain);
        let plain_small = m.recv_cost_ns(&CostProfile::recipe(), 64);
        let conf_small = m.recv_cost_ns(&CostProfile::recipe().confidential(), 64);
        assert!(conf - plain > conf_small - plain_small);
    }

    #[test]
    fn epc_pressure_kicks_in_for_large_values() {
        let m = ProtocolCostModel::default();
        let profile = CostProfile::recipe();
        let small = m.epc_pressure(&profile, 256);
        let large = m.epc_pressure(&profile, 4096);
        assert_eq!(small, 1.0);
        assert!(
            large > 1.0,
            "4 KiB payloads with batching should exceed the EPC"
        );
        // Reducing the batching factor relieves the pressure (the paper's mitigation
        // for 4 KiB values, §B.3).
        let little_batching = m.epc_pressure(&profile.clone().with_inflight(4), 4096);
        assert!(little_batching < large);
        // Native execution never pays EPC pressure.
        assert_eq!(m.epc_pressure(&CostProfile::native_cft(), 1 << 20), 1.0);
    }

    #[test]
    fn signature_baselines_pay_per_message() {
        let m = ProtocolCostModel::default();
        let mut signing = CostProfile::native_cft();
        signing.uses_signatures = true;
        assert!(
            m.recv_cost_ns(&signing, 64) as f64
                >= m.recv_cost_ns(&CostProfile::native_cft(), 64) as f64 + m.signature_ns * 0.9
        );
    }

    #[test]
    fn costs_scale_with_payload_size() {
        let m = ProtocolCostModel::default();
        let p = CostProfile::recipe();
        assert!(m.recv_cost_ns(&p, 4096) > m.recv_cost_ns(&p, 256));
        assert!(m.send_cost_ns(&p, 4096) > m.send_cost_ns(&p, 256));
    }

    #[test]
    fn batch_cost_degenerates_to_single_message_cost_at_one_op() {
        let m = ProtocolCostModel::default();
        for profile in [
            CostProfile::recipe(),
            CostProfile::recipe().confidential(),
            CostProfile::native_cft(),
            CostProfile::pbft_baseline(),
        ] {
            for bytes in [64usize, 256, 1024] {
                assert_eq!(
                    m.batch_send_cost_ns(&profile, 1, bytes),
                    m.send_cost_ns(&profile, bytes)
                );
                assert_eq!(
                    m.batch_recv_cost_ns(&profile, 1, bytes),
                    m.recv_cost_ns(&profile, bytes)
                );
            }
        }
    }

    #[test]
    fn fixed_overhead_is_charged_once_per_frame_not_once_per_op() {
        // The regression this pins: sending N ops as one frame must cost less
        // than sending N single messages of the same total payload, and the
        // saving must be at least the (N-1) repeated fixed MAC + transport
        // setup costs the unbatched path pays.
        let m = ProtocolCostModel::default();
        let profile = CostProfile::recipe().confidential();
        let per_op_bytes = 256usize;
        for ops in [4usize, 16, 64] {
            let frame_bytes = ops * per_op_bytes;
            let batched = m.batch_send_cost_ns(&profile, ops, frame_bytes);
            let unbatched = ops as u64 * m.send_cost_ns(&profile, per_op_bytes);
            assert!(
                batched < unbatched,
                "{ops} ops: batched {batched} !< unbatched {unbatched}"
            );
            let fixed_saving = ((ops - 1) as f64 * (m.mac_ns + m.net.directio_per_msg_ns)) as u64;
            assert!(
                unbatched - batched >= fixed_saving,
                "{ops} ops: saving {} < fixed saving {fixed_saving}",
                unbatched - batched
            );
        }
    }

    #[test]
    fn batch_recv_still_charges_application_work_per_op() {
        // Amortization covers the shield, not the application: receiving a
        // 16-op frame performs 16 ops' worth of app processing.
        let m = ProtocolCostModel::default();
        let profile = CostProfile::recipe();
        let ops = 16usize;
        let frame_bytes = ops * 256;
        let batched = m.batch_recv_cost_ns(&profile, ops, frame_bytes);
        let app_total = (ops as f64
            * profile.app_base_ns
            * m.tee_app_penalty
            * m.batch_epc_pressure(&profile, ops, frame_bytes)) as u64;
        assert!(
            batched >= app_total,
            "batched recv {batched} must include per-op app work {app_total}"
        );
        // And each extra op has a positive marginal cost (per-op dispatch).
        assert!(
            m.batch_send_cost_ns(&profile, ops + 1, frame_bytes)
                > m.batch_send_cost_ns(&profile, ops, frame_bytes)
        );
    }

    #[test]
    fn epc_pressure_is_evaluated_per_frame() {
        // A 64-op frame of 4 KiB values keeps 256 KiB enclave-resident per
        // frame: the pressure term must see whole frames, so batch_recv grows
        // past the EPC cliff for large values — the paper's §B.3 trade-off.
        let m = ProtocolCostModel::default();
        let profile = CostProfile::recipe();
        let small_frame = m.batch_epc_pressure(&profile, 16, 16 * 64);
        let big_frame = m.batch_epc_pressure(&profile, 64, 64 * 4096);
        assert_eq!(small_frame, 1.0);
        assert!(big_frame > 1.0);
        // Degenerate case matches the single-message pressure model.
        assert_eq!(
            m.batch_epc_pressure(&profile, 1, 4096),
            m.epc_pressure(&profile, 4096)
        );
        // Batching does not multiply the resident op population: a batched
        // frame of N small ops pressures no more than N single messages.
        assert!(
            m.batch_epc_pressure(&profile, 16, 16 * 256) <= m.epc_pressure(&profile, 256) * 1.01
        );
    }

    #[test]
    fn batch_ops_knob_round_trips() {
        let profile = CostProfile::recipe().with_batch_ops(16);
        assert_eq!(profile.batch_ops, 16);
        // Zero is clamped: "no batching" is 1 op per frame.
        assert_eq!(CostProfile::recipe().with_batch_ops(0).batch_ops, 1);
        assert_eq!(CostProfile::recipe().batch_ops, 1);
    }

    #[test]
    fn migration_costs_scale_with_chunk_size_and_pay_epc_pressure() {
        let m = ProtocolCostModel::default();
        let profile = CostProfile::recipe();
        // More entries and more bytes cost more, on both legs.
        assert!(
            m.snapshot_export_cost_ns(&profile, 256, 256 * 256)
                > m.snapshot_export_cost_ns(&profile, 64, 64 * 256)
        );
        assert!(
            m.snapshot_import_cost_ns(&profile, 256, 256 * 300)
                > m.snapshot_import_cost_ns(&profile, 64, 64 * 300)
        );
        // Import includes the frame's shield verification: costlier than the
        // pure store work of exporting the same records.
        assert!(
            m.snapshot_import_cost_ns(&profile, 64, 64 * 300)
                > m.snapshot_export_cost_ns(&profile, 64, 64 * 256) / 2
        );
        // A chunk small enough to fit the EPC stages at pressure 1.0; a
        // monolithic multi-megabyte snapshot crosses the cliff — the reason
        // the controller ships bounded chunks.
        assert_eq!(m.migration_epc_pressure(&profile, 64 * 1024), 1.0);
        assert!(m.migration_epc_pressure(&profile, 32 * 1024 * 1024) > 1.0);
        // Native nodes never pay EPC pressure.
        assert_eq!(
            m.migration_epc_pressure(&CostProfile::native_cft(), 1 << 30),
            1.0
        );
    }

    #[test]
    fn txn_costs_scale_with_ops_and_pay_epc_pressure_per_inflight_prepare() {
        let m = ProtocolCostModel::default();
        let profile = CostProfile::recipe();
        // More ops in a prepare cost more; the frame overhead is paid once.
        assert!(
            m.txn_prepare_cost_ns(&profile, 8, 8 * 256, 8 * 256)
                > m.txn_prepare_cost_ns(&profile, 2, 2 * 256, 2 * 256)
        );
        let eight = m.txn_prepare_cost_ns(&profile, 8, 8 * 256, 8 * 256);
        let singles = 8 * m.txn_prepare_cost_ns(&profile, 1, 256, 256);
        assert!(
            eight < singles,
            "prepare frame must amortize: {eight} !< {singles}"
        );
        // Many large in-flight prepares cross the EPC cliff: the same prepare
        // costs more when the store already stages megabytes.
        let calm = m.txn_prepare_cost_ns(&profile, 4, 1024, 4 * 1024);
        let pressured = m.txn_prepare_cost_ns(&profile, 4, 1024, 64 * 1024 * 1024);
        assert!(
            pressured > calm,
            "EPC pressure must surface: {pressured} !> {calm}"
        );
        assert!(m.txn_epc_pressure(&profile, 64 * 1024 * 1024) > 1.0);
        assert_eq!(m.txn_epc_pressure(&CostProfile::native_cft(), 1 << 30), 1.0);
        // Commits charge per staged write.
        assert!(
            m.txn_commit_cost_ns(&profile, 8, 8 * 256) > m.txn_commit_cost_ns(&profile, 1, 256)
        );
    }

    #[test]
    fn breakdowns_sum_exactly_to_their_cost_functions() {
        // The attribution invariant: every *_breakdown splits the *exact*
        // integer its *_cost_ns sibling charges — over every profile shape
        // and a spread of sizes, including EPC-pressured ones.
        let m = ProtocolCostModel::default();
        let profiles = [
            CostProfile::recipe(),
            CostProfile::recipe().confidential(),
            CostProfile::recipe().confidential().with_inflight(8192),
            CostProfile::native_cft(),
            CostProfile::pbft_baseline(),
            CostProfile::damysus_baseline(),
        ];
        for p in &profiles {
            for bytes in [0usize, 1, 63, 64, 256, 1024, 4096, 65_536] {
                assert_eq!(
                    m.send_breakdown(p, bytes).total(),
                    m.send_cost_ns(p, bytes),
                    "send {bytes}B"
                );
                assert_eq!(
                    m.recv_breakdown(p, bytes).total(),
                    m.recv_cost_ns(p, bytes),
                    "recv {bytes}B"
                );
                for ops in [1usize, 2, 16, 64] {
                    assert_eq!(
                        m.batch_send_breakdown(p, ops, bytes).total(),
                        m.batch_send_cost_ns(p, ops, bytes),
                        "batch_send {ops}x{bytes}B"
                    );
                    assert_eq!(
                        m.batch_recv_breakdown(p, ops, bytes).total(),
                        m.batch_recv_cost_ns(p, ops, bytes),
                        "batch_recv {ops}x{bytes}B"
                    );
                }
                for entries in [0usize, 1, 64, 256] {
                    assert_eq!(
                        m.snapshot_export_breakdown(p, entries, bytes).total(),
                        m.snapshot_export_cost_ns(p, entries, bytes),
                        "snap_export {entries}x{bytes}B"
                    );
                    assert_eq!(
                        m.snapshot_import_breakdown(p, entries, bytes).total(),
                        m.snapshot_import_cost_ns(p, entries, bytes),
                        "snap_import {entries}x{bytes}B"
                    );
                    assert_eq!(
                        m.recovery_breakdown(p, entries, bytes).total(),
                        m.recovery_cost_ns(p, entries, bytes),
                        "recovery {entries}x{bytes}B"
                    );
                    assert_eq!(
                        m.txn_prepare_breakdown(p, entries, bytes, 32 * 1024 * 1024)
                            .total(),
                        m.txn_prepare_cost_ns(p, entries, bytes, 32 * 1024 * 1024),
                        "txn_prepare {entries}x{bytes}B"
                    );
                    assert_eq!(
                        m.txn_commit_breakdown(p, entries, bytes).total(),
                        m.txn_commit_cost_ns(p, entries, bytes),
                        "txn_commit {entries}x{bytes}B"
                    );
                }
            }
        }
    }

    #[test]
    fn breakdown_categories_land_where_the_profile_says() {
        let m = ProtocolCostModel::default();
        // Plain native profile: transport + app only.
        let native = m.recv_breakdown(&CostProfile::native_cft(), 256);
        assert_eq!(native.get(CostCategory::CounterSlot), 0);
        assert_eq!(native.get(CostCategory::Mac), 0);
        assert_eq!(native.get(CostCategory::Aead), 0);
        assert_eq!(native.get(CostCategory::TeeExec), 0);
        assert_eq!(native.get(CostCategory::EpcPressure), 0);
        assert!(native.get(CostCategory::Transport) > 0);
        assert!(native.get(CostCategory::App) > 0);
        // Recipe: shield (counter slot + MAC bytes) and the TEE excess appear.
        let recipe = m.recv_breakdown(&CostProfile::recipe(), 256);
        assert!(recipe.get(CostCategory::CounterSlot) > 0);
        assert!(recipe.get(CostCategory::Mac) > 0);
        assert!(recipe.get(CostCategory::TeeExec) > 0);
        assert_eq!(recipe.get(CostCategory::Aead), 0);
        // Confidential adds AEAD proportional to the payload.
        let conf = m.recv_breakdown(&CostProfile::recipe().confidential(), 1024);
        assert!(conf.get(CostCategory::Aead) > 0);
        assert!(
            conf.get(CostCategory::Aead)
                > m.recv_breakdown(&CostProfile::recipe().confidential(), 64)
                    .get(CostCategory::Aead)
        );
        // Signature baselines pay the signature slot.
        assert!(
            m.recv_breakdown(&CostProfile::pbft_baseline(), 64)
                .get(CostCategory::Signature)
                > 0
        );
        // EPC pressure shows up for large pressured frames, never for native.
        let pressured = m.batch_recv_breakdown(&CostProfile::recipe(), 64, 64 * 4096);
        assert!(pressured.get(CostCategory::EpcPressure) > 0);
        let unpressured = m.batch_recv_breakdown(&CostProfile::native_cft(), 64, 64 * 4096);
        assert_eq!(unpressured.get(CostCategory::EpcPressure), 0);
        // Batch frames carry the per-op dispatch overhead.
        assert!(pressured.get(CostCategory::BatchOverhead) > 0);
    }

    #[test]
    fn damysus_sits_between_recipe_and_pbft() {
        let m = ProtocolCostModel::default();
        let recipe = m.recv_cost_ns(&CostProfile::recipe(), 256);
        let damysus = m.recv_cost_ns(&CostProfile::damysus_baseline(), 256);
        let pbft = m.recv_cost_ns(&CostProfile::pbft_baseline(), 256);
        assert!(recipe < damysus, "recipe={recipe} damysus={damysus}");
        assert!(damysus < pbft, "damysus={damysus} pbft={pbft}");
    }
}
