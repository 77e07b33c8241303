//! The traced run's timing wrapper around a replica.
//!
//! [`Timed`] implements [`Replica`] and [`RangeStateTransfer`] by delegating
//! every hook to the wrapped replica, so a deployment of `Timed<R>` schedules
//! exactly the events a deployment of `R` does. Around the hooks it reads the
//! wall clock and adds the elapsed time to a [`Ledger`] shared by every
//! replica of the deployment; `on_message` also records the frame size it
//! received. The virtual clock never sees any of this.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use recipe_core::{ClientRequest, Operation};
use recipe_net::NodeId;
use recipe_sim::{
    Ctx, RangeEntry, RangeStateTransfer, Replica, RestartReport, TxnRecordOps, TxnVote,
};
use recipe_telemetry::ProtocolCounters;

/// Calls into one group of hooks and the wall time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTime {
    /// Hook invocations.
    pub calls: u64,
    /// Wall nanoseconds spent inside them.
    pub ns: u64,
}

impl HookTime {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// Wall time inside the `Replica` hooks of one deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `on_client_request`.
    pub client_request: HookTime,
    /// `on_message`.
    pub message: HookTime,
    /// Bytes handed to `on_message`.
    pub message_bytes: u64,
    /// `on_timer`.
    pub timer: HookTime,
    /// The two-phase-commit participant hooks (`txn_*`).
    pub txn: HookTime,
    /// Every other hook: recovery, view, counters and state transfer.
    pub other: HookTime,
}

impl Ledger {
    /// Wall nanoseconds inside any hook.
    pub fn total_ns(&self) -> u64 {
        self.client_request.ns + self.message.ns + self.timer.ns + self.txn.ns + self.other.ns
    }
}

/// The ledger every replica of one traced deployment writes to.
pub type SharedLedger = Rc<RefCell<Ledger>>;

/// A replica whose hooks are timed into a shared [`Ledger`].
pub struct Timed<R> {
    inner: R,
    ledger: SharedLedger,
}

impl<R> Timed<R> {
    /// Wraps `inner`, charging its hook time to `ledger`.
    pub fn new(inner: R, ledger: SharedLedger) -> Self {
        Timed { inner, ledger }
    }

    /// The wrapped replica.
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    fn time<T>(
        &mut self,
        slot: fn(&mut Ledger) -> &mut HookTime,
        f: impl FnOnce(&mut R) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        slot(&mut self.ledger.borrow_mut()).add(ns);
        out
    }
}

impl<R: Replica> Replica for Timed<R> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        self.time(
            |l| &mut l.client_request,
            |r| r.on_client_request(request, ctx),
        );
    }

    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        self.time(|l| &mut l.message, |r| r.on_message(from, bytes, ctx));
        self.ledger.borrow_mut().message_bytes += bytes.len() as u64;
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        self.time(|l| &mut l.timer, |r| r.on_timer(token, ctx));
    }

    fn coordinates_writes(&self) -> bool {
        self.inner.coordinates_writes()
    }

    fn coordinates_reads(&self) -> bool {
        self.inner.coordinates_reads()
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn txn_prepare(&mut self, txn_id: u64, ops: &[Operation]) -> TxnVote {
        self.time(|l| &mut l.txn, |r| r.txn_prepare(txn_id, ops))
    }

    fn txn_commit(&mut self, txn_id: u64) -> Vec<RangeEntry> {
        self.time(|l| &mut l.txn, |r| r.txn_commit(txn_id))
    }

    fn txn_abort(&mut self, txn_id: u64) {
        self.time(|l| &mut l.txn, |r| r.txn_abort(txn_id));
    }

    fn txn_stage_replicated(&mut self, txn_id: u64, ops: &[Operation]) {
        self.time(|l| &mut l.txn, |r| r.txn_stage_replicated(txn_id, ops));
    }

    fn txn_drop_replicated(&mut self, txn_id: u64) {
        self.time(|l| &mut l.txn, |r| r.txn_drop_replicated(txn_id));
    }

    fn txn_adopt_replicated(&mut self) -> Vec<u64> {
        self.time(|l| &mut l.txn, |r| r.txn_adopt_replicated())
    }

    fn txn_export_records(&mut self) -> Vec<(u64, TxnRecordOps)> {
        self.time(|l| &mut l.txn, |r| r.txn_export_records())
    }

    fn txn_import_record(&mut self, txn_id: u64, ops: &[(Vec<u8>, Option<Vec<u8>>)]) {
        self.time(|l| &mut l.txn, |r| r.txn_import_record(txn_id, ops));
    }

    fn protocol_counters(&self) -> Option<ProtocolCounters> {
        self.inner.protocol_counters()
    }

    fn current_view(&self) -> u64 {
        self.inner.current_view()
    }

    fn channel_send_counter(&self, peer: NodeId) -> u64 {
        self.inner.channel_send_counter(peer)
    }

    fn resync_channel_from(&mut self, peer: NodeId, peer_send_counter: u64) {
        self.time(
            |l| &mut l.other,
            |r| r.resync_channel_from(peer, peer_send_counter),
        );
    }

    fn export_recovery_snapshot(&mut self) -> Option<Vec<RangeEntry>> {
        self.time(|l| &mut l.other, |r| r.export_recovery_snapshot())
    }

    fn on_restart(
        &mut self,
        view: u64,
        snapshot: Option<Vec<RangeEntry>>,
        ctx: &mut Ctx,
    ) -> RestartReport {
        self.time(|l| &mut l.other, |r| r.on_restart(view, snapshot, ctx))
    }

    fn on_peer_down(&mut self, peer: NodeId, ctx: &mut Ctx) {
        self.time(|l| &mut l.other, |r| r.on_peer_down(peer, ctx));
    }

    fn on_peer_up(&mut self, peer: NodeId, ctx: &mut Ctx) {
        self.time(|l| &mut l.other, |r| r.on_peer_up(peer, ctx));
    }
}

impl<R: RangeStateTransfer> RangeStateTransfer for Timed<R> {
    fn export_range(&mut self, filter: &dyn Fn(&[u8]) -> bool) -> Result<Vec<RangeEntry>, String> {
        self.time(|l| &mut l.other, |r| r.export_range(filter))
    }

    fn read_entry(&mut self, key: &[u8]) -> Result<Option<RangeEntry>, String> {
        self.time(|l| &mut l.other, |r| r.read_entry(key))
    }

    fn import_range(&mut self, entries: &[RangeEntry]) {
        self.time(|l| &mut l.other, |r| r.import_range(entries));
    }

    fn evict_range(&mut self, filter: &dyn Fn(&[u8]) -> bool) -> usize {
        self.time(|l| &mut l.other, |r| r.evict_range(filter))
    }
}
