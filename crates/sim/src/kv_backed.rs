//! The replica core every KV-backed protocol shares.
//!
//! R-Raft, R-CR, R-ABD, R-AllConcur and PBFT keep their state in one
//! [`PartitionedKvStore`] and handle it identically outside their protocol
//! logic: 2PC participation locks and stages through the store's transaction
//! table, migrations move key ranges through its verified export/import
//! path, and a restart rehydrates it from sealed state. [`KvBacked`] holds
//! that code once. A protocol provides its store, its write counter and — if
//! it differs from the default — the timestamp a 2PC commit write takes.
//!
//! Two pieces wire the trait into the simulator's interfaces:
//!
//! * every `KvBacked` replica is a [`RangeStateTransfer`] through a blanket
//!   impl;
//! * [`kv_backed_hooks!`](crate::kv_backed_hooks) expands, inside a protocol's
//!   `impl Replica`, into the [`Replica`] hooks that forward to the trait: the
//!   recovery snapshot always, and the eight 2PC participant hooks with
//!   `kv_backed_hooks!(txn_participant)`. A replica that leaves the 2PC hooks
//!   out keeps the default [`TxnVote::Unsupported`] vote.

use recipe_core::Operation;
use recipe_kv::{KvError, PartitionedKvStore, Timestamp, TxnRecordOps};

use crate::replica::{RangeEntry, RangeStateTransfer, Replica, RestartReport, TxnVote};

/// A replica whose state lives in one [`PartitionedKvStore`].
pub trait KvBacked: Replica {
    /// The replica's local store.
    fn store(&mut self) -> &mut PartitionedKvStore;

    /// The replica's write counter: the logical clock its own writes are
    /// stamped from. It is backed by the trusted monotonic counter, so it
    /// survives a crash; a restart advances it to the freshest restored
    /// timestamp.
    fn write_counter(&mut self) -> &mut u64;

    /// The timestamp a 2PC commit write of `key` takes, advancing the write
    /// counter. The default is the next counter value, stamped with this
    /// node's id — the order the replica's normal apply path gives writes.
    fn commit_timestamp(&mut self, key: &[u8]) -> Timestamp {
        let _ = key;
        let counter = self.write_counter();
        *counter += 1;
        let logical = *counter;
        Timestamp::new(logical, self.id().0)
    }

    /// 2PC prepare: locks every key `ops` touches and stages the writes,
    /// all-or-nothing, translating a lock conflict into the coordinator's vote.
    fn kv_txn_prepare(&mut self, txn_id: u64, ops: &[Operation]) -> TxnVote {
        match self.store().txn_prepare(txn_id, &txn_lock_set(ops)) {
            Ok(()) => TxnVote::Granted,
            Err(KvError::LockConflict { key, .. }) => TxnVote::Conflict { key },
            // The transaction table only reports lock conflicts today; anything
            // else would be a store bug — refuse the prepare rather than lock up.
            Err(_) => TxnVote::Conflict { key: Vec::new() },
        }
    }

    /// 2PC commit: takes the staged writes out of the store (releasing the
    /// locks), writes each under [`KvBacked::commit_timestamp`], and returns
    /// the applied records with the timestamps the store now holds. Unknown
    /// transactions return nothing (idempotent re-commit).
    fn kv_txn_commit(&mut self, txn_id: u64) -> Vec<RangeEntry> {
        let Some(writes) = self.store().txn_take_staged(txn_id) else {
            return Vec::new();
        };
        let mut entries = Vec::with_capacity(writes.len());
        for (key, value) in writes {
            let ts = self.commit_timestamp(&key);
            let kv = self.store();
            let _ = kv.write(&key, &value, ts);
            let ts = kv.timestamp_of(&key).unwrap_or_default();
            entries.push(RangeEntry {
                key,
                value,
                ts_logical: ts.logical,
                ts_node: ts.node,
            });
        }
        entries
    }

    /// 2PC abort: discards the staged writes and releases the locks.
    fn kv_txn_abort(&mut self, txn_id: u64) {
        self.store().txn_abort(txn_id);
    }

    /// Records the leader's prepare as a passive (lock-free) record the store
    /// can adopt on failover.
    fn kv_txn_stage_replicated(&mut self, txn_id: u64, ops: &[Operation]) {
        self.store()
            .txn_stage_replicated(txn_id, &txn_lock_set(ops));
    }

    /// Drops a replicated prepare record once the decision reached this node.
    fn kv_txn_drop_replicated(&mut self, txn_id: u64) {
        self.store().txn_drop_replicated(txn_id);
    }

    /// Promotes every replicated prepare record into a locked, staged
    /// transaction, returning the adopted ids.
    fn kv_txn_adopt_replicated(&mut self) -> Vec<u64> {
        self.store().txn_adopt_replicated()
    }

    /// Every prepare record the store knows, in the replicated wire form.
    fn kv_txn_export_records(&mut self) -> Vec<(u64, TxnRecordOps)> {
        self.store().txn_export_records()
    }

    /// Imports a peer's prepare record as a passive replicated copy.
    fn kv_txn_import_record(&mut self, txn_id: u64, ops: &[(Vec<u8>, Option<Vec<u8>>)]) {
        self.store().txn_stage_replicated(txn_id, ops);
    }

    /// The full verified store for a recovering peer; `None` when a record
    /// fails verification.
    fn kv_recovery_snapshot(&mut self) -> Option<Vec<RangeEntry>> {
        export(self.store(), &|_| true).ok()
    }

    /// The store half of [`Replica::on_restart`]: drops the volatile lock
    /// table, rehydrates from sealed state (only records the enclave verifies
    /// survive), installs the live peer's `snapshot`, and resumes the write
    /// counter at the freshest restored logical timestamp, never behind it.
    /// The protocol clears its own volatile state around this call.
    fn restart_store(&mut self, snapshot: Option<Vec<RangeEntry>>) -> RestartReport {
        let kv = self.store();
        kv.txn_reset();
        let (verified, discarded, bytes) = kv.rehydrate();
        if let Some(entries) = snapshot {
            import(kv, &entries);
        }
        let restored = kv
            .keys()
            .iter()
            .filter_map(|key| kv.timestamp_of(key))
            .map(|ts| ts.logical)
            .max()
            .unwrap_or(0);
        let counter = self.write_counter();
        *counter = (*counter).max(restored);
        RestartReport {
            verified_entries: verified,
            discarded_entries: discarded,
            payload_bytes: bytes,
        }
    }
}

/// Range state transfer works on the store alone, so every KV-backed replica
/// gets it the same way. Imported entries keep their carried timestamps, which
/// keeps timestamp-ordered write rules (R-ABD) intact across a move; the write
/// counter is untouched, since the entries committed on the donor group.
impl<T: KvBacked> RangeStateTransfer for T {
    fn export_range(&mut self, filter: &dyn Fn(&[u8]) -> bool) -> Result<Vec<RangeEntry>, String> {
        export(self.store(), filter)
    }

    fn read_entry(&mut self, key: &[u8]) -> Result<Option<RangeEntry>, String> {
        match self.store().get(key) {
            Ok(read) => Ok(Some(RangeEntry {
                key: key.to_vec(),
                value: read.value,
                ts_logical: read.timestamp.logical,
                ts_node: read.timestamp.node,
            })),
            Err(KvError::NotFound) => Ok(None),
            Err(err) => Err(format!("verified read failed: {err:?}")),
        }
    }

    fn import_range(&mut self, entries: &[RangeEntry]) {
        import(self.store(), entries);
    }

    fn evict_range(&mut self, filter: &dyn Fn(&[u8]) -> bool) -> usize {
        self.store().remove_matching(filter)
    }
}

/// Implements a [`KvBacked`] replica's [`Replica`] storage hooks by
/// forwarding to the trait. Invoke it inside the `impl Replica` block:
///
/// * `kv_backed_hooks!()` — `export_recovery_snapshot` only; the replica
///   keeps voting [`TxnVote::Unsupported`] on 2PC prepares;
/// * `kv_backed_hooks!(txn_participant)` — also the eight `txn_*` hooks.
#[macro_export]
macro_rules! kv_backed_hooks {
    () => {
        fn export_recovery_snapshot(&mut self) -> Option<Vec<$crate::RangeEntry>> {
            $crate::KvBacked::kv_recovery_snapshot(self)
        }
    };
    (txn_participant) => {
        $crate::kv_backed_hooks!();

        fn txn_prepare(&mut self, txn_id: u64, ops: &[recipe_core::Operation]) -> $crate::TxnVote {
            $crate::KvBacked::kv_txn_prepare(self, txn_id, ops)
        }

        fn txn_commit(&mut self, txn_id: u64) -> Vec<$crate::RangeEntry> {
            $crate::KvBacked::kv_txn_commit(self, txn_id)
        }

        fn txn_abort(&mut self, txn_id: u64) {
            $crate::KvBacked::kv_txn_abort(self, txn_id)
        }

        fn txn_stage_replicated(&mut self, txn_id: u64, ops: &[recipe_core::Operation]) {
            $crate::KvBacked::kv_txn_stage_replicated(self, txn_id, ops)
        }

        fn txn_drop_replicated(&mut self, txn_id: u64) {
            $crate::KvBacked::kv_txn_drop_replicated(self, txn_id)
        }

        fn txn_adopt_replicated(&mut self) -> Vec<u64> {
            $crate::KvBacked::kv_txn_adopt_replicated(self)
        }

        fn txn_export_records(&mut self) -> Vec<(u64, $crate::TxnRecordOps)> {
            $crate::KvBacked::kv_txn_export_records(self)
        }

        fn txn_import_record(&mut self, txn_id: u64, ops: &[(Vec<u8>, Option<Vec<u8>>)]) {
            $crate::KvBacked::kv_txn_import_record(self, txn_id, ops)
        }
    };
}

/// Lowers protocol operations into the store's `(key, staged write)` pairs:
/// reads lock their key and stage nothing, writes lock and stage the value.
fn txn_lock_set(ops: &[Operation]) -> TxnRecordOps {
    ops.iter()
        .map(|op| match op {
            Operation::Get { key } => (key.clone(), None),
            Operation::Put { key, value } => (key.clone(), Some(value.clone())),
        })
        .collect()
}

/// The store's verified export of every key matching `filter`, as wire
/// records.
fn export(
    kv: &mut PartitionedKvStore,
    filter: &dyn Fn(&[u8]) -> bool,
) -> Result<Vec<RangeEntry>, String> {
    Ok(kv
        .export_matching(filter)
        .map_err(|err| format!("range export failed verification: {err:?}"))?
        .into_iter()
        .map(|(key, value, ts)| RangeEntry {
            key,
            value,
            ts_logical: ts.logical,
            ts_node: ts.node,
        })
        .collect())
}

/// Installs wire records into the store with their carried timestamps, in
/// order.
fn import(kv: &mut PartitionedKvStore, entries: &[RangeEntry]) {
    let _ = kv.import_entries(entries.iter().map(|entry| {
        (
            entry.key.clone(),
            entry.value.clone(),
            Timestamp::new(entry.ts_logical, entry.ts_node),
        )
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_set_lowering_maps_reads_and_writes() {
        let ops = vec![
            Operation::Get { key: b"r".to_vec() },
            Operation::Put {
                key: b"w".to_vec(),
                value: b"v".to_vec(),
            },
        ];
        let set = txn_lock_set(&ops);
        assert_eq!(set[0], (b"r".to_vec(), None));
        assert_eq!(set[1], (b"w".to_vec(), Some(b"v".to_vec())));
    }
}
