//! Shielded two-phase commit between a transaction coordinator and the
//! participant shard leaders.
//!
//! A cross-shard transaction never exchanges bytes outside the authenticated
//! channel: every `Prepare` / `Vote` / `Commit` / `Abort` / `Ack` travels as
//! a [`recipe_core::TxnFrame`] — MAC under an attestation-provisioned channel
//! key, trusted per-channel counter (a replayed, reordered or tampered 2PC
//! frame is rejected, never executed), and AEAD over the body when any
//! participant shard's confidentiality policy asks for it (the stricter-wins
//! rule shard migrations already use). Channel keys are derived **per
//! transaction** (the transaction id is folded into the endpoint labels), so
//! frames recorded from one transaction can never verify on another.
//!
//! Retransmission contract: 2PC channels are strictly sequential (prepare is
//! answered before commit/abort is sent), and a lost frame is retransmitted
//! as the **same sealed bytes** — the receiver's counter either accepts it
//! (first delivery) or rejects it as a replay (duplicate), and the sender
//! falls back to retransmitting its cached response. Re-sealing a retry
//! would burn a fresh counter slot and permanently wedge the channel behind
//! the lost slot, which is exactly the fail-safe stall the shield gives
//! unattended protocol channels — coordinators must not do it.
//!
//! The participant side — locking, staging and committing in each replica's
//! store — is [`recipe_sim::KvBacked`].

use recipe_core::{ConfidentialityMode, Membership, TxnBody};
use recipe_net::NodeId;

use crate::shield::ProtocolShield;

/// Base of the node-id space used by transaction endpoints: distinct from
/// replica ids and from the migration endpoints' `0xE000_0000` block. Each
/// transaction gets a fresh coordinator endpoint plus one participant
/// endpoint per shard, so channel keys and counters are per transaction.
const TXN_ENDPOINT_BASE: u64 = 0x7E00_0000_0000;

/// Endpoints per transaction: one coordinator slot plus up to 8190 shards.
const TXN_ENDPOINT_STRIDE: u64 = 8_192;

/// The coordinator endpoint of transaction `txn_id`.
fn coordinator_endpoint(txn_id: u64) -> NodeId {
    NodeId(TXN_ENDPOINT_BASE + txn_id * TXN_ENDPOINT_STRIDE)
}

/// The participant endpoint of shard `shard` for transaction `txn_id`.
fn participant_endpoint(txn_id: u64, shard: usize) -> NodeId {
    NodeId(TXN_ENDPOINT_BASE + txn_id * TXN_ENDPOINT_STRIDE + 1 + shard as u64)
}

// ---------------------------------------------------------------------------
// The per-transaction shielded channel
// ---------------------------------------------------------------------------

/// A bidirectional shielded channel between the transaction coordinator and
/// one participant shard leader, used for one transaction. Owns both
/// endpoint shields (the simulation drives both sides from the coordinator);
/// keys derive from the deployment master secret exactly like replica
/// channels, fresh per transaction.
pub struct TxnChannel {
    txn_id: u64,
    shard: usize,
    coordinator: ProtocolShield,
    participant: ProtocolShield,
}

impl TxnChannel {
    /// Opens the channel for transaction `txn_id` towards shard `shard`.
    ///
    /// `confidentiality` must already be the stricter-wins resolution over
    /// **all** the transaction's participants: when any participant shard is
    /// confidential, every frame of the transaction — to every participant —
    /// is sealed, so the untrusted host cannot learn the transaction's shape
    /// from the plaintext legs.
    pub fn new(txn_id: u64, shard: usize, confidentiality: impl Into<ConfidentialityMode>) -> Self {
        let confidentiality = confidentiality.into();
        let membership = Membership::new(
            vec![
                coordinator_endpoint(txn_id),
                participant_endpoint(txn_id, shard),
            ],
            0,
        );
        TxnChannel {
            txn_id,
            shard,
            coordinator: ProtocolShield::recipe(
                coordinator_endpoint(txn_id),
                &membership,
                confidentiality,
            ),
            participant: ProtocolShield::recipe(
                participant_endpoint(txn_id, shard),
                &membership,
                confidentiality,
            ),
        }
    }

    /// Whether frame bodies are AEAD-encrypted in transit on this channel.
    pub fn is_confidential(&self) -> bool {
        self.coordinator.mode().confidentiality().is_confidential()
    }

    /// The participant shard this channel reaches.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The transaction this channel belongs to.
    pub fn txn_id(&self) -> u64 {
        self.txn_id
    }

    /// Seals one coordinator → participant message (prepare/commit/abort).
    pub fn seal_request(&mut self, body: &TxnBody) -> Vec<u8> {
        self.coordinator.wrap_txn(
            participant_endpoint(self.txn_id, self.shard),
            self.txn_id,
            body,
        )
    }

    /// Verifies and opens a coordinator → participant frame on the
    /// participant side. `None` when the frame is rejected or carries another
    /// transaction's id — never executed, only counted.
    pub fn open_request(&mut self, wire: &[u8]) -> Option<TxnBody> {
        let (txn_id, body) = self.participant.unwrap_txn(wire)?;
        (txn_id == self.txn_id).then_some(body)
    }

    /// Seals one participant → coordinator message (vote/ack).
    pub fn seal_response(&mut self, body: &TxnBody) -> Vec<u8> {
        self.participant
            .wrap_txn(coordinator_endpoint(self.txn_id), self.txn_id, body)
    }

    /// Verifies and opens a participant → coordinator frame on the
    /// coordinator side.
    pub fn open_response(&mut self, wire: &[u8]) -> Option<TxnBody> {
        let (txn_id, body) = self.coordinator.unwrap_txn(wire)?;
        (txn_id == self.txn_id).then_some(body)
    }

    /// Frames rejected by either endpoint's shield so far.
    pub fn rejected(&self) -> u64 {
        self.coordinator.rejected() + self.participant.rejected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_core::Operation;

    fn prepare(n: usize) -> TxnBody {
        TxnBody::Prepare {
            ops: (0..n)
                .map(|i| Operation::Put {
                    key: format!("user{i:08}").into_bytes(),
                    value: format!("secret-value-{i}").into_bytes(),
                })
                .collect(),
        }
    }

    #[test]
    fn requests_and_responses_roundtrip() {
        let mut channel = TxnChannel::new(7, 2, false);
        assert_eq!(channel.shard(), 2);
        assert_eq!(channel.txn_id(), 7);
        let wire = channel.seal_request(&prepare(3));
        assert_eq!(channel.open_request(&wire), Some(prepare(3)));
        let vote = TxnBody::Vote {
            granted: true,
            conflict: None,
        };
        let wire = channel.seal_response(&vote);
        assert_eq!(channel.open_response(&wire), Some(vote));
        assert_eq!(channel.rejected(), 0);
    }

    #[test]
    fn replayed_and_tampered_frames_are_rejected() {
        let mut channel = TxnChannel::new(7, 0, false);
        let wire = channel.seal_request(&prepare(2));
        let mut tampered = wire.clone();
        let idx = tampered.len() / 2;
        tampered[idx] ^= 0x01;
        assert_eq!(channel.open_request(&tampered), None);
        // The original (same sealed bytes — the retransmission contract)
        // still verifies: a tampered delivery does not burn the counter.
        assert!(channel.open_request(&wire).is_some());
        // Replaying it afterwards is rejected.
        assert_eq!(channel.open_request(&wire), None);
        assert!(channel.rejected() >= 2);
    }

    #[test]
    fn reordered_frames_are_rejected_until_the_gap_is_retransmitted() {
        let mut channel = TxnChannel::new(9, 1, false);
        let prepare_wire = channel.seal_request(&prepare(1));
        let commit_wire = channel.seal_request(&TxnBody::Commit);
        // The commit overtakes the lost prepare: rejected, not buffered.
        assert_eq!(channel.open_request(&commit_wire), None);
        // Retransmission of the prepare, then the commit: both verify.
        assert!(channel.open_request(&prepare_wire).is_some());
        assert!(channel.open_request(&commit_wire).is_some());
    }

    #[test]
    fn frames_from_another_transaction_never_verify() {
        let mut seven = TxnChannel::new(7, 0, false);
        let recorded = seven.seal_request(&prepare(1));
        // Same shard pair, next transaction: fresh keys reject the recording.
        let mut eight = TxnChannel::new(8, 0, false);
        assert_eq!(eight.open_request(&recorded), None);
        assert!(eight.rejected() >= 1);
    }

    #[test]
    fn confidential_channels_hide_keys_and_values() {
        let mut channel = TxnChannel::new(7, 3, true);
        assert!(channel.is_confidential());
        let wire = channel.seal_request(&prepare(4));
        assert!(!wire.windows(4).any(|w| w == b"user"));
        assert!(!wire.windows(6).any(|w| w == b"secret"));
        assert_eq!(channel.open_request(&wire), Some(prepare(4)));
        // The vote leg is sealed too (the decision itself is sensitive).
        let vote = TxnBody::Vote {
            granted: false,
            conflict: Some(b"user0001".to_vec()),
        };
        let wire = channel.seal_response(&vote);
        assert!(!wire.windows(4).any(|w| w == b"user"));
        assert_eq!(channel.open_response(&wire), Some(vote));
    }
}
