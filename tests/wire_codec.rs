//! Totality of the binary wire codec (`recipe_core::wire::Wire`).
//!
//! 1. every type that crosses the simulated network round-trips, has one
//!    canonical encoding, and rejects its own encoding cut short or padded;
//! 2. for a sample frame of each type, every truncation decodes to `None`
//!    and every single-bit flip decodes to `None` or to a value that
//!    re-encodes to exactly the flipped bytes — never a panic;
//! 3. a length or count prefix claiming ~4 GiB is rejected before anything
//!    is allocated for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use recipe::bft::{DamysusMsg, PbftMsg};
use recipe::core::{
    BatchFrame, BatchOp, ClientRequest, Membership, Operation, SequenceTuple, ShieldedMessage,
    TxnBody, TxnFrame, Wire,
};
use recipe::crypto::{Ciphertext, MacTag, Nonce, Signature};
use recipe::kv::Timestamp;
use recipe::net::{ChannelId, NodeId};
use recipe::protocols::{
    AbdMsg, AllConcurMsg, ChainMsg, ChunkPhase, MigrationChunk, NativeBatch, NativeFrame,
    ProtocolShield, RaftMsg,
};
use recipe::sim::RangeEntry;

/// Counts the bytes each thread allocates, so a decode can be checked for
/// allocations larger than its input without interference from tests
/// running on other threads.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counter update in
// between touches a const-initialised thread-local and allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread allocated while running `f`.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    (result, ALLOCATED.with(Cell::get) - before)
}

/// Round trip, canonical form, and rejection of the encoding cut short or
/// padded by one byte.
fn roundtrip<T: Wire + PartialEq + Debug>(value: &T) -> Result<(), String> {
    let wire = value.to_wire();
    let back = T::decode(&wire).ok_or_else(|| format!("{value:?} does not decode"))?;
    prop_assert_eq!(&back, value);
    prop_assert_eq!(back.to_wire(), wire.clone());
    prop_assert!(T::decode(&wire[..wire.len() - 1]).is_none());
    let mut padded = wire;
    padded.push(0);
    prop_assert!(T::decode(&padded).is_none());
    Ok(())
}

fn tuple(view: u64, counter: u64) -> SequenceTuple {
    SequenceTuple {
        view,
        channel: ChannelId::new(NodeId(counter % 7), NodeId(view % 5)),
        counter,
    }
}

fn ciphertext(seed: u64, bytes: Vec<u8>) -> Ciphertext {
    Ciphertext {
        nonce: Nonce::from_view_counter(seed, seed.rotate_left(7)),
        bytes,
        tag: [seed as u8; 32],
    }
}

fn request(client_id: u64, request_id: u64, key: Vec<u8>, value: Vec<u8>) -> ClientRequest {
    ClientRequest {
        client_id,
        request_id,
        operation: Operation::Put { key, value },
        signature: client_id
            .is_multiple_of(2)
            .then(|| Signature::from_bytes([request_id as u8; 64])),
    }
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..48)
}

proptest! {
    #[test]
    fn core_frames_roundtrip(
        ids in (any::<u64>(), any::<u64>(), any::<u16>(), any::<bool>()),
        payload in bytes(),
        key in bytes(),
        sealed in bytes(),
    ) {
        let (a, b, kind, flag) = ids;
        let mac = MacTag::from_bytes([b as u8; 32]);
        roundtrip(&tuple(a, b))?;
        roundtrip(&ShieldedMessage {
            tuple: tuple(a, b),
            kind,
            payload: payload.clone(),
            confidential: flag,
            mac,
        })?;
        let ops = vec![
            BatchOp::new(kind, payload.clone()),
            BatchOp::new(kind ^ 1, key.clone()),
        ];
        roundtrip(&ops[0])?;
        roundtrip(&BatchFrame {
            tuple: tuple(b, a),
            count: 2,
            body: ops.to_wire(),
            sealed: flag.then(|| ciphertext(a, sealed.clone())),
            mac,
        })?;
        let put = Operation::Put { key: key.clone(), value: payload.clone() };
        let get = Operation::Get { key: key.clone() };
        roundtrip(&put)?;
        roundtrip(&get)?;
        for body in [
            TxnBody::Prepare { ops: vec![put.clone(), get.clone()] },
            TxnBody::Vote { granted: flag, conflict: flag.then(|| key.clone()) },
            TxnBody::Commit,
            TxnBody::Abort,
            TxnBody::Ack { applied: b as u32 },
        ] {
            roundtrip(&body)?;
            roundtrip(&TxnFrame {
                tuple: tuple(a, b),
                txn_id: a ^ b,
                body: body.to_wire(),
                sealed: flag.then(|| ciphertext(b, sealed.clone())),
                mac,
            })?;
        }
        roundtrip(&ciphertext(a, sealed))?;
        roundtrip(&request(a, b, key, payload))?;
    }

    #[test]
    fn native_frames_and_migration_chunks_roundtrip(
        ids in (any::<u64>(), any::<u64>(), any::<u16>()),
        payload in bytes(),
        key in bytes(),
        entries in 0usize..4,
    ) {
        let (a, b, kind) = ids;
        roundtrip(&NativeFrame { kind, payload: payload.clone() })?;
        roundtrip(&NativeBatch {
            ops: vec![BatchOp::new(kind, payload.clone()), BatchOp::new(0, key.clone())],
        })?;
        for phase in [ChunkPhase::Snapshot, ChunkPhase::CatchUp, ChunkPhase::Final] {
            roundtrip(&MigrationChunk {
                migration_id: a,
                phase,
                seq: b,
                entries: (0..entries as u64)
                    .map(|i| RangeEntry {
                        key: key.clone(),
                        value: payload.clone(),
                        ts_logical: a.wrapping_add(i),
                        ts_node: b,
                    })
                    .collect(),
            })?;
        }
    }

    #[test]
    fn protocol_messages_roundtrip(
        ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
        key in bytes(),
        value in bytes(),
    ) {
        let (a, b, c, flag) = ids;
        let ts = Timestamp::new(b, c);
        for msg in [
            RaftMsg::Append {
                view: a,
                index: b,
                key: key.clone(),
                value: value.clone(),
                client_id: c,
                request_id: a ^ c,
            },
            RaftMsg::AppendAck { view: a, index: b },
            RaftMsg::Commit { view: a, index: b },
            RaftMsg::CommitAck { view: a, index: b },
            RaftMsg::Heartbeat { view: a },
            RaftMsg::ViewChange { new_view: b },
        ] {
            roundtrip(&msg)?;
        }
        roundtrip(&ChainMsg::Forward {
            seq: a,
            key: key.clone(),
            value: value.clone(),
            client_id: b,
            request_id: c,
        })?;
        for msg in [
            AbdMsg::GetTs { op: a, key: key.clone() },
            AbdMsg::TsReply { op: a, ts },
            AbdMsg::Put { op: a, key: key.clone(), value: value.clone(), ts },
            AbdMsg::PutAck { op: a },
            AbdMsg::GetFull { op: a, key: key.clone() },
            AbdMsg::FullReply { op: a, value: flag.then(|| value.clone()), ts },
        ] {
            roundtrip(&msg)?;
        }
        for msg in [
            AllConcurMsg::Propose { op: a, key: key.clone(), value: value.clone() },
            AllConcurMsg::Track { op: b },
            AllConcurMsg::Deliver { op: c },
        ] {
            roundtrip(&msg)?;
        }
        for msg in [
            PbftMsg::PrePrepare {
                view: a,
                seq: b,
                request: request(c, a, key.clone(), value.clone()),
            },
            PbftMsg::Prepare { view: a, seq: b, digest: c, replica: a ^ b },
            PbftMsg::Commit { view: a, seq: b, digest: c, replica: a ^ b },
        ] {
            roundtrip(&msg)?;
        }
        for msg in [
            DamysusMsg::Propose { slot: a, request: request(b, c, key.clone(), value.clone()) },
            DamysusMsg::PrepareVote { slot: a, replica: b },
            DamysusMsg::PreCommit { slot: a },
            DamysusMsg::CommitVote { slot: a, replica: c },
            DamysusMsg::Decide { slot: b },
        ] {
            roundtrip(&msg)?;
        }
    }
}

/// Every truncation of `wire` decodes to `None`; every single-bit flip
/// decodes to `None` or to a value whose encoding is exactly the flipped
/// bytes. A panic anywhere fails the test.
fn assert_total<T: Wire>(name: &str, wire: &[u8]) {
    assert!(T::decode(wire).is_some(), "{name}: sample does not decode");
    for len in 0..wire.len() {
        assert!(
            T::decode(&wire[..len]).is_none(),
            "{name}: truncation to {len} bytes decoded"
        );
    }
    let mut flipped = wire.to_vec();
    for bit in 0..wire.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Some(value) = T::decode(&flipped) {
            assert_eq!(
                value.to_wire(),
                flipped,
                "{name}: bit {bit} decoded non-canonically"
            );
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

fn shield(node: u64, confidential: bool) -> ProtocolShield {
    ProtocolShield::recipe(NodeId(node), &Membership::of_size(3, 1), confidential)
}

fn sample_ops() -> Vec<BatchOp> {
    vec![
        BatchOp::new(1, b"append entry".to_vec()),
        BatchOp::new(2, Vec::new()),
    ]
}

fn sample_request() -> ClientRequest {
    request(4, 9, b"user7".to_vec(), b"value".to_vec())
}

#[test]
fn truncations_and_bit_flips_never_panic() {
    for confidential in [false, true] {
        let mut sender = shield(0, confidential);
        let single = sender.wrap(NodeId(1), 7, b"append entry 5");
        assert_total::<ShieldedMessage>("shielded", &single);
        let batch = sender.wrap_batch(NodeId(1), sample_ops());
        assert_total::<BatchFrame>("batch", &batch);
        let txn = sender.wrap_txn(NodeId(1), 3, &TxnBody::Prepare { ops: vec![] });
        assert_total::<TxnFrame>("txn", &txn);
    }
    let mut native = ProtocolShield::native(NodeId(0));
    assert_total::<NativeFrame>("native", &native.wrap(NodeId(1), 3, b"plain"));
    assert_total::<NativeBatch>("native batch", &native.wrap_batch(NodeId(1), sample_ops()));

    let put = Operation::Put {
        key: b"k".to_vec(),
        value: b"v".to_vec(),
    };
    assert_total::<Operation>("operation", &put.to_wire());
    assert_total::<TxnBody>(
        "txn body",
        &TxnBody::Vote {
            granted: false,
            conflict: Some(b"k".to_vec()),
        }
        .to_wire(),
    );
    assert_total::<Ciphertext>("ciphertext", &ciphertext(3, b"sealed".to_vec()).to_wire());
    assert_total::<ClientRequest>("client request", &sample_request().to_wire());
    let chunk = MigrationChunk {
        migration_id: 1,
        phase: ChunkPhase::CatchUp,
        seq: 2,
        entries: vec![RangeEntry {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
            ts_logical: 3,
            ts_node: 1,
        }],
    };
    assert_total::<MigrationChunk>("migration chunk", &chunk.to_wire());
    let raft = RaftMsg::Append {
        view: 1,
        index: 2,
        key: b"k".to_vec(),
        value: vec![0xAB; 16],
        client_id: 3,
        request_id: 4,
    };
    assert_total::<RaftMsg>("raft", &raft.to_wire());
    let chain = ChainMsg::Forward {
        seq: 1,
        key: b"k".to_vec(),
        value: b"v".to_vec(),
        client_id: 2,
        request_id: 3,
    };
    assert_total::<ChainMsg>("chain", &chain.to_wire());
    let abd = AbdMsg::FullReply {
        op: 1,
        value: Some(b"v".to_vec()),
        ts: Timestamp::new(2, 1),
    };
    assert_total::<AbdMsg>("abd", &abd.to_wire());
    let allconcur = AllConcurMsg::Propose {
        op: 1,
        key: b"k".to_vec(),
        value: b"v".to_vec(),
    };
    assert_total::<AllConcurMsg>("allconcur", &allconcur.to_wire());
    let pbft = PbftMsg::PrePrepare {
        view: 0,
        seq: 1,
        request: sample_request(),
    };
    assert_total::<PbftMsg>("pbft", &pbft.to_wire());
    let damysus = DamysusMsg::Propose {
        slot: 1,
        request: sample_request(),
    };
    assert_total::<DamysusMsg>("damysus", &damysus.to_wire());
}

#[test]
fn every_bit_flip_of_a_sealed_frame_is_rejected_by_the_shield() {
    for confidential in [false, true] {
        // Fresh senders, so each frame carries the counter its receiver
        // expects next: a flip that got past the MAC would be delivered.
        let frames = [
            shield(0, confidential).wrap(NodeId(1), 7, b"append entry 5"),
            shield(0, confidential).wrap_batch(NodeId(1), sample_ops()),
        ];
        for frame in frames {
            let mut receiver = shield(1, confidential);
            let mut flipped = frame.clone();
            for bit in 0..frame.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    receiver.unwrap(NodeId(0), &flipped).is_empty(),
                    "bit {bit} of a sealed frame was delivered"
                );
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(receiver.rejected(), frame.len() as u64 * 8);
        }
    }
}

/// Overwrites the little-endian `u32` at `at` with a ~4 GiB claim.
fn claim_4_gib(wire: &[u8], at: usize) -> Vec<u8> {
    let mut forged = wire.to_vec();
    forged[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    forged
}

fn assert_rejected_without_allocating<T: Wire>(name: &str, forged: &[u8]) {
    let (decoded, allocated) = allocated_by(|| T::decode(forged).is_some());
    assert!(!decoded, "{name}: a ~4 GiB claim decoded");
    assert!(
        allocated <= forged.len(),
        "{name}: allocated {allocated} bytes decoding a {}-byte input",
        forged.len()
    );
}

#[test]
fn four_gib_length_claims_are_rejected_before_allocating() {
    let (_buffer, seen) = allocated_by(|| Vec::<u8>::with_capacity(64));
    assert!(
        seen >= 64,
        "the allocation counter does not see this thread"
    );
    let mut sender = shield(0, false);
    let payload = b"append entry 5";
    let single = sender.wrap(NodeId(1), 7, payload);
    // tag | tuple [32] | kind u16 | confidential u8 | payload len u32 …
    assert_rejected_without_allocating::<ShieldedMessage>("payload", &claim_4_gib(&single, 36));

    let batch = sender.wrap_batch(NodeId(1), sample_ops());
    // tag | tuple [32] | count u32 | body len u32 …
    assert_rejected_without_allocating::<BatchFrame>("batch body", &claim_4_gib(&batch, 37));
    let body = sample_ops().to_wire();
    let (ops, allocated) = allocated_by(|| Vec::<BatchOp>::decode(&claim_4_gib(&body, 0)));
    assert!(ops.is_none(), "a ~4 GiB op count decoded");
    assert!(
        allocated <= 2 * body.len(),
        "op count allocated {allocated} bytes"
    );

    let native = NativeBatch { ops: sample_ops() }.to_wire();
    assert_rejected_without_allocating::<NativeBatch>("native count", &claim_4_gib(&native, 1));
    let prepare = TxnBody::Prepare {
        ops: vec![Operation::Get { key: b"k".to_vec() }],
    }
    .to_wire();
    assert_rejected_without_allocating::<TxnBody>("prepare ops", &claim_4_gib(&prepare, 1));
    let sealed = ciphertext(1, b"sealed".to_vec()).to_wire();
    assert_rejected_without_allocating::<Ciphertext>("ciphertext", &claim_4_gib(&sealed, 16));
    let chunk = MigrationChunk {
        migration_id: 1,
        phase: ChunkPhase::Snapshot,
        seq: 0,
        entries: Vec::new(),
    }
    .to_wire();
    assert_rejected_without_allocating::<MigrationChunk>("entries", &claim_4_gib(&chunk, 17));
}
