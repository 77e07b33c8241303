//! The traced run's unit-cost phase: standalone timed calls into single
//! layers, on inputs shaped like the workload (its value size,
//! confidentiality and batch size), so each unit cost lines up with the run
//! it explains.

use std::hint::black_box;
use std::time::{Duration, Instant};

use recipe_core::{BatchOp, ConfidentialityMode, Membership, Operation, Request};
use recipe_crypto::{sha256, Cipher, CipherKey, MacKey, Nonce};
use recipe_gateway::{Gateway, GatewayConfig, GatewayVerdict, TenantSpec};
use recipe_kv::{PartitionedKvStore, Timestamp};
use recipe_net::NodeId;
use recipe_protocols::ProtocolShield;

use crate::workload::{Shape, TENANTS};

/// Calls per timed batch: enough that the clock reads are negligible.
const BATCH_CALLS: usize = 64;

/// Per-call wall costs of single layers, in microseconds unless named.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitCosts {
    /// `MacKey::tag`, per KiB of input.
    pub mac_us_per_kb: f64,
    /// `Cipher::seal`, per KiB.
    pub aead_seal_us_per_kb: f64,
    /// `Cipher::open`, per KiB.
    pub aead_open_us_per_kb: f64,
    /// `sha256`, per KiB.
    pub sha256_us_per_kb: f64,
    /// `ProtocolShield::wrap` of one replication-shaped payload.
    pub wrap_us: f64,
    /// `ProtocolShield::unwrap` of that frame.
    pub unwrap_us: f64,
    /// `ProtocolShield::wrap_batch` of one batch of the workload's size.
    pub wrap_batch_us: f64,
    /// Wire bytes of the single frame.
    pub frame_bytes: f64,
    /// `PartitionedKvStore::write` under the group's store config.
    pub kv_write_us: f64,
    /// `PartitionedKvStore::get` of a written key.
    pub kv_get_us: f64,
    /// `Gateway::admit` of one single-key request.
    pub gateway_admit_us: f64,
}

/// Times `f` in batches of [`BATCH_CALLS`] for about `budget` and returns the
/// median per-call time in microseconds. `f` receives a running call index.
fn per_call_us(
    budget: Duration,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0usize;
    while samples.len() < 5 || start.elapsed() < budget {
        let batch = Instant::now();
        for _ in 0..BATCH_CALLS {
            f(i)?;
            i += 1;
        }
        samples.push(batch.elapsed().as_secs_f64() * 1e6 / BATCH_CALLS as f64);
    }
    Ok(crate::median(&mut samples))
}

/// Runs the unit-cost phase for `shape`, spending about `budget` in total.
pub fn measure(shape: &Shape, budget: Duration) -> Result<UnitCosts, String> {
    let each = budget / 10;
    let kb = shape.value_size as f64 / 1024.0;
    let value = vec![0xABu8; shape.value_size];

    let mac = MacKey::from_bytes([7; 32]);
    let mac_us = per_call_us(each, |_| {
        black_box(mac.tag(black_box(&value)));
        Ok(())
    })?;
    let sha_us = per_call_us(each, |_| {
        black_box(sha256(black_box(&value)));
        Ok(())
    })?;
    let cipher = Cipher::new(&CipherKey::from_bytes([9; 32]));
    let seal_us = per_call_us(each, |i| {
        black_box(cipher.seal(Nonce::from_view_counter(1, i as u64), black_box(&value)));
        Ok(())
    })?;
    let sealed = cipher.seal(Nonce::from_view_counter(2, 0), &value);
    let open_us = per_call_us(each, |_| {
        let plain = cipher
            .open(black_box(&sealed))
            .map_err(|e| format!("open: {e:?}"))?;
        if plain != value {
            return Err("AEAD open returned a different plaintext".into());
        }
        Ok(())
    })?;

    let (wrap_us, unwrap_us, wrap_batch_us, frame_bytes) = shield_costs(shape, each, &value)?;
    let (kv_write_us, kv_get_us) = kv_costs(shape, each, &value)?;
    let gateway_admit_us = gateway_cost(each, &value)?;

    Ok(UnitCosts {
        mac_us_per_kb: mac_us / kb,
        aead_seal_us_per_kb: seal_us / kb,
        aead_open_us_per_kb: open_us / kb,
        sha256_us_per_kb: sha_us / kb,
        wrap_us,
        unwrap_us,
        wrap_batch_us,
        frame_bytes,
        kv_write_us,
        kv_get_us,
        gateway_admit_us,
    })
}

fn mode(shape: &Shape) -> ConfidentialityMode {
    ConfidentialityMode::from(shape.confidential)
}

/// A replication-shaped payload: a JSON key/value pair, the codec R-Raft's
/// append entries use.
fn payload(value: &[u8]) -> Result<Vec<u8>, String> {
    serde_json::to_vec(&vec![b"user00000042".to_vec(), value.to_vec()])
        .map_err(|e| format!("payload: {e:?}"))
}

/// Shield pair costs: every wrapped frame is unwrapped in order, so both
/// channel counters stay in sequence and every frame is accepted.
fn shield_costs(
    shape: &Shape,
    each: Duration,
    value: &[u8],
) -> Result<(f64, f64, f64, f64), String> {
    let membership = Membership::of_size(3, 1);
    let mut sender = ProtocolShield::recipe(NodeId(0), &membership, mode(shape));
    let mut receiver = ProtocolShield::recipe(NodeId(1), &membership, mode(shape));
    let payload = payload(value)?;
    let first = sender.wrap(NodeId(1), 1, &payload);
    let frame_bytes = first.len() as f64;
    if receiver.unwrap(NodeId(0), &first).len() != 1 {
        return Err("the shield rejected an in-order frame".into());
    }

    let (mut wrap_ns, mut unwrap_ns, mut calls) = (0u128, 0u128, 0u128);
    let start = Instant::now();
    while calls < 256 || start.elapsed() < each * 2 {
        let t0 = Instant::now();
        let frame = sender.wrap(NodeId(1), 1, &payload);
        let t1 = Instant::now();
        let opened = receiver.unwrap(NodeId(0), &frame);
        let t2 = Instant::now();
        if opened.len() != 1 || opened.as_slice()[0].1 != payload {
            return Err("unwrap did not return the wrapped payload".into());
        }
        wrap_ns += (t1 - t0).as_nanos();
        unwrap_ns += (t2 - t1).as_nanos();
        calls += 1;
    }
    let wrap_us = wrap_ns as f64 / calls as f64 / 1e3;
    let unwrap_us = unwrap_ns as f64 / calls as f64 / 1e3;

    let ops = vec![BatchOp::new(1, payload.clone()); shape.batch_ops];
    let (mut batch_ns, mut batches) = (0u128, 0u128);
    let start = Instant::now();
    while batches < 64 || start.elapsed() < each {
        let batch = ops.clone();
        let t0 = Instant::now();
        let frame = sender.wrap_batch(NodeId(1), batch);
        batch_ns += t0.elapsed().as_nanos();
        if receiver.unwrap(NodeId(0), &frame).len() != shape.batch_ops {
            return Err("unwrap did not return every op of the batch".into());
        }
        batches += 1;
    }
    let wrap_batch_us = batch_ns as f64 / batches as f64 / 1e3;
    Ok((wrap_us, unwrap_us, wrap_batch_us, frame_bytes))
}

/// Store costs under the store config a group of this shape builds.
fn kv_costs(shape: &Shape, each: Duration, value: &[u8]) -> Result<(f64, f64), String> {
    let membership = Membership::of_size(3, 1);
    let config = ProtocolShield::recipe(NodeId(0), &membership, mode(shape)).store_config();
    let mut store = PartitionedKvStore::new(config);
    let key = |i: usize| format!("user{:08}", i % 10_000).into_bytes();
    let mut written = 0usize;
    let write_us = per_call_us(each, |i| {
        store
            .write(&key(i), value, Timestamp::new(i as u64 + 1, 0))
            .map_err(|e| format!("kv write: {e:?}"))?;
        written = written.max(i + 1);
        Ok(())
    })?;
    let live = written.min(10_000);
    let get_us = per_call_us(each, |i| {
        let read = store
            .get(&key(i % live))
            .map_err(|e| format!("kv get: {e:?}"))?;
        if read.value != value {
            return Err("kv get returned a different value".into());
        }
        Ok(())
    })?;
    Ok((write_us, get_us))
}

/// Admission cost of one request through the two-tenant pipeline.
fn gateway_cost(each: Duration, value: &[u8]) -> Result<f64, String> {
    let mut config = GatewayConfig::enabled();
    for name in TENANTS {
        config = config.with_tenant(TenantSpec::new(name));
    }
    let mut gateway = Gateway::from_config(&config, 1).ok_or("gateway disabled")?;
    let template = Request::Single(Operation::Put {
        key: b"user00000042".to_vec(),
        value: value.to_vec(),
    });
    let (mut ns, mut calls) = (0u128, 0u64);
    let start = Instant::now();
    while calls < 256 || start.elapsed() < each {
        let mut request = template.clone();
        let t0 = Instant::now();
        let verdict = gateway.admit(calls % 48, calls + 1, calls * 1_000, &mut request);
        ns += t0.elapsed().as_nanos();
        if !matches!(verdict, GatewayVerdict::Admitted { .. }) {
            return Err(format!(
                "gateway refused an authorized request: {verdict:?}"
            ));
        }
        calls += 1;
    }
    Ok(ns as f64 / calls as f64 / 1e3)
}
