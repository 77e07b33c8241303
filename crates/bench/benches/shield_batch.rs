//! Microbenchmark of the amortized shield/verify pipeline: one `shield_batch`
//! plus `verify_batch` round per iteration, at batch sizes 1, 16 and 64
//! (256 B ops), plaintext and confidential. Compare against
//! `shield_and_verify_256B` in `micro_primitives` to see the per-op
//! amortization.
use criterion::{criterion_group, criterion_main, Criterion};
use recipe_core::{AuthLayer, BatchOp};
use recipe_crypto::{Cipher, CipherKey, MacKey};
use recipe_net::NodeId;
use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};

fn shield_pair(confidential: bool) -> (AuthLayer, AuthLayer) {
    let master = MacKey::from_bytes([9u8; 32]);
    let mut e1 = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
    let mut e2 = Enclave::launch(EnclaveId(2), EnclaveConfig::new("code", 2));
    for label in ["cq:1->2", "cq:2->1"] {
        e1.provision_mac_key(label, master.derive(label)).unwrap();
        e2.provision_mac_key(label, master.derive(label)).unwrap();
    }
    if confidential {
        let cipher = Cipher::new(&CipherKey::from_bytes([3u8; 32]));
        e1.provision_cipher_key(recipe_core::auth::CIPHER_LABEL, cipher.clone())
            .unwrap();
        e2.provision_cipher_key(recipe_core::auth::CIPHER_LABEL, cipher)
            .unwrap();
    }
    (
        AuthLayer::new(NodeId(1), e1, confidential),
        AuthLayer::new(NodeId(2), e2, confidential),
    )
}

fn bench(c: &mut Criterion) {
    for confidential in [false, true] {
        let mode = if confidential { "conf" } else { "plain" };
        for ops in [1usize, 16, 64] {
            let name = format!("shield_batch_{mode}_{ops}x256B");
            c.bench_function(&name, |b| {
                let (mut tx, mut rx) = shield_pair(confidential);
                let batch: Vec<BatchOp> =
                    (0..ops).map(|_| BatchOp::new(1, vec![0u8; 256])).collect();
                b.iter(|| {
                    let frame = tx.shield_batch(NodeId(2), &batch).unwrap();
                    assert!(rx.verify_batch(frame).is_accept());
                })
            });
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
