//! Golden vectors for the crypto primitives every MAC, AEAD keystream block and
//! sealed value rests on: SHA-256 around the padding boundaries, HMAC-SHA-256
//! (RFC 4231), `MacKey` derivation and tags, and a sealed 1 KiB plaintext.
//! The expected values were computed independently with Python's `hashlib`
//! and `hmac`, so a refactor that changes any digest, tag or keystream byte
//! fails here. The serde guard pins the serialized form of `MacKey` and of an
//! attestation `SecretBundle` that carries them.

use std::collections::BTreeMap;

use hmac::{Hmac, Mac};
use recipe_attest::{ClusterConfig, SecretBundle};
use recipe_crypto::{sha256, Cipher, CipherKey, Hasher, KeyMaterial, MacKey, Nonce};
use sha2::Sha256;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `n`-byte test message: byte `i` is `(31 i + 7) mod 256`.
fn message(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 + 7) as u8).collect()
}

#[test]
fn sha256_around_the_padding_boundaries() {
    let vectors = [
        (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            1,
            "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
        ),
        (
            55,
            "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
        ),
        (
            56,
            "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
        ),
        (
            57,
            "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d",
        ),
        (
            63,
            "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
        ),
        (
            64,
            "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
        ),
        (
            65,
            "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0",
        ),
        (
            119,
            "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe",
        ),
        (
            120,
            "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656",
        ),
        (
            1000,
            "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179",
        ),
    ];
    for (len, expected) in vectors {
        let data = message(len);
        assert_eq!(sha256(&data).to_hex(), expected, "one-shot, {len} bytes");
        // Uneven chunks cross the block boundary at every offset.
        let mut hasher = Hasher::new();
        for chunk in data.chunks(13) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize().to_hex(), expected, "chunked, {len} bytes");
    }
}

#[test]
fn hmac_sha256_rfc4231() {
    let case_7 = b"This is a test using a larger than block-size key and a larger than \
                   block-size data. The key needs to be hashed before being used by the \
                   HMAC algorithm.";
    let rfc_key_4: Vec<u8> = (1..=25).collect();
    let vectors: [(u8, &[u8], &[u8], &str); 6] = [
        (
            1,
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            2,
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            3,
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            4,
            &rfc_key_4,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            6,
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            7,
            &[0xaa; 131],
            case_7,
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (case, key, data, expected) in vectors {
        let mut mac = Hmac::<Sha256>::new_from_slice(key).unwrap();
        mac.update(data);
        assert_eq!(
            hex(&mac.finalize().into_bytes()),
            expected,
            "RFC 4231 case {case}"
        );
    }
}

#[test]
fn mac_key_derive_and_tag_parts() {
    let key = MacKey::from_bytes([0x41; 32]);
    assert_eq!(
        hex(key.derive("cq:0->1").expose_secret()),
        "2068333188fa308ffad8bc04fd32bad7a92f70d7ea7f772d5c69ec903a43b037"
    );
    let parts: [&[u8]; 3] = [b"recipe", b"", b"tag parts"];
    let tag = key.tag_parts(&parts);
    assert_eq!(
        hex(tag.as_bytes()),
        "b7d7604a08171a4642bd470e6e26d972f4fe056883348c3ac359c8ec6615d340"
    );
    assert!(key.verify_parts(&parts, &tag).is_ok());
}

#[test]
fn cipher_seal_of_one_kib() {
    let cipher = Cipher::new(&CipherKey::from_bytes([0x42; 32]));
    let nonce = Nonce::from_bytes(std::array::from_fn(|i| i as u8));
    let plaintext: Vec<u8> = (0..1024).map(|i| (i * 7 + 3) as u8).collect();
    let sealed = cipher.seal(nonce, &plaintext);
    assert_eq!(sealed.bytes.len(), 1024);
    assert_eq!(
        hex(&sealed.bytes[..32]),
        "2a5b60d910a5bb3feab325b9ab10b6ea9d0581361cdc4a41515f79b59f0cc532"
    );
    assert_eq!(
        sha256(&sealed.bytes).to_hex(),
        "0d756cffcabbcd1f178aca796e944bf4805d4e20775f723fef0352b841006927"
    );
    assert_eq!(
        hex(&sealed.tag),
        "39cce1ea05fb66a3d07b1091c4ce2a8da55e350ff11f69779ea2f47485ef02fa"
    );
    assert_eq!(cipher.open(&sealed).unwrap(), plaintext);
    assert_eq!(cipher.open_owned(sealed).unwrap(), plaintext);
}

/// The serialized form of a `MacKey` of 32 copies of `byte`: the one-field
/// tuple struct's array around the key bytes.
fn key_json(byte: u8) -> String {
    format!("[[{}]]", vec![byte.to_string(); 32].join(","))
}

#[test]
fn mac_key_serde_form_equality_and_debug() {
    let key = MacKey::from_bytes([0x41; 32]);
    let json = serde_json::to_string(&key).unwrap();
    assert_eq!(json, key_json(65));
    let back: MacKey = serde_json::from_str(&json).unwrap();
    assert_eq!(back, key);
    assert_eq!(back.tag(b"x"), key.tag(b"x"));

    assert_eq!(MacKey::from_bytes([3; 32]), MacKey::from_bytes([3; 32]));
    assert_ne!(MacKey::from_bytes([3; 32]), MacKey::from_bytes([4; 32]));
    assert_eq!(format!("{key:?}"), "MacKey(…)");
    assert_eq!(key.expose_secret(), &[0x41; 32]);
}

#[test]
fn secret_bundle_serde_form() {
    let mut channel_keys = BTreeMap::new();
    channel_keys.insert("cq:0->1".to_owned(), MacKey::from_bytes([1; 32]));
    channel_keys.insert("cq:1->0".to_owned(), MacKey::from_bytes([0xA5; 32]));
    let bundle = SecretBundle {
        node_id: 1,
        signing_seed: vec![7; 4],
        channel_keys,
        cipher_key: Some(vec![9; 4]),
        config: ClusterConfig::for_replicas(2, 0, "raft-replica-v1"),
    };
    let json = serde_json::to_string(&bundle).unwrap();
    let expected = format!(
        "{{\"node_id\":1,\"signing_seed\":[7,7,7,7],\"channel_keys\":[[\"cq:0->1\",{}],\
         [\"cq:1->0\",{}]],\"cipher_key\":[9,9,9,9],\"config\":{{\"members\":[[0,\"replica-0\"],\
         [1,\"replica-1\"]],\"fault_threshold\":0,\"code_identity\":\"raft-replica-v1\",\
         \"confidential\":false}}}}",
        key_json(1),
        key_json(165)
    );
    assert_eq!(json, expected);
    let back: SecretBundle = serde_json::from_str(&json).unwrap();
    assert_eq!(back, bundle);
}
