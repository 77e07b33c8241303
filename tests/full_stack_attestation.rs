//! End-to-end integration of the attestation phase with the authentication
//! layer: protocol designer → CAS → enclave provisioning → shielded messaging
//! between attested replicas (paper Figure 1, phases A and B).

use rand::SeedableRng;
use recipe::attest::{
    derive_channel_keys, run_remote_attestation, ClusterConfig, ConfigAndAttestService,
    SecretBundle,
};
use recipe::core::{AuthLayer, Membership, VerifyOutcome};
use recipe::crypto::{KeyMaterial, MacKey, SigningKeyPair};
use recipe::net::ReqType;
use recipe::tee::{Enclave, EnclaveConfig, EnclaveId};
use recipe_net::NodeId;

const CODE_IDENTITY: &str = "recipe-replica-v1";

fn launch(id: u64) -> Enclave {
    Enclave::launch(EnclaveId(id), EnclaveConfig::new(CODE_IDENTITY, id))
}

/// Attests `n` enclaves against a CAS, provisions each with its channel keys
/// and the cluster cipher key, and wraps it in an authentication layer.
/// Returns the layers and how many channel keys each attestation installed.
fn attested_cluster(n: usize, confidential: bool) -> (Vec<AuthLayer>, Vec<usize>) {
    let master = MacKey::from_bytes([0x77; 32]);
    let members: Vec<u64> = (0..n as u64).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut layers = Vec::new();
    let mut installed = Vec::new();
    for id in 0..n as u64 {
        let mut enclave = launch(id);
        let mut cas = ConfigAndAttestService::new(vec![(id, enclave.platform_vendor_key())], id);
        let bundle = SecretBundle {
            node_id: id,
            signing_seed: SigningKeyPair::generate_from_seed(900 + id)
                .expose_secret()
                .to_vec(),
            channel_keys: derive_channel_keys(&master, &members, id),
            cipher_key: Some(vec![0x11; 32]),
            config: ClusterConfig::for_replicas(n, (n - 1) / 2, CODE_IDENTITY),
        };
        let outcome = run_remote_attestation(&mut cas, &mut enclave, &bundle, &mut rng)
            .expect("attestation succeeds");
        installed.push(outcome.installed_channels.len());
        layers.push(AuthLayer::new(NodeId(id), enclave, confidential));
    }
    (layers, installed)
}

#[test]
fn attested_nodes_exchange_verified_messages() {
    let (mut nodes, _) = attested_cluster(3, false);
    let shielded = nodes[0]
        .shield(NodeId(2), ReqType::REPLICATE.0, b"append index=1 key=a")
        .unwrap();
    match nodes[2].verify(&shielded) {
        VerifyOutcome::Accept { payload, .. } => assert_eq!(payload, b"append index=1 key=a"),
        other => panic!("expected Accept, got {other:?}"),
    }
    // A replica that the message was not addressed to rejects it.
    assert_ne!(
        nodes[1].verify(&shielded),
        VerifyOutcome::Accept {
            kind: ReqType::REPLICATE.0,
            payload: b"append index=1 key=a".to_vec(),
            counter: 1
        }
    );
}

#[test]
fn five_replica_cluster_attests_and_replicates() {
    let (mut nodes, installed) = attested_cluster(5, false);
    // Every replica holds the keys of both directions of its 4 channels.
    assert_eq!(installed, vec![8; 5]);
    assert_eq!(Membership::of_size(5, 2).quorum(), 3);
    // Fan a message out from the coordinator to every follower.
    for dst in 1..5u64 {
        let msg = nodes[0]
            .shield(NodeId(dst), 1, format!("entry for {dst}").as_bytes())
            .unwrap();
        assert!(nodes[dst as usize].verify(&msg).is_accept());
    }
    // An enclave that skipped attestation holds no channel key and cannot
    // shield anything.
    let mut unattested = AuthLayer::new(NodeId(0), launch(0), false);
    assert!(unattested.shield(NodeId(1), 1, b"entry").is_err());
}

#[test]
fn confidential_cluster_hides_payloads_end_to_end() {
    let (mut nodes, _) = attested_cluster(3, true);
    let msg = nodes[0].shield(NodeId(1), 1, b"ssn=123-45-6789").unwrap();
    assert!(msg.confidential);
    assert!(!msg.payload.windows(3).any(|w| w == b"ssn"));
    assert!(nodes[1].verify(&msg).is_accept());
}

#[test]
fn replay_across_nodes_is_rejected_once_accepted() {
    let (mut nodes, _) = attested_cluster(3, false);
    let msg = nodes[0].shield(NodeId(1), 1, b"only once").unwrap();
    assert!(nodes[1].verify(&msg).is_accept());
    assert!(matches!(
        nodes[1].verify(&msg),
        VerifyOutcome::Replay { .. }
    ));
}
