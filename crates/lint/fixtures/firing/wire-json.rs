// expect-finding: wire-json
//! A second codec on the wire: the protocol message goes out as JSON
//! instead of through the binary `Wire` encoding every receiver decodes.
pub fn send_vote(shield: &mut ProtocolShield, dst: NodeId, vote: &Vote) -> Vec<u8> {
    let payload = serde_json::to_vec(vote).unwrap_or_default();
    shield.wrap(dst, 1, &payload)
}
