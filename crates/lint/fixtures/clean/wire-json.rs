//! The sanctioned form: the message encodes itself with the one wire codec.
pub fn send_vote(shield: &mut ProtocolShield, dst: NodeId, vote: &Vote) -> Vec<u8> {
    shield.wrap(dst, 1, &vote.to_wire())
}
