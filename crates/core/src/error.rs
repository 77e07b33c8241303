//! Error type for the Recipe library.

use recipe_tee::TeeError;
use std::fmt;

/// Errors surfaced by the Recipe library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecipeError {
    /// A message failed authentication (bad MAC/signature) and was dropped.
    AuthenticationFailed,
    /// A message carried a stale counter (replay) and was dropped.
    ReplayDetected {
        /// The channel on which the replay was observed.
        channel: String,
        /// Counter carried by the rejected message.
        received: u64,
        /// Last counter already accepted on that channel.
        last_accepted: u64,
    },
    /// A message referenced a view other than the current one.
    WrongView {
        /// View in the message.
        got: u64,
        /// Replica's current view.
        current: u64,
    },
    /// The operation requires the node to be the current leader/coordinator.
    NotLeader {
        /// The node the caller should redirect to, if known.
        leader_hint: Option<u64>,
    },
    /// Underlying TEE failure.
    Tee(TeeError),
    /// Message could not be decoded.
    Malformed(&'static str),
}

impl fmt::Display for RecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecipeError::AuthenticationFailed => write!(f, "message authentication failed"),
            RecipeError::ReplayDetected {
                channel,
                received,
                last_accepted,
            } => write!(
                f,
                "replay detected on {channel}: counter {received} <= last accepted {last_accepted}"
            ),
            RecipeError::WrongView { got, current } => {
                write!(f, "message for view {got} but current view is {current}")
            }
            RecipeError::NotLeader { leader_hint } => match leader_hint {
                Some(leader) => write!(f, "not the leader; redirect to node {leader}"),
                None => write!(f, "not the leader"),
            },
            RecipeError::Tee(err) => write!(f, "TEE error: {err}"),
            RecipeError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for RecipeError {}

impl From<TeeError> for RecipeError {
    fn from(err: TeeError) -> Self {
        RecipeError::Tee(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let err: RecipeError = TeeError::EnclaveCrashed.into();
        assert!(err.to_string().contains("TEE"));
        let err = RecipeError::ReplayDetected {
            channel: "cq:1->2".into(),
            received: 4,
            last_accepted: 9,
        };
        assert!(err.to_string().contains("cq:1->2"));
        assert!(RecipeError::NotLeader {
            leader_hint: Some(2)
        }
        .to_string()
        .contains('2'));
    }
}
