//! **Recipe-lib** — the paper's primary contribution.
//!
//! Recipe transforms an unmodified Crash-Fault-Tolerant (CFT) replication protocol
//! into one that tolerates Byzantine behaviour of the untrusted infrastructure, by
//! layering two TEE-assisted mechanisms under the protocol (paper §1.2, §3):
//!
//! 1. **Transferable authentication** — every message carries a MAC (or signature)
//!    produced inside the sender's attested enclave; receivers verify it inside
//!    their own enclave. Only attested nodes ever hold the keys, so a valid
//!    authenticator implies the sender runs the correct protocol code
//!    ([`auth::AuthLayer`]).
//! 2. **Non-equivocation** — every channel carries a trusted, monotonically
//!    increasing counter assigned inside the sender's enclave; receivers accept a
//!    message only if its counter is fresh. Replays and conflicting statements for
//!    the same slot become detectable ([`auth::VerifyOutcome`], Algorithm 1).
//!
//! On top of these layers the crate provides the pieces every transformed protocol
//! shares: the shielded message and frame formats ([`message::ShieldedMessage`],
//! [`message::BatchFrame`], [`message::TxnFrame`]), the one binary wire codec
//! ([`wire::Wire`]), replica-group membership ([`membership::Membership`]) and the
//! per-group confidentiality policy ([`policy::ConfidentialityMode`]). The
//! replicas themselves live in `recipe-protocols` and `recipe-bft` and run on the
//! `recipe-sim` simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod error;
pub mod membership;
pub mod message;
pub mod policy;
pub mod wire;

pub use auth::{AuthLayer, BatchVerifyOutcome, TxnVerifyOutcome, VerifyOutcome};
pub use error::RecipeError;
pub use membership::Membership;
pub use message::{
    BatchFrame, BatchOp, ClientReply, ClientRequest, Operation, Request, SequenceTuple,
    ShieldedMessage, TxnBody, TxnFrame,
};
pub use policy::ConfidentialityMode;
pub use wire::{FrameTag, Wire};
