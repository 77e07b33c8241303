//! Networking substrate for Recipe.
//!
//! The paper builds its communication layer on eRPC over RDMA/DPDK, because kernel
//! sockets are prohibitively expensive inside TEEs (paper §A.2 Q1, §A.3 "Recipe
//! networking"). This reproduction moves every message through the discrete-event
//! simulator in `recipe-sim`; this crate supplies the pieces it and the protocols
//! share:
//!
//! * [`types`] — message framing: [`types::MsgBuf`], [`types::WireMessage`],
//!   request types, node and channel identifiers.
//! * [`faults`] — the Byzantine network adversary: drop, duplicate, reorder, delay,
//!   tamper and replay injection applied to wire messages, plus crash schedules.
//! * [`cost`] — the calibrated transport cost model (kernel sockets vs direct I/O,
//!   native vs TEE) used to regenerate Figure 6b and to drive the simulator's
//!   virtual clock.
//!
//! No real NIC is touched: per the README's "Design substitutions", RDMA/DPDK
//! hardware is replaced by the simulator's in-memory network plus a cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod faults;
pub mod types;

pub use cost::{ExecMode, NetCostModel, Transport};
pub use faults::{CrashEntry, CrashPlan, FaultDecision, FaultPlan, NetworkFaultInjector};
pub use types::{ChannelId, MsgBuf, NodeId, ReqType, WireMessage};
