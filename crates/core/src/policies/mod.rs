//! Concrete page-replacement policies.
//!
//! The structs are crate-private: the outside world names a policy by its
//! [`PolicyKind`](crate::PolicyKind) and drives it through
//! [`ReplacementPolicy`](crate::ReplacementPolicy).

mod arena;
mod asb;
mod basic;
mod lru_k;
mod slru;
mod two_q;

pub use arena::{ArenaParams, ArenaState, ExpertState, Roster};
pub use asb::AsbParams;

pub(crate) use arena::ArenaPolicy;
pub(crate) use asb::AsbPolicy;
pub(crate) use basic::{ClockPolicy, FifoPolicy, LruPolicy};
pub(crate) use lru_k::LruKPolicy;
pub(crate) use slru::{Rank, SlruPolicy};
pub(crate) use two_q::TwoQPolicy;
