//! # fle-core — fair leader election for rational agents
//!
//! Executable reproduction of the protocols and game-theoretic machinery of
//! **Yifrach & Mansour, "Fair Leader Election for Rational Agents in
//! Asynchronous Rings and Networks" (PODC 2018)**.
//!
//! A *fair leader election* (FLE) protocol elects every processor with
//! probability exactly `1/n`. The paper studies how large a coalition of
//! *rational* adversaries — processors that prefer any valid leader over a
//! failed protocol, but want to bias who wins — a protocol can tolerate on
//! an asynchronous unidirectional ring:
//!
//! * [`protocols::BasicLead`] falls to a single adversary (Appendix B).
//! * [`protocols::ALeadUni`] (Abraham et al.) resists `O(n^{1/4})`
//!   coalitions but falls to `2·n^{1/3}` well-placed adversaries
//!   (Sections 3–5).
//! * [`protocols::PhaseAsyncLead`] — the paper's contribution — resists
//!   `O(√n)` coalitions, tight up to constants (Section 6).
//!
//! This crate provides the protocols, the coalition/honest-segment layout
//! algebra ([`Coalition`], Figure 1), the rational-utility and bias
//! definitions ([`game`]), the keyed random function standing in for the
//! paper's random `f` ([`RandomFn`]), and the FLE ⇄ coin-toss reductions
//! ([`reductions`], Section 8). The adversarial deviations live in the
//! `fle-attacks` crate; general-topology impossibility machinery in
//! `fle-topology`.
//!
//! ## Quick start
//!
//! ```
//! use fle_core::protocols::{FleProtocol, PhaseAsyncLead};
//!
//! // A 16-processor ring, seeded deterministically.
//! let protocol = PhaseAsyncLead::new(16).with_seed(2024).with_fn_key(7);
//! let execution = protocol.run_honest();
//! let leader = execution.outcome.elected().expect("honest runs succeed");
//! assert!(leader < 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalition;
pub mod consensus;
pub mod exact;
pub mod game;
pub mod protocols;
mod randfn;
pub mod reductions;
pub mod renaming;

pub use coalition::{Coalition, CoalitionError, HonestSegment};
pub use randfn::{EvalTable, PhaseParams, RandomFn};

/// The node substitutions an adversarial deviation installs: pairs of
/// ring position and deviating behaviour, consumed by
/// [`protocols::RingProtocol::run_with`].
pub type DeviationNodes<M> = Vec<(NodeId, Box<dyn Node<M>>)>;

// Re-export the simulator types that appear in this crate's public API so
// downstream users need only one import root.
pub use ring_sim::{Execution, FailReason, Node, NodeId, Outcome};
