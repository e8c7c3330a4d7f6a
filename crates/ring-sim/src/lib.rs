//! # ring-sim — asynchronous message-passing simulator
//!
//! A deterministic, single-threaded discrete-event simulator for the
//! asynchronous LOCAL computation model used by Yifrach & Mansour
//! (PODC 2018): processors are nodes on a communication digraph, they
//! exchange messages of arbitrary size over FIFO links, computation happens
//! only upon wake-up or upon receiving a message, and message delivery is
//! controlled by an *oblivious* scheduler (one that never inspects message
//! contents).
//!
//! The simulator is the substrate for every protocol, attack and experiment
//! in this workspace:
//!
//! * [`Topology`] describes the digraph (ring, tree, arbitrary).
//! * [`Node`] is the behaviour of one processor; [`Ctx`] is its handle for
//!   sending messages and terminating with an output.
//! * [`Scheduler`] decides the interleaving of deliveries (FIFO, LIFO,
//!   seeded-random), always respecting per-link FIFO order.
//! * [`SimBuilder`] wires nodes, topology, wake-ups and scheduler together
//!   and [`SimBuilder::run`] produces an [`Execution`] with the global
//!   [`Outcome`] and per-node statistics.
//! * [`Engine`] is the reusable batch-trial variant of the same run loop:
//!   it keeps the per-topology working set alive across trials (used by
//!   `fle-harness` to run thousands of trials per second per worker). One
//!   event loop runs every trial over one of three queues: a global
//!   FIFO's fused event stream, the plain split path of every other
//!   oblivious schedule ([`Token`]s through the scheduler and one FIFO
//!   queue per link), or the timed heap ([`TimedScheduler`]).
//! * [`EnumerativeScheduler`] and [`for_each_schedule`] exhaustively
//!   enumerate every oblivious schedule of a small instance — a model
//!   checker for schedule-independence claims.
//! * [`Probe`] observes events for instrumentation (e.g. the
//!   "m-synchronized" measurements of the paper's Section 5/6).
//! * [`FaultPlan`] injects deterministic crash-stop faults (with optional
//!   recovery) drawn per trial from a dedicated seed stream — see the
//!   [`fault`] module.
//!
//! ## Example
//!
//! A two-node ping-pong where node 0 wakes up, sends a counter around the
//! ring until it reaches 3, and both nodes elect the final value:
//!
//! ```
//! use ring_sim::{Ctx, Node, NodeId, Outcome, SimBuilder, Topology};
//!
//! struct PingPong { last: u64 }
//!
//! impl Node<u64> for PingPong {
//!     fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         ctx.send(0);
//!     }
//!     fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
//!         self.last = msg;
//!         if msg >= 3 {
//!             ctx.terminate(Some(msg));
//!         } else {
//!             ctx.send(msg + 1);
//!             if msg + 1 >= 3 {
//!                 ctx.terminate(Some(3));
//!             }
//!         }
//!     }
//! }
//!
//! let exec = SimBuilder::new(Topology::ring(2))
//!     .node(0, PingPong { last: 0 })
//!     .node(1, PingPong { last: 0 })
//!     .wake(0)
//!     .run();
//! assert_eq!(exec.outcome, Outcome::Elected(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod batch;
mod engine;
pub mod fault;
mod node;
mod outcome;
mod probe;
pub mod rng;
mod scheduler;
pub mod sync;
mod timed;
mod topology;

pub use arena::{ArenaBacked, TrialArena};
pub use engine::{default_step_limit, Engine, Execution, Schedule, SimBuilder, Stats};
pub use fault::{CrashFault, CrashInstant, FaultConfig, FaultPlan, FAULT_STREAM_SALT};
pub use node::{Ctx, FnNode, Node};
pub use outcome::{FailReason, Outcome};
pub use probe::{DeliveryCountProbe, MessageLogProbe, NoProbe, Probe, SyncGapProbe};
pub use scheduler::{
    for_each_schedule, EnumerativeScheduler, FifoScheduler, LifoScheduler, RandomScheduler,
    ScheduleSweep, Scheduler, Token,
};
pub use timed::{LatencySpec, LinkProfile, TimedNetConfig, TimedScheduler, NET_STREAM_SALT};
pub use topology::{EdgeId, NodeId, Topology, TopologyError};
