//! One transition per honest protocol, run at one lane or at `k`.
//!
//! `Basic-LEAD`, `A-LEADuni` and the phase pair each write their message
//! handling once, generic over two things:
//!
//! * the node's registers ([`Reg`]), one `u64` per lane: `[u64; 1]` for
//!   one trial on the scalar engine, `Vec<u64>` for `k` trials in
//!   lockstep lanes;
//! * the activation's [`Effects`]: the payload slots of a send, the
//!   output slots of a termination, and `fail`, which a detection check
//!   calls when it does not hold.
//!
//! The scalar engine runs a node at one lane through [`OneLane`], a small
//! adapter over [`Ctx`]: each send becomes one message of the protocol's
//! type, and `fail` is the abort `⊥` ([`Ctx::abort`]), which keeps the
//! sends the activation already made. The lockstep engine runs
//! the same node at `k` lanes over [`LaneCtx`] itself: a check holds only
//! if it holds in every lane, and `fail` diverges the group, whose trials
//! then rerun on the scalar engine. Control flow is shared by the lanes
//! (data only feeds the checks), so a lane's [`Execution`] is its scalar
//! trial's bit for bit.
//!
//! [`Execution`]: ring_sim::Execution

use ring_sim::batch::LaneCtx;
use ring_sim::Ctx;

/// A node register: one `u64` per lane.
pub trait Reg: AsRef<[u64]> + AsMut<[u64]> + Default {
    /// Sets the number of lanes, leaving their values unspecified.
    fn set_lanes(&mut self, lanes: usize);
}

impl Reg for [u64; 1] {
    #[inline(always)]
    fn set_lanes(&mut self, lanes: usize) {
        debug_assert_eq!(lanes, 1, "a one-lane register");
    }
}

impl Reg for Vec<u64> {
    fn set_lanes(&mut self, lanes: usize) {
        // Exactly `lanes` on first use: a group's bytes are budgeted per lane.
        self.reserve_exact(lanes.saturating_sub(self.len()));
        self.resize(lanes, 0);
    }
}

/// What one activation of a transition may do, in every lane at once.
pub trait Effects {
    /// Sends one `tag`-tagged message to the ring successor, whose payload
    /// slots, one per lane, `fill` fills.
    fn send(&mut self, tag: u8, fill: impl FnOnce(&mut [u64]));

    /// Terminates the node with the outputs `fill` writes into its output
    /// slots, one per lane.
    fn terminate(&mut self, fill: impl FnOnce(&mut [u64]));

    /// A detection check failed in some lane: the scalar abort at one
    /// lane, a divergence of the group at `k`.
    fn fail(&mut self);
}

impl Effects for LaneCtx<'_> {
    #[inline(always)]
    fn send(&mut self, tag: u8, fill: impl FnOnce(&mut [u64])) {
        fill(LaneCtx::send(self, tag));
    }

    #[inline(always)]
    fn terminate(&mut self, fill: impl FnOnce(&mut [u64])) {
        fill(LaneCtx::terminate(self));
    }

    fn fail(&mut self) {
        self.diverge();
    }
}

/// A protocol message as the transitions see it: a tag and one `u64`.
pub(crate) trait LaneMsg {
    /// The message's tag and payload.
    fn split(self) -> (u8, u64);

    /// The message with tag `tag` carrying `x`.
    fn join(tag: u8, x: u64) -> Self;
}

/// `Basic-LEAD` and `A-LEADuni` send bare values, all with tag 0.
impl LaneMsg for u64 {
    #[inline(always)]
    fn split(self) -> (u8, u64) {
        (0, self)
    }

    #[inline(always)]
    fn join(_tag: u8, x: u64) -> u64 {
        x
    }
}

/// The one-lane [`Effects`] over a scalar activation's [`Ctx`]: a send
/// is one message of the protocol's type, the output is the lane's value.
pub(crate) struct OneLane<'c, 'a, M>(pub(crate) &'c mut Ctx<'a, M>);

impl<M: LaneMsg> Effects for OneLane<'_, '_, M> {
    #[inline(always)]
    fn send(&mut self, tag: u8, fill: impl FnOnce(&mut [u64])) {
        let mut slot = [0];
        fill(&mut slot);
        self.0.send(M::join(tag, slot[0]));
    }

    #[inline(always)]
    fn terminate(&mut self, fill: impl FnOnce(&mut [u64])) {
        let mut output = [0];
        fill(&mut output);
        self.0.terminate(Some(output[0]));
    }

    fn fail(&mut self) {
        self.0.abort();
    }
}

/// Implements the scalar [`Node`](ring_sim::Node) for a node's one-lane
/// form `$one` and [`LockstepNode`](ring_sim::batch::LockstepNode) for its
/// `k`-lane form `$lanes`: both run the node's one `wake` and `receive`.
macro_rules! one_and_k_lanes {
    ($msg:ty, $one:ty, $lanes:ty) => {
        impl ring_sim::Node<$msg> for $one {
            fn on_wake(&mut self, ctx: &mut ring_sim::Ctx<'_, $msg>) {
                self.wake(&mut $crate::protocols::lanes::OneLane(ctx));
            }

            #[inline]
            fn on_message(
                &mut self,
                _from: ring_sim::NodeId,
                msg: $msg,
                ctx: &mut ring_sim::Ctx<'_, $msg>,
            ) {
                let (tag, x) = $crate::protocols::lanes::LaneMsg::split(msg);
                self.receive(tag, &[x], &mut $crate::protocols::lanes::OneLane(ctx));
            }
        }

        impl ring_sim::batch::LockstepNode for $lanes {
            fn on_wake(&mut self, ctx: &mut ring_sim::batch::LaneCtx<'_>) {
                self.wake(ctx);
            }

            fn on_message(
                &mut self,
                tag: u8,
                lanes: &[u64],
                ctx: &mut ring_sim::batch::LaneCtx<'_>,
            ) {
                self.receive(tag, lanes, ctx);
            }
        }
    };
}

pub(crate) use one_and_k_lanes;
