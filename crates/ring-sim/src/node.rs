//! The [`Node`] behaviour trait and the [`Ctx`] action handle.

use crate::topology::NodeId;

/// Behaviour of a single processor.
///
/// A node is activated exactly once per wake-up or message delivery. During
/// an activation it may send any number of messages and may terminate with
/// an output (paper, Section 2: "When a processor receives a message, it may
/// send zero or more messages and afterwards it may also select some output
/// and terminate"). After terminating, a node is never activated again;
/// messages delivered to it are counted and dropped.
///
/// Implementations are *strategies* in the paper's game-theoretic sense:
/// the honest protocol assigns one strategy to every node, an adversarial
/// deviation substitutes arbitrary strategies on the coalition.
pub trait Node<M> {
    /// Called when the node wakes up spontaneously (only for nodes listed
    /// in [`crate::SimBuilder::wake`]).
    fn on_wake(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message arrives on an incoming link.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>);
}

/// A [`Node`] built from a closure, convenient for tests and small
/// experiments.
///
/// The closure receives `(from, msg, ctx)` on every delivery; wake-up calls
/// the optional wake closure.
///
/// # Examples
///
/// ```
/// use ring_sim::{FnNode, Outcome, SimBuilder, Topology};
///
/// let echo = |_from: usize, msg: u64, ctx: &mut ring_sim::Ctx<'_, u64>| {
///     ctx.terminate(Some(msg));
/// };
/// let exec = SimBuilder::new(Topology::ring(2))
///     .node(0, FnNode::new(echo).on_wake(|ctx| ctx.send(7)))
///     .node(1, FnNode::new(echo))
///     .wake(0)
///     .run();
/// // node 0 never receives anything, so the run deadlocks without
/// // unanimous termination:
/// assert!(matches!(exec.outcome, Outcome::Fail(_)));
/// ```
pub struct FnNode<M, F, W = fn(&mut Ctx<'_, M>)>
where
    F: FnMut(NodeId, M, &mut Ctx<'_, M>),
    W: FnMut(&mut Ctx<'_, M>),
{
    on_message: F,
    on_wake: Option<W>,
    _marker: std::marker::PhantomData<fn(M)>,
}

impl<M, F> FnNode<M, F>
where
    F: FnMut(NodeId, M, &mut Ctx<'_, M>),
{
    /// Creates a node that handles messages with `f` and ignores wake-ups.
    pub fn new(f: F) -> Self {
        FnNode {
            on_message: f,
            on_wake: None,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M, F, W> FnNode<M, F, W>
where
    F: FnMut(NodeId, M, &mut Ctx<'_, M>),
    W: FnMut(&mut Ctx<'_, M>),
{
    /// Adds a wake-up handler.
    pub fn on_wake<W2>(self, w: W2) -> FnNode<M, F, W2>
    where
        W2: FnMut(&mut Ctx<'_, M>),
    {
        FnNode {
            on_message: self.on_message,
            on_wake: Some(w),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M, F, W> Node<M> for FnNode<M, F, W>
where
    F: FnMut(NodeId, M, &mut Ctx<'_, M>),
    W: FnMut(&mut Ctx<'_, M>),
{
    fn on_wake(&mut self, ctx: &mut Ctx<'_, M>) {
        if let Some(w) = &mut self.on_wake {
            w(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        (self.on_message)(from, msg, ctx);
    }
}

/// Boxed behaviours forward to their contents, so heterogeneous
/// `Vec<Box<dyn Node<M>>>` mixes run through the same engine loop as
/// monomorphized node vectors ([`crate::Engine::run_into`]).
impl<M, N: Node<M> + ?Sized> Node<M> for Box<N> {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, M>) {
        (**self).on_wake(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        (**self).on_message(from, msg, ctx);
    }
}

/// The engine's reusable per-activation send buffer.
///
/// A node's sends are buffered during its activation and applied by the
/// engine afterwards. On a unidirectional ring an activation sends at most
/// two messages (e.g. a data plus a validation message), so the first two
/// sends land in inline slots; only deeper bursts touch the spill vector,
/// whose capacity is retained across activations and trials. One `SendBuf`
/// lives inside each [`crate::Engine`], so steady-state activations
/// allocate nothing.
#[derive(Debug)]
pub(crate) struct SendBuf<M> {
    first: Option<(NodeId, M)>,
    second: Option<(NodeId, M)>,
    spill: Vec<(NodeId, M)>,
}

impl<M> Default for SendBuf<M> {
    fn default() -> Self {
        SendBuf {
            first: None,
            second: None,
            spill: Vec::new(),
        }
    }
}

impl<M> SendBuf<M> {
    /// Buffered sends, in push order.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.first.is_some() as usize + self.second.is_some() as usize + self.spill.len()
    }

    #[inline]
    pub(crate) fn push(&mut self, to: NodeId, msg: M) {
        if self.first.is_none() {
            self.first = Some((to, msg));
        } else if self.second.is_none() {
            self.second = Some((to, msg));
        } else {
            self.spill.push((to, msg));
        }
    }

    /// Applies `f` to every buffered send in push order and empties the
    /// buffer, keeping the spill capacity.
    #[inline]
    pub(crate) fn drain_with(&mut self, mut f: impl FnMut(NodeId, M)) {
        if let Some((to, msg)) = self.first.take() {
            f(to, msg);
        }
        if let Some((to, msg)) = self.second.take() {
            f(to, msg);
        }
        for (to, msg) in self.spill.drain(..) {
            f(to, msg);
        }
    }

    /// Drops all buffered sends, keeping the spill capacity.
    pub(crate) fn clear(&mut self) {
        self.first = None;
        self.second = None;
        self.spill.clear();
    }
}

/// Handle given to a node during an activation.
///
/// Lets the node send messages along its outgoing links and terminate with
/// an output. All actions are buffered and applied by the engine after the
/// activation returns; the send buffer is the engine's persistent
/// `SendBuf`, so an activation allocates nothing.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) out_neighbors: &'a [NodeId],
    pub(crate) sends: &'a mut SendBuf<M>,
    pub(crate) output: Option<Option<u64>>,
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn new(me: NodeId, out_neighbors: &'a [NodeId], sends: &'a mut SendBuf<M>) -> Self {
        Ctx {
            me,
            out_neighbors,
            sends,
            output: None,
        }
    }

    /// The id of the node being activated.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The node's successors, in edge-insertion order.
    #[inline]
    pub fn out_neighbors(&self) -> &[NodeId] {
        self.out_neighbors
    }

    /// Sends `msg` on the node's unique outgoing link.
    ///
    /// This is the natural primitive on a unidirectional ring.
    ///
    /// # Panics
    ///
    /// Panics if the node does not have exactly one outgoing link; use
    /// [`Ctx::send_to`] on general topologies.
    #[inline]
    pub fn send(&mut self, msg: M) {
        assert_eq!(
            self.out_neighbors.len(),
            1,
            "Ctx::send requires exactly one outgoing link (node {} has {}); use send_to",
            self.me,
            self.out_neighbors.len()
        );
        let to = self.out_neighbors[0];
        self.sends.push(to, msg);
    }

    /// Sends `msg` to the neighbor `to`.
    ///
    /// # Panics
    ///
    /// Panics if there is no edge from this node to `to` — sending on a
    /// non-existent link is a programming error, not a runtime condition.
    #[inline]
    pub fn send_to(&mut self, to: NodeId, msg: M) {
        assert!(
            self.out_neighbors.contains(&to),
            "node {} has no outgoing link to {}",
            self.me,
            to
        );
        self.sends.push(to, msg);
    }

    /// Terminates this node with the given output.
    ///
    /// `Some(v)` is a regular output, `None` is the abort output `⊥`.
    /// Sends buffered earlier in the same activation are still delivered;
    /// the node is never activated again afterwards. Calling `terminate`
    /// twice in one activation keeps the first output.
    #[inline]
    pub fn terminate(&mut self, output: Option<u64>) {
        if self.output.is_none() {
            self.output = Some(output);
        }
    }

    /// Terminates with the abort output `⊥` (the paper's punishment for a
    /// detected deviation).
    pub fn abort(&mut self) {
        self.terminate(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(buf: &mut SendBuf<u64>) -> Vec<(NodeId, u64)> {
        let mut out = Vec::new();
        buf.drain_with(|to, msg| out.push((to, msg)));
        out
    }

    #[test]
    fn ctx_buffers_sends_in_order() {
        let neigh = [1usize];
        let mut buf = SendBuf::default();
        let mut ctx: Ctx<'_, u64> = Ctx::new(0, &neigh, &mut buf);
        ctx.send(10);
        ctx.send(20);
        assert_eq!(drained(&mut buf), vec![(1, 10), (1, 20)]);
    }

    #[test]
    fn send_buf_spills_past_two_in_order() {
        let mut buf = SendBuf::default();
        for v in 0..5u64 {
            buf.push(1, v);
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(
            drained(&mut buf),
            vec![(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
        );
        assert_eq!(buf.len(), 0);
        // The drained buffer is reusable: inline slots refill first.
        buf.push(2, 9);
        assert_eq!(drained(&mut buf), vec![(2, 9)]);
        buf.push(2, 1);
        buf.clear();
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn terminate_keeps_first_output() {
        let neigh = [1usize];
        let mut buf = SendBuf::default();
        let mut ctx: Ctx<'_, u64> = Ctx::new(0, &neigh, &mut buf);
        ctx.terminate(Some(3));
        ctx.terminate(Some(9));
        assert_eq!(ctx.output, Some(Some(3)));
    }

    #[test]
    fn abort_is_none_output() {
        let neigh = [1usize];
        let mut buf = SendBuf::default();
        let mut ctx: Ctx<'_, u64> = Ctx::new(0, &neigh, &mut buf);
        ctx.abort();
        assert_eq!(ctx.output, Some(None));
    }

    #[test]
    #[should_panic(expected = "no outgoing link")]
    fn send_to_nonexistent_link_panics() {
        let neigh = [1usize];
        let mut buf = SendBuf::default();
        let mut ctx: Ctx<'_, u64> = Ctx::new(0, &neigh, &mut buf);
        ctx.send_to(2, 1);
    }
}
