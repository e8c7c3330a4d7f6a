//! Oblivious message schedulers.
//!
//! A scheduler owns a multiset of [`Token`]s, each representing one pending
//! wake-up or one undelivered message on some link. The engine pushes a
//! token whenever a message is sent (or a wake-up is queued) and pops one
//! token per step. Because a token only names a *link*, never message
//! contents, every scheduler here is oblivious in the paper's sense
//! (Section 2: "delivered asynchronously along the links by some oblivious
//! message schedule which does not depend on the messages' values").
//! Per-link FIFO order is enforced by the engine itself — popping a token
//! for link `e` always delivers the *front* message of `e`'s queue — so a
//! scheduler can reorder tokens arbitrarily without violating the model.

use crate::rng::SplitMix64;
use crate::topology::{EdgeId, NodeId};
use std::collections::VecDeque;

/// One schedulable unit: a spontaneous wake-up or a pending delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    /// Wake node `NodeId` spontaneously.
    Wake(NodeId),
    /// Deliver the front message of link `EdgeId`.
    Deliver(EdgeId),
}

/// The scheduling policy interface.
///
/// Implementations must eventually pop every pushed token (the engine
/// relies on this for its deadlock/termination analysis); all provided
/// schedulers do.
pub trait Scheduler {
    /// Adds a pending token.
    fn push(&mut self, token: Token);

    /// Removes and returns the next token, or `None` when none are pending.
    fn pop(&mut self) -> Option<Token>;

    /// Number of pending tokens.
    fn len(&self) -> usize;

    /// `true` when no tokens are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` **only if** this scheduler pops tokens in exactly global
    /// push order (a pure global FIFO), with no other observable state.
    ///
    /// The engine uses this as a licence for its fused fast path: under a
    /// global-FIFO schedule the `k`-th popped `Deliver` token always
    /// delivers the `k`-th sent message, so the token queue and the
    /// per-link message queues collapse into **one** contiguous event
    /// stream — halving the queue traffic per delivery. Executions are
    /// bit-identical to the split path (pinned by differential tests
    /// against a FIFO scheduler that keeps the default `false` and
    /// therefore drives the split path with the same schedule).
    ///
    /// The default is `false`; only [`FifoScheduler`] overrides it.
    /// Returning `true` from a scheduler that reorders tokens would
    /// silently change executions — leave it alone unless your scheduler
    /// is literally a FIFO.
    fn is_global_fifo(&self) -> bool {
        false
    }

    /// Discards all pending tokens, retaining backing storage where the
    /// implementation can. The engine clears the scheduler at the start of
    /// every run, so one scheduler can be reused across a whole batch of
    /// trials without reallocating its token storage.
    ///
    /// The default implementation pops until empty; implementations with
    /// clearable storage override it.
    fn clear(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Delivers in global send order (a breadth-first, maximally fair schedule).
///
/// This is the default scheduler. On a unidirectional ring every oblivious
/// schedule yields the same outcome, so the choice only matters for general
/// topologies and for performance: the engine runs a global FIFO on its
/// fused event stream, so this queue itself stays idle there.
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler {
    queue: VecDeque<Token>,
}

impl FifoScheduler {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn push(&mut self, token: Token) {
        self.queue.push_back(token);
    }

    fn pop(&mut self) -> Option<Token> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    /// The licence for the engine's fused token+message fast path — see
    /// [`Scheduler::is_global_fifo`].
    fn is_global_fifo(&self) -> bool {
        true
    }

    fn clear(&mut self) {
        self.queue.clear();
    }
}

/// Delivers the most recently sent message first (a depth-first schedule —
/// an adversarially "bursty" but still oblivious ordering).
#[derive(Debug, Default, Clone)]
pub struct LifoScheduler {
    stack: Vec<Token>,
}

impl LifoScheduler {
    /// Creates an empty LIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LifoScheduler {
    fn push(&mut self, token: Token) {
        self.stack.push(token);
    }

    fn pop(&mut self) -> Option<Token> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn clear(&mut self) {
        self.stack.clear();
    }
}

/// Delivers a uniformly random pending token, deterministically derived
/// from a seed.
///
/// Useful for property-testing schedule independence: on the ring, the
/// outcome must not depend on the seed.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    tokens: Vec<Token>,
    rng: SplitMix64,
}

impl RandomScheduler {
    /// Creates an empty random scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            tokens: Vec::new(),
            rng: SplitMix64::new(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn push(&mut self, token: Token) {
        self.tokens.push(token);
    }

    fn pop(&mut self) -> Option<Token> {
        if self.tokens.is_empty() {
            return None;
        }
        let i = (self.rng.next_u64() % self.tokens.len() as u64) as usize;
        Some(self.tokens.swap_remove(i))
    }

    fn len(&self) -> usize {
        self.tokens.len()
    }

    fn clear(&mut self) {
        self.tokens.clear();
    }
}

/// A scheduler driven by an explicit choice script, for exhaustively
/// enumerating oblivious schedules (a small model checker for the
/// [`Scheduler`] contract).
///
/// Each [`Scheduler::pop`] chooses among the *distinct* pending tokens in
/// first-pushed order: entry `i` of the script picks the `script[i]`-th
/// distinct token at the `i`-th pop; past the end of the script the first
/// distinct token is taken, and every choice point's arity is recorded.
/// Two pending `Deliver(e)` tokens for the same link are interchangeable
/// (popping either delivers the front message of `e`'s FIFO queue), so
/// collapsing duplicates prunes the schedule tree without losing any
/// distinct execution.
///
/// Handles are shared: [`Clone`] yields a second view of the same state,
/// so a driver can keep one handle, give the other to
/// [`crate::SimBuilder::scheduler`], and read the recorded
/// [`trace`](EnumerativeScheduler::trace) after the run. The state is
/// intentionally `Rc`-backed (not thread-safe): enumeration is a
/// single-threaded, depth-first sweep.
///
/// Use [`for_each_schedule`] to drive a full enumeration.
#[derive(Debug, Clone, Default)]
pub struct EnumerativeScheduler {
    state: std::rc::Rc<std::cell::RefCell<EnumState>>,
}

#[derive(Debug, Default)]
struct EnumState {
    pending: Vec<Token>,
    script: Vec<usize>,
    cursor: usize,
    trace: Vec<ChoicePoint>,
}

/// One recorded decision of an [`EnumerativeScheduler`]: which distinct
/// token index was taken and how many distinct tokens were available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Index of the distinct pending token that was popped.
    pub choice: usize,
    /// Number of distinct pending tokens at this decision.
    pub arity: usize,
}

impl EnumerativeScheduler {
    /// An empty scheduler that always takes the first distinct token
    /// (equivalent to FIFO over distinct tokens).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler that replays `script` and records arities.
    pub fn with_script(script: Vec<usize>) -> Self {
        Self {
            state: std::rc::Rc::new(std::cell::RefCell::new(EnumState {
                script,
                ..EnumState::default()
            })),
        }
    }

    /// The decisions taken so far (one per pop of a non-empty scheduler).
    pub fn trace(&self) -> Vec<ChoicePoint> {
        self.state.borrow().trace.clone()
    }
}

impl Scheduler for EnumerativeScheduler {
    fn push(&mut self, token: Token) {
        self.state.borrow_mut().pending.push(token);
    }

    fn pop(&mut self) -> Option<Token> {
        let mut s = self.state.borrow_mut();
        if s.pending.is_empty() {
            return None;
        }
        // Distinct pending tokens in first-pushed order.
        let mut distinct: Vec<Token> = Vec::new();
        for &t in &s.pending {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        let choice = s.script.get(s.cursor).copied().unwrap_or(0);
        assert!(
            choice < distinct.len(),
            "script choice {choice} out of range for {} distinct tokens",
            distinct.len()
        );
        s.cursor += 1;
        let arity = distinct.len();
        s.trace.push(ChoicePoint { choice, arity });
        let token = distinct[choice];
        let at = s
            .pending
            .iter()
            .position(|&t| t == token)
            .expect("token came from pending");
        s.pending.remove(at);
        Some(token)
    }

    fn len(&self) -> usize {
        self.state.borrow().pending.len()
    }

    /// Drops pending tokens only — the script, cursor and recorded trace
    /// survive, so clearing never perturbs an enumeration in progress.
    fn clear(&mut self) {
        self.state.borrow_mut().pending.clear();
    }
}

/// The result of a [`for_each_schedule`] enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSweep {
    /// Number of schedules enumerated.
    pub schedules: u64,
    /// `true` when the enumeration stopped at `max_schedules` before
    /// exhausting the tree (the visited schedules are then a prefix of
    /// the space, not a proof over all of it).
    pub truncated: bool,
}

/// Exhaustively enumerates every oblivious schedule of a simulation by
/// depth-first search over [`EnumerativeScheduler`] choice points.
///
/// `run` is called once per schedule with a fresh scheduler handle, must
/// install a clone of it in the simulation it builds (the handle shares
/// state), and aggregates whatever it wants across calls — results are
/// streamed, not collected, so enumerations of millions of schedules run
/// in constant memory. Enumeration stops early after `max_schedules`
/// runs; check [`ScheduleSweep::truncated`] before treating the sweep as
/// a proof.
///
/// # Examples
///
/// Three tokens on distinct links admit exactly `3! = 6` interleavings:
///
/// ```
/// use ring_sim::{for_each_schedule, Scheduler, Token};
///
/// let mut orders = std::collections::HashSet::new();
/// let sweep = for_each_schedule(100, |mut s| {
///     s.push(Token::Deliver(0));
///     s.push(Token::Deliver(1));
///     s.push(Token::Deliver(2));
///     let mut order = Vec::new();
///     while let Some(Token::Deliver(e)) = s.pop() {
///         order.push(e);
///     }
///     orders.insert(order);
/// });
/// assert!(!sweep.truncated);
/// assert_eq!(sweep.schedules, 6);
/// assert_eq!(orders.len(), 6);
/// ```
pub fn for_each_schedule(
    max_schedules: u64,
    mut run: impl FnMut(EnumerativeScheduler),
) -> ScheduleSweep {
    let mut script: Vec<usize> = Vec::new();
    let mut schedules = 0u64;
    loop {
        let sched = EnumerativeScheduler::with_script(script.clone());
        run(sched.clone());
        schedules += 1;
        let next = next_script(&sched.trace());
        if schedules >= max_schedules {
            // Truncated only if the tree actually continues past this run.
            return ScheduleSweep {
                schedules,
                truncated: next.is_some(),
            };
        }
        match next {
            Some(s) => script = s,
            None => {
                return ScheduleSweep {
                    schedules,
                    truncated: false,
                }
            }
        }
    }
}

/// Depth-first successor of a completed trace: bump the deepest choice
/// point with untried alternatives, drop everything after it.
fn next_script(trace: &[ChoicePoint]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        if trace[i].choice + 1 < trace[i].arity {
            let mut script: Vec<usize> = trace[..i].iter().map(|c| c.choice).collect();
            script.push(trace[i].choice + 1);
            return Some(script);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_orders_globally() {
        let mut s = FifoScheduler::new();
        s.push(Token::Deliver(0));
        s.push(Token::Wake(3));
        s.push(Token::Deliver(1));
        assert_eq!(s.pop(), Some(Token::Deliver(0)));
        assert_eq!(s.pop(), Some(Token::Wake(3)));
        assert_eq!(s.pop(), Some(Token::Deliver(1)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn lifo_orders_in_reverse() {
        let mut s = LifoScheduler::new();
        s.push(Token::Deliver(0));
        s.push(Token::Deliver(1));
        assert_eq!(s.pop(), Some(Token::Deliver(1)));
        assert_eq!(s.pop(), Some(Token::Deliver(0)));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            for i in 0..100 {
                s.push(Token::Deliver(i));
            }
            let mut order = Vec::new();
            while let Some(t) = s.pop() {
                order.push(t);
            }
            order
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn enumerative_default_is_fifo_over_distinct() {
        let mut s = EnumerativeScheduler::new();
        s.push(Token::Deliver(0));
        s.push(Token::Wake(1));
        s.push(Token::Deliver(0));
        assert_eq!(s.pop(), Some(Token::Deliver(0)));
        assert_eq!(s.pop(), Some(Token::Wake(1)));
        assert_eq!(s.pop(), Some(Token::Deliver(0)));
        assert_eq!(s.pop(), None);
        let trace = s.trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].arity, 2); // Deliver(0) duplicates collapse
    }

    #[test]
    fn enumerative_handles_share_state() {
        let a = EnumerativeScheduler::new();
        let mut b = a.clone();
        b.push(Token::Wake(0));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn for_each_schedule_counts_permutations() {
        // Two distinct links plus one duplicate token: the duplicate
        // collapses, so the orderings are those of the multiset
        // {0, 0, 1}: 001, 010, 100 — three schedules.
        let mut orders = Vec::new();
        let sweep = for_each_schedule(100, |mut s| {
            s.push(Token::Deliver(0));
            s.push(Token::Deliver(0));
            s.push(Token::Deliver(1));
            let mut order = Vec::new();
            while let Some(Token::Deliver(e)) = s.pop() {
                order.push(e);
            }
            orders.push(order);
        });
        assert!(!sweep.truncated);
        assert_eq!(sweep.schedules, 3);
        assert_eq!(orders, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]);
    }

    #[test]
    fn for_each_schedule_reports_truncation() {
        let sweep = for_each_schedule(2, |mut s| {
            for e in 0..4 {
                s.push(Token::Deliver(e));
            }
            while s.pop().is_some() {}
        });
        assert!(sweep.truncated);
        assert_eq!(sweep.schedules, 2);
    }

    #[test]
    fn for_each_schedule_exact_limit_is_not_truncated() {
        // The space has exactly 2 schedules; a limit of 2 must report a
        // complete (non-truncated) sweep.
        let sweep = for_each_schedule(2, |mut s| {
            s.push(Token::Deliver(0));
            s.push(Token::Deliver(1));
            while s.pop().is_some() {}
        });
        assert!(!sweep.truncated);
        assert_eq!(sweep.schedules, 2);
    }

    #[test]
    fn clear_empties_fifo_and_lifo_queues() {
        let mut fifo = FifoScheduler::new();
        fifo.push(Token::Wake(0));
        fifo.push(Token::Deliver(1));
        fifo.clear();
        assert!(fifo.is_empty());
        assert_eq!(fifo.pop(), None);

        let mut lifo = LifoScheduler::new();
        lifo.push(Token::Wake(0));
        lifo.clear();
        assert!(lifo.is_empty());
    }

    #[test]
    fn enumerative_clear_preserves_trace() {
        let mut s = EnumerativeScheduler::new();
        s.push(Token::Deliver(0));
        assert!(s.pop().is_some());
        s.push(Token::Deliver(1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.trace().len(), 1, "clear must not record choices");
    }

    #[test]
    fn fifo_ring_buffer_wraps_and_grows_in_order() {
        // Interleave pushes and pops so the head walks around the buffer,
        // then push far past the initial capacity: global FIFO order must
        // survive both the wrap and the re-linearizing grow.
        let mut s = FifoScheduler::new();
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0usize;
        for round in 0..200 {
            for _ in 0..(round % 7) + 1 {
                s.push(Token::Deliver(next));
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..(round % 5) {
                assert_eq!(s.pop(), expect.pop_front().map(Token::Deliver));
            }
            assert_eq!(s.len(), expect.len());
        }
        while let Some(t) = s.pop() {
            assert_eq!(Some(t), expect.pop_front().map(Token::Deliver));
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn random_pops_everything() {
        let mut s = RandomScheduler::new(42);
        for i in 0..57 {
            s.push(Token::Deliver(i));
        }
        let mut seen = [false; 57];
        while let Some(Token::Deliver(e)) = s.pop() {
            assert!(!seen[e]);
            seen[e] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert!(s.is_empty());
    }
}
