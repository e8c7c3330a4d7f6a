//! Per-worker trial memory: the [`TrialArena`] buffer pool and the
//! [`ArenaBacked`] reclamation trait.
//!
//! Batch sweeps run many thousands of trials over one topology, and after
//! PR 3's engine-buffer reuse the remaining per-trial heap traffic was node
//! construction: every phase processor allocates its packed `data ‖ vals`
//! store per trial. `TrialArena` removes that — a worker owns one arena,
//! node builders draw their buffers from it, and the worker reclaims the
//! buffers after each trial, so steady-state trials allocate nothing.
//!
//! Safe Rust cannot hand out two owned views of one bump-pointer slab, so
//! the arena is a *bump-style pool*: `u64` buffers are handed out by value
//! (each one is a `Vec<u64>` whose capacity survives round-trips) and
//! returned via [`TrialArena::reclaim_u64s`] — typically through
//! [`ArenaBacked::reclaim`] on the finished node vector. After the first
//! trial of a batch the pool has reached its high-water mark and
//! [`TrialArena::fresh_allocs`] stops moving — the property the
//! regression tests pin.

/// A per-worker pool of `u64` buffers for trial-lifetime node state.
///
/// # Examples
///
/// ```
/// use ring_sim::TrialArena;
///
/// let mut arena = TrialArena::new();
/// for _trial in 0..3 {
///     let buf = arena.alloc_u64s(8);
///     assert_eq!(buf, vec![0u64; 8]);
///     arena.reclaim_u64s(buf);
/// }
/// // The first trial allocated; the rest reused it.
/// assert_eq!(arena.fresh_allocs(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TrialArena {
    free: Vec<Vec<u64>>,
    fresh_allocs: u64,
}

impl TrialArena {
    /// Creates an empty arena (no buffers pooled yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zero-filled `u64` buffer of length `len`, reusing pooled
    /// storage when a previous trial returned any.
    ///
    /// The buffer is an owned `Vec<u64>` so node state can hold it without
    /// lifetime plumbing; return it with [`TrialArena::reclaim_u64s`] (or
    /// [`ArenaBacked::reclaim`]) to keep the pool warm.
    pub fn alloc_u64s(&mut self, len: usize) -> Vec<u64> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                self.fresh_allocs += 1;
                vec![0; len]
            }
        }
    }

    /// Returns a buffer to the pool (its capacity is what the next
    /// [`TrialArena::alloc_u64s`] reuses). Capacity-less vectors — e.g. the
    /// `Vec::new()` a [`std::mem::take`]n store leaves behind — are
    /// dropped, not pooled.
    pub fn reclaim_u64s(&mut self, buf: Vec<u64>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled (available for reuse).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// How many times the arena had to fall back to a fresh heap
    /// allocation. Constant across trials once a batch reaches steady
    /// state — the zero-allocation property the tests assert.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }
}

/// Node state that can hand its arena-drawn buffers back after a trial.
///
/// Implemented by every honest ring-protocol node type; nodes without
/// heap-backed state use the default no-op. Batch workers call
/// [`ArenaBacked::reclaim`] on each node right after a trial finishes, so
/// the next trial's builders find the pool warm.
pub trait ArenaBacked {
    /// Returns any arena-drawn buffers to `arena`. The node must remain in
    /// a droppable (but not necessarily runnable) state afterwards.
    fn reclaim(&mut self, arena: &mut TrialArena) {
        let _ = arena;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_after_reuse() {
        let mut arena = TrialArena::new();
        let mut buf = arena.alloc_u64s(4);
        buf.iter_mut().for_each(|x| *x = 7);
        arena.reclaim_u64s(buf);
        assert_eq!(arena.pooled(), 1);
        let buf = arena.alloc_u64s(6);
        assert_eq!(buf, vec![0; 6]);
        assert_eq!(arena.fresh_allocs(), 1);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut arena = TrialArena::new();
        for _ in 0..10 {
            let a = arena.alloc_u64s(16);
            let b = arena.alloc_u64s(16);
            arena.reclaim_u64s(a);
            arena.reclaim_u64s(b);
        }
        assert_eq!(arena.fresh_allocs(), 2);
        assert_eq!(arena.pooled(), 2);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut arena = TrialArena::new();
        arena.reclaim_u64s(Vec::new());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn default_reclaim_is_a_no_op() {
        struct Plain;
        impl ArenaBacked for Plain {}
        let mut arena = TrialArena::new();
        Plain.reclaim(&mut arena);
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.fresh_allocs(), 0);
    }
}
