//! Execution observers for instrumentation.
//!
//! Probes let experiments watch an execution without perturbing it. The
//! paper's resilience analyses revolve around how *synchronized* the
//! processors stay — e.g. Lemma D.5 bounds `|Sentᵗᵢ − Sentᵗⱼ| ≤ 2k²` for
//! coalition members of `A-LEADuni` — so the flagship probe,
//! [`SyncGapProbe`], records the maximum over time of the pairwise
//! difference in sent-message counts across a watched set of nodes.

use crate::topology::NodeId;

/// Observer of engine events.
///
/// All methods have empty default bodies so a probe only implements what it
/// needs. `sent` and `received` are cumulative per-node counters *after*
/// the event.
pub trait Probe<M> {
    /// A message was enqueued on the link `from -> to`.
    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &M, sent: &[u64]) {
        let _ = (from, to, msg, sent);
    }

    /// A message was delivered (and processed, unless the receiver had
    /// already terminated).
    fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: &M, received: &[u64]) {
        let _ = (from, to, msg, received);
    }

    /// A node terminated with the given output (`None` = abort).
    fn on_terminate(&mut self, node: NodeId, output: Option<u64>) {
        let _ = (node, output);
    }
}

/// The do-nothing probe; the default for [`crate::SimBuilder`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl<M> Probe<M> for NoProbe {}

/// Records `max over time t, over watched pairs (i, j)` of
/// `|Sentᵗᵢ − Sentᵗⱼ|` — the paper's "m-synchronized" measure.
///
/// # Examples
///
/// ```
/// use ring_sim::{Probe, SyncGapProbe};
///
/// let mut probe = SyncGapProbe::new(vec![0, 2]);
/// // Simulate: node 0 sends three times, node 2 never sends.
/// let mut sent = vec![0u64; 3];
/// for _ in 0..3 {
///     sent[0] += 1;
///     Probe::<u64>::on_send(&mut probe, 0, 1, &0, &sent);
/// }
/// assert_eq!(probe.max_gap(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SyncGapProbe {
    watched: Vec<NodeId>,
    counts: Vec<u64>,
    max_gap: u64,
}

impl SyncGapProbe {
    /// Watches the given set of nodes (deduplicated, order irrelevant).
    pub fn new(mut watched: Vec<NodeId>) -> Self {
        watched.sort_unstable();
        watched.dedup();
        let counts = vec![0; watched.len()];
        Self {
            watched,
            counts,
            max_gap: 0,
        }
    }

    /// The recorded maximum sent-count gap so far.
    pub fn max_gap(&self) -> u64 {
        self.max_gap
    }

    /// The watched node set.
    pub fn watched(&self) -> &[NodeId] {
        &self.watched
    }
}

impl<M> Probe<M> for SyncGapProbe {
    fn on_send(&mut self, from: NodeId, _to: NodeId, _msg: &M, sent: &[u64]) {
        if let Ok(idx) = self.watched.binary_search(&from) {
            self.counts[idx] = sent[from];
            let max = *self.counts.iter().max().expect("non-empty watch set");
            let min = *self.counts.iter().min().expect("non-empty watch set");
            self.max_gap = self.max_gap.max(max - min);
        }
    }
}

/// Records every sent message (up to a cap), for debugging protocols and
/// asserting exact wire traces in tests.
///
/// # Examples
///
/// ```
/// use ring_sim::{MessageLogProbe, Probe};
///
/// let mut log = MessageLogProbe::new(8);
/// log.on_send(0, 1, &42u64, &[]);
/// assert_eq!(log.entries(), &[(0, 1, 42)]);
/// assert!(!log.truncated());
/// ```
#[derive(Debug, Clone)]
pub struct MessageLogProbe<M> {
    entries: Vec<(NodeId, NodeId, M)>,
    cap: usize,
    truncated: bool,
}

impl<M> MessageLogProbe<M> {
    /// Creates a log retaining at most `cap` messages (further sends only
    /// set the [`MessageLogProbe::truncated`] flag).
    pub fn new(cap: usize) -> Self {
        Self {
            entries: Vec::new(),
            cap,
            truncated: false,
        }
    }

    /// The recorded `(from, to, message)` triples, in send order.
    pub fn entries(&self) -> &[(NodeId, NodeId, M)] {
        &self.entries
    }

    /// `true` if sends beyond the cap were dropped from the log.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl<M: Clone> Probe<M> for MessageLogProbe<M> {
    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &M, _sent: &[u64]) {
        if self.entries.len() < self.cap {
            self.entries.push((from, to, msg.clone()));
        } else {
            self.truncated = true;
        }
    }
}

/// Counts messages delivered to each node, split by whether the receiver
/// had terminated (useful for failure-injection tests).
#[derive(Debug, Default, Clone)]
pub struct DeliveryCountProbe {
    /// Deliveries processed by a live node.
    pub processed: u64,
    /// Deliveries dropped because the receiver had terminated.
    pub dropped: u64,
    live: Vec<bool>,
}

impl DeliveryCountProbe {
    /// Creates a probe for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            processed: 0,
            dropped: 0,
            live: vec![true; n],
        }
    }
}

impl<M> Probe<M> for DeliveryCountProbe {
    fn on_deliver(&mut self, _from: NodeId, to: NodeId, _msg: &M, _received: &[u64]) {
        if self.live.get(to).copied().unwrap_or(false) {
            self.processed += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn on_terminate(&mut self, node: NodeId, _output: Option<u64>) {
        if let Some(slot) = self.live.get_mut(node) {
            *slot = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_gap_tracks_watched_only() {
        let mut probe = SyncGapProbe::new(vec![1, 3]);
        let mut sent = vec![0u64; 4];
        // Unwatched node 0 sends a lot; gap must remain 0.
        for _ in 0..10 {
            sent[0] += 1;
            Probe::<u64>::on_send(&mut probe, 0, 1, &0, &sent);
        }
        assert_eq!(probe.max_gap(), 0);
        sent[1] += 1;
        Probe::<u64>::on_send(&mut probe, 1, 2, &0, &sent);
        assert_eq!(probe.max_gap(), 1);
        sent[3] += 1;
        Probe::<u64>::on_send(&mut probe, 3, 0, &0, &sent);
        assert_eq!(probe.max_gap(), 1);
    }

    #[test]
    fn sync_gap_dedups_watch_set() {
        let probe = SyncGapProbe::new(vec![2, 2, 1]);
        assert_eq!(probe.watched(), &[1, 2]);
    }

    #[test]
    fn message_log_caps_and_flags() {
        let mut log: MessageLogProbe<u64> = MessageLogProbe::new(2);
        log.on_send(0, 1, &10, &[]);
        log.on_send(1, 2, &20, &[]);
        log.on_send(2, 0, &30, &[]);
        assert_eq!(log.entries().len(), 2);
        assert!(log.truncated());
    }

    #[test]
    fn delivery_probe_splits_by_liveness() {
        let mut probe = DeliveryCountProbe::new(2);
        Probe::<u64>::on_deliver(&mut probe, 0, 1, &0, &[]);
        Probe::<u64>::on_terminate(&mut probe, 1, Some(0));
        Probe::<u64>::on_deliver(&mut probe, 0, 1, &0, &[]);
        assert_eq!(probe.processed, 1);
        assert_eq!(probe.dropped, 1);
    }
}
