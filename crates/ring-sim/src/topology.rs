//! Communication digraphs: rings, trees and arbitrary edge lists.

use std::collections::BTreeSet;

/// Identifier of a processor. Nodes are always `0..n`.
pub type NodeId = usize;

/// Identifier of a directed FIFO link, indexing into [`Topology::edges`].
pub type EdgeId = usize;

/// A directed communication graph with FIFO links.
///
/// Edges are identified by their insertion index. Multiple parallel edges
/// between the same pair of nodes are rejected, as are self-loops: the LOCAL
/// model gives a processor direct access to its own state, so a self-link
/// adds nothing but scheduling ambiguity.
///
/// # Examples
///
/// ```
/// use ring_sim::Topology;
///
/// let ring = Topology::ring(4);
/// assert_eq!(ring.len(), 4);
/// assert_eq!(ring.out_neighbors(3), &[0]);
///
/// let line = Topology::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
/// assert!(line.edge_id(1, 2).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
}

/// Error returned by [`Topology::from_edges`] for malformed edge lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// The same directed edge appeared twice.
    DuplicateEdge(NodeId, NodeId),
    /// An edge from a node to itself.
    SelfLoop(NodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for {n} nodes")
            }
            TopologyError::DuplicateEdge(a, b) => write!(f, "duplicate edge ({a}, {b})"),
            TopologyError::SelfLoop(a) => write!(f, "self loop on node {a}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// A unidirectional ring of `n` nodes: node `i` sends to `(i + 1) % n`.
    ///
    /// This is the topology of the paper's Sections 3–6. Each node has
    /// exactly one incoming link, which is why every oblivious message
    /// schedule produces the same execution (paper, Section 2).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`; a ring needs at least two distinct nodes.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least 2 nodes, got {n}");
        let edges = (0..n).map(|i| (i, (i + 1) % n));
        Self::from_edges(n, edges).expect("ring edges are well formed")
    }

    /// The complete digraph: every ordered pair of distinct nodes is a
    /// link (the fully connected network of the paper's Section 1.1
    /// scenarios).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn complete(n: usize) -> Self {
        assert!(n >= 2, "a complete network needs at least 2 nodes, got {n}");
        let mut edges = Vec::with_capacity(n * (n - 1));
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        Self::from_edges(n, edges).expect("complete edges are well formed")
    }

    /// A bidirectional tree from a parent array (`parent[0]` is ignored;
    /// node 0 is the root).
    ///
    /// # Panics
    ///
    /// Panics if `parent.len() < 1` or any `parent[i] >= parent.len()` or
    /// the parent array does not describe a tree rooted at 0.
    pub fn tree(parent: &[NodeId]) -> Self {
        let n = parent.len();
        assert!(n >= 1, "tree needs at least one node");
        let mut edges = Vec::with_capacity(2 * (n.saturating_sub(1)));
        for (child, &p) in parent.iter().enumerate().skip(1) {
            assert!(p < n, "parent {p} out of range");
            assert!(p != child, "node {child} cannot be its own parent");
            edges.push((p, child));
            edges.push((child, p));
        }
        let topo = Self::from_edges(n, edges).expect("tree edges are well formed");
        assert!(
            topo.is_connected(),
            "parent array does not describe a connected tree"
        );
        topo
    }

    /// Builds a topology from an explicit directed edge list.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if an endpoint is out of range, an edge is
    /// duplicated, or an edge is a self-loop.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, TopologyError> {
        let mut seen = BTreeSet::new();
        let mut list = Vec::new();
        let mut out = vec![Vec::new(); n];
        let mut inc = vec![Vec::new(); n];
        for (a, b) in edges {
            if a >= n {
                return Err(TopologyError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(TopologyError::NodeOutOfRange { node: b, n });
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            if !seen.insert((a, b)) {
                return Err(TopologyError::DuplicateEdge(a, b));
            }
            let id = list.len();
            list.push((a, b));
            out[a].push(id);
            inc[b].push(id);
        }
        Ok(Self {
            n,
            edges: list,
            out,
            inc,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All directed edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The edge id of the directed link `from -> to`, if present.
    pub fn edge_id(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.out
            .get(from)?
            .iter()
            .copied()
            .find(|&e| self.edges[e].1 == to)
    }

    /// Edge ids leaving `node`, in insertion order.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out[node]
    }

    /// Successor node ids of `node`, in insertion order.
    pub fn out_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.out[node].iter().map(|&e| self.edges[e].1).collect()
    }

    /// `true` if every node can reach every other node, treating edges as
    /// undirected (used to validate tree construction).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &e in &self.out[v] {
                let w = self.edges[e].1;
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
            for &e in &self.inc[v] {
                let w = self.edges[e].0;
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Predecessor node ids of `node`, in insertion order.
    fn in_neighbors(t: &Topology, node: NodeId) -> Vec<NodeId> {
        t.inc[node].iter().map(|&e| t.edges[e].0).collect()
    }

    #[test]
    fn ring_structure() {
        let t = Topology::ring(5);
        assert_eq!(t.len(), 5);
        for i in 0..5 {
            assert_eq!(t.out_neighbors(i), vec![(i + 1) % 5]);
            assert_eq!(in_neighbors(&t, i), vec![(i + 4) % 5]);
        }
        assert!(t.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn ring_too_small() {
        let _ = Topology::ring(1);
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = Topology::from_edges(3, [(0, 1), (0, 1)]).unwrap_err();
        assert_eq!(err, TopologyError::DuplicateEdge(0, 1));
    }

    #[test]
    fn rejects_self_loop() {
        let err = Topology::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop(1));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Topology::from_edges(2, [(0, 5)]).unwrap_err();
        assert_eq!(err, TopologyError::NodeOutOfRange { node: 5, n: 2 });
    }

    #[test]
    fn tree_from_parents() {
        // 0 -- 1 -- 3
        //  \-- 2
        let t = Topology::tree(&[0, 0, 0, 1]);
        assert_eq!(t.len(), 4);
        assert!(t.edge_id(0, 1).is_some());
        assert!(t.edge_id(1, 0).is_some());
        assert!(t.edge_id(1, 3).is_some());
        assert!(t.edge_id(3, 1).is_some());
        assert!(t.edge_id(2, 3).is_none());
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = TopologyError::DuplicateEdge(1, 2);
        assert!(!e.to_string().is_empty());
    }
}
