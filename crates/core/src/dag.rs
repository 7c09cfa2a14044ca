//! The logical DAG layer `Ḡ(B, L)` (Sec. III-C).
//!
//! No single node materialises this graph — that is the whole point of 2LDAG —
//! but analysis, tests, and the evaluation oracle need a global view: the set
//! `B` of all blocks and the edge set `L`, where `(b_x, b_y) ∈ L` iff the
//! header of `b_y` contains `H(b^h_x)`. [`LogicalDag`] assembles that view
//! from every node's store and answers reachability/acyclicity queries.

use crate::block::BlockId;
use crate::node::LedgerNode;
use std::collections::{HashMap, HashSet, VecDeque};
use tldag_crypto::Digest;
use tldag_sim::NodeId;

/// A node in the logical DAG (one data block).
#[derive(Clone, Debug)]
struct DagEntry {
    id: BlockId,
    time: u64,
    parents: Vec<Digest>,
}

/// A global, read-only view of the logical DAG.
#[derive(Clone, Debug, Default)]
pub struct LogicalDag {
    entries: HashMap<Digest, DagEntry>,
    /// parent digest → child digests.
    children: HashMap<Digest, Vec<Digest>>,
}

impl LogicalDag {
    /// Builds the DAG from every node's store.
    pub fn build(nodes: &[LedgerNode]) -> Self {
        let mut dag = LogicalDag::default();
        for node in nodes {
            for block in node.store().iter() {
                let digest = block.header_digest();
                let parents: Vec<Digest> = block.header.digests.iter().map(|e| e.digest).collect();
                for parent in &parents {
                    dag.children.entry(*parent).or_default().push(digest);
                }
                dag.entries.insert(
                    digest,
                    DagEntry {
                        id: block.id,
                        time: block.header.time,
                        parents,
                    },
                );
            }
        }
        dag
    }

    /// Number of blocks `|B|`.
    pub fn block_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of directed edges `|L|` whose endpoints both exist in `B`.
    pub fn edge_count(&self) -> usize {
        self.entries
            .values()
            .map(|e| {
                e.parents
                    .iter()
                    .filter(|p| self.entries.contains_key(*p))
                    .count()
            })
            .sum()
    }

    /// The block id stored under a header digest.
    pub fn block_id(&self, digest: &Digest) -> Option<BlockId> {
        self.entries.get(digest).map(|e| e.id)
    }

    /// Children of the block with header digest `d` (blocks that reference it).
    pub fn children_of(&self, d: &Digest) -> &[Digest] {
        self.children.get(d).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `descendant` is reachable from `ancestor` by following
    /// child edges — i.e. `descendant`'s node "points to" `ancestor`
    /// (Sec. III-C). A block is considered its own descendant.
    pub fn is_descendant(&self, ancestor: &Digest, descendant: &Digest) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([*ancestor]);
        while let Some(d) = queue.pop_front() {
            for child in self.children_of(&d) {
                if child == descendant {
                    return true;
                }
                if seen.insert(*child) {
                    queue.push_back(*child);
                }
            }
        }
        false
    }

    /// All distinct owner nodes of blocks that are descendants of `d`
    /// (including `d`'s own owner). This is the consensus oracle: PoP can
    /// gather at most this set into `R_i`.
    pub fn pointing_nodes(&self, d: &Digest) -> HashSet<NodeId> {
        let mut owners = HashSet::new();
        if let Some(e) = self.entries.get(d) {
            owners.insert(e.id.owner);
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([*d]);
        while let Some(cur) = queue.pop_front() {
            for child in self.children_of(&cur) {
                if seen.insert(*child) {
                    if let Some(e) = self.entries.get(child) {
                        owners.insert(e.id.owner);
                    }
                    queue.push_back(*child);
                }
            }
        }
        owners
    }

    /// Checks acyclicity by Kahn's algorithm over the *internal* edges.
    /// 2LDAG guarantees acyclicity because a header can only reference
    /// digests of blocks generated earlier (hash references cannot form
    /// forward edges); this verifies the invariant on a simulated run.
    pub fn is_acyclic(&self) -> bool {
        let mut in_degree: HashMap<Digest, usize> = self
            .entries
            .keys()
            .map(|d| {
                let deg = self.entries[d]
                    .parents
                    .iter()
                    .filter(|p| self.entries.contains_key(*p))
                    .count();
                (*d, deg)
            })
            .collect();
        let mut queue: VecDeque<Digest> = in_degree
            .iter()
            .filter_map(|(d, &deg)| (deg == 0).then_some(*d))
            .collect();
        let mut visited = 0usize;
        while let Some(d) = queue.pop_front() {
            visited += 1;
            for child in self.children_of(&d) {
                if let Some(deg) = in_degree.get_mut(child) {
                    *deg -= 1;
                    if *deg == 0 {
                        queue.push_back(*child);
                    }
                }
            }
        }
        visited == self.entries.len()
    }

    /// Checks that every edge respects time: a child's generation slot is
    /// never earlier than its parent's.
    pub fn edges_respect_time(&self) -> bool {
        self.entries.values().all(|entry| {
            entry
                .parents
                .iter()
                .filter_map(|p| self.entries.get(p))
                .all(|parent| parent.time <= entry.time)
        })
    }

    /// Validates that `path` (header digests, verifier first) is a directed
    /// path in the DAG: each successive block's header references the
    /// previous digest. Used by property tests on PoP outcomes.
    pub fn is_valid_path(&self, path: &[Digest]) -> bool {
        path.windows(2)
            .all(|w| self.children_of(&w[0]).contains(&w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::node::LedgerNode;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::test_default()
    }

    /// Builds the Fig. 3 scenario: A-B, B-C, B-D, C-D; D generates first,
    /// then C, then A, then B.
    fn fig3_nodes() -> Vec<LedgerNode> {
        let cfg = cfg();
        let neighbor_sets: Vec<Vec<u32>> = vec![vec![1], vec![0, 2, 3], vec![1, 3], vec![1, 2]];
        let mut nodes: Vec<LedgerNode> = neighbor_sets
            .into_iter()
            .enumerate()
            .map(|(i, ns)| {
                LedgerNode::new(NodeId(i as u32), ns.into_iter().map(NodeId).collect(), &cfg)
            })
            .collect();

        // Slot 0: D (index 3) generates D1 and sends digest to B, C.
        let d1 = nodes[3].generate_block(&cfg, 0, vec![0xd1]).unwrap().1;
        nodes[1].receive_digest(NodeId(3), d1);
        nodes[2].receive_digest(NodeId(3), d1);

        // C generates C1 (contains H(D1)), sends digest to B, D.
        let c1 = nodes[2].generate_block(&cfg, 1, vec![0xc1]).unwrap().1;
        nodes[1].receive_digest(NodeId(2), c1);
        nodes[3].receive_digest(NodeId(2), c1);

        // A generates A1, digest to B.
        let a1 = nodes[0].generate_block(&cfg, 2, vec![0xa1]).unwrap().1;
        nodes[1].receive_digest(NodeId(0), a1);

        // B generates B1 containing H(A1), H(C1), H(D1).
        nodes[1].generate_block(&cfg, 3, vec![0xb1]).unwrap();
        nodes
    }

    #[test]
    fn fig3_dag_structure() {
        let nodes = fig3_nodes();
        let dag = LogicalDag::build(&nodes);
        assert_eq!(dag.block_count(), 4);

        let d1 = nodes[3].store().get(0).unwrap().header_digest();
        let c1 = nodes[2].store().get(0).unwrap().header_digest();
        let a1 = nodes[0].store().get(0).unwrap().header_digest();
        let b1 = nodes[1].store().get(0).unwrap().header_digest();

        // D1 → C1 (C included D's digest) and D1 → B1; A1 → B1; C1 → B1.
        assert!(dag.children_of(&d1).contains(&c1));
        assert!(dag.children_of(&d1).contains(&b1));
        assert!(dag.children_of(&a1).contains(&b1));
        assert!(dag.children_of(&c1).contains(&b1));
        assert!(dag.is_descendant(&d1, &b1));
        assert!(!dag.is_descendant(&b1, &d1));
    }

    #[test]
    fn fig3_pointing_nodes() {
        let nodes = fig3_nodes();
        let dag = LogicalDag::build(&nodes);
        let d1 = nodes[3].store().get(0).unwrap().header_digest();
        // D1 is pointed to by C (via C1), B (via B1), and D itself.
        let owners = dag.pointing_nodes(&d1);
        assert!(owners.contains(&NodeId(3)));
        assert!(owners.contains(&NodeId(2)));
        assert!(owners.contains(&NodeId(1)));
        assert!(!owners.contains(&NodeId(0)), "A1 does not reference D1");
    }

    #[test]
    fn dag_is_acyclic_and_time_consistent() {
        let nodes = fig3_nodes();
        let dag = LogicalDag::build(&nodes);
        assert!(dag.is_acyclic());
        assert!(dag.edges_respect_time());
    }

    #[test]
    fn valid_path_check() {
        let nodes = fig3_nodes();
        let dag = LogicalDag::build(&nodes);
        let d1 = nodes[3].store().get(0).unwrap().header_digest();
        let c1 = nodes[2].store().get(0).unwrap().header_digest();
        let b1 = nodes[1].store().get(0).unwrap().header_digest();
        assert!(dag.is_valid_path(&[d1, c1, b1]));
        assert!(dag.is_valid_path(&[d1, b1]));
        assert!(!dag.is_valid_path(&[b1, d1]));
        assert!(
            dag.is_valid_path(&[d1]),
            "singleton path is trivially valid"
        );
    }

    #[test]
    fn empty_dag() {
        let dag = LogicalDag::build(&[]);
        assert_eq!(dag.block_count(), 0);
        assert_eq!(dag.edge_count(), 0);
        assert!(dag.is_acyclic());
    }

    #[test]
    fn edge_count_ignores_dangling_parents() {
        let nodes = fig3_nodes();
        let dag = LogicalDag::build(&nodes);
        // Every digest entry in this scenario refers to an existing block, and
        // B1's header holds 3 digests + C1 holds 1 = 4 internal edges.
        assert_eq!(dag.edge_count(), 4);
    }
}
