//! Conflict analysis and re-execution ordering enumeration (paper §3.6).
//!
//! Retroactive programming must consider different orders in which the
//! original concurrent requests could be re-executed, because the patched
//! code may change transaction boundaries and therefore outcomes. Naively
//! there are `n!` request orders (and exponentially more instruction
//! interleavings); the paper's observation is that only *conflicting*
//! transactions — those sharing state — can produce different outcomes
//! when reordered. This module builds a request-level conflict relation
//! from the traced read/write sets and enumerates only orderings that
//! differ in the relative order of at least one conflicting pair.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use trod_trace::TxnTrace;

/// True if two traced transactions conflict: at least one of them writes a
/// table the other reads or writes, at key granularity where keys are
/// known and at table granularity for predicate reads.
pub fn txns_conflict(a: &TxnTrace, b: &TxnTrace) -> bool {
    directional_conflict(a, b) || directional_conflict(b, a)
}

fn directional_conflict(writer: &TxnTrace, reader: &TxnTrace) -> bool {
    for write in writer.writes.iter() {
        // Write-write on the same key.
        if reader
            .writes
            .iter()
            .any(|w| w.table == write.table && w.key == write.key)
        {
            return true;
        }
        // Write vs. read: a point read of the same key, or any predicate
        // read over the same table (conservative, because the predicate's
        // membership may change).
        for read in &reader.reads {
            if read.table != *write.table {
                continue;
            }
            let point_match = read.rows.iter().any(|(key, _)| key == &write.key);
            let predicate_read = read.rows.is_empty()
                || read.query.starts_with("Scan")
                || read.query.starts_with("Check")
                || read.query.starts_with("Count");
            if point_match || predicate_read {
                return true;
            }
        }
    }
    false
}

/// A request-level conflict relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    /// Request ids, in original (first-transaction) order.
    requests: Vec<String>,
    /// Pairs of indices into `requests` that conflict (i < j).
    edges: BTreeSet<(usize, usize)>,
}

impl ConflictGraph {
    /// Builds the conflict relation for the given requests from their
    /// traced transactions. `requests` supplies the original order.
    pub fn build(requests: &[String], txns: &[TxnTrace]) -> Self {
        let mut by_request: BTreeMap<&str, Vec<&TxnTrace>> = BTreeMap::new();
        for txn in txns {
            by_request
                .entry(txn.ctx.req_id.as_str())
                .or_default()
                .push(txn);
        }
        let mut edges = BTreeSet::new();
        for i in 0..requests.len() {
            for j in (i + 1)..requests.len() {
                let a = by_request.get(requests[i].as_str());
                let b = by_request.get(requests[j].as_str());
                if let (Some(a), Some(b)) = (a, b) {
                    let conflicting = a.iter().any(|ta| b.iter().any(|tb| txns_conflict(ta, tb)));
                    if conflicting {
                        edges.insert((i, j));
                    }
                }
            }
        }
        ConflictGraph {
            requests: requests.to_vec(),
            edges,
        }
    }

    /// Adds the conflicts among `txns`, found by request as
    /// [`Self::build`] finds them, to the graph. Returns how many
    /// conflicting pairs were new.
    pub fn add(&mut self, txns: &[TxnTrace]) -> usize {
        let before = self.edges.len();
        self.edges.extend(Self::build(&self.requests, txns).edges);
        self.edges.len() - before
    }

    /// The orientation of every conflicting pair under `order` (a
    /// permutation of the graph's requests): two orderings with one
    /// orientation are one class of [`Self::enumerate_orderings`].
    pub fn orientation(&self, order: &[String]) -> Vec<bool> {
        let position = |req: &String| order.iter().position(|r| r == req);
        let pos: Vec<Option<usize>> = self.requests.iter().map(position).collect();
        self.edges.iter().map(|&(i, j)| pos[i] < pos[j]).collect()
    }

    /// The requests covered by this graph, in original order.
    pub fn requests(&self) -> &[String] {
        &self.requests
    }

    /// True if the two requests conflict.
    pub fn conflicts(&self, a: &str, b: &str) -> bool {
        let ia = self.requests.iter().position(|r| r == a);
        let ib = self.requests.iter().position(|r| r == b);
        match (ia, ib) {
            (Some(ia), Some(ib)) if ia != ib => {
                let key = (ia.min(ib), ia.max(ib));
                self.edges.contains(&key)
            }
            _ => false,
        }
    }

    /// Number of conflicting pairs.
    pub fn conflict_count(&self) -> usize {
        self.edges.len()
    }

    /// Enumerates re-execution orderings. Two permutations are considered
    /// equivalent (and only one representative is kept) if every
    /// conflicting pair appears in the same relative order in both; the
    /// original order is always the first entry. At most `limit` orderings
    /// are returned.
    ///
    /// The walk is a depth-first search over permutation prefixes, the
    /// smallest index first, keeping the first permutation of each class.
    /// Two prefixes of one length that agree on every conflicting pair's
    /// state (which endpoints are placed, and in what order) can reach
    /// exactly the same classes, and the first one's subtree is finished
    /// before the second is popped, so the second is skipped. The search
    /// visits a number of prefixes bounded by the pair states instead of
    /// `n!`, and emits what the full walk would, in the same order.
    pub fn enumerate_orderings(&self, limit: usize) -> Vec<Vec<String>> {
        let n = self.requests.len();
        if n == 0 || limit == 0 {
            return Vec::new();
        }
        let mut explored = HashSet::new();
        let mut out = Vec::new();
        let mut stack: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), (0..n).collect())];
        while let Some((prefix, remaining)) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            // A complete permutation's pair states are its class.
            if !explored.insert((prefix.len(), self.pair_states(&prefix))) {
                continue;
            }
            if remaining.is_empty() {
                out.push(prefix.iter().map(|&i| self.requests[i].clone()).collect());
                continue;
            }
            // Push candidates in reverse so that the smallest index (the
            // original relative order) is explored first.
            for (pos, &candidate) in remaining.iter().enumerate().rev() {
                let mut next_prefix = prefix.clone();
                next_prefix.push(candidate);
                let mut next_remaining = remaining.clone();
                next_remaining.remove(pos);
                stack.push((next_prefix, next_remaining));
            }
        }
        out
    }

    /// Per conflicting pair `(i, j)`: 0 if neither is placed in `prefix`,
    /// 1 if only `i`, 2 if only `j`, 3 if `i` precedes `j`, 4 if `j`
    /// precedes `i`.
    fn pair_states(&self, prefix: &[usize]) -> Vec<u8> {
        let mut position = vec![None; self.requests.len()];
        for (pos, &idx) in prefix.iter().enumerate() {
            position[idx] = Some(pos);
        }
        self.edges
            .iter()
            .map(|&(i, j)| match (position[i], position[j]) {
                (None, None) => 0,
                (Some(_), None) => 1,
                (None, Some(_)) => 2,
                (Some(pi), Some(pj)) if pi < pj => 3,
                _ => 4,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trod_db::{ChangeRecord, Key, Row, Value};
    use trod_trace::{ReadTrace, TxnContext};

    /// The oracle: the same depth-first walk over every permutation,
    /// keeping each one whose orientation is new.
    fn exhaustive_orderings(graph: &ConflictGraph, limit: usize) -> Vec<Vec<String>> {
        let n = graph.requests.len();
        if n == 0 || limit == 0 {
            return Vec::new();
        }
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let mut stack: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), (0..n).collect())];
        while let Some((prefix, remaining)) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            if remaining.is_empty() {
                let order: Vec<String> =
                    prefix.iter().map(|&i| graph.requests[i].clone()).collect();
                if seen.insert(graph.orientation(&order)) {
                    out.push(order);
                }
                continue;
            }
            for (pos, &candidate) in remaining.iter().enumerate().rev() {
                let mut next_prefix = prefix.clone();
                next_prefix.push(candidate);
                let mut next_remaining = remaining.clone();
                next_remaining.remove(pos);
                stack.push((next_prefix, next_remaining));
            }
        }
        out
    }

    fn graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> ConflictGraph {
        ConflictGraph {
            requests: (0..n).map(|i| format!("R{i}")).collect(),
            edges: edges.into_iter().collect(),
        }
    }

    fn txn(req: &str, reads: Vec<ReadTrace>, writes: Vec<ChangeRecord>) -> TxnTrace {
        TxnTrace {
            txn_id: 0,
            ctx: TxnContext::new(req, "h", "f"),
            timestamp: 0,
            snapshot_ts: 0,
            commit_ts: 1,
            committed: true,
            reads,
            writes: writes.into(),
        }
    }

    fn insert(table: &str, key: i64) -> ChangeRecord {
        ChangeRecord::insert(table, Key::single(key), Row::from(vec![Value::Int(key)]))
    }

    fn scan(table: &str) -> ReadTrace {
        ReadTrace {
            table: table.into(),
            query: format!("Scan {table} WHERE TRUE"),
            read_ts: 0,
            rows: vec![],
        }
    }

    #[test]
    fn conflict_detection_write_write_and_read_write() {
        let a = txn("R1", vec![], vec![insert("t", 1)]);
        let b = txn("R2", vec![], vec![insert("t", 1)]);
        assert!(txns_conflict(&a, &b));

        let c = txn("R3", vec![], vec![insert("t", 2)]);
        // Different keys, no reads: no conflict.
        assert!(!txns_conflict(&a, &c));

        let d = txn("R4", vec![scan("t")], vec![]);
        // Predicate read over a written table conflicts conservatively.
        assert!(txns_conflict(&a, &d));

        let e = txn("R5", vec![scan("other")], vec![]);
        assert!(!txns_conflict(&a, &e));
    }

    #[test]
    fn conflict_graph_and_ordering_enumeration() {
        let reqs: Vec<String> = vec!["R1".into(), "R2".into(), "R3".into()];
        // R1 and R2 both write key 1 (conflict); R3 touches another table.
        let txns = vec![
            txn("R1", vec![scan("t")], vec![insert("t", 1)]),
            txn("R2", vec![scan("t")], vec![insert("t", 2)]),
            txn("R3", vec![], vec![insert("u", 1)]),
        ];
        let graph = ConflictGraph::build(&reqs, &txns);
        assert!(graph.conflicts("R1", "R2"));
        assert!(!graph.conflicts("R1", "R3"));
        assert!(!graph.conflicts("R2", "R3"));
        assert_eq!(graph.conflict_count(), 1);

        let orders = graph.enumerate_orderings(100);
        // Only the relative order of R1 and R2 matters: two classes.
        assert_eq!(orders.len(), 2);
        assert_eq!(orders[0], vec!["R1", "R2", "R3"]);
        assert!(orders
            .iter()
            .any(|o| o.iter().position(|r| r == "R2") < o.iter().position(|r| r == "R1")));
    }

    #[test]
    fn enumeration_respects_limit_and_handles_all_conflicting() {
        let reqs: Vec<String> = (1..=4).map(|i| format!("R{i}")).collect();
        // Every request writes the same key: all pairs conflict, so every
        // permutation is distinct (4! = 24).
        let txns: Vec<TxnTrace> = reqs
            .iter()
            .map(|r| txn(r, vec![], vec![insert("t", 1)]))
            .collect();
        let graph = ConflictGraph::build(&reqs, &txns);
        assert_eq!(graph.conflict_count(), 6);
        let all = graph.enumerate_orderings(1000);
        assert_eq!(all.len(), 24);
        let limited = graph.enumerate_orderings(5);
        assert_eq!(limited.len(), 5);
        assert_eq!(limited[0], vec!["R1", "R2", "R3", "R4"]);
    }

    #[test]
    fn no_conflicts_means_single_ordering() {
        let reqs: Vec<String> = vec!["R1".into(), "R2".into(), "R3".into()];
        let txns: Vec<TxnTrace> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| txn(r, vec![], vec![insert(&format!("t{i}"), 1)]))
            .collect();
        let graph = ConflictGraph::build(&reqs, &txns);
        let orders = graph.enumerate_orderings(100);
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0], reqs);
    }

    #[test]
    fn empty_input() {
        let graph = ConflictGraph::build(&[], &[]);
        assert!(graph.enumerate_orderings(10).is_empty());
        assert_eq!(graph.conflict_count(), 0);
    }

    #[test]
    fn one_conflicting_pair_among_sixteen_requests_enumerates_quickly() {
        let graph = graph(16, [(3, 11)]);
        let start = std::time::Instant::now();
        let orders = graph.enumerate_orderings(12);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "took {:?}",
            start.elapsed()
        );
        assert_eq!(orders.len(), 2);
        assert_eq!(orders[0], graph.requests);
        let pos = |o: &[String], r: &str| o.iter().position(|x| x == r);
        assert!(pos(&orders[1], "R11") < pos(&orders[1], "R3"));
    }

    proptest! {
        #[test]
        fn pruned_walk_matches_the_exhaustive_oracle(
            n in 0usize..8,
            density in 0u8..5,
            coins in prop::collection::vec(0u8..4, 21),
            limit in 0usize..40,
        ) {
            let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
            let edges = pairs.zip(&coins).filter(|(_, &c)| c < density).map(|(e, _)| e);
            let graph = graph(n, edges);
            prop_assert_eq!(
                graph.enumerate_orderings(limit),
                exhaustive_orderings(&graph, limit)
            );
        }
    }
}
