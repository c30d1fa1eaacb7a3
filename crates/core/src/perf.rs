//! Performance debugging over provenance traces.
//!
//! The paper's §5 ("Debugging Performance and Data Issues") proposes
//! extending TROD's always-on tracing with performance metrics so that the
//! same provenance database that answers correctness questions can answer
//! "which handler is slow and why?" questions, replacing the manual
//! annotations required by commercial APM tools.
//!
//! No additional instrumentation is needed: the interposition layer
//! already timestamps every handler start/end (the `Requests` table) and
//! every transaction (the `Executions` table), so latencies per handler,
//! per request and per transaction fall out of the captured provenance.
//! [`Perf`] computes them and exposes the typical APM-style views:
//! per-handler latency distributions, slow-request search, and per-request
//! workflow breakdowns (the "transaction trace" of New Relic / Retrace).

use std::collections::{BTreeMap, HashMap};

use trod_db::Value;
use trod_provenance::{ProvenanceStore, RequestRecord};
use trod_query::{text_literal, QueryResultT, ResultSet};

use crate::declarative::HANDLER_ACTIVITY_SQL;

/// Transactions, committed or aborted, per handler invocation
/// ([`Perf::slow_requests`]).
pub const TXNS_PER_INVOCATION_SQL: &str =
    "SELECT ReqId, HandlerName, COUNT(*) FROM Executions GROUP BY ReqId, HandlerName";

/// Latency distribution for one handler, in trace-clock microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerLatency {
    /// Handler name.
    pub handler: String,
    /// Completed invocations observed.
    pub invocations: usize,
    /// Invocations that returned an application error.
    pub errors: usize,
    /// Mean latency.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: i64,
    /// 95th-percentile latency.
    pub p95_us: i64,
    /// Maximum latency.
    pub max_us: i64,
    /// Committed transactions run by this handler across all invocations.
    pub transactions: usize,
}

/// One completed request invocation that exceeded a latency threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRequest {
    pub req_id: String,
    pub handler: String,
    pub latency_us: i64,
    /// Transactions the invocation ran (committed or aborted).
    pub transactions: usize,
    /// Whether the handler reported success.
    pub ok: bool,
}

/// One node of a request's workflow breakdown: a handler invocation with
/// its own latency, the transactions it ran, and its child invocations
/// (handlers it called over RPC).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub handler: String,
    pub start_us: i64,
    pub end_us: Option<i64>,
    pub latency_us: Option<i64>,
    /// Transactions attributed to this handler within the request.
    pub transactions: usize,
    /// Time spent inside this handler's transactions (sum of per-txn gaps
    /// between consecutive trace timestamps is not recoverable, so this is
    /// the count-weighted share; see [`Perf::request_breakdown`]).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Latency of this span minus the latency of its children — the time
    /// spent in the handler's own code and transactions.
    pub fn self_time_us(&self) -> Option<i64> {
        let own = self.latency_us?;
        let children: i64 = self.children.iter().filter_map(|c| c.latency_us).sum();
        Some((own - children).max(0))
    }

    /// Total number of spans in this subtree (including this one).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }
}

/// End-to-end latency summary of one request (its root handler invocation).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    pub req_id: String,
    /// The root handler (the one invoked directly, not over RPC).
    pub root: SpanNode,
    /// End-to-end latency (root handler start to end).
    pub end_to_end_us: Option<i64>,
    /// Total handler invocations in the workflow.
    pub invocations: usize,
    /// Total transactions run by the request.
    pub transactions: usize,
}

/// Performance-debugging helper bound to a provenance store.
pub struct Perf<'a> {
    provenance: &'a ProvenanceStore,
}

impl<'a> Perf<'a> {
    pub(crate) fn new(provenance: &'a ProvenanceStore) -> Self {
        Perf { provenance }
    }

    /// Per-handler latency distributions across all completed invocations,
    /// sorted by mean latency descending (slowest handler first). The
    /// transaction counts are [`HANDLER_ACTIVITY_SQL`]'s.
    pub fn handler_latencies(&self) -> Vec<HandlerLatency> {
        let mut samples: BTreeMap<String, Vec<(i64, bool)>> = BTreeMap::new();
        for rec in self.provenance.all_request_records() {
            if let Some(latency) = latency_of(&rec) {
                samples
                    .entry(rec.handler.clone())
                    .or_default()
                    .push((latency, rec.ok.unwrap_or(false)));
            }
        }
        let txn_counts = counts(self.provenance.query(HANDLER_ACTIVITY_SQL));

        let mut out: Vec<HandlerLatency> = samples
            .into_iter()
            .map(|(handler, mut lat)| {
                lat.sort_by_key(|(us, _)| *us);
                let values: Vec<i64> = lat.iter().map(|(us, _)| *us).collect();
                let errors = lat.iter().filter(|(_, ok)| !ok).count();
                let sum: i64 = values.iter().sum();
                let handler_key = std::slice::from_ref(&handler);
                let transactions = txn_counts.get(handler_key).copied().unwrap_or(0);
                HandlerLatency {
                    invocations: values.len(),
                    errors,
                    mean_us: sum as f64 / values.len() as f64,
                    p50_us: percentile(&values, 0.50),
                    p95_us: percentile(&values, 0.95),
                    max_us: *values.last().unwrap_or(&0),
                    transactions,
                    handler,
                }
            })
            .collect();
        out.sort_by(|a, b| b.mean_us.total_cmp(&a.mean_us));
        out
    }

    /// Completed handler invocations whose latency exceeded
    /// `threshold_us`, slowest first, each with its
    /// [`TXNS_PER_INVOCATION_SQL`] count.
    pub fn slow_requests(&self, threshold_us: i64) -> Vec<SlowRequest> {
        let txns_per_invocation = counts(self.provenance.query(TXNS_PER_INVOCATION_SQL));
        let mut out: Vec<SlowRequest> = self
            .provenance
            .all_request_records()
            .into_iter()
            .filter_map(|rec| {
                let latency = latency_of(&rec)?;
                if latency < threshold_us {
                    return None;
                }
                let invocation = [rec.req_id.clone(), rec.handler.clone()];
                let transactions = txns_per_invocation.get(&invocation[..]);
                let transactions = transactions.copied().unwrap_or(0);
                Some(SlowRequest {
                    req_id: rec.req_id,
                    handler: rec.handler,
                    latency_us: latency,
                    transactions,
                    ok: rec.ok.unwrap_or(false),
                })
            })
            .collect();
        out.sort_by_key(|s| std::cmp::Reverse(s.latency_us));
        out
    }

    /// The end-to-end workflow breakdown of one request: the tree of
    /// handler invocations (root handler plus RPC callees), each annotated
    /// with its latency and transaction count, committed or aborted:
    ///
    /// ```sql
    /// SELECT HandlerName, COUNT(*) FROM Executions WHERE ReqId = 'R1' GROUP BY HandlerName
    /// ```
    ///
    /// Returns `None` if the request was never traced.
    pub fn request_breakdown(&self, req_id: &str) -> Option<RequestProfile> {
        let records = self.provenance.request_records(req_id);
        if records.is_empty() {
            return None;
        }
        let txns_per_handler = counts(self.provenance.query(&format!(
            "SELECT HandlerName, COUNT(*) FROM Executions WHERE ReqId = {} GROUP BY HandlerName",
            text_literal(req_id)
        )));
        let total_txns = txns_per_handler.values().sum();

        // The root invocation is the earliest one without a parent; if the
        // trace is truncated and every record has a parent, fall back to
        // the earliest record.
        let root_idx = records.iter().position(|r| r.parent.is_none()).unwrap_or(0);
        let root = build_span(&records, root_idx, &txns_per_handler);
        let invocations = records.len();
        Some(RequestProfile {
            req_id: req_id.to_string(),
            end_to_end_us: root.latency_us,
            invocations,
            transactions: total_txns,
            root,
        })
    }

    /// Profiles of every traced request, slowest end-to-end first.
    /// Requests still in flight (no end timestamp) sort last.
    pub fn all_request_profiles(&self) -> Vec<RequestProfile> {
        let mut out: Vec<RequestProfile> = self
            .provenance
            .request_ids()
            .iter()
            .filter_map(|r| self.request_breakdown(r))
            .collect();
        out.sort_by_key(|p| std::cmp::Reverse(p.end_to_end_us.unwrap_or(-1)));
        out
    }
}

impl std::fmt::Debug for Perf<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Perf").finish()
    }
}

/// The groups of a `GROUP BY` statement's result whose last column is a
/// count: the text of the other columns → the count (empty for a failed
/// query).
fn counts(result: QueryResultT<ResultSet>) -> HashMap<Vec<String>, usize> {
    let mut counts = HashMap::new();
    for row in result.iter().flat_map(ResultSet::rows) {
        let (count, group) = row.split_last().expect("a count column");
        let group = group.iter().map(Value::to_string).collect();
        counts.insert(group, count.as_int().unwrap_or(0) as usize);
    }
    counts
}

fn latency_of(rec: &RequestRecord) -> Option<i64> {
    rec.end_ts.map(|end| (end - rec.start_ts).max(0))
}

/// Nearest-rank percentile over a sorted slice. Returns 0 for empty input.
fn percentile(sorted: &[i64], q: f64) -> i64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn build_span(
    records: &[RequestRecord],
    idx: usize,
    txns_per_handler: &HashMap<Vec<String>, usize>,
) -> SpanNode {
    let rec = &records[idx];
    // Children: invocations whose parent is this handler and whose start
    // falls inside this invocation's window. Handler names are unique per
    // request in the runtime's workflow model, so parent-name matching is
    // unambiguous; the window check guards against repeated invocations of
    // the same handler within one request.
    let end = rec.end_ts.unwrap_or(i64::MAX);
    let children: Vec<SpanNode> = records
        .iter()
        .enumerate()
        .filter(|(i, r)| {
            *i != idx
                && r.parent.as_deref() == Some(rec.handler.as_str())
                && r.start_ts >= rec.start_ts
                && r.start_ts <= end
        })
        .map(|(i, _)| build_span(records, i, txns_per_handler))
        .collect();
    SpanNode {
        handler: rec.handler.clone(),
        start_us: rec.start_ts,
        end_us: rec.end_ts,
        latency_us: latency_of(rec),
        transactions: txns_per_handler
            .get(std::slice::from_ref(&rec.handler))
            .copied()
            .unwrap_or(0),
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_provenance::ProvenanceStore;
    use trod_trace::Tracer;

    /// Builds a provenance store from a scripted set of handler events.
    fn store_with_requests(specs: &[(&str, &str, Option<&str>, bool)]) -> ProvenanceStore {
        let store = ProvenanceStore::new(&trod_db::Database::new());
        let tracer = Tracer::new();
        // Start every handler in order, then end them in reverse order so
        // parents envelope children.
        let starts: Vec<i64> = (specs.iter())
            .map(|(req, handler, parent, _)| tracer.handler_start(req, handler, *parent, "{}"))
            .collect();
        for ((req, handler, _, ok), start) in specs.iter().zip(starts).rev() {
            tracer.handler_end(req, handler, start, "out", *ok);
        }
        store.drain_from(&tracer);
        store
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.50), 5);
        assert_eq!(percentile(&v, 0.95), 10);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.95), 42);
    }

    #[test]
    fn handler_latencies_group_and_sort() {
        let store = store_with_requests(&[
            ("R1", "checkout", None, true),
            ("R2", "checkout", None, true),
            ("R3", "lookup", None, false),
        ]);
        let perf = Perf::new(&store);
        let stats = perf.handler_latencies();
        assert_eq!(stats.len(), 2);
        let checkout = stats.iter().find(|s| s.handler == "checkout").unwrap();
        assert_eq!(checkout.invocations, 2);
        assert_eq!(checkout.errors, 0);
        assert!(checkout.mean_us >= 0.0);
        assert!(checkout.p95_us >= checkout.p50_us);
        let lookup = stats.iter().find(|s| s.handler == "lookup").unwrap();
        assert_eq!(lookup.errors, 1);
    }

    #[test]
    fn slow_requests_filters_by_threshold() {
        let store = store_with_requests(&[("R1", "checkout", None, true)]);
        let perf = Perf::new(&store);
        // Threshold 0: everything qualifies.
        let slow = perf.slow_requests(0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].req_id, "R1");
        // Impossible threshold: nothing qualifies.
        assert!(perf.slow_requests(i64::MAX).is_empty());
    }

    #[test]
    fn request_breakdown_builds_workflow_tree() {
        let store = store_with_requests(&[
            ("R1", "checkout", None, true),
            ("R1", "reserve", Some("checkout"), true),
            ("R1", "charge", Some("checkout"), true),
        ]);
        let perf = Perf::new(&store);
        let profile = perf.request_breakdown("R1").unwrap();
        assert_eq!(profile.invocations, 3);
        assert_eq!(profile.root.handler, "checkout");
        assert_eq!(profile.root.children.len(), 2);
        assert_eq!(profile.root.span_count(), 3);
        let e2e = profile.end_to_end_us.unwrap();
        for child in &profile.root.children {
            assert!(child.latency_us.unwrap() <= e2e);
        }
        assert!(profile.root.self_time_us().unwrap() >= 0);
        assert!(perf.request_breakdown("missing").is_none());
    }

    #[test]
    fn all_request_profiles_sorted_slowest_first() {
        let store =
            store_with_requests(&[("R1", "checkout", None, true), ("R2", "lookup", None, true)]);
        let perf = Perf::new(&store);
        let profiles = perf.all_request_profiles();
        assert_eq!(profiles.len(), 2);
        assert!(
            profiles[0].end_to_end_us.unwrap_or(0) >= profiles[1].end_to_end_us.unwrap_or(0),
            "profiles must be sorted slowest first"
        );
    }

    #[test]
    fn open_invocations_are_not_counted_as_completed() {
        let store = ProvenanceStore::new(&trod_db::Database::new());
        let tracer = Tracer::new();
        tracer.handler_start("R1", "checkout", None, "{}");
        // No handler_end: the request is still in flight.
        store.drain_from(&tracer);
        let perf = Perf::new(&store);
        assert!(perf.handler_latencies().is_empty());
        assert!(perf.slow_requests(0).is_empty());
        let profile = perf.request_breakdown("R1").unwrap();
        assert!(profile.end_to_end_us.is_none());
    }
}
