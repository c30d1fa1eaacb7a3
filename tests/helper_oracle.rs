//! The debugger's typed helpers answer their questions with queries over
//! the provenance tables. Each must answer exactly what the walk over the
//! trace archive it replaced answered. Those walks live on below as
//! reference implementations, moved here unchanged and fed by the traces
//! the tracer emitted (teed before ingest, in the archive's old order),
//! and every helper is compared with its
//! reference over random traced histories of the Moodle and profile
//! services: several handlers per request, RPC children, aborted and
//! read-only transactions, external calls, and request pairs racing under
//! a scripted schedule.
//!
//! `PROPTEST_CASES=512 cargo test -q --test helper_oracle`

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trod_apps::{moodle, profiles};
use trod_core::{
    Anomaly, AnomalyKind, DataFlowReport, HandlerLatency, SlowRequest, SpanNode, Trod,
};
use trod_db::{row, DataType, Database, IsolationLevel, Key, Schema, Value};
use trod_provenance::{ProvenanceStore, RequestRecord, EXECUTIONS_TABLE};
use trod_runtime::{point_label, Args, HandlerError, HandlerRegistry, Runtime, Scheduler};
use trod_trace::{TraceEvent, TxnTrace};

const USERS: [&str; 4] = ["alice", "bob", "O'Brien", "José"];
const FORUMS: [&str; 2] = ["F1", "F2"];
const COURSES: [&str; 2] = ["C1", "C2"];
const BATCHES: [&str; 2] = ["B1", "B2"];
/// A table whose key column collides with the provenance `Type` column,
/// so its events key it as `App_Type`.
const KINDS_TABLE: &str = "kinds";
const KINDS: [&str; 2] = ["plain", "it's"];

/// One step of a traced history.
#[derive(Debug, Clone)]
enum Step {
    /// One request.
    Request(&'static str, Args),
    /// Two requests to `handler` racing under a scripted interleaving:
    /// each transaction of one runs between two of the other's.
    Race {
        handler: &'static str,
        first: Args,
        second: Args,
    },
}

fn step((kind, u, v, f, c): (u8, usize, usize, usize, usize)) -> Step {
    let (user, other, forum, course) = (USERS[u], USERS[v], FORUMS[f], COURSES[c]);
    let sub = |i: usize| format!("S{i}");
    let request = |handler, args| Step::Request(handler, args);
    match kind {
        0 => request(
            "createProfile",
            Args::new()
                .with("user_name", user)
                .with("email", format!("{user}@example.org")),
        ),
        1 => request("updateProfile", profiles::update_args(user, other, "bio")),
        2 => request("viewProfile", Args::new().with("user_name", user)),
        3 => request("harvestProfiles", Args::new().with("batch", BATCHES[f])),
        4 => request("syncStaging", Args::new().with("batch", BATCHES[c])),
        5 => request(
            "subscribeUser",
            moodle::subscribe_args(&sub(v), user, forum),
        ),
        6 => request("fetchSubscribers", moodle::fetch_args(forum)),
        7 => request(
            "unsubscribeUser",
            Args::new().with("user_id", user).with("forum", forum),
        ),
        8 => request(
            "createForum",
            Args::new().with("forum", forum).with("course", course),
        ),
        9 => request("deleteCourse", Args::new().with("course", course)),
        10 => request("restoreCourse", Args::new().with("course", course)),
        11 => request(
            "workflow",
            Args::new()
                .with("user", user)
                .with("forum", forum)
                .with("course", course)
                .with("batch", BATCHES[f]),
        ),
        12 => request("abandon", Args::new().with("user_name", user)),
        13 => request("tally", Args::new().with("kind", KINDS[f])),
        14 => Step::Race {
            handler: "subscribeUser",
            first: moodle::subscribe_args("", user, forum),
            second: moodle::subscribe_args("", user, forum),
        },
        _ => {
            let rebalance = |course: &str, other: &str| {
                let isolation = if f == 0 { "rc" } else { "si" };
                Args::new()
                    .with("course", course)
                    .with("other", other)
                    .with("isolation", isolation)
            };
            Step::Race {
                handler: "rebalance",
                first: rebalance(course, COURSES[1 - c]),
                second: rebalance(COURSES[v % 2], COURSES[1 - v % 2]),
            }
        }
    }
}

fn history() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..16, 0usize..4, 0usize..4, 0usize..2, 0usize..2).prop_map(step),
        4..14,
    )
}

fn arg(args: &Args, name: &str) -> Result<String, HandlerError> {
    args.get_str(name)
        .map(str::to_string)
        .ok_or_else(|| HandlerError::BadArgument(format!("missing `{name}`")))
}

/// The Moodle and profile-service handlers, plus test handlers for the
/// shapes the two apps lack.
fn registry() -> HandlerRegistry {
    let mut registry = moodle::registry();
    let profile_handlers = profiles::registry();
    for name in profile_handlers.names() {
        registry.register(name.clone(), profile_handlers.get(&name).unwrap());
    }
    // A request that calls five handlers over RPC, one of which makes an
    // external call; a child's failure does not stop the workflow.
    registry.register_fn("workflow", |ctx, args| {
        let (user, forum) = (arg(args, "user")?, arg(args, "forum")?);
        let batch = Args::new().with("batch", arg(args, "batch")?);
        let course = Args::new()
            .with("forum", forum.as_str())
            .with("course", arg(args, "course")?);
        let _ = ctx.call("createForum", course);
        let sub = format!("W-{user}");
        let _ = ctx.call("subscribeUser", moodle::subscribe_args(&sub, &user, &forum));
        let _ = ctx.call("harvestProfiles", batch.clone());
        let _ = ctx.call("syncStaging", batch);
        ctx.call("viewProfile", Args::new().with("user_name", user))
    });
    // Reads, buffers a write, and aborts.
    registry.register_fn("abandon", |ctx, args| {
        let user = arg(args, "user_name")?;
        let mut txn = ctx.txn("func:abandon");
        txn.get(profiles::PROFILES_TABLE, &Key::single(user.as_str()))?;
        txn.scan(moodle::FORUM_SUB_TABLE, &trod_db::Predicate::True)?;
        txn.insert(profiles::STAGING_TABLE, row![format!("A-{user}"), "x"])?;
        txn.abort();
        Ok(Value::Bool(false))
    });
    // Read-modify-write of a row keyed by the `Type` column.
    registry.register_fn("tally", |ctx, args| {
        let kind = arg(args, "kind")?;
        let mut txn = ctx.txn("func:tally");
        let key = Key::single(kind.as_str());
        match txn.get(KINDS_TABLE, &key)? {
            Some(row) => {
                let n = row[1].as_int().unwrap_or(0) + 1;
                txn.update(KINDS_TABLE, &key, row![kind, n])?;
            }
            None => {
                txn.insert(KINDS_TABLE, row![kind, 1i64])?;
            }
        }
        txn.commit()?;
        Ok(Value::Bool(true))
    });
    // Reads two courses and writes the first: raced against itself it
    // forms lost updates (same course) or write skews (crossed courses).
    // Every step sits between two sync points, so a script fixes the
    // interleaving.
    registry.register_fn("rebalance", |ctx, args| {
        let (course, other) = (arg(args, "course")?, arg(args, "other")?);
        let isolation = match arg(args, "isolation")?.as_str() {
            "rc" => IsolationLevel::ReadCommitted,
            _ => IsolationLevel::SnapshotIsolation,
        };
        ctx.sync_point("pre-read");
        let mut txn = ctx.txn_with("func:rebalance", isolation);
        let key = Key::single(course.as_str());
        let mine = txn.get(moodle::COURSES_TABLE, &key);
        let theirs = txn.get(moodle::COURSES_TABLE, &Key::single(other.as_str()));
        ctx.sync_point("post-read");
        ctx.sync_point("pre-write");
        let flag = matches!(theirs, Ok(Some(row)) if row[1].as_bool() == Some(true));
        let written = match mine {
            Ok(Some(_)) => txn.update(moodle::COURSES_TABLE, &key, row![course, !flag]),
            _ => txn
                .insert(moodle::COURSES_TABLE, row![course, flag])
                .map(drop),
        };
        let committed = written.and_then(|()| txn.commit());
        ctx.sync_point("post-write");
        committed?;
        Ok(Value::Bool(true))
    });
    registry
}

/// A rebalance race: both read, then the first writes, then the second.
fn rebalance_script(first: &str, second: &str) -> Vec<String> {
    let points = |req: &str, names: &[&str]| -> Vec<String> {
        names.iter().map(|p| point_label(req, p)).collect()
    };
    [
        points(first, &["pre-read", "post-read"]),
        points(second, &["pre-read", "post-read"]),
        points(first, &["pre-write", "post-write"]),
        points(second, &["pre-write", "post-write"]),
    ]
    .concat()
}

/// Drains the tracer into the store, as `Trod::sync` does, and appends
/// the transaction traces it carried to `teed`.
fn sync_teed(trod: &Trod, teed: &mut Vec<TxnTrace>) {
    let events = trod.runtime().tracer().drain();
    teed.extend(events.iter().filter_map(|event| match event {
        TraceEvent::Txn(trace) => Some((**trace).clone()),
        _ => None,
    }));
    trod.provenance().ingest(events);
}

/// Runs `steps` on a fresh traced Moodle + profiles application and
/// returns its debugger, with every transaction trace the history emitted
/// in the archive's old order: committed ones at their serialization
/// point, then aborted ones at their snapshot, ties by trace timestamp.
fn traced_history(steps: &[Step]) -> (Trod, Vec<TxnTrace>) {
    let db = Database::new();
    moodle::create_schema(&db);
    profiles::create_schema(&db);
    let kinds = Schema::builder()
        .column("Type", DataType::Text)
        .column("n", DataType::Int)
        .primary_key(&["Type"])
        .build()
        .unwrap();
    db.create_table(KINDS_TABLE, kinds).unwrap();
    // Two tables under the paper's names, the rest under the defaults.
    let store = ProvenanceStore::new(&db);
    for table in db.table_names() {
        let schema = db.schema_of(&table).unwrap();
        match table.as_str() {
            moodle::FORUM_SUB_TABLE => store.register_table_as(&table, "ForumEvents", &schema),
            profiles::PROFILES_TABLE => store.register_table_as(&table, "ProfileEvents", &schema),
            _ => store.register_table(&table, &schema).map(drop),
        }
        .unwrap();
    }
    let scheduler = Arc::new(Scheduler::scripted(Vec::new()));
    let runtime = Runtime::builder(db, registry())
        .scheduler(scheduler.clone())
        .request_prefix("H-")
        .build();
    let trod = Trod::attach_with(runtime, store);
    let mut teed = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Request(handler, args) => {
                trod.runtime().handle_request(handler, args.clone());
            }
            Step::Race {
                handler,
                first,
                second,
            } => {
                // Request ids with a quote in them: every helper that
                // pastes a request id into SQL must quote it.
                let (a, b) = (format!("R{i}'a"), format!("R{i}'b"));
                scheduler.set_script(match *handler {
                    "subscribeUser" => moodle::toctou_script(&a, &b),
                    _ => rebalance_script(&a, &b),
                });
                let runtime = trod.runtime();
                std::thread::scope(|scope| {
                    for (id, args) in [(&a, first), (&b, second)] {
                        // A subscription id of its own, so the insert the
                        // script waits for cannot fail on the key.
                        let mut args = args.clone();
                        if *handler == "subscribeUser" {
                            args.set("sub_id", id.as_str());
                        }
                        scope.spawn(move || runtime.handle_request_with_id(id, handler, args));
                    }
                });
                assert!(
                    scheduler.violations().is_empty(),
                    "{:?}",
                    scheduler.violations()
                );
            }
        }
        if i == steps.len() / 2 {
            sync_teed(&trod, &mut teed);
        }
    }
    sync_teed(&trod, &mut teed);
    teed.sort_by_key(|t| (!t.committed, t.serialization_ts(), t.timestamp));
    (trod, teed)
}

// ---------------------------------------------------------------------
// The archive walks the helpers replaced, unchanged but for taking the
// archive (`all_txns`, the teed traces) as an argument.
// ---------------------------------------------------------------------

/// `ProvenanceStore::txns_touching_table`.
fn txns_touching_table(all_txns: &[TxnTrace], table: &str) -> Vec<TxnTrace> {
    let mut txns: Vec<TxnTrace> = all_txns
        .iter()
        .filter(|t| t.touched_tables().iter().any(|x| x == table))
        .cloned()
        .collect();
    txns.sort_by_key(|t| (!t.committed, t.serialization_ts(), t.timestamp));
    txns
}

fn latency_of(rec: &RequestRecord) -> Option<i64> {
    rec.end_ts.map(|end| (end - rec.start_ts).max(0))
}

fn percentile(sorted: &[i64], q: f64) -> i64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `Perf::handler_latencies`.
fn handler_latencies(store: &ProvenanceStore, all_txns: &[TxnTrace]) -> Vec<HandlerLatency> {
    let mut samples: BTreeMap<String, Vec<(i64, bool)>> = BTreeMap::new();
    for rec in store.all_request_records() {
        if let Some(latency) = latency_of(&rec) {
            samples
                .entry(rec.handler.clone())
                .or_default()
                .push((latency, rec.ok.unwrap_or(false)));
        }
    }
    let mut txn_counts: BTreeMap<String, usize> = BTreeMap::new();
    for txn in all_txns {
        if txn.committed {
            *txn_counts.entry(txn.ctx.handler.clone()).or_default() += 1;
        }
    }

    let mut out: Vec<HandlerLatency> = samples
        .into_iter()
        .map(|(handler, mut lat)| {
            lat.sort_by_key(|(us, _)| *us);
            let values: Vec<i64> = lat.iter().map(|(us, _)| *us).collect();
            let errors = lat.iter().filter(|(_, ok)| !ok).count();
            let sum: i64 = values.iter().sum();
            let transactions = txn_counts.get(&handler).copied().unwrap_or(0);
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

/// `Perf::slow_requests`.
fn slow_requests(
    store: &ProvenanceStore,
    all_txns: &[TxnTrace],
    threshold_us: i64,
) -> Vec<SlowRequest> {
    let mut txns_per_invocation: BTreeMap<(String, String), usize> = BTreeMap::new();
    for txn in all_txns {
        *txns_per_invocation
            .entry((txn.ctx.req_id.clone(), txn.ctx.handler.clone()))
            .or_default() += 1;
    }
    let mut out: Vec<SlowRequest> = store
        .all_request_records()
        .into_iter()
        .filter_map(|rec| {
            let latency = latency_of(&rec)?;
            if latency < threshold_us {
                return None;
            }
            let transactions = txns_per_invocation
                .get(&(rec.req_id.clone(), rec.handler.clone()))
                .copied()
                .unwrap_or(0);
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

/// The transaction counts of `Perf::request_breakdown`: per handler, and
/// in total.
fn request_txn_counts(all_txns: &[TxnTrace], req_id: &str) -> (BTreeMap<String, usize>, usize) {
    let mut txns_per_handler: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_txns = 0usize;
    for txn in all_txns.iter().filter(|t| t.ctx.req_id == req_id) {
        *txns_per_handler.entry(txn.ctx.handler.clone()).or_default() += 1;
        total_txns += 1;
    }
    (txns_per_handler, total_txns)
}

/// `Declarative::concurrent_requests`.
fn concurrent_requests(all_txns: &[TxnTrace], req_id: &str) -> Vec<String> {
    let own: Vec<&TxnTrace> = all_txns.iter().filter(|t| t.ctx.req_id == req_id).collect();
    let committed: Vec<&&TxnTrace> = own.iter().filter(|t| t.committed).collect();
    let (first, last) = match (committed.first(), committed.last()) {
        (Some(f), Some(l)) => (f.snapshot_ts, l.serialization_ts()),
        _ => return Vec::new(),
    };
    let mut out = Vec::new();
    for txn in all_txns {
        if txn.ctx.req_id == req_id || !txn.committed {
            continue;
        }
        // Overlaps the (first snapshot, last serialization point) window.
        if txn.serialization_ts() > first
            && txn.snapshot_ts < last
            && !out.contains(&txn.ctx.req_id)
        {
            out.push(txn.ctx.req_id.clone());
        }
    }
    out
}

/// `RetroactiveBuilder::requests_touching_table`.
fn requests_touching_table(all_txns: &[TxnTrace], table: &str) -> Vec<String> {
    let mut req_ids = Vec::new();
    for txn in txns_touching_table(all_txns, table) {
        if !req_ids.contains(&txn.ctx.req_id) {
            req_ids.push(txn.ctx.req_id.clone());
        }
    }
    req_ids
}

/// `Quality::blame`, as (txn, request, handler, timestamp, operation).
fn blame(all_txns: &[TxnTrace], table: &str, key: &Key) -> Vec<(i64, String, String, i64, String)> {
    let mut out = Vec::new();
    for txn in txns_touching_table(all_txns, table) {
        if !txn.committed {
            continue;
        }
        for change in txn.writes.iter() {
            if *change.table == *table && change.key == *key {
                out.push((
                    txn.txn_id as i64,
                    txn.ctx.req_id.clone(),
                    txn.ctx.handler.clone(),
                    txn.timestamp,
                    change.op.kind().to_string(),
                ));
            }
        }
    }
    out
}

/// `Security::unauthenticated_reads`, as (timestamp, request, handler).
fn unauthenticated_reads(
    trod: &Trod,
    events_table: &str,
    authenticated_handlers: &[&str],
) -> Vec<(i64, String, String)> {
    let sql = format!(
        "SELECT Timestamp, ReqId, HandlerName \
         FROM {EXECUTIONS_TABLE} as E, {events_table} as P \
         ON E.TxnId = P.TxnId \
         WHERE P.Type = 'Read' \
         ORDER BY Timestamp ASC"
    );
    let result = trod.query(&sql).unwrap();
    result
        .rows()
        .iter()
        .filter(|row| {
            let handler = row[2].as_text().unwrap_or("");
            !authenticated_handlers.contains(&handler)
        })
        .map(|row| {
            let text = |i: usize| row[i].as_text().unwrap_or("").to_string();
            (row[0].as_int().unwrap_or(0), text(1), text(2))
        })
        .collect()
}

/// `Security::trace_data_flow`.
fn trace_data_flow(trod: &Trod, all_txns: &[TxnTrace], origin_req_id: &str) -> DataFlowReport {
    let mut tainted_requests: Vec<String> = vec![origin_req_id.to_string()];
    let mut tainted_keys: BTreeSet<(String, String)> = BTreeSet::new();
    let mut tainted_writes: Vec<(String, String)> = Vec::new();

    // Seed with the origin's writes.
    for txn in all_txns.iter().filter(|t| t.ctx.req_id == origin_req_id) {
        for write in txn.writes.iter() {
            let entry = (write.table.to_string(), write.key.to_string());
            if tainted_keys.insert(entry.clone()) {
                tainted_writes.push(entry);
            }
        }
    }

    // Propagate forward in commit order until a fixed point. The
    // number of passes is bounded by the number of requests.
    let mut changed = true;
    while changed {
        changed = false;
        for txn in all_txns {
            if !txn.committed || tainted_requests.contains(&txn.ctx.req_id) {
                continue;
            }
            let reads_tainted = txn.reads.iter().any(|read| {
                read.rows
                    .iter()
                    .any(|(key, _)| tainted_keys.contains(&(read.table.clone(), key.to_string())))
            });
            if reads_tainted {
                tainted_requests.push(txn.ctx.req_id.clone());
                changed = true;
            }
            if tainted_requests.contains(&txn.ctx.req_id) {
                for write in txn.writes.iter() {
                    let entry = (write.table.to_string(), write.key.to_string());
                    if tainted_keys.insert(entry.clone()) {
                        tainted_writes.push(entry);
                        changed = true;
                    }
                }
            }
        }
    }

    // External calls of tainted requests.
    let mut exfiltration_candidates = Vec::new();
    if let Ok(calls) = trod.security().external_calls() {
        for row in calls.rows() {
            let req = row[0].as_text().unwrap_or("").to_string();
            if tainted_requests.contains(&req) {
                exfiltration_candidates.push((
                    req,
                    row[2].as_text().unwrap_or("").to_string(),
                    row[3].as_text().unwrap_or("").to_string(),
                ));
            }
        }
    }

    DataFlowReport {
        origin_req_id: origin_req_id.to_string(),
        tainted_requests,
        tainted_writes,
        exfiltration_candidates,
    }
}

/// `Reenactor::audit_anomalies`.
fn audit_anomalies(all_txns: &[TxnTrace]) -> Vec<Anomaly> {
    let txns: Vec<&TxnTrace> = all_txns.iter().filter(|t| t.committed).collect();
    let mut out = Vec::new();
    for (i, a) in txns.iter().enumerate() {
        for b in txns.iter().skip(i + 1) {
            if !overlap(a, b) || a.ctx.req_id == b.ctx.req_id {
                continue;
            }
            let (first, second) = if a.commit_ts <= b.commit_ts {
                (a, b)
            } else {
                (b, a)
            };
            if let Some(anomaly) = lost_update(first, second) {
                out.push(anomaly);
            } else if let Some(anomaly) = write_skew(first, second) {
                out.push(anomaly);
            }
        }
    }
    out
}

fn overlap(a: &TxnTrace, b: &TxnTrace) -> bool {
    a.snapshot_ts < b.commit_ts && b.snapshot_ts < a.commit_ts
}

fn write_set(t: &TxnTrace) -> BTreeSet<(String, String)> {
    t.writes
        .iter()
        .map(|c| (c.table.to_string(), c.key.to_string()))
        .collect()
}

fn read_set(t: &TxnTrace) -> BTreeSet<(String, String)> {
    t.reads
        .iter()
        .flat_map(|r| {
            r.rows
                .iter()
                .map(move |(key, _): &(Key, _)| (r.table.clone(), key.to_string()))
        })
        .collect()
}

fn lost_update(first: &TxnTrace, second: &TxnTrace) -> Option<Anomaly> {
    let shared: Vec<(String, String)> = write_set(first)
        .intersection(&write_set(second))
        .cloned()
        .collect();
    if shared.is_empty() {
        return None;
    }
    let tables: Vec<String> = dedup_tables(shared.iter().map(|(t, _)| t.clone()));
    Some(Anomaly {
        kind: AnomalyKind::LostUpdate,
        txns: (first.txn_id, second.txn_id),
        requests: (first.ctx.req_id.clone(), second.ctx.req_id.clone()),
        handlers: (first.ctx.handler.clone(), second.ctx.handler.clone()),
        detail: format!(
            "transactions {} and {} overlap and both wrote {:?}",
            first.txn_id, second.txn_id, shared
        ),
        tables,
    })
}

fn write_skew(first: &TxnTrace, second: &TxnTrace) -> Option<Anomaly> {
    let w1 = write_set(first);
    let w2 = write_set(second);
    if w1.is_empty() || w2.is_empty() || w1.intersection(&w2).next().is_some() {
        return None;
    }
    let r1 = read_set(first);
    let r2 = read_set(second);
    let first_reads_seconds_writes = r1.intersection(&w2).next().is_some();
    let second_reads_firsts_writes = r2.intersection(&w1).next().is_some();
    if !(first_reads_seconds_writes && second_reads_firsts_writes) {
        return None;
    }
    let tables: Vec<String> =
        dedup_tables(w1.iter().chain(w2.iter()).map(|(table, _)| table.clone()));
    Some(Anomaly {
        kind: AnomalyKind::WriteSkew,
        txns: (first.txn_id, second.txn_id),
        requests: (first.ctx.req_id.clone(), second.ctx.req_id.clone()),
        handlers: (first.ctx.handler.clone(), second.ctx.handler.clone()),
        detail: format!(
            "transactions {} and {} overlap, read each other's write sets and wrote disjoint rows",
            first.txn_id, second.txn_id
        ),
        tables,
    })
}

fn dedup_tables(iter: impl Iterator<Item = String>) -> Vec<String> {
    let mut tables: Vec<String> = iter.collect();
    tables.sort();
    tables.dedup();
    tables
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// Every span's transaction count equals the reference's for its handler.
fn spans_match(span: &SpanNode, per_handler: &BTreeMap<String, usize>) -> bool {
    span.transactions == per_handler.get(&span.handler).copied().unwrap_or(0)
        && span.children.iter().all(|c| spans_match(c, per_handler))
}

fn check_helpers(trod: &Trod, all_txns: &[TxnTrace]) -> Result<(), TestCaseError> {
    let store = trod.provenance();
    let all_txns = all_txns.to_vec();
    let mut req_ids = store.request_ids();
    req_ids.push("never-traced".to_string());

    let perf = trod.perf();
    prop_assert_eq!(
        perf.handler_latencies(),
        handler_latencies(store, &all_txns)
    );
    prop_assert_eq!(perf.slow_requests(0), slow_requests(store, &all_txns, 0));
    for req in &req_ids {
        let (per_handler, total) = request_txn_counts(&all_txns, req);
        if let Some(profile) = perf.request_breakdown(req) {
            prop_assert_eq!(profile.transactions, total, "request {}", req);
            prop_assert!(spans_match(&profile.root, &per_handler), "request {}", req);
        }
        prop_assert_eq!(
            trod.declarative().concurrent_requests(req),
            concurrent_requests(&all_txns, req),
            "request {}",
            req
        );
        prop_assert_eq!(
            trod.security().trace_data_flow(req),
            trace_data_flow(trod, &all_txns, req),
            "request {}",
            req
        );
    }

    let mut tables = trod.production_db().table_names();
    tables.push("never-registered".to_string());
    for table in &tables {
        prop_assert_eq!(
            trod.declarative().requests_touching_table(table),
            requests_touching_table(&all_txns, table),
            "table {}",
            table
        );
    }

    // Every row ever written, and one never written.
    let mut violations: BTreeSet<(String, String)> = BTreeSet::new();
    let mut keys: Vec<(String, Key)> = vec![(KINDS_TABLE.into(), Key::single("never"))];
    for txn in &all_txns {
        for change in txn.writes.iter() {
            if violations.insert((change.table.to_string(), change.key.to_string())) {
                keys.push((change.table.to_string(), change.key.clone()));
            }
        }
    }
    let quality = trod.quality();
    for (table, key) in keys {
        let blamed: Vec<_> = quality
            .blame(&table, &key)
            .into_iter()
            .map(|b| (b.txn_id, b.req_id, b.handler, b.timestamp, b.operation))
            .collect();
        prop_assert_eq!(blamed, blame(&all_txns, &table, &key), "{} {}", table, key);
    }

    for allowed in [
        &[][..],
        &["viewProfile"],
        &["viewProfile", "O'Handler", "José"],
    ] {
        for events in ["ProfileEvents", "ForumEvents", "StagingEvents"] {
            let reads: Vec<_> = trod
                .security()
                .unauthenticated_reads(events, allowed)
                .unwrap()
                .into_iter()
                .map(|v| (v.timestamp, v.req_id, v.handler))
                .collect();
            prop_assert_eq!(reads, unauthenticated_reads(trod, events, allowed));
        }
    }

    prop_assert_eq!(
        trod.reenactor().audit_anomalies(),
        audit_anomalies(&all_txns)
    );
    Ok(())
}

proptest! {
    #[test]
    fn helpers_answer_what_the_archive_walks_answered(steps in history()) {
        let (trod, all_txns) = traced_history(&steps);
        check_helpers(&trod, &all_txns)?;
    }
}

/// The generator reaches every shape the helpers must handle, so the
/// property above is not vacuous.
#[test]
fn histories_cover_the_shapes_the_helpers_distinguish() {
    let mut seen = BTreeSet::new();
    let mut rng = proptest::test_runner::TestRng::for_case("coverage", 0);
    for _ in 0..64 {
        let steps = history().generate(&mut rng);
        let (trod, all_txns) = traced_history(&steps);
        let store = trod.provenance();
        for txn in &all_txns {
            seen.insert(match (txn.committed, txn.is_write()) {
                (false, _) => "aborted",
                (true, false) => "read-only",
                (true, true) => "writing",
            });
        }
        if store
            .all_request_records()
            .iter()
            .any(|r| r.parent.is_some())
        {
            seen.insert("rpc child");
        }
        if store.stats().external_calls > 0 {
            seen.insert("external call");
        }
        if !trod.reenactor().audit_anomalies().is_empty() {
            seen.insert("anomaly");
        }
        let ids = store.request_ids();
        if ids
            .iter()
            .any(|r| !trod.declarative().concurrent_requests(r).is_empty())
        {
            seen.insert("concurrent");
        }
    }
    let expected = [
        "aborted",
        "anomaly",
        "concurrent",
        "external call",
        "read-only",
        "rpc child",
        "writing",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);
}
