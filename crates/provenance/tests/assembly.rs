//! A trace is a join: every [`TxnTrace`] the store hands out is assembled
//! from its `Executions` row, its event rows and the application's history.
//! The oracle is the traces themselves: each drained batch is teed before
//! ingest, and `txn`, `txns_for_request` and `txns_between` must return
//! exactly the teed traces, in commit order, with the erasures a redaction
//! applied to the traces ingested before it and without the traces a
//! retention cutoff dropped.
//!
//! Histories run through a traced [`Session`]: snapshot and read-committed
//! reads, empty reads, a scan repeated around the transaction's own
//! insert, updates and deletes, aborted and read-only transactions, a
//! key-value namespace, a table created after the store, redactions and
//! cutoffs between ingests, GC of the in-memory application, and SQL
//! over an event table with and without a `Type` filter, so that reads
//! installed as event rows mix with reads still deferred. At the end,
//! with every read installed, each `<X>Events` table must equal the
//! eager rendering of the teed traces (`eager_rows`), row for row.
//!
//! `PROPTEST_CASES=512 cargo test -q -p trod-provenance --test assembly`

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trod_db::{
    row, ChangeOp, ChangeRecord, DataType, Database, IsolationLevel, Key, Predicate, Row, Schema,
    Ts, Value,
};
use trod_kv::{kv_table_name, Session, TxnOptions};
use trod_provenance::{ProvenanceStore, REDACTED_MARKER};
use trod_trace::{TraceEvent, Tracer, TxnContext, TxnTrace};

const SUBS: &str = "subs";
const LATE: &str = "late";
const CARTS: &str = "carts";

#[derive(Debug, Clone)]
enum Op {
    /// Checks a user's subscriptions, then subscribes them to a forum
    /// (two transactions), scanning again after the insert if `rescan`.
    Subscribe { user: u8, forum: u8, rescan: bool },
    /// A read-committed scan of a forum, served after another request
    /// subscribed someone to it since the scan's snapshot.
    ReadCommitted { user: u8, forum: u8 },
    /// Moves every subscription of a user to a forum.
    Move { user: u8, forum: u8 },
    /// Deletes a subscription by id, present or not.
    Unsubscribe { id: u8 },
    /// A read-only lookup by id, present or not.
    Lookup { id: u8 },
    /// Subscribes a user, then aborts, around another aborted transaction
    /// with a later snapshot.
    Abort { user: u8 },
    /// Reads a user's cart, then puts or deletes it.
    Cart { user: u8, delete: bool },
    /// Writes the table created after the store (creating it first).
    Late,
    /// Drains the tracer into the store, then checks every accessor if
    /// `check` (which installs every read it assembles: a sync that does
    /// not check leaves its reads deferred).
    Sync { check: bool },
    /// Erases a user's subscriptions, or their cart.
    Redact { user: u8, kv: bool },
    /// Drops what the `back`-th most recently ingested trace precedes.
    Retain { back: u8 },
    /// Collects the application's history below the published clock.
    Gc,
    /// Joins `Executions` with the subscriptions' event table, keeping
    /// only inserts if `typed`.
    Sql { typed: bool },
}

/// An operation from a generated `(kind, user, forum, flag, id)` draw;
/// `kind`'s share of the range is the operation's weight.
fn op_of((kind, user, forum, flag, id): (u8, u8, u8, u8, u8)) -> Op {
    let flag = flag == 1;
    match kind {
        0..=3 => Op::Subscribe {
            user,
            forum,
            rescan: flag,
        },
        4 | 5 => Op::ReadCommitted { user, forum },
        6 => Op::Move { user, forum },
        7 => Op::Unsubscribe { id },
        8 => Op::Lookup { id },
        9 => Op::Abort { user },
        10 | 11 => Op::Cart { user, delete: flag },
        12 => Op::Late,
        13..=15 => Op::Sync { check: true },
        16 | 17 => Op::Redact { user, kv: flag },
        18 => Op::Retain { back: id % 8 },
        19 => Op::Gc,
        20 => Op::Sync { check: false },
        _ => Op::Sql { typed: flag },
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let draw = (0u8..23, 0u8..4, 0u8..3, 0u8..2, 0u8..12);
    prop::collection::vec(draw.prop_map(op_of), 1..40)
}

/// The traced application, its store, and what the store must answer.
struct History {
    app: Database,
    session: Session,
    store: ProvenanceStore,
    /// Every teed trace ingested and not dropped, as redaction left it,
    /// with whether a redaction reached it.
    expected: Vec<(TxnTrace, bool)>,
    /// Event table → `EventId` → the row eager ingest would have
    /// written, with the redactions and cutoffs since applied.
    eager: BTreeMap<String, BTreeMap<i64, Row>>,
    /// The next `EventId` eager ingest would have assigned.
    next_event: i64,
    next_id: i64,
    requests: usize,
}

impl History {
    fn new() -> Self {
        let app = Database::new();
        let subs = Schema::builder()
            .column("id", DataType::Int)
            .column("user", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap();
        app.create_table(SUBS, subs.clone()).unwrap();
        app.create_namespace(CARTS).unwrap();
        // `subs` under a name of its own; the namespace and `late` are
        // registered by the first trace that touches them.
        let store = ProvenanceStore::new(&app);
        store.register_table_as(SUBS, "ForumEvents", &subs).unwrap();
        let session = Session::traced(app.clone(), Tracer::new());
        History {
            app,
            session,
            store,
            expected: Vec::new(),
            eager: BTreeMap::new(),
            next_event: 1,
            next_id: 0,
            requests: 0,
        }
    }

    fn ctx(&self, function: &str) -> TxnContext {
        TxnContext::new(format!("R{}", self.requests), "handler", function)
    }

    fn fresh_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id
    }

    fn run(&mut self, op: &Op) {
        let user = |u: &u8| format!("U{u}");
        let of_user = |u: &u8| Predicate::eq("user", user(u));
        match op {
            Op::Subscribe {
                user: u,
                forum,
                rescan,
            } => {
                let mut check = self.session.begin_traced(self.ctx("check"));
                check.scan(SUBS, &of_user(u)).unwrap();
                check.commit().unwrap();
                let id = self.fresh_id();
                let mut insert = self.session.begin_traced(self.ctx("insert"));
                insert.scan(SUBS, &of_user(u)).unwrap();
                insert
                    .insert(SUBS, row![id, user(u), format!("F{forum}")])
                    .unwrap();
                if *rescan {
                    insert.scan(SUBS, &of_user(u)).unwrap();
                }
                insert.commit().unwrap();
            }
            Op::ReadCommitted { user: u, forum } => {
                let opts = TxnOptions::new()
                    .traced(self.ctx("scan"))
                    .isolation(IsolationLevel::ReadCommitted);
                let mut reader = self.session.begin_with(opts);
                let id = self.fresh_id();
                let ctx = TxnContext::new(format!("R{}w", self.requests), "writer", "insert");
                let mut writer = self.session.begin_traced(ctx);
                writer
                    .insert(SUBS, row![id, user(u), format!("F{forum}")])
                    .unwrap();
                writer.commit().unwrap();
                let forum = Predicate::eq("forum", format!("F{forum}"));
                assert!(!reader.scan(SUBS, &forum).unwrap().is_empty());
                reader.commit().unwrap();
            }
            Op::Move { user: u, forum } => {
                let mut txn = self.session.begin_traced(self.ctx("move"));
                txn.update_where(SUBS, &of_user(u), |row| {
                    let mut row = row.clone();
                    row.set(2, Value::Text(format!("F{forum}")));
                    row
                })
                .unwrap();
                txn.commit().unwrap();
            }
            Op::Unsubscribe { id } => {
                let mut txn = self.session.begin_traced(self.ctx("unsubscribe"));
                txn.delete_where(SUBS, &Predicate::eq("id", *id as i64))
                    .unwrap();
                txn.commit().unwrap();
            }
            Op::Lookup { id } => {
                let mut txn = self.session.begin_traced(self.ctx("lookup"));
                txn.get(SUBS, &Key::single(*id as i64)).unwrap();
                txn.commit().unwrap();
            }
            Op::Abort { user: u } => {
                let id = self.fresh_id();
                let mut outer = self.session.begin_traced(self.ctx("abort"));
                outer.exists(SUBS, &of_user(u)).unwrap();
                // A commit, then a whole aborted transaction, inside the
                // first one: the two aborts finish in the reverse order of
                // their snapshots.
                let ctx = TxnContext::new(format!("R{}w", self.requests), "writer", "insert");
                let mut writer = self.session.begin_traced(ctx);
                writer.insert(SUBS, row![id, user(u), "F1"]).unwrap();
                writer.commit().unwrap();
                let mut inner = self.session.begin_traced(self.ctx("abort inner"));
                inner.exists(SUBS, &of_user(u)).unwrap();
                inner.abort();
                let id = self.fresh_id();
                outer.insert(SUBS, row![id, user(u), "F0"]).unwrap();
                outer.abort();
            }
            Op::Cart { user: u, delete } => {
                let key = format!("cart:{}", user(u));
                let mut txn = self.session.begin_traced(self.ctx("cart"));
                txn.kv_get(CARTS, &key).unwrap();
                if *delete {
                    txn.kv_delete(CARTS, &key).unwrap();
                } else {
                    let id = self.fresh_id();
                    txn.kv_put(CARTS, &key, &format!("item{id}")).unwrap();
                }
                txn.commit().unwrap();
            }
            Op::Late => {
                if !self.app.has_table(LATE) {
                    let late = Schema::builder()
                        .column("n", DataType::Int)
                        .column("user", DataType::Text)
                        .primary_key(&["n"])
                        .build()
                        .unwrap();
                    self.app.create_table(LATE, late).unwrap();
                }
                let n = self.fresh_id();
                let mut txn = self.session.begin_traced(self.ctx("late"));
                txn.insert(LATE, row![n, "U0"]).unwrap();
                txn.commit().unwrap();
            }
            Op::Sync { .. } => self.sync(),
            Op::Redact { user: u, kv } => {
                let (table, column, value) = match kv {
                    true => (kv_table_name(CARTS), "kv_key", format!("cart:{}", user(u))),
                    false => (SUBS.into(), "user", user(u)),
                };
                let value = Value::Text(value);
                self.store
                    .redact_rows(&table, &[(column, value.clone())])
                    .unwrap();
                for (trace, partial) in &mut self.expected {
                    *partial |= erase(trace, &table, &value);
                }
                let events = self.store.event_table_for(&table);
                let rows = events.and_then(|t| self.eager.get_mut(&t));
                for row in rows.into_iter().flat_map(|rows| rows.values_mut()) {
                    if row.values()[FIRST_APP_COLUMN..]
                        .iter()
                        .any(|v| v.sql_eq(&value))
                    {
                        row.set(3, Value::Text(REDACTED_MARKER.into()));
                        for i in FIRST_APP_COLUMN..row.len() {
                            row.set(i, Value::Null);
                        }
                    }
                }
            }
            Op::Retain { back } => {
                let mut stamps: Vec<i64> = self.expected.iter().map(|(t, _)| t.timestamp).collect();
                stamps.sort_unstable();
                let Some(&cutoff) = stamps.iter().rev().nth(*back as usize) else {
                    return;
                };
                self.store.retain_since(cutoff).unwrap();
                let dropped: BTreeSet<i64> = (self.expected.iter())
                    .filter(|(t, _)| t.timestamp < cutoff)
                    .map(|(t, _)| t.txn_id as i64)
                    .collect();
                for rows in self.eager.values_mut() {
                    rows.retain(|_, row| !dropped.contains(&row.values()[1].as_int().unwrap()));
                }
                self.expected.retain(|(t, _)| t.timestamp >= cutoff);
            }
            Op::Gc => {
                self.session.gc_before(self.app.current_ts());
            }
            Op::Sql { typed } => {
                let filter = if *typed {
                    " WHERE F.Type = 'Insert'"
                } else {
                    ""
                };
                let sql = format!(
                    "SELECT E.TxnId, E.FirstEventId, E.Events, F.EventId \
                     FROM Executions AS E, ForumEvents AS F ON E.TxnId = F.TxnId{filter}"
                );
                // A transaction's events are all in one table here: an
                // unfiltered join returns every one of them.
                let mut events: BTreeMap<i64, (Range<i64>, BTreeSet<i64>)> = BTreeMap::new();
                for row in self.store.query(&sql).unwrap().rows() {
                    let int = |i: usize| row[i].as_int().unwrap();
                    let txn = events.entry(int(0)).or_default();
                    txn.0 = int(1)..int(1) + int(2);
                    txn.1.insert(int(3));
                }
                for (txn_id, (ids, seen)) in events.into_iter().filter(|_| !typed) {
                    assert_eq!(seen, ids.collect(), "the events of transaction {txn_id}");
                }
            }
        }
        self.requests += 1;
    }

    /// Drains the tracer, tees its transaction traces, and ingests.
    fn sync(&mut self) {
        let events = self.session.tracer().unwrap().drain();
        let mut eager = Vec::new();
        for event in &events {
            if let TraceEvent::Txn(trace) = event {
                self.expected.push(((**trace).clone(), false));
                eager.extend(eager_rows(&self.app, trace, &mut self.next_event));
            }
        }
        self.store.ingest(events);
        for (table, id, row) in eager {
            let table = self.store.event_table_for(&table).unwrap();
            self.eager.entry(table).or_default().insert(id, row);
        }
        self.expected
            .sort_by_key(|(t, _)| (!t.committed, t.serialization_ts(), t.timestamp));
    }

    /// What the store must answer: the expected traces, with the writes of
    /// a commit GC has collected below the floor missing.
    fn answers(&self) -> Vec<(TxnTrace, bool)> {
        let floor = self.app.log_truncated_below();
        let mut answers = self.expected.clone();
        for (trace, partial) in &mut answers {
            if trace.is_write() && trace.committed && trace.commit_ts <= floor {
                trace.writes = Arc::new([]);
                *partial = true;
            }
        }
        answers
    }

    /// With every deferred read installed, each event table holds the
    /// rows eager ingest would have written, `EventId`s included.
    fn check_event_tables(&self) -> Result<(), TestCaseError> {
        let db = self.store.database();
        prop_assert_eq!(self.store.stats().deferred_reads, 0);
        let mut tables: Vec<String> = db.table_names();
        tables.retain(|t| t.ends_with("Events"));
        for table in tables {
            let rows = db.scan_latest(&table, &Predicate::True).unwrap();
            let got: BTreeMap<i64, Row> = rows
                .into_iter()
                .map(|(key, row)| (key.values()[0].as_int().unwrap(), (*row).clone()))
                .collect();
            let want = self.eager.get(&table).cloned().unwrap_or_default();
            prop_assert_eq!(got, want, "{}", table);
        }
        Ok(())
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let answers = self.answers();
        let traces: Vec<TxnTrace> = answers.iter().map(|(t, _)| t.clone()).collect();
        let committed: Vec<TxnTrace> = traces.iter().filter(|t| t.committed).cloned().collect();
        let window = |after: Ts, up_to: Ts| -> Vec<TxnTrace> {
            let inside = |t: &&TxnTrace| t.commit_ts > after && t.commit_ts <= up_to;
            committed.iter().filter(inside).cloned().collect()
        };
        prop_assert_eq!(self.store.txns_between(0, Ts::MAX), window(0, Ts::MAX));
        prop_assert_eq!(self.store.txn_count(), traces.len());

        let mut req_ids: Vec<&str> = traces.iter().map(|t| t.ctx.req_id.as_str()).collect();
        req_ids.sort_unstable();
        req_ids.dedup();
        for req in req_ids {
            let own: Vec<TxnTrace> = traces
                .iter()
                .filter(|t| t.ctx.req_id == req)
                .cloned()
                .collect();
            prop_assert_eq!(self.store.txns_for_request(req), own, "request {}", req);
        }
        prop_assert!(self.store.txns_for_request("never").is_empty());

        for (trace, partial) in &answers {
            prop_assert_eq!(self.store.txn(trace.txn_id), Some(trace.clone()));
            prop_assert_eq!(self.store.is_partial(trace.txn_id), *partial, "{:?}", trace);
        }
        prop_assert_eq!(self.store.txn(u64::MAX >> 1), None);

        // Every window between two commit timestamps.
        let mut stamps: Vec<Ts> = committed.iter().map(|t| t.commit_ts).collect();
        stamps.push(0);
        stamps.dedup();
        for (i, &after) in stamps.iter().enumerate() {
            for &up_to in stamps.iter().skip(i) {
                let (after, up_to) = (after.min(up_to), after.max(up_to));
                prop_assert_eq!(self.store.txns_between(after, up_to), window(after, up_to));
            }
        }
        Ok(())
    }
}

/// Position of the first application column in an event row.
const FIRST_APP_COLUMN: usize = 6;

/// The oracle of deferred reads: the `<X>Events` rows eager ingest wrote
/// for `trace`, `(application table, EventId, row)`, from `next` on. One
/// row per row read, one NULL-data row for a read that matched nothing,
/// then one per change record, all of tables the store registers.
fn eager_rows(app: &Database, trace: &TxnTrace, next: &mut i64) -> Vec<(String, i64, Row)> {
    let mut rows = Vec::new();
    let mut event =
        |table: &str, kind: &str, query: &str, read: Option<(Ts, usize)>, image: Option<&Row>| {
            let app_cols = app.schema_of(table).unwrap().arity();
            let (read_ts, read_no) = match read {
                Some((ts, no)) => (Value::Int(ts as i64), Value::Int(no as i64)),
                None => (Value::Null, Value::Null),
            };
            let mut values = vec![
                Value::Int(*next),
                Value::Int(trace.txn_id as i64),
                Value::Text(kind.into()),
                Value::Text(query.into()),
                read_ts,
                read_no,
            ];
            values.extend(
                (0..app_cols).map(|i| image.and_then(|r| r.get(i)).cloned().unwrap_or(Value::Null)),
            );
            rows.push((table.to_string(), *next, Row::from(values)));
            *next += 1;
        };
    for (read_no, read) in trace.reads.iter().enumerate() {
        let at = Some((read.read_ts, read_no));
        if read.rows.is_empty() {
            event(&read.table, "Read", &read.query, at, None);
        }
        for (_, row) in &read.rows {
            event(&read.table, "Read", &read.query, at, Some(&**row));
        }
    }
    for change in trace.writes.iter() {
        let kind = change.op.kind();
        let image = change.op.after().or_else(|| change.op.before());
        event(
            &change.table,
            kind,
            &format!("{kind} {}", change.key),
            None,
            image,
        );
    }
    rows
}

/// Erases what a redaction of `table` rows holding `value` erased in the
/// trace archive: read rows that hold it leave their read, whose query is
/// then redacted, and change records whose image holds it lose their
/// images. Returns whether anything was erased.
fn erase(trace: &mut TxnTrace, table: &str, value: &Value) -> bool {
    let holds = |row: &Row| row.iter().any(|v| v.sql_eq(value));
    let mut erased = false;
    for read in trace.reads.iter_mut().filter(|r| r.table == table) {
        let before = read.rows.len();
        read.rows.retain(|(_, row)| !holds(row));
        if read.rows.len() < before {
            read.query = REDACTED_MARKER.to_string();
            erased = true;
        }
    }
    let matches = |c: &ChangeRecord| {
        &*c.table == table && c.op.after().or_else(|| c.op.before()).is_some_and(holds)
    };
    if trace.writes.iter().any(matches) {
        let nulls = |row: &Row| Row::from(vec![Value::Null; row.len()]);
        let writes = trace.writes.iter().map(|c| {
            if !matches(c) {
                return c.clone();
            }
            let (table, key) = (c.table.clone(), c.key.clone());
            match &c.op {
                ChangeOp::Insert { after } => ChangeRecord::insert(table, key, nulls(after)),
                ChangeOp::Update { before, after } => {
                    ChangeRecord::update(table, key, nulls(before), nulls(after))
                }
                ChangeOp::Delete { before } => ChangeRecord::delete(table, key, nulls(before)),
            }
        });
        trace.writes = writes.collect();
        erased = true;
    }
    erased
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this property at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    ))]

    #[test]
    fn assembled_traces_are_the_teed_traces(ops in ops()) {
        let mut history = History::new();
        for op in &ops {
            history.run(op);
            if matches!(op, Op::Sync { check: true }) {
                history.check()?;
            }
        }
        history.sync();
        history.check()?;
        history.check_event_tables()?;
    }
}

/// The generator reaches the shapes assembly must tell apart.
#[test]
fn histories_cover_the_shapes_assembly_distinguishes() {
    let mut seen = std::collections::BTreeSet::new();
    let mut rng = proptest::test_runner::TestRng::for_case("coverage", 0);
    for _ in 0..64 {
        let ops = ops().generate(&mut rng);
        let mut history = History::new();
        for op in &ops {
            history.run(op);
        }
        history.sync();
        for (trace, partial) in history.answers() {
            let shape = match (trace.committed, trace.is_write()) {
                (false, _) => "aborted",
                (true, false) => "read-only",
                (true, true) => "writing",
            };
            seen.insert(shape);
            if trace.reads.iter().any(|r| r.read_ts > trace.snapshot_ts) {
                seen.insert("read past the snapshot");
            }
            if trace.reads.iter().any(|r| r.rows.is_empty()) {
                seen.insert("empty read");
            }
            if trace.writes.iter().any(|c| c.table.starts_with("kv:")) {
                seen.insert("kv write");
            }
            if trace.touched_tables().iter().any(|t| t == LATE) {
                seen.insert("late table");
            }
            if trace.reads.iter().any(|r| r.query == REDACTED_MARKER) {
                seen.insert("redacted read");
            }
            let erased = |c: &ChangeRecord| {
                c.op.after()
                    .or_else(|| c.op.before())
                    .is_some_and(|r| r.iter().all(Value::is_null))
            };
            if trace.writes.iter().any(erased) {
                seen.insert("erased write");
            }
            if partial
                && trace.committed
                && trace.commit_ts > trace.snapshot_ts
                && !trace.is_write()
            {
                seen.insert("collected write");
            }
        }
    }
    let expected = [
        "aborted",
        "collected write",
        "empty read",
        "erased write",
        "kv write",
        "late table",
        "read past the snapshot",
        "read-only",
        "redacted read",
        "writing",
    ];
    let seen: Vec<&str> = seen.into_iter().collect();
    assert_eq!(seen, expected);
}

/// Assembly takes a trace's writes from the history entry at its
/// `CommitTs` only if that entry is the trace's own transaction: a trace
/// whose `CommitTs` names another transaction's commit comes out with no
/// writes, and partial.
#[test]
fn a_trace_gets_no_writes_from_another_transactions_commit() {
    let app = Database::new();
    let subs = Schema::builder()
        .column("id", DataType::Int)
        .column("user", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap();
    app.create_table(SUBS, subs).unwrap();
    let store = ProvenanceStore::for_application(&app).unwrap();
    let insert = ChangeRecord::insert(SUBS, Key::single(1i64), row![1i64, "U1"]);
    let other = app.apply_changes(&[insert]).unwrap();
    let stranger = other.txn_id + 1;
    store.ingest(vec![TraceEvent::Txn(Box::new(TxnTrace {
        txn_id: stranger,
        ctx: TxnContext::new("R1", "handler", "insert"),
        timestamp: 1,
        snapshot_ts: other.start_ts,
        commit_ts: other.commit_ts,
        committed: true,
        reads: Vec::new(),
        writes: Arc::clone(&other.changes),
    }))]);
    let trace = store.txn(stranger).expect("the trace was ingested");
    assert_eq!(trace.commit_ts, other.commit_ts);
    assert!(trace.writes.is_empty(), "{:?}", trace.writes);
    assert!(store.is_partial(stranger));
}
