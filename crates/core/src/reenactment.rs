//! Transaction reenactment and isolation-anomaly auditing for weak
//! isolation levels.
//!
//! TROD's default assumption is strict serializability (paper §3.1), but
//! the paper notes that it "can work for lower isolation levels such as
//! snapshot isolation and read committed by leveraging prior work on
//! transaction reenactment \[GProM\], which can faithfully replay
//! transactional histories under weak isolation levels using database
//! audit logs and time travel capabilities."
//!
//! This module provides that capability on top of `trod-db`'s MVCC time
//! travel:
//!
//! * [`Reenactor::reenact_txn`] re-derives a traced transaction's read set
//!   by reading the production database *as of* the transaction's snapshot
//!   timestamp and compares it with what the transaction actually
//!   observed. Under serializable and snapshot isolation the two agree;
//!   under read committed a disagreement pinpoints the reads that depended
//!   on mid-transaction commits — exactly the information a developer
//!   needs to decide whether a weakly isolated execution is the cause of a
//!   bug.
//! * [`Reenactor::audit_anomalies`] scans the traced history for the
//!   classic weak-isolation anomaly patterns — lost-update and write-skew
//!   candidates between temporally overlapping transactions — using only
//!   the captured read/write provenance.

use std::collections::BTreeSet;
use std::fmt;

use trod_db::{Database, DbResult, Key, Ts, TxnId};
use trod_provenance::ProvenanceStore;
use trod_trace::TxnTrace;

/// The kind of weak-isolation anomaly a pair of transactions exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Two overlapping committed transactions wrote the same row; under
    /// weak isolation the first write is silently overwritten.
    LostUpdate,
    /// Two overlapping committed transactions each read a row the other
    /// wrote but wrote disjoint rows — the snapshot-isolation write-skew
    /// pattern.
    WriteSkew,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::LostUpdate => write!(f, "lost update"),
            AnomalyKind::WriteSkew => write!(f, "write skew"),
        }
    }
}

/// A candidate anomaly between two traced transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    pub kind: AnomalyKind,
    /// The two transactions involved, in commit order.
    pub txns: (TxnId, TxnId),
    /// The requests the transactions belong to.
    pub requests: (String, String),
    /// The handlers that issued them.
    pub handlers: (String, String),
    /// The table(s) on which the conflict occurred.
    pub tables: Vec<String>,
    /// Human-readable description.
    pub detail: String,
}

/// The result of reenacting one transaction's reads via time travel.
#[derive(Debug, Clone, PartialEq)]
pub struct ReenactmentReport {
    pub txn_id: TxnId,
    pub req_id: String,
    pub handler: String,
    /// Isolation-independent snapshot the reads were reenacted at.
    pub snapshot_ts: trod_db::Ts,
    /// Row images compared.
    pub reads_checked: usize,
    /// Reads whose recorded image differs from the as-of-snapshot image —
    /// evidence the transaction observed state committed *after* its
    /// snapshot (possible under read committed, impossible under snapshot
    /// isolation or serializability).
    pub divergent_reads: Vec<String>,
}

impl ReenactmentReport {
    /// True if every recorded read matches the snapshot reconstruction.
    pub fn is_snapshot_consistent(&self) -> bool {
        self.divergent_reads.is_empty()
    }
}

/// Reenactment / isolation-audit helper bound to the provenance store and
/// the (time-travel-capable) production database: every read
/// — `kv:<namespace>` rows included, a namespace being a table — reenacts
/// against the database's MVCC history as of the transaction's snapshot
/// timestamp.
pub struct Reenactor<'a> {
    provenance: &'a ProvenanceStore,
    production: &'a Database,
}

impl<'a> Reenactor<'a> {
    pub(crate) fn new(provenance: &'a ProvenanceStore, production: &'a Database) -> Self {
        Reenactor {
            provenance,
            production,
        }
    }

    /// Reenacts one traced transaction: every image it recorded reading —
    /// relational row or key-value entry — is re-read from the production
    /// environment as of the transaction's snapshot timestamp and
    /// compared.
    pub fn reenact_txn(&self, txn_id: TxnId) -> DbResult<Option<ReenactmentReport>> {
        let trace = self.provenance.txn(txn_id);
        trace.map(|trace| self.reenact(&trace)).transpose()
    }

    /// Reenacts every committed transaction of a request (the
    /// weak-isolation analogue of [`crate::ReplaySession`]), assembling
    /// the request's traces once.
    pub fn reenact_request(&self, req_id: &str) -> DbResult<Vec<ReenactmentReport>> {
        let txns = self.provenance.txns_for_request(req_id);
        txns.iter()
            .filter(|t| t.committed)
            .map(|t| self.reenact(t))
            .collect()
    }

    /// [`Self::reenact_txn`] for a trace in hand.
    fn reenact(&self, trace: &TxnTrace) -> DbResult<ReenactmentReport> {
        let mut reads_checked = 0;
        let mut divergent_reads = Vec::new();
        for read in &trace.reads {
            for (key, recorded) in &read.rows {
                reads_checked += 1;
                let as_of = self
                    .production
                    .get_as_of(&read.table, key, trace.snapshot_ts)?;
                match as_of {
                    Some(row) if &row == recorded => {}
                    Some(row) => divergent_reads.push(format!(
                        "{}{key}: recorded {recorded} but snapshot ts={} has {row}",
                        read.table, trace.snapshot_ts
                    )),
                    None => divergent_reads.push(format!(
                        "{}{key}: recorded {recorded} but row does not exist at snapshot ts={}",
                        read.table, trace.snapshot_ts
                    )),
                }
            }
        }
        Ok(ReenactmentReport {
            txn_id: trace.txn_id,
            req_id: trace.ctx.req_id.clone(),
            handler: trace.ctx.handler.clone(),
            snapshot_ts: trace.snapshot_ts,
            reads_checked,
            divergent_reads,
        })
    }

    /// Scans all committed traced transactions for lost-update and
    /// write-skew candidates between temporally overlapping pairs.
    ///
    /// Candidates are reported pessimistically: under the default
    /// serializable level the engine's validation would have aborted one
    /// of the transactions, so a reported pair is only an *actual* anomaly
    /// if the history ran under snapshot isolation or read committed. The
    /// isolation level a transaction ran under is visible in its handler's
    /// code path, not the trace, so the audit reports every structural
    /// candidate and leaves the final judgement to the developer.
    ///
    /// The pairs are drawn from the committed traces in commit order
    /// ([`ProvenanceStore::txns_between`]); a read-only transaction writes
    /// nothing, so it forms neither anomaly.
    pub fn audit_anomalies(&self) -> Vec<Anomaly> {
        let txns = self.provenance.txns_between(0, Ts::MAX);
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
}

impl fmt::Debug for Reenactor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reenactor").finish()
    }
}

/// Two committed transactions overlap if each began before the other
/// committed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Database, IsolationLevel, Predicate, Schema, Value};
    use trod_kv::{Session, TxnOptions};
    use trod_trace::{Tracer, TxnContext};

    fn oncall_db() -> (Database, ProvenanceStore, Session) {
        let db = Database::new();
        db.create_table(
            "oncall",
            Schema::builder()
                .column("doctor", DataType::Text)
                .column("on_call", DataType::Bool)
                .primary_key(&["doctor"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let store = ProvenanceStore::for_application(&db).unwrap();
        let traced = Session::traced(db.clone(), Tracer::new());
        (db, store, traced)
    }

    fn seed(traced: &Session) {
        let mut setup = traced.begin_traced(TxnContext::new("R0", "setup", "f"));
        setup.insert("oncall", row!["alice", true]).unwrap();
        setup.insert("oncall", row!["bob", true]).unwrap();
        setup.commit().unwrap();
    }

    #[test]
    fn write_skew_between_overlapping_si_transactions_is_detected() {
        let (db, store, traced) = oncall_db();
        seed(&traced);

        // Two concurrent "go off call if someone else is still on call"
        // requests, run under snapshot isolation so both commit.
        let mut t1 = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R1", "goOffCall", "f"))
                .isolation(IsolationLevel::SnapshotIsolation),
        );
        let mut t2 = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R2", "goOffCall", "f"))
                .isolation(IsolationLevel::SnapshotIsolation),
        );
        let on1 = t1.scan("oncall", &Predicate::eq("on_call", true)).unwrap();
        assert_eq!(on1.len(), 2);
        let on2 = t2.scan("oncall", &Predicate::eq("on_call", true)).unwrap();
        assert_eq!(on2.len(), 2);
        t1.update("oncall", &Key::single("alice"), row!["alice", false])
            .unwrap();
        t2.update("oncall", &Key::single("bob"), row!["bob", false])
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let reenactor = Reenactor::new(&store, &db);
        let anomalies = reenactor.audit_anomalies();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::WriteSkew);
        assert_eq!(anomalies[0].tables, vec!["oncall".to_string()]);
        // Both doctors are now off call — the invariant both transactions
        // checked individually is violated jointly.
        let still_on = db
            .scan_latest("oncall", &Predicate::eq("on_call", true))
            .unwrap();
        assert!(still_on.is_empty());
    }

    #[test]
    fn lost_update_candidates_between_overlapping_writers() {
        let (db, store, traced) = oncall_db();
        seed(&traced);

        let mut t1 = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R1", "toggle", "f"))
                .isolation(IsolationLevel::ReadCommitted),
        );
        let mut t2 = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R2", "toggle", "f"))
                .isolation(IsolationLevel::ReadCommitted),
        );
        t1.update("oncall", &Key::single("alice"), row!["alice", false])
            .unwrap();
        t2.update("oncall", &Key::single("alice"), row!["alice", true])
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let reenactor = Reenactor::new(&store, &db);
        let anomalies = reenactor.audit_anomalies();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::LostUpdate);
        assert_eq!(anomalies[0].requests, ("R1".to_string(), "R2".to_string()));
    }

    #[test]
    fn serial_transactions_produce_no_anomalies() {
        let (db, store, traced) = oncall_db();
        seed(&traced);
        for (req, value) in [("R1", false), ("R2", true)] {
            let mut t = traced.begin_traced(TxnContext::new(req, "toggle", "f"));
            t.update("oncall", &Key::single("alice"), row!["alice", value])
                .unwrap();
            t.commit().unwrap();
        }
        store.drain_from(traced.tracer().unwrap());
        let reenactor = Reenactor::new(&store, &db);
        assert!(reenactor.audit_anomalies().is_empty());
    }

    #[test]
    fn reenactment_confirms_snapshot_consistency_under_si() {
        let (db, store, traced) = oncall_db();
        seed(&traced);
        let mut t1 = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R1", "reader", "f"))
                .isolation(IsolationLevel::SnapshotIsolation),
        );
        let rows = t1.scan("oncall", &Predicate::True).unwrap();
        assert_eq!(rows.len(), 2);
        t1.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let reenactor = Reenactor::new(&store, &db);
        let reports = reenactor.reenact_request("R1").unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].reads_checked, 2);
        assert!(reports[0].is_snapshot_consistent());
        assert!(reenactor.reenact_txn(999_999).unwrap().is_none());
    }

    #[test]
    fn reenactment_checks_kv_reads_against_the_store_history() {
        let db = Database::new();
        let store = ProvenanceStore::for_application(&db).unwrap();
        let traced = Session::traced(db.clone(), Tracer::new());
        traced.create_namespace("carts").unwrap();

        let mut setup = traced.begin_traced(TxnContext::new("R0", "setup", "f"));
        setup.kv_put("carts", "cart:alice", "widget").unwrap();
        setup.commit().unwrap();

        // A serializable reader observes the snapshot value; a later
        // writer changes it. Reenactment (as-of the snapshot) agrees with
        // what the reader recorded.
        let mut reader = traced.begin_traced(TxnContext::new("R1", "getCart", "f"));
        assert_eq!(
            reader.kv_get("carts", "cart:alice").unwrap(),
            Some("widget".into())
        );
        reader.commit().unwrap();
        let mut writer = traced.begin_traced(TxnContext::new("R2", "update", "f"));
        writer.kv_put("carts", "cart:alice", "gadget").unwrap();
        writer.commit().unwrap();

        // A read-committed reader that began before the write but read
        // after it observed a post-snapshot commit: reenactment must flag
        // the kv read as divergent.
        let mut rc = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R3", "getCart", "f"))
                .isolation(IsolationLevel::ReadCommitted),
        );
        let mut writer = traced.begin_traced(TxnContext::new("R4", "update", "f"));
        writer.kv_put("carts", "cart:alice", "doohickey").unwrap();
        writer.commit().unwrap();
        assert_eq!(
            rc.kv_get("carts", "cart:alice").unwrap(),
            Some("doohickey".into())
        );
        rc.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let reenactor = Reenactor::new(&store, &db);
        let r1 = reenactor.reenact_request("R1").unwrap();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].reads_checked, 1);
        assert!(r1[0].is_snapshot_consistent());
        let r3 = reenactor.reenact_request("R3").unwrap();
        assert_eq!(r3.len(), 1);
        assert!(
            !r3[0].is_snapshot_consistent(),
            "the kv read observed a post-snapshot commit and must be flagged"
        );
        assert!(r3[0].divergent_reads[0].contains("kv:carts"));
    }

    #[test]
    fn reenactment_flags_reads_that_saw_later_commits_under_read_committed() {
        let (db, store, traced) = oncall_db();
        seed(&traced);

        // A read-committed transaction begins, then a concurrent writer
        // commits, then the first transaction reads the freshly committed
        // value — legal under read committed, but divergent from its
        // snapshot.
        let mut reader = traced.begin_with(
            TxnOptions::new()
                .traced(TxnContext::new("R1", "reader", "f"))
                .isolation(IsolationLevel::ReadCommitted),
        );
        let mut writer = traced.begin_traced(TxnContext::new("R2", "writer", "f"));
        writer
            .update("oncall", &Key::single("alice"), row!["alice", false])
            .unwrap();
        writer.commit().unwrap();
        let seen = reader
            .get("oncall", &Key::single("alice"))
            .unwrap()
            .unwrap();
        assert_eq!(seen.get(1), Some(&Value::Bool(false)));
        reader.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let reenactor = Reenactor::new(&store, &db);
        let reports = reenactor.reenact_request("R1").unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].reads_checked, 1);
        assert!(
            !reports[0].is_snapshot_consistent(),
            "the read observed a post-snapshot commit and must be flagged"
        );
    }
}
