//! Property-based tests for key-value namespaces and cross-store
//! transactions.
//!
//! The invariants checked here are the ones the rest of TROD relies on:
//! as-of reads must behave exactly like replaying the write history up to
//! the chosen timestamp (time travel correctness), garbage collection must
//! not change what is visible at or after its horizon, and every
//! cross-store commit must appear exactly once in the aligned log with a
//! strictly increasing commit timestamp shared by both stores.

use std::collections::BTreeMap;

use proptest::prelude::*;

use trod_db::{row, DataType, Database, Schema, Ts};
use trod_kv::Session;

/// One generated write: key index, optional value (None = delete).
#[derive(Debug, Clone)]
struct GenWrite {
    key: usize,
    value: Option<u16>,
}

fn gen_write() -> impl Strategy<Value = GenWrite> {
    (
        0usize..8,
        prop_oneof![Just(None), (0u16..1000).prop_map(Some)],
    )
        .prop_map(|(key, value)| GenWrite { key, value })
}

/// A batch per commit: 1–4 writes.
fn gen_history() -> impl Strategy<Value = Vec<Vec<GenWrite>>> {
    prop::collection::vec(prop::collection::vec(gen_write(), 1..4), 1..20)
}

fn key_name(i: usize) -> String {
    format!("key:{i}")
}

/// A session whose database holds the namespace `ns`.
fn ns_session() -> Session {
    let session = Session::new(Database::new());
    session.create_namespace("ns").unwrap();
    session
}

/// Commits the generated history to namespace `ns`, one transaction per
/// batch (the last write to a key wins), and returns a reference model's
/// state after each commit, keyed by its timestamp.
fn apply_history(
    session: &Session,
    history: &[Vec<GenWrite>],
) -> Vec<(Ts, BTreeMap<String, String>)> {
    let mut model: BTreeMap<String, String> = BTreeMap::new();
    let mut states = Vec::new();
    for batch in history {
        let mut txn = session.begin();
        for write in batch {
            let key = key_name(write.key);
            match write.value {
                Some(v) => {
                    txn.kv_put("ns", &key, &v.to_string()).unwrap();
                    model.insert(key, v.to_string());
                }
                None => {
                    txn.kv_delete("ns", &key).unwrap();
                    model.remove(&key);
                }
            }
        }
        let ts = txn
            .commit()
            .expect("serial commits cannot conflict")
            .commit_ts;
        states.push((ts, model.clone()));
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Time travel: reading as of any past commit timestamp returns exactly
    /// what a sequential replay of the history up to that point would hold.
    #[test]
    fn as_of_reads_match_sequential_model(history in gen_history()) {
        let session = ns_session();
        let states = apply_history(&session, &history);
        let kv = session.kv();

        for (ts, model) in &states {
            for key_idx in 0..8 {
                let key = key_name(key_idx);
                let got = kv.get_as_of("ns", &key, *ts).unwrap();
                prop_assert_eq!(got.as_ref(), model.get(&key), "key {} at ts {}", key, ts);
            }
            // The prefix scan over everything equals the model's live set.
            let scanned: BTreeMap<String, String> =
                kv.scan_prefix_as_of("ns", "key:", *ts).unwrap().into_iter().collect();
            prop_assert_eq!(&scanned, model);
        }
    }

    /// Garbage collection below a horizon never changes what is visible at
    /// or after that horizon.
    #[test]
    fn gc_preserves_visibility_at_horizon(history in gen_history(), horizon_frac in 0.0f64..1.0) {
        let session = ns_session();
        let states = apply_history(&session, &history);
        let kv = session.kv();
        let last_ts = states.last().map(|(ts, _)| *ts).unwrap_or(0);
        let horizon = ((last_ts as f64) * horizon_frac) as Ts;

        // Snapshot what is visible at the horizon and at the latest state.
        let before_at_horizon = kv.scan_prefix_as_of("ns", "key:", horizon.max(1)).unwrap();
        let before_latest = kv.scan_prefix("ns", "key:").unwrap();

        session.gc_before(horizon);

        prop_assert_eq!(kv.scan_prefix_as_of("ns", "key:", horizon.max(1)).unwrap(), before_at_horizon);
        prop_assert_eq!(kv.scan_prefix("ns", "key:").unwrap(), before_latest);
    }

    /// Cross-store commits: every successful commit appends exactly one
    /// aligned-log entry, commit timestamps strictly increase, and the
    /// key-value store's final contents match a sequential model of the
    /// committed transactions.
    #[test]
    fn cross_store_commits_are_aligned_and_atomic(history in gen_history()) {
        let db = Database::new();
        db.create_table(
            "orders",
            Schema::builder()
                .column("id", DataType::Int)
                .column("note", DataType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let cross = Session::new(db);
        cross.create_namespace("ns").unwrap();

        let mut model: BTreeMap<String, String> = BTreeMap::new();
        let mut committed = 0usize;
        for (i, batch) in history.iter().enumerate() {
            let mut txn = cross.begin();
            txn.insert("orders", row![i as i64, "batch"]).unwrap();
            for write in batch {
                let key = key_name(write.key);
                match write.value {
                    Some(v) => {
                        txn.kv_put("ns", &key, &v.to_string()).unwrap();
                        model.insert(key, v.to_string());
                    }
                    None => {
                        txn.kv_delete("ns", &key).unwrap();
                        model.remove(&key);
                    }
                }
            }
            // Transactions run one at a time here, so every commit succeeds.
            txn.commit().unwrap();
            committed += 1;
        }

        let log = cross.database().log_entries();
        prop_assert_eq!(log.len(), committed);
        for pair in log.windows(2) {
            prop_assert!(pair[0].commit_ts < pair[1].commit_ts, "commit timestamps must increase");
        }
        let final_state: BTreeMap<String, String> =
            cross.kv().scan_prefix("ns", "key:").unwrap().into_iter().collect();
        prop_assert_eq!(final_state, model);
        // Relational rows exist for every committed transaction.
        let orders = cross
            .database()
            .scan_latest("orders", &trod_db::Predicate::True)
            .unwrap();
        prop_assert_eq!(orders.len(), committed);
    }
}
