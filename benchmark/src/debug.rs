//! The `debug_session` workload: a traced Moodle history with MDL-59854
//! races in it, and one connection debugging it over the wire.

use trod_apps::moodle;
use trod_core::Trod;
use trod_db::{Predicate, Value};
use trod_kv::Session;
use trod_runtime::{Args, Runtime};

use crate::gen::debug::{self, DebugGen, Facts, History, HistoryOp};
use crate::gen::ConnGen;
use crate::workload::{count_rows, moodle_read_probe, Built, Counts, ReadProbe, Tally, Workload};

pub struct DebugSession;

/// Serves one history request in-process and checks its output.
fn serve(runtime: &Runtime, handler: &str, args: Args, want: Value) {
    let result = runtime.handle_request(handler, args);
    assert_eq!(result.output, Ok(want), "history request {}", result.req_id);
}

/// Runs racing pair `k` under the scripted MDL-59854 interleaving: both
/// requests check, then both insert. Returns a timestamp at which only
/// the first of the two inserts is visible.
fn run_race(runtime: &Runtime, k: usize) -> u64 {
    let race = debug::race(k);
    let before = runtime.database().current_ts();
    runtime
        .scheduler()
        .set_script(moodle::toctou_script(&race.first_req, &race.second_req));
    std::thread::scope(|scope| {
        for (req, sub) in [
            (&race.first_req, &race.first_sub),
            (&race.second_req, &race.second_sub),
        ] {
            let args = moodle::subscribe_args(sub, &race.user, &race.forum);
            scope.spawn(move || {
                let result = runtime.handle_request_with_id(req, "subscribeUser", args);
                assert_eq!(result.output, Ok(Value::Bool(true)), "racing request {req}");
            });
        }
    });
    runtime.scheduler().set_passthrough();
    let dups = runtime
        .database()
        .scan_latest(
            moodle::FORUM_SUB_TABLE,
            &Predicate::eq("user_id", &race.user as &str),
        )
        .expect("scan forum_sub");
    assert_eq!(
        dups.len(),
        2,
        "race {k} must leave a duplicate subscription"
    );
    // The checks are read-only and take no timestamp; the two inserts
    // take the next two.
    before + 1
}

impl Workload for DebugSession {
    fn name(&self) -> &'static str {
        "debug_session"
    }
    fn why(&self) -> &'static str {
        "one connection cycles provenance SQL, as_of SQL, fork, replay, reenact, retroactive patch over an ingested Moodle history with TOCTOU duplicates: core, query, forking, idle in the other three"
    }
    fn counts(&self) -> Counts {
        Counts {
            slices: 10,
            serve_slice: debug::CYCLE,
            ingest: 1000,
        }
    }
    fn tables(&self) -> &'static [&'static str] {
        &[moodle::FORUM_SUB_TABLE]
    }

    fn build(&self, session: Session, seed: u64, serve_requests: usize) -> Built {
        let db = session.database().clone();
        moodle::create_schema(&db);
        let provenance = moodle::provenance_for(&db);
        let runtime = Runtime::builder(db.clone(), moodle::registry())
            .kv(session.kv().clone())
            .request_prefix("H")
            .build();

        let mut history = History::new(seed);
        let mut facts = Facts {
            mid_ts: 0,
            mid_rows: 0,
            between_inserts_ts: Vec::new(),
        };
        while let Some(op) = history.next() {
            match op {
                HistoryOp::Subscribe {
                    sub_id,
                    user,
                    forum,
                } => serve(
                    &runtime,
                    "subscribeUser",
                    moodle::subscribe_args(&sub_id, &user, &forum),
                    Value::Bool(true),
                ),
                HistoryOp::Unsubscribe { user, forum } => serve(
                    &runtime,
                    "unsubscribeUser",
                    Args::new().with("user_id", user).with("forum", forum),
                    Value::Int(1),
                ),
                HistoryOp::Fetch { forum, expect } => serve(
                    &runtime,
                    "fetchSubscribers",
                    moodle::fetch_args(&forum),
                    Value::Text(expect),
                ),
                HistoryOp::Race(k) => facts.between_inserts_ts.push(run_race(&runtime, k)),
            }
            if facts.mid_ts == 0 && history.issued() >= debug::HISTORY / 2 {
                facts.mid_ts = db.current_ts();
                facts.mid_rows = history.members.rows();
            }
        }

        let trod = Trod::attach_with(runtime, provenance);
        // The history becomes debuggable: this ingest is part of set-up.
        trod.sync();
        let gen = DebugGen::new(seed, facts, history.members, serve_requests);
        Built {
            trod,
            patches: vec![(debug::PATCH, moodle::patched_registry())],
            gens: vec![Box::new(gen) as Box<dyn ConnGen>],
        }
    }

    fn verify(&self, trod: &Trod, tally: &Tally) -> Result<(), String> {
        let rows = count_rows(trod.production_db(), moodle::FORUM_SUB_TABLE) as i64;
        if rows != tally.get("rows") {
            return Err(format!(
                "forum_sub has {rows} rows, history and ingest phase left {}",
                tally.get("rows")
            ));
        }
        // Under the patch no ordering of a racing pair leaves a duplicate.
        let race = debug::race(0);
        let report = trod
            .retroactive(moodle::patched_registry())
            .requests(&[&race.first_req, &race.second_req])
            .run()
            .map_err(|e| e.to_string())?;
        for ordering in &report.orderings {
            let subs = ordering
                .dev_db()
                .scan_latest(
                    moodle::FORUM_SUB_TABLE,
                    &Predicate::eq("user_id", &race.user as &str),
                )
                .map_err(|e| e.to_string())?;
            if subs.len() != 1 {
                return Err(format!(
                    "patched ordering {:?} leaves {} subscriptions of {}",
                    ordering.order,
                    subs.len(),
                    race.user
                ));
            }
        }
        if report.orderings.is_empty() {
            return Err("retroactive run explored no ordering".into());
        }
        Ok(())
    }

    fn read_probe(&self) -> ReadProbe {
        moodle_read_probe(debug::forum_name(debug::RACES), "s00000")
    }
}
