//! The Moodle forum-subscription application (paper §2, §3.3–3.6, §4.1).
//!
//! Re-implements the transactional shape of the handlers involved in two
//! real Moodle bugs:
//!
//! * **MDL-59854** — `subscribeUser` checks for an existing subscription in
//!   one transaction and inserts in a second transaction (time-of-check to
//!   time-of-use). Two interleaved requests for the same (user, forum) both
//!   see "not subscribed" and both insert, producing duplicate
//!   subscriptions; the error only surfaces later when
//!   `fetchSubscribers` detects the duplicates.
//! * **MDL-60669** — the fix for the bug above did not consider
//!   subscriptions kept inside deleted courses; `restoreCourse` then fails
//!   when it re-materialises subscriptions containing duplicates.
//!
//! The buggy and patched handler registries are both provided so the
//! debugger's replay and retroactive features can be demonstrated exactly
//! as in the paper's Figure 3.

use trod_db::{row, DataType, Database, Key, Predicate, Schema, Value};
use trod_provenance::ProvenanceStore;
use trod_runtime::{point_label, Args, HandlerError, HandlerRegistry, Runtime, Scheduler};
use trod_trace::Tracer;

/// Table holding forum subscriptions: the table the bug corrupts.
pub const FORUM_SUB_TABLE: &str = "forum_sub";
/// Table mapping forums to courses (used by the course-restore scenario).
pub const FORUMS_TABLE: &str = "forums";
/// Table holding courses (used by the course-restore scenario).
pub const COURSES_TABLE: &str = "courses";
/// Table that `restoreCourse` re-materialises subscriptions into.
pub const RESTORED_SUB_TABLE: &str = "restored_sub";
/// The provenance event table name used for `forum_sub`, matching the
/// paper's Table 2.
pub const FORUM_EVENTS_TABLE: &str = "ForumEvents";

/// Creates the Moodle application schema in a fresh database.
pub fn moodle_db() -> Database {
    let db = Database::new();
    create_schema(&db);
    db
}

/// Creates the Moodle tables on an existing database.
pub fn create_schema(db: &Database) {
    db.create_table(
        FORUM_SUB_TABLE,
        Schema::builder()
            .column("sub_id", DataType::Text)
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["sub_id"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    db.create_index(FORUM_SUB_TABLE, "forum").expect("index");
    db.create_table(
        FORUMS_TABLE,
        Schema::builder()
            .column("forum", DataType::Text)
            .column("course", DataType::Text)
            .primary_key(&["forum"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    db.create_table(
        COURSES_TABLE,
        Schema::builder()
            .column("course", DataType::Text)
            .column("deleted", DataType::Bool)
            .primary_key(&["course"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    db.create_table(
        RESTORED_SUB_TABLE,
        Schema::builder()
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["user_id", "forum"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
}

/// Creates a provenance store with the Moodle tables registered under the
/// names the paper uses (`forum_sub` → `ForumEvents`).
pub fn provenance_for(db: &Database) -> ProvenanceStore {
    let store = ProvenanceStore::new(db);
    store
        .register_table_as(
            FORUM_SUB_TABLE,
            FORUM_EVENTS_TABLE,
            &db.schema_of(FORUM_SUB_TABLE).expect("schema exists"),
        )
        .expect("fresh provenance store");
    for table in [FORUMS_TABLE, COURSES_TABLE, RESTORED_SUB_TABLE] {
        store
            .register_table(table, &db.schema_of(table).expect("schema exists"))
            .expect("fresh provenance store");
    }
    store
}

fn subscription_pred(user: &str, forum: &str) -> Predicate {
    Predicate::eq("user_id", user).and(Predicate::eq("forum", forum))
}

fn require_str(args: &Args, name: &str) -> Result<String, HandlerError> {
    args.get_str(name)
        .map(|s| s.to_string())
        .ok_or_else(|| HandlerError::BadArgument(format!("missing `{name}`")))
}

/// The buggy handler registry (MDL-59854 shape).
pub fn registry() -> HandlerRegistry {
    let mut registry = HandlerRegistry::new();

    // subscribeUser, buggy: check and insert are two separate transactions.
    registry.register_fn("subscribeUser", |ctx, args| {
        let user = require_str(args, "user_id")?;
        let forum = require_str(args, "forum")?;
        let sub_id = require_str(args, "sub_id")?;

        // 1st transaction: check whether the subscription already exists.
        ctx.sync_point("pre-check");
        let mut check = ctx.txn("func:isSubscribed");
        let already = check.exists(FORUM_SUB_TABLE, &subscription_pred(&user, &forum))?;
        check.commit()?;
        ctx.sync_point("post-check");
        if already {
            return Ok(Value::Bool(true));
        }

        // 2nd transaction: insert a subscription entry.
        ctx.sync_point("pre-insert");
        let mut insert = ctx.txn("func:DB.insert");
        insert.insert(FORUM_SUB_TABLE, row![sub_id, user, forum])?;
        insert.commit()?;
        ctx.sync_point("post-insert");
        Ok(Value::Bool(true))
    });

    registry.register_fn("fetchSubscribers", |ctx, args| {
        let forum = require_str(args, "forum")?;
        let mut txn = ctx.txn("func:DB.executeQuery");
        let rows = txn.scan(FORUM_SUB_TABLE, &Predicate::eq("forum", &forum as &str))?;
        txn.commit()?;
        let mut users: Vec<String> = rows
            .iter()
            .map(|(_, r)| r[1].as_text().unwrap_or("").to_string())
            .collect();
        users.sort();
        let before = users.len();
        users.dedup();
        if users.len() != before {
            // The error Moodle raises: duplicated values in column userId.
            return Err(HandlerError::App(format!(
                "duplicate subscribers detected for forum {forum}"
            )));
        }
        Ok(Value::Text(users.join(",")))
    });

    registry.register_fn("unsubscribeUser", |ctx, args| {
        let user = require_str(args, "user_id")?;
        let forum = require_str(args, "forum")?;
        let mut txn = ctx.txn("func:DB.delete");
        let removed = txn.delete_where(FORUM_SUB_TABLE, &subscription_pred(&user, &forum))?;
        txn.commit()?;
        Ok(Value::Int(removed as i64))
    });

    registry.register_fn("createForum", |ctx, args| {
        let forum = require_str(args, "forum")?;
        let course = require_str(args, "course")?;
        let mut txn = ctx.txn("func:createForum");
        if txn
            .get(COURSES_TABLE, &Key::single(course.clone()))?
            .is_none()
        {
            txn.insert(COURSES_TABLE, row![course.clone(), false])?;
        }
        txn.insert(FORUMS_TABLE, row![forum, course])?;
        txn.commit()?;
        Ok(Value::Bool(true))
    });

    registry.register_fn("deleteCourse", |ctx, args| {
        let course = require_str(args, "course")?;
        let mut txn = ctx.txn("func:deleteCourse");
        let key = Key::single(course.clone());
        match txn.get(COURSES_TABLE, &key)? {
            Some(_) => {
                txn.update(COURSES_TABLE, &key, row![course, true])?;
                txn.commit()?;
                Ok(Value::Bool(true))
            }
            None => Err(HandlerError::App(format!("no such course {course}"))),
        }
    });

    // restoreCourse (MDL-60669 shape): re-materialise the subscriptions of
    // every forum in the course; duplicated (user, forum) pairs left behind
    // by MDL-59854 make the restore fail.
    registry.register_fn("restoreCourse", |ctx, args| {
        let course = require_str(args, "course")?;
        let mut txn = ctx.txn("func:restoreCourse");
        let key = Key::single(course.clone());
        if txn.get(COURSES_TABLE, &key)?.is_none() {
            return Err(HandlerError::App(format!("no such course {course}")));
        }
        let forums = txn.scan(FORUMS_TABLE, &Predicate::eq("course", &course as &str))?;
        let mut restored = 0i64;
        for (_, forum_row) in forums {
            let forum = forum_row[0].as_text().unwrap_or("").to_string();
            // Restores are idempotent per forum: clear any previously
            // restored rows so only duplicates *within the source data*
            // can fail the restore (the MDL-60669 failure mode).
            txn.delete_where(RESTORED_SUB_TABLE, &Predicate::eq("forum", &forum as &str))?;
            let subs = txn.scan(FORUM_SUB_TABLE, &Predicate::eq("forum", &forum as &str))?;
            for (_, sub) in subs {
                let user = sub[1].as_text().unwrap_or("").to_string();
                txn.insert(RESTORED_SUB_TABLE, row![user, forum.clone()])
                    .map_err(|e| {
                        HandlerError::App(format!(
                            "course restore failed: duplicate subscription while restoring ({e})"
                        ))
                    })?;
                restored += 1;
            }
        }
        txn.update(COURSES_TABLE, &key, row![course, false])?;
        txn.commit()?;
        Ok(Value::Int(restored))
    });

    registry
}

/// The patched registry: `subscribeUser` wraps the check and the insert in
/// a single transaction (the fix suggested in the MDL-59854 discussion and
/// used in the paper's retroactive-programming walkthrough).
pub fn patched_registry() -> HandlerRegistry {
    registry().with_replacement_fn("subscribeUser", |ctx, args| {
        let user = require_str(args, "user_id")?;
        let forum = require_str(args, "forum")?;
        let sub_id = require_str(args, "sub_id")?;

        ctx.sync_point("pre-subscribe");
        let mut txn = ctx.txn("func:subscribeAtomic");
        let already = txn.exists(FORUM_SUB_TABLE, &subscription_pred(&user, &forum))?;
        if !already {
            txn.insert(
                FORUM_SUB_TABLE,
                row![sub_id.clone(), user.clone(), forum.clone()],
            )?;
        }
        // Retry once on a serialization conflict: with the atomic handler
        // the conflict is detected by the database instead of silently
        // creating a duplicate.
        match txn.commit() {
            Ok(_) => {}
            Err(e) if e.is_retryable() => {
                let mut retry = ctx.txn("func:subscribeAtomic.retry");
                let already = retry.exists(FORUM_SUB_TABLE, &subscription_pred(&user, &forum))?;
                if !already {
                    retry.insert(FORUM_SUB_TABLE, row![sub_id, user, forum])?;
                }
                retry.commit()?;
            }
            Err(e) => return Err(e.into()),
        }
        ctx.sync_point("post-subscribe");
        Ok(Value::Bool(true))
    })
}

/// Arguments for a `subscribeUser` request.
pub fn subscribe_args(sub_id: &str, user: &str, forum: &str) -> Args {
    Args::new()
        .with("sub_id", sub_id)
        .with("user_id", user)
        .with("forum", forum)
}

/// Arguments for a `fetchSubscribers` request.
pub fn fetch_args(forum: &str) -> Args {
    Args::new().with("forum", forum)
}

/// The scheduler script that forces the MDL-59854 interleaving between two
/// subscribe requests: both check first, then both insert (the second
/// request's insert lands between the first request's check and insert).
pub fn toctou_script(first_req: &str, second_req: &str) -> Vec<String> {
    vec![
        point_label(first_req, "pre-check"),
        point_label(first_req, "post-check"),
        point_label(second_req, "pre-check"),
        point_label(second_req, "post-check"),
        point_label(second_req, "pre-insert"),
        point_label(second_req, "post-insert"),
        point_label(first_req, "pre-insert"),
        point_label(first_req, "post-insert"),
    ]
}

/// Everything needed to reproduce the MDL-59854 scenario end to end.
pub struct ToctouScenario {
    /// The production runtime (buggy handlers, read-committed isolation,
    /// scripted scheduler).
    pub runtime: Runtime,
    /// The provenance store with paper-style table names.
    pub provenance: ProvenanceStore,
    /// The request id used for the first subscribe request (paper: R1).
    pub r1: String,
    /// The request id used for the second subscribe request (paper: R2).
    pub r2: String,
    /// The request id used for the fetch request (paper: R3).
    pub r3: String,
}

/// Builds the production environment of the paper's running example: the
/// buggy Moodle handlers, running at the isolation level under which the
/// original bug manifests, with a scripted scheduler that deterministically
/// produces the racy interleaving.
pub fn toctou_scenario() -> ToctouScenario {
    let db = moodle_db();
    let provenance = provenance_for(&db);
    let (r1, r2, r3) = ("R1".to_string(), "R2".to_string(), "R3".to_string());
    let scheduler = std::sync::Arc::new(Scheduler::scripted(toctou_script(&r1, &r2)));
    let runtime = Runtime::builder(db, registry())
        .default_isolation(trod_db::IsolationLevel::ReadCommitted)
        .scheduler(scheduler)
        .tracer(Tracer::new())
        // Auto-allocated ids must not collide with the scripted R1/R2/R3
        // labels, otherwise unrelated requests would block on the script.
        .request_prefix("AUX-")
        .build();
    ToctouScenario {
        runtime,
        provenance,
        r1,
        r2,
        r3,
    }
}

impl ToctouScenario {
    /// Runs the three requests of the paper's running example — two
    /// concurrent subscriptions of (U1, F2) and a subsequent fetch — and
    /// returns the fetch request's application error (if the bug
    /// manifested, which the scripted scheduler guarantees).
    pub fn run(&self) -> Option<String> {
        let r1 = self.r1.clone();
        let r2 = self.r2.clone();
        let runtime = &self.runtime;
        std::thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                runtime.handle_request_with_id(
                    &r1,
                    "subscribeUser",
                    subscribe_args("S1", "U1", "F2"),
                )
            });
            let h2 = scope.spawn(move || {
                runtime.handle_request_with_id(
                    &r2,
                    "subscribeUser",
                    subscribe_args("S2", "U1", "F2"),
                )
            });
            let _ = h1.join().expect("subscribe request thread panicked");
            let _ = h2.join().expect("subscribe request thread panicked");
        });
        let fetch =
            self.runtime
                .handle_request_with_id(&self.r3, "fetchSubscribers", fetch_args("F2"));
        match fetch.output {
            Ok(_) => None,
            Err(e) => Some(e.to_string()),
        }
    }

    /// Drains the runtime's tracer into the provenance store
    /// ([`ProvenanceStore::drain_from`]); returns the events ingested.
    pub fn sync_provenance(&self) -> usize {
        self.provenance.drain_from(self.runtime.tracer())
    }

    /// Consumes the scenario and wraps it in a [`trod_core::Trod`]
    /// debugger handle (any still-buffered traces are flushed first).
    pub fn into_trod(self) -> trod_core::Trod {
        self.sync_provenance();
        trod_core::Trod::attach_with(self.runtime, self.provenance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_core::Invariant;

    #[test]
    fn toctou_scenario_reproduces_the_duplicate_and_the_late_error() {
        let scenario = toctou_scenario();
        let fetch_error = scenario.run();
        assert!(
            fetch_error.is_some(),
            "fetchSubscribers should report duplicates under the racy interleaving"
        );
        let db = scenario.runtime.database();
        let dups = db
            .scan_latest(FORUM_SUB_TABLE, &subscription_pred("U1", "F2"))
            .unwrap();
        assert_eq!(dups.len(), 2, "two duplicate subscription rows must exist");

        // Provenance captures all three requests.
        scenario.sync_provenance();
        assert_eq!(scenario.provenance.request_ids().len(), 3);
        let violations = Invariant::no_duplicates(FORUM_SUB_TABLE, &["user_id", "forum"])
            .check(db)
            .unwrap();
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn patched_handler_is_safe_even_under_the_racy_schedule() {
        let db = moodle_db();
        let r1 = "R1".to_string();
        let r2 = "R2".to_string();
        // The patched handler only has pre-/post-subscribe sync points, so
        // the TOCTOU script does not constrain it; run it concurrently
        // under serializable isolation.
        let runtime = Runtime::builder(db, patched_registry())
            .default_isolation(trod_db::IsolationLevel::Serializable)
            .build();
        let results = std::thread::scope(|scope| {
            let runtime = &runtime;
            let h1 = scope.spawn({
                let r1 = r1.clone();
                move || {
                    runtime.handle_request_with_id(
                        &r1,
                        "subscribeUser",
                        subscribe_args("S1", "U1", "F2"),
                    )
                }
            });
            let h2 = scope.spawn({
                let r2 = r2.clone();
                move || {
                    runtime.handle_request_with_id(
                        &r2,
                        "subscribeUser",
                        subscribe_args("S2", "U1", "F2"),
                    )
                }
            });
            vec![h1.join().unwrap(), h2.join().unwrap()]
        });
        assert!(results.iter().all(|r| r.is_ok()));
        let rows = runtime
            .database()
            .scan_latest(FORUM_SUB_TABLE, &subscription_pred("U1", "F2"))
            .unwrap();
        assert_eq!(rows.len(), 1, "exactly one subscription must exist");
        let fetch = runtime.handle_request("fetchSubscribers", fetch_args("F2"));
        assert!(fetch.is_ok());
    }

    #[test]
    fn course_restore_fails_when_duplicates_exist_and_succeeds_otherwise() {
        let scenario = toctou_scenario();
        // Set up the course/forum structure first.
        scenario.runtime.must_handle(
            "createForum",
            Args::new().with("forum", "F2").with("course", "C1"),
        );
        // Without duplicates, restore works.
        scenario
            .runtime
            .must_handle("subscribeUser", subscribe_args("S0", "U9", "F2"));
        scenario
            .runtime
            .must_handle("deleteCourse", Args::new().with("course", "C1"));
        let ok = scenario
            .runtime
            .handle_request("restoreCourse", Args::new().with("course", "C1"));
        assert!(ok.is_ok());

        // Now introduce the duplicates via the race and restore again.
        scenario.run();
        let failed = scenario
            .runtime
            .handle_request("restoreCourse", Args::new().with("course", "C1"));
        assert!(matches!(failed.output, Err(HandlerError::App(_))));
    }

    #[test]
    fn unsubscribe_and_fetch_roundtrip() {
        let db = moodle_db();
        let runtime = Runtime::new(db, registry());
        runtime.must_handle("subscribeUser", subscribe_args("S1", "U1", "F1"));
        runtime.must_handle("subscribeUser", subscribe_args("S2", "U2", "F1"));
        let subs = runtime.must_handle("fetchSubscribers", fetch_args("F1"));
        assert_eq!(subs, Value::Text("U1,U2".into()));
        let removed = runtime.must_handle(
            "unsubscribeUser",
            Args::new().with("user_id", "U1").with("forum", "F1"),
        );
        assert_eq!(removed, Value::Int(1));
        let subs = runtime.must_handle("fetchSubscribers", fetch_args("F1"));
        assert_eq!(subs, Value::Text("U2".into()));
    }
}
