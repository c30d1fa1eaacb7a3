//! Experiments F3b and C3: retroactive programming (paper §3.6, Figure 3
//! bottom) and the MDL-60669 regression the paper warns about (§4.1).

use trod::apps::moodle::{self, FORUM_SUB_TABLE, RESTORED_SUB_TABLE};
use trod::prelude::*;

fn traced_scenario() -> trod::core::Trod {
    let scenario = moodle::toctou_scenario();
    scenario.run();
    scenario.into_trod()
}

#[test]
fn patched_handler_passes_retroactive_testing_in_every_ordering() {
    let trod = traced_scenario();
    let report = trod
        .retroactive(moodle::patched_registry())
        .requests(&["R1", "R2", "R3"])
        .invariant(Invariant::no_duplicates(
            FORUM_SUB_TABLE,
            &["user_id", "forum"],
        ))
        .run()
        .unwrap();

    // R1 and R2 conflict (same forum/user); R3 reads the same table, so
    // several orderings are explored, the original order first.
    assert!(report.conflicting_pairs >= 1);
    assert!(report.orderings.len() >= 2);
    assert_eq!(report.orderings[0].order, vec!["R1", "R2", "R3"]);

    // The patch holds in *every* explored ordering: no duplicates, and the
    // fetch request no longer raises the duplicate error.
    assert!(
        report.all_orderings_clean(),
        "violations: {:?}",
        report.violations()
    );
    for ordering in &report.orderings {
        for outcome in &ordering.outcomes {
            if outcome.handler == "fetchSubscribers" {
                assert!(outcome.ok, "fetch failed in ordering {:?}", ordering.order);
            }
        }
        let subs = ordering
            .dev_db()
            .scan_latest(
                FORUM_SUB_TABLE,
                &Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2")),
            )
            .unwrap();
        assert_eq!(
            subs.len(),
            1,
            "exactly one subscription in {:?}",
            ordering.order
        );
    }

    // Figure 3 (bottom): the re-executed requests carry primed ids.
    assert!(report.orderings[0]
        .outcomes
        .iter()
        .any(|o| o.req_id == "R1'" && o.original_req_id == "R1"));
}

#[test]
fn buggy_handler_fails_retroactive_testing() {
    // Re-executing the original requests with the *unpatched* code (under
    // the weak isolation the application originally used) does not
    // magically fix anything: serial re-execution hides the race, so the
    // first request to run inserts and the second sees the subscription.
    // The value of retroactive testing is comparative: the patched run
    // above keeps the invariant under every ordering, and the outputs of
    // the original requests are preserved.
    let trod = traced_scenario();
    let report = trod
        .retroactive(moodle::registry())
        .requests(&["R1", "R2", "R3"])
        .isolation(IsolationLevel::ReadCommitted)
        .invariant(Invariant::no_duplicates(
            FORUM_SUB_TABLE,
            &["user_id", "forum"],
        ))
        .run()
        .unwrap();
    // Serial re-execution of the buggy code cannot create the duplicate,
    // but the original production outputs are available for comparison
    // and show that R1/R2 both reported success while production ended up
    // corrupted.
    assert!(report.all_orderings_clean());
    for outcome in &report.orderings[0].outcomes {
        assert_eq!(
            outcome.original_ok,
            Some(outcome.handler != "fetchSubscribers")
        );
    }
    // The fetch now succeeds retroactively even though it failed in
    // production — a changed outcome the report surfaces explicitly.
    let changed = report.changed_outcomes();
    assert!(changed.iter().any(|o| o.handler == "fetchSubscribers"));
}

#[test]
fn requests_touching_table_selects_related_requests_automatically() {
    let trod = traced_scenario();
    let report = trod
        .retroactive(moodle::patched_registry())
        .requests_touching_table(FORUM_SUB_TABLE)
        .invariant(Invariant::no_duplicates(
            FORUM_SUB_TABLE,
            &["user_id", "forum"],
        ))
        .max_orderings(6)
        .run()
        .unwrap();
    // All three traced requests touch forum_sub.
    assert_eq!(report.orderings[0].order.len(), 3);
    assert!(report.orderings.len() <= 6);
    assert!(report.all_orderings_clean());
}

#[test]
fn retroactive_run_without_requests_is_an_error() {
    let trod = traced_scenario();
    let err = trod
        .retroactive(moodle::patched_registry())
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        trod::core::RetroactiveError::NoRequestsSelected
    ));
}

#[test]
fn mdl_60669_regression_is_caught_by_a_second_invariant() {
    // The paper's §4.1 warning: the MDL-59854 patch caused MDL-60669
    // because nobody re-tested course restore against old data containing
    // duplicates. With TROD, the developer retroactively re-executes the
    // original requests *plus* a course-restore request with the patched
    // code and an invariant on the restored table.
    let scenario = moodle::toctou_scenario();
    scenario.runtime.must_handle(
        "createForum",
        Args::new().with("forum", "F2").with("course", "C1"),
    );
    scenario.run();
    // Production also ran a course delete + restore after the corruption;
    // the restore failed in production (MDL-60669).
    scenario
        .runtime
        .must_handle("deleteCourse", Args::new().with("course", "C1"));
    let restore = scenario.runtime.handle_request_with_id(
        "R4",
        "restoreCourse",
        Args::new().with("course", "C1"),
    );
    assert!(
        !restore.is_ok(),
        "production restore fails on the duplicates"
    );
    let trod = scenario.into_trod();

    // Retroactively re-run the subscription requests and the restore with
    // the patched subscribeUser: the duplicates never form, so the restore
    // succeeds in every ordering.
    let report = trod
        .retroactive(moodle::patched_registry())
        .requests(&["R1", "R2", "R4"])
        .invariant(Invariant::no_duplicates(
            FORUM_SUB_TABLE,
            &["user_id", "forum"],
        ))
        .invariant(Invariant::no_duplicates(
            RESTORED_SUB_TABLE,
            &["user_id", "forum"],
        ))
        .run()
        .unwrap();
    assert!(report.all_orderings_clean());
    for ordering in &report.orderings {
        let restore_outcome = ordering
            .outcomes
            .iter()
            .find(|o| o.handler == "restoreCourse")
            .expect("restore request is part of every ordering");
        assert!(
            restore_outcome.ok,
            "restore failed retroactively in ordering {:?}: {}",
            ordering.order, restore_outcome.output
        );
    }
}

#[test]
fn retroactive_re_execution_keeps_non_ascii_arguments_intact() {
    // Each request is re-executed with the arguments decoded from its
    // provenance record, so multi-byte text must come back whole.
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::new(db, moodle::registry());
    let (user, forum) = ("Zoë", "Café über");
    runtime.handle_request_with_id(
        "A",
        "subscribeUser",
        moodle::subscribe_args("s1", user, forum),
    );
    runtime.handle_request_with_id("B", "fetchSubscribers", moodle::fetch_args(forum));
    provenance.drain_from(runtime.tracer());
    let trod = Trod::attach_with(runtime, provenance);

    let report = trod
        .retroactive(moodle::patched_registry())
        .requests(&["A", "B"])
        .run()
        .unwrap();
    let original = &report.orderings[0];
    assert_eq!(original.order, vec!["A", "B"]);
    let fetch = &original.outcomes[1];
    assert_eq!(fetch.original_output.as_deref(), Some(user));
    assert_eq!(Some(&fetch.output), fetch.original_output.as_ref());
    let subs = original
        .dev_db()
        .scan_latest(
            FORUM_SUB_TABLE,
            &Predicate::eq("user_id", user).and(Predicate::eq("forum", forum)),
        )
        .unwrap();
    assert_eq!(subs.len(), 1);
}

#[test]
fn retroactive_runs_take_the_original_order_not_the_callers() {
    // `H-4` creates the course `H-13` deletes. Given in lexical order,
    // `H-13` first, the original order still runs `H-4` first, so the
    // unpatched re-execution reproduces every original output.
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::new(db, moodle::registry());
    let forum = Args::new().with("forum", "F1").with("course", "C1");
    runtime.handle_request_with_id("H-4", "createForum", forum);
    let course = Args::new().with("course", "C1");
    let deleted = runtime.handle_request_with_id("H-13", "deleteCourse", course);
    assert!(deleted.is_ok());
    provenance.drain_from(runtime.tracer());
    let trod = Trod::attach_with(runtime, provenance);

    let report = trod
        .retroactive(moodle::registry())
        .requests(&["H-13", "H-4"])
        .max_orderings(1)
        .run()
        .unwrap();
    let original = &report.orderings[0];
    for outcome in &original.outcomes {
        assert!(
            !outcome.outcome_changed() && Some(&outcome.output) == outcome.original_output.as_ref(),
            "{} re-ran as {:?}",
            outcome.original_req_id,
            outcome.output
        );
    }
    assert_eq!(original.order, vec!["H-4", "H-13"]);
}
