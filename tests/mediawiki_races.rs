//! Experiments C1 and C2: the MediaWiki case studies (paper §4.1).
//!
//! MW-44325 (duplicate site links) and MW-39225 (wrong article size
//! changes) are reproduced deterministically, located through declarative
//! debugging, replayed, and finally shown fixed by retroactively testing
//! the patched handlers.

use std::sync::Arc;

use trod::apps::mediawiki::{self, PAGES_TABLE, REVISIONS_TABLE, SITE_LINKS_TABLE};
use trod::prelude::*;

/// Builds a production environment in which two `addSiteLink` requests
/// race (E1/E2) after a page was created, and traces everything.
fn sitelink_race() -> trod::core::Trod {
    let db = mediawiki::mediawiki_db();
    let provenance = mediawiki::provenance_for(&db);
    let scheduler = Arc::new(Scheduler::scripted(mediawiki::sitelink_race_script(
        "E1", "E2",
    )));
    let runtime = Runtime::builder(db, mediawiki::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .scheduler(scheduler)
        .request_prefix("AUX-")
        .build();
    runtime.must_handle(
        "createPage",
        Args::new().with("title", "Berlin").with("content", "city"),
    );
    std::thread::scope(|scope| {
        let r = &runtime;
        scope.spawn(move || {
            r.handle_request_with_id(
                "E1",
                "addSiteLink",
                mediawiki::sitelink_args("L1", "Berlin", "https://de.wikipedia.org/Berlin"),
            )
        });
        scope.spawn(move || {
            r.handle_request_with_id(
                "E2",
                "addSiteLink",
                mediawiki::sitelink_args("L2", "Berlin", "https://de.wikipedia.org/Berlin"),
            )
        });
    });
    let listing =
        runtime.handle_request_with_id("E3", "listSiteLinks", Args::new().with("page", "Berlin"));
    assert!(
        !listing.is_ok(),
        "the duplicate must be detected by the listing"
    );
    provenance.drain_from(runtime.tracer());
    trod::core::Trod::attach_with(runtime, provenance)
}

#[test]
fn mw_44325_duplicate_sitelinks_are_located_replayed_and_fixed() {
    let trod = sitelink_race();

    // Locate: which requests inserted links for the same page/url?
    let writers = trod
        .declarative()
        .find_writers(
            SITE_LINKS_TABLE,
            "Insert",
            &[
                ("page", "Berlin"),
                ("url", "https://de.wikipedia.org/Berlin"),
            ],
        )
        .unwrap();
    assert_eq!(writers.len(), 2);
    assert_eq!(writers[0].handler, "addSiteLink");
    assert_ne!(writers[0].req_id, writers[1].req_id);

    // Replay the losing request and observe the other request's insert
    // being injected between its check and its insert.
    let late_req = &writers[1].req_id;
    let report = trod.replay(late_req).unwrap().run_to_end().unwrap();
    assert!(report.is_faithful());
    assert_eq!(report.injected_count(), 1);

    // Retroactively test the patched handler: no ordering produces
    // duplicates, and the listing request stays healthy.
    let retro = trod
        .retroactive(mediawiki::patched_registry())
        .requests(&["E1", "E2", "E3"])
        .invariant(Invariant::no_duplicates(SITE_LINKS_TABLE, &["page", "url"]))
        .run()
        .unwrap();
    assert!(retro.all_orderings_clean(), "{:?}", retro.violations());
    for ordering in &retro.orderings {
        let links = ordering
            .dev_db()
            .scan_latest(SITE_LINKS_TABLE, &Predicate::eq("page", "Berlin"))
            .unwrap();
        assert_eq!(links.len(), 1, "ordering {:?}", ordering.order);
    }
}

#[test]
fn mw_39225_wrong_article_size_is_reproduced_and_fixed() {
    // Production: two racy edits of the same page.
    let db = mediawiki::mediawiki_db();
    let provenance = mediawiki::provenance_for(&db);
    let scheduler = Arc::new(Scheduler::scripted(mediawiki::edit_race_script("E1", "E2")));
    let runtime = Runtime::builder(db, mediawiki::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .scheduler(scheduler)
        .request_prefix("AUX-")
        .build();
    runtime.must_handle(
        "createPage",
        Args::new().with("title", "Art").with("content", "12345"),
    );
    std::thread::scope(|scope| {
        let r = &runtime;
        scope.spawn(move || {
            r.handle_request_with_id(
                "E1",
                "editPage",
                mediawiki::edit_args("rev-a", "Art", "1234567890"),
            )
        });
        scope.spawn(move || {
            r.handle_request_with_id("E2", "editPage", mediawiki::edit_args("rev-b", "Art", "12"))
        });
    });
    provenance.drain_from(runtime.tracer());

    // Symptom: the recorded size deltas are inconsistent with the final size.
    let final_size = runtime
        .database()
        .get_latest(PAGES_TABLE, &Key::single("Art"))
        .unwrap()
        .unwrap()[2]
        .as_int()
        .unwrap();
    let deltas: i64 = runtime
        .database()
        .scan_latest(REVISIONS_TABLE, &Predicate::True)
        .unwrap()
        .iter()
        .map(|(_, r)| r[2].as_int().unwrap_or(0))
        .sum();
    assert_ne!(deltas, final_size - 5);

    let trod = trod::core::Trod::attach_with(runtime, provenance);

    // Declarative debugging: both edits updated the same page row.
    let writers = trod
        .declarative()
        .find_writers(PAGES_TABLE, "Update", &[("title", "Art")])
        .unwrap();
    assert_eq!(writers.len(), 2);

    // Replaying the second editor shows the first editor's write being
    // injected between its read and its write — the lost update laid bare.
    let second_editor = &writers[1].req_id;
    let mut session = trod.replay(second_editor).unwrap();
    let report = session.run_to_end().unwrap();
    assert!(report.is_faithful());
    assert!(report.injected_count() >= 1);

    // Retroactive testing of the atomic editPage: every ordering keeps the
    // revision history consistent with the final page size.
    let retro = trod
        .retroactive(mediawiki::patched_registry())
        .requests(&["E1", "E2"])
        .run()
        .unwrap();
    for ordering in &retro.orderings {
        assert!(ordering.outcomes.iter().all(|o| o.ok));
        let final_size = ordering
            .dev_db()
            .get_latest(PAGES_TABLE, &Key::single("Art"))
            .unwrap()
            .unwrap()[2]
            .as_int()
            .unwrap();
        let deltas: i64 = ordering
            .dev_db()
            .scan_latest(REVISIONS_TABLE, &Predicate::True)
            .unwrap()
            .iter()
            .map(|(_, r)| r[2].as_int().unwrap_or(0))
            .sum();
        assert_eq!(
            deltas,
            final_size - 5,
            "inconsistent history in ordering {:?}",
            ordering.order
        );
    }
}
