//! The MediaWiki case studies (paper §4.1): MW-44325 duplicate site links
//! and MW-39225 wrong article-size history, reproduced, diagnosed and
//! verified fixed with TROD.
//!
//! Run with: `cargo run --example mediawiki_races`

use std::sync::Arc;

use trod::apps::mediawiki::{self, PAGES_TABLE, REVISIONS_TABLE, SITE_LINKS_TABLE};
use trod::prelude::*;

fn main() {
    sitelink_duplicates();
    println!();
    wrong_article_size();
}

/// MW-44325: concurrent edits create duplicated site URL links.
fn sitelink_duplicates() {
    println!("== MW-44325: duplicate site links ==");
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
        Args::new()
            .with("title", "Berlin")
            .with("content", "Berlin is a city."),
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
    println!("production symptom: listSiteLinks -> {:?}", listing.output);

    provenance.drain_from(runtime.tracer());
    let trod = Trod::attach_with(runtime, provenance);

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
        .expect("provenance query");
    println!("requests that inserted the duplicated link:");
    for w in &writers {
        println!(
            "  ts={} request={} handler={}",
            w.timestamp, w.req_id, w.handler
        );
    }

    let replay = trod
        .replay(&writers[1].req_id)
        .expect("traced request")
        .run_to_end()
        .expect("replay");
    println!(
        "replaying {}: {} concurrent transactions were injected between its transactions",
        replay.req_id,
        replay.injected_count()
    );

    let retro = trod
        .retroactive(mediawiki::patched_registry())
        .requests(&["E1", "E2", "E3"])
        .invariant(Invariant::no_duplicates(SITE_LINKS_TABLE, &["page", "url"]))
        .run()
        .expect("retroactive run");
    println!(
        "retroactive test of the atomic addSiteLink: {} orderings, all clean = {}",
        retro.orderings.len(),
        retro.all_orderings_clean()
    );
}

/// MW-39225: concurrent edits record inconsistent article-size changes.
fn wrong_article_size() {
    println!("== MW-39225: wrong article size changes ==");
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

    let final_size = runtime
        .database()
        .get_latest(PAGES_TABLE, &Key::single("Art"))
        .expect("page readable")
        .expect("page exists")[2]
        .as_int()
        .unwrap_or(0);
    let recorded_delta: i64 = runtime
        .database()
        .scan_latest(REVISIONS_TABLE, &Predicate::True)
        .expect("revisions readable")
        .iter()
        .map(|(_, r)| r[2].as_int().unwrap_or(0))
        .sum();
    println!(
        "production symptom: final size = {final_size}, but the revision history records a total delta of {recorded_delta} (expected {})",
        final_size - 5
    );

    provenance.drain_from(runtime.tracer());
    let trod = Trod::attach_with(runtime, provenance);

    let editors = trod
        .declarative()
        .find_writers(PAGES_TABLE, "Update", &[("title", "Art")])
        .expect("provenance query");
    println!(
        "concurrent editors of the page: {:?}",
        editors.iter().map(|w| w.req_id.clone()).collect::<Vec<_>>()
    );

    let retro = trod
        .retroactive(mediawiki::patched_registry())
        .requests(&["E1", "E2"])
        .run()
        .expect("retroactive run");
    for ordering in &retro.orderings {
        let size = ordering
            .dev_db()
            .get_latest(PAGES_TABLE, &Key::single("Art"))
            .expect("page readable")
            .expect("page exists")[2]
            .as_int()
            .unwrap_or(0);
        let delta: i64 = ordering
            .dev_db()
            .scan_latest(REVISIONS_TABLE, &Predicate::True)
            .expect("revisions readable")
            .iter()
            .map(|(_, r)| r[2].as_int().unwrap_or(0))
            .sum();
        println!(
            "patched handler, order {:?}: final size {size}, recorded delta {delta} (consistent = {})",
            ordering.order,
            delta == size - 5
        );
    }
}
