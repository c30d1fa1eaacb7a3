//! The application workloads (shop, Moodle, MediaWiki) driven over the
//! wire: N concurrent keep-alive connections, every request a
//! `trod_invoke`. How many requests lose a race depends on the
//! scheduler, so the tests assert what every interleaving must satisfy:
//! each request ends as a success, a typed retryable conflict, or the
//! application's own error (a `getOrder` racing the checkout that creates
//! the order; the Moodle duplicate-subscription check catching the
//! MDL-59854 race the workload's `conflict_rate` exists to provoke) —
//! never as a fatal failure, which would mean a broken mapping.

use trod_apps::{mediawiki, moodle, shop, workload};
use trod_core::Trod;
use trod_runtime::Runtime;
use trod_server::{drive_workload, LoadReport, ServerBuilder, ServerHandle};

fn serve(trod: Trod) -> ServerHandle {
    ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind")
}

fn assert_every_request_accounted_for(report: &LoadReport) {
    assert_eq!(report.fatal_failures, 0, "report: {report:?}");
    assert_eq!(
        report.ok + report.application_errors + report.retryable_failures,
        report.requests,
        "report: {report:?}"
    );
}

#[test]
fn shop_workload_over_the_wire() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 10, 10_000);
    let runtime = Runtime::builder(db, shop::registry())
        .kv(shop::shop_kv())
        .build();
    let server = serve(Trod::attach(runtime).expect("attach"));

    let cfg = workload::WorkloadConfig {
        requests: 120,
        users: 10,
        items: 8,
        conflict_rate: 0.2,
        seed: 11,
    };
    let report = drive_workload(&server.addr(), workload::shop_workload(&cfg), 8).expect("drive");

    assert_eq!(report.requests, cfg.requests);
    assert_every_request_accounted_for(&report);
    assert!(report.ok > cfg.requests / 2, "report: {report:?}");

    let shutdown = server.shutdown();
    assert_eq!(shutdown.requests_served as usize, cfg.requests);
}

#[test]
fn moodle_workload_over_the_wire() {
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry()).build();
    let server = serve(Trod::attach_with(runtime, provenance));

    let cfg = workload::WorkloadConfig {
        requests: 100,
        users: 12,
        items: 6,
        conflict_rate: 0.3,
        seed: 23,
    };
    let report = drive_workload(&server.addr(), workload::moodle_workload(&cfg), 8).expect("drive");

    assert_eq!(report.requests, cfg.requests);
    assert_every_request_accounted_for(&report);
    assert!(report.ok > cfg.requests / 2, "report: {report:?}");
    server.shutdown();
}

#[test]
fn mediawiki_workload_over_the_wire() {
    let runtime = Runtime::builder(mediawiki::mediawiki_db(), mediawiki::registry()).build();
    let server = serve(Trod::attach(runtime).expect("attach"));

    let cfg = workload::WorkloadConfig {
        requests: 100,
        users: 8,
        items: 5,
        conflict_rate: 0.25,
        seed: 31,
    };
    let mut requests = workload::mediawiki_workload(&cfg);
    // Warm up the page pool serially (as a deployment would), then race
    // the edit/read mix over the wire.
    let rest = requests.split_off(cfg.items.min(cfg.requests));
    let warmup = drive_workload(&server.addr(), requests, 1).expect("warmup");
    assert_every_request_accounted_for(&warmup);

    let report = drive_workload(&server.addr(), rest, 8).expect("drive");
    assert_eq!(report.requests + warmup.requests, cfg.requests);
    assert_every_request_accounted_for(&report);
    assert!(report.ok > 0, "report: {report:?}");
    server.shutdown();
}
