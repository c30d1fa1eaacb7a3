//! Experiment E3 (paper §3.5): cost of faithful replay.
//!
//! The paper argues replay is cheap because TROD restores only the data
//! items the replayed transactions depend on rather than the whole
//! production database. This benchmark measures (a) replay latency as the
//! number of *dependencies* (concurrent transactions injected between the
//! replayed request's transactions) grows, and (b) replay latency as the
//! total database size grows while the dependency count stays fixed — the
//! expected shape is strong sensitivity to (a) and much weaker sensitivity
//! to (b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trod_apps::moodle;
use trod_core::ReplaySession;
use trod_db::{Database, IsolationLevel};
use trod_kv::Session;
use trod_provenance::ProvenanceStore;
use trod_runtime::{Args, Runtime};

/// Builds a traced Moodle deployment where request `TARGET` has
/// `dependencies` concurrent transactions committed between its two
/// transactions, on top of `base_rows` pre-existing subscriptions.
fn traced_deployment(base_rows: usize, dependencies: usize) -> (ProvenanceStore, Database, String) {
    let db = moodle::moodle_db();
    // Pre-populate unrelated subscriptions (database size axis).
    let mut seed = db.begin();
    for i in 0..base_rows {
        seed.insert(
            moodle::FORUM_SUB_TABLE,
            trod_db::row![
                format!("seed-{i}"),
                format!("U{}", i % 97),
                format!("F{}", i % 31)
            ],
        )
        .expect("seeding cannot conflict");
    }
    seed.commit().expect("seeding cannot conflict");

    let provenance = moodle::provenance_for(&db);
    // Script: TARGET runs its check first, then every OTHER-i request runs
    // to completion, then TARGET performs its insert — so exactly
    // `dependencies` concurrent transactions must be injected between
    // TARGET's two transactions during replay.
    let mut script = vec![
        trod_runtime::point_label("TARGET", "pre-check"),
        trod_runtime::point_label("TARGET", "post-check"),
    ];
    for i in 0..dependencies {
        let req = format!("OTHER-{i}");
        for point in ["pre-check", "post-check", "pre-insert", "post-insert"] {
            script.push(trod_runtime::point_label(&req, point));
        }
    }
    script.push(trod_runtime::point_label("TARGET", "pre-insert"));
    script.push(trod_runtime::point_label("TARGET", "post-insert"));
    let scheduler = std::sync::Arc::new(trod_runtime::Scheduler::scripted(script));
    let runtime = Runtime::builder(db, moodle::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .scheduler(scheduler)
        .request_prefix("GEN-")
        .build();

    std::thread::scope(|scope| {
        let r = &runtime;
        scope.spawn(move || {
            r.handle_request_with_id(
                "TARGET",
                "subscribeUser",
                moodle::subscribe_args("sub-target", "U1", "F2"),
            )
        });
        scope.spawn(move || {
            for i in 0..dependencies {
                r.handle_request_with_id(
                    &format!("OTHER-{i}"),
                    "subscribeUser",
                    moodle::subscribe_args(&format!("sub-{i}"), &format!("U{}", i + 10), "F2"),
                );
            }
        });
    });
    // A fetch afterwards, for completeness.
    runtime.handle_request_with_id("FETCH", "fetchSubscribers", Args::new().with("forum", "F2"));

    provenance.drain_from(runtime.tracer());
    let production_db = runtime.database().clone();
    (provenance, production_db, "TARGET".to_string())
}

fn bench_replay_vs_dependencies(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay/vs_dependencies");
    group.sample_size(20);
    for deps in [1usize, 8, 32] {
        let (provenance, db, target) = traced_deployment(100, deps);
        group.bench_function(BenchmarkId::from_parameter(deps), |b| {
            b.iter(|| {
                let production = Session::new(db.clone());
                let mut session = ReplaySession::for_session(&provenance, &production, &target)
                    .expect("target request is traced");
                let report = session.run_to_end().expect("replay succeeds");
                assert!(report.is_faithful());
                report.injected_count()
            });
        });
    }
    group.finish();
}

fn bench_replay_vs_database_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay/vs_database_size");
    group.sample_size(20);
    for rows in [100usize, 1_000, 10_000] {
        let (provenance, db, target) = traced_deployment(rows, 1);
        group.bench_function(BenchmarkId::from_parameter(rows), |b| {
            b.iter(|| {
                let production = Session::new(db.clone());
                let mut session = ReplaySession::for_session(&provenance, &production, &target)
                    .expect("target request is traced");
                session.run_to_end().expect("replay succeeds").steps.len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_replay_vs_dependencies,
    bench_replay_vs_database_size
);
criterion_main!(benches);
