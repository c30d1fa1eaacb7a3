//! Experiment E4 (paper §3.6): cost of retroactive programming.
//!
//! Retroactive programming re-executes original requests under every
//! relevant interleaving. The number of orderings grows with the number of
//! *conflicting* requests, so the benchmark sweeps the count of conflicting
//! subscribe requests (all touching the same forum) and measures the cost
//! of a full conflict-aware exploration with the patched handler, plus the
//! cost of the ordering enumeration itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trod_apps::moodle;
use trod_core::{ConflictGraph, Invariant, Trod};
use trod_db::IsolationLevel;
use trod_runtime::Runtime;

/// Builds a traced deployment with `conflicting` subscribe requests that
/// all target the same (user, forum) pair, and wraps it in a Trod handle.
fn traced_trod(conflicting: usize) -> (Trod, Vec<String>) {
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .request_prefix("GEN-")
        .build();
    let mut req_ids = Vec::new();
    for i in 0..conflicting {
        let req = format!("C{i}");
        runtime.handle_request_with_id(
            &req,
            "subscribeUser",
            moodle::subscribe_args(&format!("sub-{i}"), "U1", "F2"),
        );
        req_ids.push(req);
    }
    provenance.drain_from(runtime.tracer());
    (Trod::attach_with(runtime, provenance), req_ids)
}

fn bench_retroactive_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("retroactive/full_exploration");
    group.sample_size(10);
    for conflicting in [2usize, 3, 4] {
        let (trod, req_ids) = traced_trod(conflicting);
        let refs: Vec<&str> = req_ids.iter().map(String::as_str).collect();
        group.bench_function(BenchmarkId::from_parameter(conflicting), |b| {
            b.iter(|| {
                let report = trod
                    .retroactive(moodle::patched_registry())
                    .requests(&refs)
                    .max_orderings(24)
                    .invariant(Invariant::no_duplicates(
                        moodle::FORUM_SUB_TABLE,
                        &["user_id", "forum"],
                    ))
                    .run()
                    .expect("retroactive run succeeds");
                assert!(report.all_orderings_clean());
                report.orderings.len()
            });
        });
    }
    group.finish();
}

fn bench_ordering_enumeration(c: &mut Criterion) {
    // The enumeration itself, isolated from request re-execution.
    let mut group = c.benchmark_group("retroactive/ordering_enumeration");
    for conflicting in [4usize, 6, 8] {
        let (trod, req_ids) = traced_trod(conflicting);
        let txns: Vec<_> = req_ids
            .iter()
            .flat_map(|r| trod.provenance().txns_for_request(r))
            .collect();
        group.bench_function(BenchmarkId::from_parameter(conflicting), |b| {
            b.iter(|| {
                let graph = ConflictGraph::build(&req_ids, &txns);
                graph.enumerate_orderings(64).len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_retroactive_exploration,
    bench_ordering_enumeration
);
criterion_main!(benches);
