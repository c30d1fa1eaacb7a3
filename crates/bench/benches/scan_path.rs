//! Scan-path benchmark: planned (index-served) scans vs the full-scan
//! baseline, across selectivity × table size × latest-vs-time-travel.
//!
//! The claim under test (and the acceptance bar of the PR that introduced
//! the scan planner): a selective scan served by an index range probe or
//! an index multi-probe is *sublinear* in table size — its cost tracks
//! the number of matching rows, not the number of live rows — whereas the
//! full chain walk is O(live rows) regardless of selectivity. Each
//! benchmark runs the same predicate through `Database::scan_latest` /
//! `scan_as_of` (which plan an access path) and through
//! `TableStore::scan_at_full` (the planner-bypassing oracle), so the two
//! series are directly comparable per (size, selectivity) cell.
//!
//! The `events` table: `id` (pk), `ts` (indexed, equal to `id`), `grp`
//! (indexed, 100 groups), `val` (payload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_db::{row, DataType, Database, Predicate, Schema, Ts, Value};

const TABLE_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Selectivities in tenths of a percent: 0.1%, 1%, 10%.
const SELECTIVITY_TENTHS: [usize; 3] = [1, 10, 100];

fn events_schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("ts", DataType::Int)
        .column("grp", DataType::Int)
        .column("val", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Builds a database whose `events` table holds `size` rows, and returns
/// it with the publication timestamp of the *first half* of the load —
/// the time-travel point: reads there must resolve through version
/// history and index stamps, not just live rows.
fn populated_db(size: usize) -> (Database, Ts) {
    let db = Database::new();
    db.create_table("events", events_schema()).unwrap();
    db.create_index("events", "ts").unwrap();
    db.create_index("events", "grp").unwrap();
    let mut half_ts = 0;
    for chunk in (0..size)
        .collect::<Vec<_>>()
        .chunks(10_000.min(size.div_ceil(2)))
    {
        let mut txn = db.begin();
        for &i in chunk {
            txn.insert("events", row![i as i64, i as i64, (i % 100) as i64, 0i64])
                .unwrap();
        }
        txn.commit().unwrap();
        if half_ts == 0 && chunk.last().copied().unwrap_or(0) >= size / 2 - 1 {
            half_ts = db.current_ts();
        }
    }
    (db, half_ts)
}

/// `ts >= size - hits`: the top `hits` rows by timestamp.
fn range_pred(size: usize, tenths: usize) -> (Predicate, usize) {
    let hits = (size * tenths / 1000).max(1);
    (Predicate::ge("ts", (size - hits) as i64), hits)
}

fn bench_range_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_path/range_scan");
    for &size in &TABLE_SIZES {
        let (db, _) = populated_db(size);
        let table = db.table("events").unwrap();
        for &tenths in &SELECTIVITY_TENTHS {
            let (pred, hits) = range_pred(size, tenths);
            group.throughput(Throughput::Elements(hits as u64));
            group.bench_function(
                BenchmarkId::new(format!("planned/rows_{size}"), format!("sel_{tenths}e-3")),
                |b| {
                    b.iter(|| {
                        let rows = db.scan_latest("events", &pred).unwrap();
                        assert_eq!(rows.len(), hits);
                        rows
                    });
                },
            );
            group.bench_function(
                BenchmarkId::new(format!("full_scan/rows_{size}"), format!("sel_{tenths}e-3")),
                |b| {
                    b.iter(|| {
                        let rows = table.scan_at_full(&pred, db.current_ts()).unwrap();
                        assert_eq!(rows.len(), hits);
                        rows
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_time_travel_scan(c: &mut Criterion) {
    // A 1%-of-table window read AS OF the half-loaded timestamp: the
    // planner's candidates come from MVCC index stamps and are re-checked
    // against historical versions.
    let mut group = c.benchmark_group("scan_path/time_travel");
    for &size in &TABLE_SIZES {
        let (db, half_ts) = populated_db(size);
        let table = db.table("events").unwrap();
        let hits = (size / 100).max(1);
        // The newest rows visible at the half-way snapshot.
        let lo = size / 2 - hits;
        let pred = Predicate::ge("ts", lo as i64).and(Predicate::lt("ts", (size / 2) as i64));
        group.throughput(Throughput::Elements(hits as u64));
        group.bench_function(BenchmarkId::new("planned", size), |b| {
            b.iter(|| {
                let rows = db.scan_as_of("events", &pred, half_ts).unwrap();
                assert_eq!(rows.len(), hits);
                rows
            });
        });
        group.bench_function(BenchmarkId::new("full_scan", size), |b| {
            b.iter(|| {
                let rows = table.scan_at_full(&pred, half_ts).unwrap();
                assert_eq!(rows.len(), hits);
                rows
            });
        });
    }
    group.finish();
}

fn bench_in_list_scan(c: &mut Criterion) {
    // `grp IN (7, 42)` = 2% of the table via two index probes.
    let mut group = c.benchmark_group("scan_path/in_list");
    for &size in &TABLE_SIZES {
        let (db, _) = populated_db(size);
        let table = db.table("events").unwrap();
        let pred = Predicate::in_list("grp", vec![Value::Int(7), Value::Int(42)]);
        let hits = 2 * (size / 100);
        group.throughput(Throughput::Elements(hits as u64));
        group.bench_function(BenchmarkId::new("planned", size), |b| {
            b.iter(|| {
                let rows = db.scan_latest("events", &pred).unwrap();
                assert_eq!(rows.len(), hits);
                rows
            });
        });
        group.bench_function(BenchmarkId::new("full_scan", size), |b| {
            b.iter(|| {
                let rows = table.scan_at_full(&pred, db.current_ts()).unwrap();
                assert_eq!(rows.len(), hits);
                rows
            });
        });
    }
    group.finish();
}

fn bench_declarative_pushdown(c: &mut Criterion) {
    // The same selective window through the SQL layer: WHERE lowering +
    // predicate pushdown must make the declarative path track the planned
    // scan, not the old scan-everything-then-filter shape.
    let mut group = c.benchmark_group("scan_path/declarative");
    let size = 100_000;
    let (db, _) = populated_db(size);
    let engine = trod_query::QueryEngine::new(db);
    let (pred, hits) = range_pred(size, 10);
    let sql = format!("SELECT id, val FROM events WHERE {pred}");
    group.throughput(Throughput::Elements(hits as u64));
    group.bench_function(BenchmarkId::new("where_pushdown", size), |b| {
        b.iter(|| {
            let result = engine.execute(&sql).unwrap();
            assert_eq!(result.len(), hits);
            result
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_range_scan,
    bench_time_travel_scan,
    bench_in_list_scan,
    bench_declarative_pushdown
);
criterion_main!(benches);
