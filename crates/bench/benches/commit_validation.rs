//! Commit-path benchmark: serializable predicate validation cost.
//!
//! The claim under test: serializable commit validation is O(Δ) in the
//! writes committed since the transaction began — *flat* in table size.
//! Each benchmark runs one serializable transaction that performs a
//! predicate scan plus a small write set against tables of 1k / 10k /
//! 100k rows. (The O(total versions) full-scan path it replaced survives
//! only as the fallback for a truncated change log; `BENCH_PR1.json`
//! records its linear growth.)
//!
//! Also measured: the raw read path (zero-copy `Arc<Row>` scans) and
//! per-row predicate evaluation (compiled vs name-resolving), the other
//! two hot paths this PR touched.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_db::{row, DataType, Database, Key, Predicate, Row, Schema};

const TABLE_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const WRITE_SET_SIZES: [usize; 2] = [1, 32];

fn items_schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("grp", DataType::Int)
        .column("val", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Builds a database whose `items` table holds `size` rows.
fn populated_db(size: usize) -> Database {
    let db = Database::new();
    db.create_table("items", items_schema()).unwrap();
    // Index the scanned column so the in-transaction read is O(1) and the
    // measured cost is the commit path (validation + install), not the
    // scan itself.
    db.create_index("items", "grp").unwrap();
    // Load in chunks so the buffered write set stays reasonable.
    for chunk in (0..size).collect::<Vec<_>>().chunks(10_000) {
        let mut txn = db.begin();
        for &i in chunk {
            txn.insert("items", row![i as i64, (i % 100) as i64, 0i64])
                .unwrap();
        }
        txn.commit().unwrap();
    }
    db
}

/// One serializable transaction: a selective predicate scan (reads
/// nothing, but must be validated against phantoms) plus `write_set`
/// counter updates. This is the paper's "check then act" shape.
fn scan_then_write(db: &Database, write_set: usize, round: u64) {
    let mut txn = db.begin();
    // Predicate over a group that does not exist: the result set is empty,
    // so the transaction always commits — every iteration measures
    // validation cost, not conflict handling.
    let pred = Predicate::eq("grp", 1_000_000i64);
    let hits = txn.scan("items", &pred).unwrap();
    assert!(hits.is_empty());
    for w in 0..write_set {
        let key = Key::single(w as i64);
        txn.update(
            "items",
            &key,
            row![w as i64, (w % 100) as i64, round as i64],
        )
        .unwrap();
    }
    txn.commit().unwrap();
}

fn bench_commit_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_validation/serializable_commit");
    for &size in &TABLE_SIZES {
        for &write_set in &WRITE_SET_SIZES {
            let db = populated_db(size);
            let mut round = 0u64;
            group.bench_function(
                BenchmarkId::new(
                    format!("changelog/rows_{size}"),
                    format!("writes_{write_set}"),
                ),
                |b| {
                    b.iter(|| {
                        round += 1;
                        scan_then_write(&db, write_set, round);
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_read_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_validation/read_path");
    for &size in &TABLE_SIZES {
        let db = populated_db(size);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_function(BenchmarkId::new("scan_latest_all", size), |b| {
            b.iter(|| {
                let rows = db.scan_latest("items", &Predicate::True).unwrap();
                assert_eq!(rows.len(), size);
                rows
            });
        });
    }
    let db = populated_db(10_000);
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("get_latest_point", 10_000), |b| {
        let key = Key::single(4_567i64);
        b.iter(|| db.get_latest("items", &key).unwrap());
    });
    group.finish();
}

fn bench_predicate_eval(c: &mut Criterion) {
    let schema = items_schema();
    let rows: Vec<Row> = (0..1_000)
        .map(|i| row![i as i64, (i % 100) as i64, i as i64])
        .collect();
    let pred = Predicate::eq("grp", 7i64).and(Predicate::ge("val", 100i64));

    let mut group = c.benchmark_group("commit_validation/predicate_eval_1k_rows");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("interpreted_name_lookup", |b| {
        b.iter(|| {
            rows.iter()
                .filter(|r| pred.matches("items", &schema, r).unwrap())
                .count()
        });
    });
    group.bench_function("compiled_ordinals", |b| {
        let compiled = pred.compile("items", &schema).unwrap();
        b.iter(|| rows.iter().filter(|r| compiled.matches(r)).count());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_commit_validation,
    bench_read_path,
    bench_predicate_eval
);
criterion_main!(benches);
