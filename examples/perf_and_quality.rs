//! Performance debugging, data-quality debugging and privacy redaction —
//! the paper's §5 research directions — on the e-commerce case-study
//! application.
//!
//! The same always-on provenance that answers correctness questions also
//! answers "which handler is slow?", "which request wrote this bad row?"
//! and "erase everything about this user", with no extra instrumentation.
//!
//! Run with: `cargo run --example perf_and_quality`

use trod::apps::shop;
use trod::prelude::*;

fn main() {
    // 1. The e-commerce application (checkout → reserve inventory → charge
    //    → record order) on the TROD runtime, with tracing always on.
    let db = shop::shop_db();
    shop::seed_inventory(&db, 20, 50);
    let runtime = Runtime::new(db, shop::registry());
    let trod = Trod::attach(runtime).expect("attach TROD");

    // 2. Serve a small production workload: checkouts by 10 customers,
    //    every fifth on the hot item-0, and every tenth request a look-up
    //    of an earlier order.
    let mut served = 0usize;
    for i in 0..50 {
        let result = match i % 10 {
            9 => trod.runtime().handle_request(
                "getOrder",
                Args::new().with("order_id", format!("order-{}", i / 2)),
            ),
            _ => {
                let item = if i % 5 == 0 { 0 } else { i % 20 };
                let (order, user) = (format!("order-{i}"), format!("user-{}", i % 10));
                let args = shop::checkout_args(&order, &user, &format!("item-{item}"), 1);
                trod.runtime().handle_request("checkout", args)
            }
        };
        if result.is_ok() {
            served += 1;
        }
    }
    let flushed = trod.sync();
    println!("served {served} requests, flushed {flushed} trace events\n");

    // 3. Performance debugging (§5): per-handler latency distributions and
    //    the slowest end-to-end requests, straight from provenance.
    let perf = trod.perf();
    println!("handler latencies (slowest first):");
    for stat in perf.handler_latencies() {
        println!(
            "  {:<18} invocations={:<4} errors={:<3} mean={:>8.1}us p50={:>6}us p95={:>6}us max={:>6}us txns={}",
            stat.handler,
            stat.invocations,
            stat.errors,
            stat.mean_us,
            stat.p50_us,
            stat.p95_us,
            stat.max_us,
            stat.transactions
        );
    }
    if let Some(slowest) = perf.all_request_profiles().into_iter().next() {
        println!(
            "\nslowest request {} ({} invocations, {} transactions, end-to-end {:?}us):",
            slowest.req_id, slowest.invocations, slowest.transactions, slowest.end_to_end_us
        );
        print_span(&slowest.root, 1);
    }

    // 4. Data-quality debugging (§5): declare the invariants the data
    //    should satisfy — the same `Invariant`s that judge retroactive
    //    re-executions — and blame every violation that names a row on
    //    the requests that wrote it. A range is a predicate every row must
    //    match; a misspelled column would make `check` an error.
    let in_stock_range = Predicate::ge("stock", 0i64).and(Predicate::le("stock", 1_000_000i64));
    let rules = [
        Invariant::no_duplicates(shop::ORDERS_TABLE, &["order_id"]),
        Invariant::all_rows_match(shop::INVENTORY_TABLE, in_stock_range),
        Invariant::foreign_key(
            shop::PAYMENTS_TABLE,
            "order_id",
            shop::ORDERS_TABLE,
            "order_id",
        ),
    ];
    let report = trod.quality().check(&rules).expect("quality rules run");
    println!(
        "\ndata quality: {} invariants checked, {} violations",
        report.rules_checked,
        report.violations.len()
    );
    for blamed in &report.violations {
        println!(
            "  violation: {} — {}",
            blamed.violation.rule, blamed.violation.detail
        );
        for culprit in &blamed.culprits {
            println!(
                "    written by request {} (handler {}, txn {})",
                culprit.req_id, culprit.handler, culprit.txn_id
            );
        }
    }
    if report.is_clean() {
        println!(
            "  (the workload kept every invariant — as it should under serializable transactions)"
        );
    }

    // 5. Privacy (§5): a customer requests erasure. Their order provenance
    //    is redacted and old traces beyond the retention window dropped,
    //    while the execution history stays queryable.
    let customer = "user-0";
    let redaction = trod
        .provenance()
        .redact_rows(
            shop::ORDERS_TABLE,
            &[("customer", Value::Text(customer.into()))],
        )
        .expect("redaction");
    println!(
        "\nprivacy: redacted {} provenance entries ({} transactions) for {customer}",
        redaction.total(),
        redaction.transactions_affected
    );
    let stats_before = trod.provenance().stats();
    let horizon = trod.runtime().tracer().now();
    let retention = trod.provenance().retain_since(horizon).expect("retention");
    println!(
        "retention: dropped {} traced transactions and {} provenance rows (had {} transactions)",
        retention.transactions_dropped, retention.rows_deleted, stats_before.transactions
    );
}

fn print_span(span: &trod::core::SpanNode, depth: usize) {
    println!(
        "{}{} latency={:?}us transactions={}",
        "  ".repeat(depth),
        span.handler,
        span.latency_us,
        span.transactions
    );
    for child in &span.children {
        print_span(child, depth + 1);
    }
}
