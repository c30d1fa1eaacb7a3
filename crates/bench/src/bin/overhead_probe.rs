use std::time::Instant;
use trod_apps::shop;
use trod_runtime::Runtime;

fn main() {
    for tracing in [false, true] {
        let db = shop::shop_db();
        shop::seed_inventory(&db, 64, i64::MAX / 2);
        let runtime = Runtime::new(db, shop::registry());
        runtime.tracer().set_enabled(tracing);
        // warmup
        for i in 0..200 {
            let r = runtime.handle_request(
                "checkout",
                shop::checkout_args(&format!("w{i}"), "u", &format!("item-{}", i % 64), 1),
            );
            assert!(r.is_ok());
        }
        let start = Instant::now();
        let n = 2000;
        for i in 0..n {
            let r = runtime.handle_request(
                "checkout",
                shop::checkout_args(&format!("o{i}"), "u", &format!("item-{}", i % 64), 1),
            );
            assert!(r.is_ok());
        }
        let total = start.elapsed();
        println!(
            "tracing={tracing}: {:?} per request, buffer={} events",
            total / n,
            runtime.tracer().stats().buffered
        );
    }
}
