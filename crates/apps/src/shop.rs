//! An e-commerce microservice application.
//!
//! The paper motivates TROD with "modern distributed web applications such
//! as a travel reservation website or an e-commerce microservices
//! application" and measures tracing overhead on "popular microservices
//! benchmarks" (§3.7). This module provides that workload: a checkout
//! workflow in which a root handler invokes inventory, payment and order
//! handlers over RPC, so every request produces a multi-handler,
//! multi-transaction trace. It is the workload used by the tracing
//! overhead benchmark (experiment E1) and the provenance-scale benchmark
//! (experiment E2).

use trod_db::{row, DataType, Database, Key, Predicate, Schema, Value};
use trod_provenance::ProvenanceStore;
use trod_runtime::{Args, HandlerError, HandlerRegistry};

/// Inventory: per-item stock counts.
pub const INVENTORY_TABLE: &str = "inventory";
/// Orders placed by customers.
pub const ORDERS_TABLE: &str = "orders";
/// Payments charged for orders.
pub const PAYMENTS_TABLE: &str = "payments";
/// Key-value namespace holding per-customer cart sessions. Creating it
/// (`db.create_namespace(CARTS_NAMESPACE)`) turns the checkout workflow
/// polyglot: checkout then clears the customer's cart in the *same*
/// atomic commit that confirms the order — the paper's §5
/// polyglot-transaction shape. Without it the handlers skip the cart
/// writes. [`create_schema`] leaves it to the caller.
pub const CARTS_NAMESPACE: &str = "carts";

/// Creates the shop schema in a fresh database.
pub fn shop_db() -> Database {
    let db = Database::new();
    create_schema(&db);
    db
}

/// Creates the shop tables on an existing database.
pub fn create_schema(db: &Database) {
    db.create_table(
        INVENTORY_TABLE,
        Schema::builder()
            .column("item", DataType::Text)
            .column("stock", DataType::Int)
            .column("reserved", DataType::Int)
            .primary_key(&["item"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    // Stock-level windows (low-stock sweeps, the `stock < 0` quality
    // invariant) are range scans; the index serves them.
    db.create_index(INVENTORY_TABLE, "stock").expect("index");
    db.create_table(
        ORDERS_TABLE,
        Schema::builder()
            .column("order_id", DataType::Text)
            .column("customer", DataType::Text)
            .column("item", DataType::Text)
            .column("quantity", DataType::Int)
            .column("status", DataType::Text)
            .primary_key(&["order_id"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    db.create_index(ORDERS_TABLE, "customer").expect("index");
    db.create_table(
        PAYMENTS_TABLE,
        Schema::builder()
            .column("payment_id", DataType::Text)
            .column("order_id", DataType::Text)
            .column("amount", DataType::Int)
            .primary_key(&["payment_id"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
}

/// Seeds the inventory with `items` items, each with `stock` units.
pub fn seed_inventory(db: &Database, items: usize, stock: i64) {
    let mut txn = db.begin();
    for i in 0..items {
        txn.insert(INVENTORY_TABLE, row![format!("item-{i}"), stock, 0i64])
            .expect("seeding a fresh inventory cannot conflict");
    }
    txn.commit()
        .expect("seeding a fresh inventory cannot conflict");
}

/// Creates a provenance store with all shop tables registered.
pub fn provenance_for(db: &Database) -> ProvenanceStore {
    ProvenanceStore::for_application(db).expect("fresh provenance store")
}

fn require_str(args: &Args, name: &str) -> Result<String, HandlerError> {
    args.get_str(name)
        .map(|s| s.to_string())
        .ok_or_else(|| HandlerError::BadArgument(format!("missing `{name}`")))
}

fn require_int(args: &Args, name: &str) -> Result<i64, HandlerError> {
    args.get_int(name)
        .ok_or_else(|| HandlerError::BadArgument(format!("missing `{name}`")))
}

/// The shop handler registry. `checkout` is the root workflow handler;
/// `reserveInventory`, `chargePayment` and `createOrder` are the
/// microservices it invokes over RPC.
pub fn registry() -> HandlerRegistry {
    let mut registry = HandlerRegistry::new();

    registry.register_fn("reserveInventory", |ctx, args| {
        let item = require_str(args, "item")?;
        let quantity = require_int(args, "quantity")?;
        let mut txn = ctx.txn("func:reserveInventory");
        let key = Key::single(item.clone());
        let inv = txn
            .get(INVENTORY_TABLE, &key)?
            .ok_or_else(|| HandlerError::App(format!("no such item {item}")))?;
        let stock = inv[1].as_int().unwrap_or(0);
        let reserved = inv[2].as_int().unwrap_or(0);
        if stock - reserved < quantity {
            txn.commit()?;
            return Err(HandlerError::App(format!("insufficient stock for {item}")));
        }
        txn.update(
            INVENTORY_TABLE,
            &key,
            row![item, stock, reserved + quantity],
        )?;
        txn.commit()?;
        Ok(Value::Bool(true))
    });

    registry.register_fn("chargePayment", |ctx, args| {
        let order_id = require_str(args, "order_id")?;
        let amount = require_int(args, "amount")?;
        let mut txn = ctx.txn("func:chargePayment");
        txn.insert(
            PAYMENTS_TABLE,
            row![format!("pay-{order_id}"), order_id.clone(), amount],
        )?;
        txn.commit()?;
        // The actual charge goes to an external (idempotent) provider.
        ctx.external_call(
            "payment-gateway",
            &format!("charge {order_id} amount={amount}"),
        );
        Ok(Value::Bool(true))
    });

    // Cart sessions live in a key-value namespace (when the database
    // holds it): the paper's §5 shape, where per-user session state sits
    // outside the relational tables but still commits transactionally.
    // Without the namespace the cart write is skipped (returning
    // `false`), like every other cart touch in this registry.
    registry.register_fn("addToCart", |ctx, args| {
        let customer = require_str(args, "customer")?;
        let item = require_str(args, "item")?;
        if !ctx.has_namespace(CARTS_NAMESPACE) {
            return Ok(Value::Bool(false));
        }
        let mut txn = ctx.txn("func:addToCart");
        txn.kv_put(CARTS_NAMESPACE, &format!("cart:{customer}"), &item)?;
        txn.commit()?;
        Ok(Value::Bool(true))
    });

    // The polyglot read path: what is in this customer's cart right now?
    // Traced kv reads are what make shop requests fully replayable —
    // the replay engine verifies them against the forked store.
    registry.register_fn("getCart", |ctx, args| {
        let customer = require_str(args, "customer")?;
        if !ctx.has_namespace(CARTS_NAMESPACE) {
            return Ok(Value::Null);
        }
        let mut txn = ctx.txn("func:getCart");
        let cart = txn.kv_get(CARTS_NAMESPACE, &format!("cart:{customer}"))?;
        txn.commit()?;
        Ok(cart.map(Value::Text).unwrap_or(Value::Null))
    });

    registry.register_fn("createOrder", |ctx, args| {
        let order_id = require_str(args, "order_id")?;
        let customer = require_str(args, "customer")?;
        let item = require_str(args, "item")?;
        let quantity = require_int(args, "quantity")?;
        let has_carts = ctx.has_namespace(CARTS_NAMESPACE);
        let mut txn = ctx.txn("func:createOrder");
        txn.insert(
            ORDERS_TABLE,
            row![order_id, customer.clone(), item, quantity, "confirmed"],
        )?;
        if has_carts {
            // Confirming the order and clearing the customer's cart is
            // ONE atomic commit across both stores.
            txn.kv_delete(CARTS_NAMESPACE, &format!("cart:{customer}"))?;
        }
        txn.commit()?;
        Ok(Value::Bool(true))
    });

    // The root workflow: reserve → charge → create order → e-mail receipt.
    registry.register_fn("checkout", |ctx, args| {
        let order_id = require_str(args, "order_id")?;
        let customer = require_str(args, "customer")?;
        let item = require_str(args, "item")?;
        let quantity = require_int(args, "quantity")?;

        ctx.call(
            "reserveInventory",
            Args::new()
                .with("item", item.as_str())
                .with("quantity", quantity),
        )?;
        ctx.call(
            "chargePayment",
            Args::new()
                .with("order_id", order_id.as_str())
                .with("amount", quantity * 10),
        )?;
        ctx.call(
            "createOrder",
            Args::new()
                .with("order_id", order_id.as_str())
                .with("customer", customer.as_str())
                .with("item", item.as_str())
                .with("quantity", quantity),
        )?;
        ctx.external_call("email", &format!("receipt for {order_id} to {customer}"));
        Ok(Value::Text(order_id))
    });

    registry.register_fn("getOrder", |ctx, args| {
        let order_id = require_str(args, "order_id")?;
        let mut txn = ctx.txn("func:getOrder");
        let order = txn.get(ORDERS_TABLE, &Key::single(order_id.clone()))?;
        txn.commit()?;
        match order {
            Some(o) => Ok(Value::Text(format!(
                "{}:{}:{}",
                o[1].as_text().unwrap_or(""),
                o[2].as_text().unwrap_or(""),
                o[4].as_text().unwrap_or("")
            ))),
            None => Err(HandlerError::App(format!("no such order {order_id}"))),
        }
    });

    registry.register_fn("listOrders", |ctx, args| {
        let customer = require_str(args, "customer")?;
        let mut txn = ctx.txn("func:listOrders");
        let orders = txn.scan(ORDERS_TABLE, &Predicate::eq("customer", &customer as &str))?;
        txn.commit()?;
        Ok(Value::Int(orders.len() as i64))
    });

    registry
}

/// Arguments for a `checkout` request.
pub fn checkout_args(order_id: &str, customer: &str, item: &str, quantity: i64) -> Args {
    Args::new()
        .with("order_id", order_id)
        .with("customer", customer)
        .with("item", item)
        .with("quantity", quantity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::kv_table_name;
    use trod_runtime::Runtime;
    use trod_trace::TraceEvent;

    #[test]
    fn checkout_workflow_touches_all_services() {
        let db = shop_db();
        seed_inventory(&db, 3, 100);
        let runtime = Runtime::new(db, registry());

        let order = runtime.must_handle("checkout", checkout_args("O1", "alice", "item-1", 2));
        assert_eq!(order, Value::Text("O1".into()));

        let db = runtime.database();
        assert_eq!(
            db.scan_latest(ORDERS_TABLE, &Predicate::True)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.scan_latest(PAYMENTS_TABLE, &Predicate::True)
                .unwrap()
                .len(),
            1
        );
        let inv = db
            .get_latest(INVENTORY_TABLE, &Key::single("item-1"))
            .unwrap()
            .unwrap();
        assert_eq!(inv[2].as_int(), Some(2));

        // Two external intents, traced: payment gateway and e-mail receipt.
        let intents: Vec<(String, String)> = runtime
            .tracer()
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::ExternalCall {
                    service, payload, ..
                } => Some((service, payload)),
                _ => None,
            })
            .collect();
        assert_eq!(
            intents,
            vec![
                ("payment-gateway".into(), "charge O1 amount=20".into()),
                ("email".into(), "receipt for O1 to alice".into()),
            ]
        );

        let info = runtime.must_handle("getOrder", Args::new().with("order_id", "O1"));
        assert_eq!(info, Value::Text("alice:item-1:confirmed".into()));
        let count = runtime.must_handle("listOrders", Args::new().with("customer", "alice"));
        assert_eq!(count, Value::Int(1));
    }

    #[test]
    fn polyglot_checkout_clears_the_cart_atomically() {
        let db = shop_db();
        db.create_namespace(CARTS_NAMESPACE).unwrap();
        seed_inventory(&db, 3, 100);
        let runtime = Runtime::new(db, registry());

        runtime.must_handle(
            "addToCart",
            Args::new().with("customer", "alice").with("item", "item-1"),
        );
        assert_eq!(
            runtime
                .kv()
                .get_latest(CARTS_NAMESPACE, "cart:alice")
                .unwrap(),
            Some("item-1".into())
        );

        assert_eq!(
            runtime.must_handle("getCart", Args::new().with("customer", "alice")),
            Value::Text("item-1".into())
        );

        runtime.must_handle("checkout", checkout_args("O1", "alice", "item-1", 2));
        // The cart was cleared in the same commit that confirmed the order.
        assert_eq!(
            runtime
                .kv()
                .get_latest(CARTS_NAMESPACE, "cart:alice")
                .unwrap(),
            None
        );
        assert_eq!(
            runtime.must_handle("getCart", Args::new().with("customer", "alice")),
            Value::Null
        );
        // That commit is one aligned-log entry spanning both stores.
        let log = runtime.database().log_entries();
        assert!(log.iter().any(
            |e| e.writes_table(ORDERS_TABLE) && e.writes_table(&kv_table_name(CARTS_NAMESPACE))
        ));
    }

    #[test]
    fn cart_less_checkouts_leave_no_cart_versions() {
        // Every checkout deletes the customer's cart; without a cart the
        // delete is a read, so nothing accumulates in the namespace.
        const CHECKOUTS: usize = 12;
        let db = shop_db();
        db.create_namespace(CARTS_NAMESPACE).unwrap();
        seed_inventory(&db, 3, 100);
        let runtime = Runtime::new(db, registry());
        for i in 0..CHECKOUTS {
            let (order, customer) = (format!("O{i}"), format!("c{i}"));
            runtime.must_handle("checkout", checkout_args(&order, &customer, "item-1", 1));
        }
        runtime.session().gc_before(trod_db::Ts::MAX);
        let carts = runtime.database().table(&kv_table_name(CARTS_NAMESPACE));
        assert_eq!(carts.unwrap().version_count(), 0);
    }

    #[test]
    fn checkout_fails_cleanly_when_out_of_stock() {
        let db = shop_db();
        seed_inventory(&db, 1, 1);
        let runtime = Runtime::new(db, registry());
        let result = runtime.handle_request("checkout", checkout_args("O1", "bob", "item-0", 5));
        assert!(matches!(result.output, Err(HandlerError::App(_))));
        // Nothing was ordered or charged.
        assert!(runtime
            .database()
            .scan_latest(ORDERS_TABLE, &Predicate::True)
            .unwrap()
            .is_empty());
        assert!(runtime
            .database()
            .scan_latest(PAYMENTS_TABLE, &Predicate::True)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn concurrent_checkouts_never_oversell() {
        let db = shop_db();
        seed_inventory(&db, 1, 10);
        let runtime = Runtime::new(db, registry());
        let requests: Vec<(String, Args)> = (0..20)
            .map(|i| {
                (
                    "checkout".to_string(),
                    checkout_args(&format!("O{i}"), "carol", "item-0", 1),
                )
            })
            .collect();
        let results = runtime.run_concurrent(requests, 6);
        let succeeded = results.iter().filter(|r| r.is_ok()).count();
        let inv = runtime
            .database()
            .get_latest(INVENTORY_TABLE, &Key::single("item-0"))
            .unwrap()
            .unwrap();
        let reserved = inv[2].as_int().unwrap();
        assert!(reserved <= 10, "reserved {reserved} exceeds stock");
        assert_eq!(
            runtime
                .database()
                .scan_latest(ORDERS_TABLE, &Predicate::True)
                .unwrap()
                .len(),
            succeeded
        );
    }
}
