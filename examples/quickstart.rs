//! Quickstart: build a tiny database-backed application on the TROD
//! runtime, serve a few requests under always-on tracing, then debug it —
//! query the provenance database and faithfully replay a past request.
//!
//! Run with: `cargo run --example quickstart`

use trod::prelude::*;

fn main() {
    // 1. The application database (principle P1: all shared state lives here).
    let db = Database::new();
    db.create_table(
        "accounts",
        Schema::builder()
            .column("name", DataType::Text)
            .column("balance", DataType::Int)
            .primary_key(&["name"])
            .build()
            .expect("schema is valid"),
    )
    .expect("fresh database");

    // 2. The application: deterministic request handlers that touch shared
    //    state only through transactions (principles P2/P3).
    let registry = HandlerRegistry::new()
        .with_fn("open_account", |ctx, args| {
            let name = args.get_str("name").unwrap_or("anon").to_string();
            let mut txn = ctx.txn("func:open_account");
            txn.insert("accounts", row![name, 100i64])?;
            txn.commit()?;
            Ok(Value::Bool(true))
        })
        .with_fn("transfer", |ctx, args| {
            let from = args.get_str("from").unwrap_or_default().to_string();
            let to = args.get_str("to").unwrap_or_default().to_string();
            let amount = args.get_int("amount").unwrap_or(0);
            let mut txn = ctx.txn("func:transfer");
            let from_key = Key::single(from.clone());
            let to_key = Key::single(to.clone());
            let from_row = txn
                .get("accounts", &from_key)?
                .ok_or_else(|| HandlerError::App(format!("no account {from}")))?;
            let to_row = txn
                .get("accounts", &to_key)?
                .ok_or_else(|| HandlerError::App(format!("no account {to}")))?;
            let from_balance = from_row[1].as_int().unwrap_or(0);
            if from_balance < amount {
                return Err(HandlerError::App("insufficient funds".into()));
            }
            txn.update("accounts", &from_key, row![from, from_balance - amount])?;
            txn.update(
                "accounts",
                &to_key,
                row![to, to_row[1].as_int().unwrap_or(0) + amount],
            )?;
            txn.commit()?;
            Ok(Value::Int(from_balance - amount))
        });

    // 3. The production runtime with TROD attached (paper Figure 2).
    let runtime = Runtime::new(db, registry);
    let trod = Trod::attach(runtime).expect("attach TROD");

    // 4. Serve traffic. Every handler invocation and every transaction is
    //    traced automatically; no logging code was written above.
    for name in ["alice", "bob"] {
        trod.runtime()
            .must_handle("open_account", Args::new().with("name", name));
    }
    let transfer = trod.runtime().handle_request(
        "transfer",
        Args::new()
            .with("from", "alice")
            .with("to", "bob")
            .with("amount", 30i64),
    );
    println!(
        "transfer request {} -> {:?}",
        transfer.req_id, transfer.output
    );

    // 5. Move the trace buffer into the provenance database (a server
    //    does this from its periodic sync thread).
    let flushed = trod.sync();
    println!("flushed {flushed} trace events into the provenance database\n");

    // 6. Declarative debugging: plain SQL over the captured history.
    let executions = trod
        .query("SELECT TxnId, HandlerName, ReqId, Metadata FROM Executions ORDER BY Timestamp")
        .expect("query provenance");
    println!("Executions (paper Table 1):\n{executions}");

    let writers = trod
        .declarative()
        .find_writers("accounts", "Update", &[("name", "alice")])
        .expect("query provenance");
    println!("requests that updated alice's account: {writers:?}\n");

    // 7. Faithful replay of the transfer request in a development database.
    let mut session = trod.replay(&transfer.req_id).expect("request was traced");
    while let Some(step) = session.step().expect("replay step") {
        println!(
            "replayed {} ({}): {} concurrent txns injected, {} reads verified, faithful = {}",
            step.function,
            step.handler,
            step.injected.len(),
            step.reads_checked,
            step.is_faithful()
        );
    }
    let alice = session
        .dev_db()
        .get_latest("accounts", &Key::single("alice"))
        .expect("dev db readable");
    println!("alice in the development database after replay: {alice:?}");
}
