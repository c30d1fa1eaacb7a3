//! # trod-runtime
//!
//! A serverless-style application runtime modelled on the paper's
//! DBOS/Apiary substrate: applications are collections of **request
//! handlers** — deterministic functions that keep all shared state in the
//! database and access it only through transactions (design principles
//! P1–P3) — invoked by an executor that propagates a unique request id
//! through handler-to-handler RPCs.
//!
//! The runtime is built on top of the [`trod_trace`] interposition layer,
//! so every handler invocation, every transaction and every external
//! call intent is traced without any per-application instrumentation.
//! The trace is the only record of what a request did: an external call
//! is a `TraceEvent::ExternalCall`, read back after ingest as a row of
//! the provenance store's `ExternalCalls` table. A deterministic
//! [`Scheduler`] lets tests and the retroactive engine force specific
//! interleavings of transactions from concurrent requests.
//!
//! ```
//! use trod_db::{Database, DataType, Schema, Value, row, Key};
//! use trod_runtime::{Args, HandlerRegistry, Runtime};
//!
//! let db = Database::new();
//! db.create_table(
//!     "greetings",
//!     Schema::builder()
//!         .column("name", DataType::Text)
//!         .column("count", DataType::Int)
//!         .primary_key(&["name"])
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//!
//! let registry = HandlerRegistry::new().with_fn("greet", |ctx, args| {
//!     let name = args.get_str("name").unwrap_or("world").to_string();
//!     let mut txn = ctx.txn("func:greet");
//!     let key = Key::single(name.clone());
//!     let count = match txn.get("greetings", &key)? {
//!         Some(row) => {
//!             let next = row[1].as_int().unwrap_or(0) + 1;
//!             txn.update("greetings", &key, row![name.clone(), next])?;
//!             next
//!         }
//!         None => {
//!             txn.insert("greetings", row![name.clone(), 1i64])?;
//!             1
//!         }
//!     };
//!     txn.commit()?;
//!     Ok(Value::Int(count))
//! });
//!
//! let runtime = Runtime::new(db, registry);
//! let result = runtime.handle_request("greet", Args::new().with("name", "ada"));
//! assert_eq!(result.output, Ok(Value::Int(1)));
//! ```

pub mod args;
pub mod context;
pub mod error;
pub mod executor;
pub mod handler;
pub mod scheduler;

pub use args::Args;
pub use context::HandlerContext;
pub use error::{HandlerError, HandlerResult};
pub use executor::{RequestResult, Runtime, RuntimeBuilder};
pub use handler::{FnHandler, Handler, HandlerRegistry};
pub use scheduler::{point_label, Scheduler};
