//! The handler execution context.
//!
//! Everything a handler is allowed to do — begin transactions, call other
//! handlers over (simulated) RPC, declare external-service intents, mark
//! synchronization points — goes through this context, which is how the
//! interposition layer sees every interaction and how the runtime
//! enforces the paper's design principles.

use trod_db::IsolationLevel;
use trod_kv::{Txn, TxnOptions};
use trod_trace::TxnContext;

use crate::args::Args;
use crate::error::HandlerResult;
use crate::executor::Runtime;
use crate::scheduler::point_label;

/// Per-invocation context handed to a [`crate::Handler`].
pub struct HandlerContext<'a> {
    runtime: &'a Runtime,
    req_id: String,
    handler: String,
}

impl<'a> HandlerContext<'a> {
    pub(crate) fn new(runtime: &'a Runtime, req_id: &str, handler: &str) -> Self {
        HandlerContext {
            runtime,
            req_id: req_id.to_string(),
            handler: handler.to_string(),
        }
    }

    /// The unique id of the request being served.
    pub fn req_id(&self) -> &str {
        &self.req_id
    }

    /// The name of the handler being executed.
    pub fn handler_name(&self) -> &str {
        &self.handler
    }

    /// Begins a traced transaction labelled with `function` (the paper's
    /// `Metadata` column, e.g. `"func:isSubscribed"`), at the runtime's
    /// default isolation level. The returned [`Txn`] is the unified
    /// surface: relational and `kv_*` operations under one snapshot and
    /// one atomic commit.
    pub fn txn(&mut self, function: &str) -> Txn {
        self.txn_with(function, self.runtime.default_isolation())
    }

    /// Begins a traced transaction at an explicit isolation level.
    pub fn txn_with(&mut self, function: &str, isolation: IsolationLevel) -> Txn {
        let ctx = TxnContext::new(&self.req_id, &self.handler, function);
        self.runtime
            .session()
            .begin_with(TxnOptions::new().isolation(isolation).traced(ctx))
    }

    /// True if the runtime's database holds the key-value namespace
    /// `name` (i.e. the `kv_*` operations of [`HandlerContext::txn`]
    /// transactions will find it).
    pub fn has_namespace(&self, name: &str) -> bool {
        self.runtime.database().has_namespace(name)
    }

    /// Invokes another handler as part of the same request (simulated
    /// RPC). The request id is propagated, and the callee's invocation is
    /// traced with this handler as its parent — this is what lets TROD
    /// reconstruct workflows (paper §3.1, §4.2).
    pub fn call(&mut self, handler: &str, args: Args) -> HandlerResult {
        self.runtime
            .invoke_internal(&self.req_id, handler, Some(&self.handler), args)
    }

    /// Declares an external-service call intent (assumed idempotent).
    pub fn external_call(&mut self, service: &str, payload: &str) {
        self.runtime
            .record_external(&self.req_id, &self.handler, service, payload);
    }

    /// Marks a named synchronization point. In production mode this is a
    /// no-op; under a scripted scheduler it blocks until the point
    /// `"<req_id>:<point>"` is allowed to proceed.
    pub fn sync_point(&self, point: &str) {
        self.runtime
            .scheduler()
            .wait_for(&point_label(&self.req_id, point));
    }

    /// A trace timestamp (strictly monotonic across the runtime). Exposed
    /// so handlers that need a notion of "now" get it from the runtime
    /// rather than the wall clock, keeping them deterministic under
    /// replay.
    pub fn now(&self) -> i64 {
        self.runtime.tracer().now()
    }
}

impl std::fmt::Debug for HandlerContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerContext")
            .field("req_id", &self.req_id)
            .field("handler", &self.handler)
            .finish()
    }
}
