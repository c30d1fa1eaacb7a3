//! Shared state behind every connection thread: the [`Trod`] instance,
//! named retroactive patch registries, remote forks, and the
//! drain/served counters the graceful-shutdown path reads.
//!
//! Provenance needs no lock here: [`Trod::sync`] drains the tracer under
//! the provenance store's own ingest lock, so the periodic sync thread and
//! the RPCs that sync before reading provenance may race freely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use trod_core::Trod;
use trod_db::Database;
use trod_runtime::HandlerRegistry;

/// A fork of the whole environment held open on behalf of remote
/// clients, addressable by the id `trod_fork` returned.
pub struct ForkEntry {
    pub db: Database,
    /// The timestamp the fork was taken at.
    pub ts: trod_db::Ts,
}

/// State shared by the acceptor, every worker thread, and the shutdown
/// path.
pub struct ServerState {
    pub trod: Arc<Trod>,
    /// Named patched handler registries for `trod_retroactive` — the
    /// wire protocol can't ship Rust closures, so patches are installed
    /// server-side at build time and selected by name.
    pub patches: HashMap<String, HandlerRegistry>,
    /// Remote forks, keyed by the id handed to the client.
    pub forks: Mutex<HashMap<String, ForkEntry>>,
    next_fork: AtomicU64,
    /// Set once by shutdown; workers answer every request received after
    /// this with a typed retryable 503.
    draining: AtomicBool,
    /// Requests currently being dispatched (incremented after a request
    /// is parsed, decremented once its response bytes are written).
    pub inflight: AtomicU64,
    /// Requests answered with a real response (including RPC errors).
    pub served: AtomicU64,
    /// Requests rejected with 503 during the drain window.
    pub rejected_draining: AtomicU64,
}

impl ServerState {
    pub fn new(trod: Arc<Trod>, patches: HashMap<String, HandlerRegistry>) -> Self {
        ServerState {
            trod,
            patches,
            forks: Mutex::new(HashMap::new()),
            next_fork: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
        }
    }

    /// Drains the tracer into the provenance store ([`Trod::sync`]).
    /// Returns the number of events ingested.
    pub fn sync_provenance(&self) -> usize {
        self.trod.sync()
    }

    /// The database of fork `id`. It is cloned under the registry's lock
    /// and read after it is released, so a slow fork read stalls no
    /// `trod_fork`, `fork_drop` or other registry call; a fork dropped
    /// meanwhile still answers the read in hand.
    pub fn fork_db(&self, id: &str) -> Option<Database> {
        self.forks.lock().get(id).map(|entry| entry.db.clone())
    }

    pub fn fresh_fork_id(&self) -> String {
        format!("fork-{}", self.next_fork.fetch_add(1, Ordering::Relaxed))
    }

    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}
