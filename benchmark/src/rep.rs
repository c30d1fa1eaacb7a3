//! One end-to-end repetition: a fresh directory and server, the serve
//! phase, the ingest phase, the output checks, shutdown and recovery.
//!
//! Nothing in a repetition is driven by a timer. The server's background
//! provenance sync is off; the harness drains the tracer after every serve
//! slice (bounding memory at one slice of events) and ingests exactly once,
//! after the ingest phase, at a request count frozen in the workload.

use std::path::Path;
use std::time::Instant;

use trod_db::{SyncMode, WalOptions};
use trod_kv::Session;
use trod_server::{ServerBuilder, ServerHandle};

use crate::gen::ConnGen;
use crate::spans::Span;
use crate::sys::{self, Timed};
use crate::wire::{self, Sample, SliceTiming};
use crate::workload::{count_rows, Tally, Workload};

/// Times the directory a repetition leaves is reopened.
pub const REOPENS: usize = 2;

/// The durability policy of every benchmark server, identical on both
/// sides of any comparison: write to the OS per commit group, no fsync.
/// (`Sync` would time the sandbox's virtual disk, not the program.)
pub const SYNC_MODE: SyncMode = SyncMode::Flush;

pub fn wal_options() -> WalOptions {
    // Default segment (64 MiB) and checkpoint (64 MiB) bounds.
    WalOptions::with_sync_mode(SYNC_MODE)
}

/// A served environment and the connections' request streams.
struct Served {
    server: ServerHandle,
    gens: Vec<Box<dyn ConnGen>>,
    clients: Vec<wire::WireClient>,
}

/// Set-up as a user of the system would do it: directory, schema,
/// in-process preload, bind, connect.
fn set_up(
    workload: &dyn Workload,
    dir: &Path,
    seed: u64,
    serve_requests: usize,
) -> Result<Served, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let session = Session::create_durable(dir, wal_options()).map_err(|e| e.to_string())?;
    let built = workload.build(session, seed, serve_requests);
    let mut builder = ServerBuilder::new(built.trod).sync_interval(None);
    for (name, registry) in built.patches {
        builder = builder.patch(name, registry);
    }
    let server = builder.serve("127.0.0.1:0").map_err(|e| e.to_string())?;
    let clients = built
        .gens
        .iter()
        .map(|_| wire::WireClient::connect(&server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Served {
        server,
        gens: built.gens,
        clients,
    })
}

/// What one repetition measured and counted.
pub struct RepResult {
    pub setup: Timed,
    /// Serve-phase slices only.
    pub slices: Vec<SliceTiming>,
    /// How slow the machine was during each serve slice.
    pub slowness: Vec<f64>,
    /// Serve-phase samples only.
    pub samples: Vec<Sample>,
    /// The clients' `wire_call` spans (both phases), when tracing.
    pub spans: Vec<Span>,
    /// The one timed `sync_provenance()`.
    pub ingest: Timed,
    pub ingest_requests: usize,
    pub ingest_events: usize,
    pub ingest_txns: u64,
    /// Requests answered in both phases.
    pub requests: usize,
    pub wal_bytes: u64,
    pub commits: usize,
    pub segments: usize,
    pub rotations: u64,
    pub checkpoints: u64,
    /// One per reopen of the directory the repetition left.
    pub recoveries: Vec<Timed>,
}

impl RepResult {
    pub fn serve_requests(&self) -> usize {
        self.slices.iter().map(|s| s.requests).sum()
    }

    /// Sorted latencies (ns) of the serve-phase samples `keep` selects.
    pub fn latencies_ns(&self, keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
        let mut latencies: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_ns)
            .collect();
        latencies.sort_unstable();
        latencies
    }
}

pub fn run(
    workload: &dyn Workload,
    dir: &Path,
    seed: u64,
    seconds: usize,
    trace: Option<Instant>,
) -> Result<RepResult, String> {
    let counts = workload.counts();
    let serve_slice = counts.serve_slice * seconds;
    let serve_slices = counts.slices;

    let (setup, served) = sys::timed(|| set_up(workload, dir, seed, serve_slice * serve_slices));
    let Served {
        server,
        gens,
        clients,
    } = served?;
    let state = server.state().clone();

    let db = state.trod.production_db().clone();
    let wal = db.wal().expect("durable session");
    let (wal_before, commits_before) = (wal.stats().appended, db.log_len());
    let executions_before = state.trod.provenance().stats().transactions;

    let mut plan = vec![serve_slice; serve_slices];
    plan.push(counts.ingest);
    let mut ingest = None;
    let report = wire::drive(clients, gens, &plan, trace, |slice| {
        if slice < serve_slices {
            drop(state.trod.runtime().tracer().drain());
        } else {
            ingest = Some(sys::timed(|| state.sync_provenance()));
        }
    })
    .map_err(|e| format!("transport: {e}"))?;

    let stats = wal.stats();
    let failed: usize = report.conns.iter().map(|c| c.failed).sum();
    if failed > 0 {
        let detail: Vec<&str> = report
            .conns
            .iter()
            .flat_map(|c| c.failures.iter().map(String::as_str))
            .collect();
        let aborts: usize = report.conns.iter().map(|c| c.aborts).sum();
        return Err(format!(
            "{failed} requests failed ({aborts} of them transaction aborts), e.g. {detail:?}"
        ));
    }

    // Output checks against the live database.
    let gens: Vec<&dyn ConnGen> = report.conns.iter().map(|c| c.gen.as_ref()).collect();
    workload.verify(&state.trod, &Tally::sum(&gens))?;
    let ingest_txns: u64 = report
        .conns
        .iter()
        .map(|c| c.txns_per_slice[serve_slices])
        .sum();
    let executions = state.trod.provenance().stats().transactions - executions_before;
    let executions_rows = state
        .trod
        .query("SELECT COUNT(*) FROM Executions")
        .map_err(|e| e.to_string())?
        .rows()[0][0]
        .as_int()
        .unwrap_or(-1);
    if executions as u64 != ingest_txns
        || executions_rows != state.trod.provenance().stats().transactions as i64
    {
        return Err(format!(
            "Executions: {executions} ingested ({executions_rows} rows in all), \
             the ingest phase ran {ingest_txns} traced transactions"
        ));
    }
    let live_commits = db.log_len();
    let live_rows: Vec<usize> = workload
        .tables()
        .iter()
        .map(|t| count_rows(&db, t))
        .collect();

    // Shutdown must leave everything appended durable.
    drop((db, wal));
    let down = server.shutdown();
    if down.wal_appended != down.wal_durable {
        return Err(format!(
            "shutdown left {} of {} WAL bytes not durable",
            down.wal_appended - down.wal_durable,
            down.wal_appended
        ));
    }
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for conn in report.conns {
        spans.extend(conn.spans);
        samples.extend(
            conn.samples
                .into_iter()
                .filter(|s| (s.slice as usize) < serve_slices),
        );
    }
    drop(state);

    // Recovery: reopen the directory the run left (OS cache warm).
    let mut recoveries = Vec::with_capacity(REOPENS);
    for _ in 0..REOPENS {
        let (timed, reopened) = sys::timed(|| Session::open_durable(dir, wal_options()));
        let (session, recovery) = reopened.map_err(|e| format!("reopen: {e}"))?;
        recoveries.push(timed);
        let rows: Vec<usize> = workload
            .tables()
            .iter()
            .map(|t| count_rows(session.database(), t))
            .collect();
        // A boot from a checkpoint replays only the tail after it.
        let commits_ok = match recovery.checkpoint_ts {
            None => recovery.commits == live_commits,
            Some(_) => recovery.commits <= live_commits,
        };
        if !commits_ok || rows != live_rows {
            return Err(format!(
                "recovery (checkpoint {:?}) replayed {} commits into rows {rows:?}; \
                 before shutdown there were {live_commits} commits and rows {live_rows:?}",
                recovery.checkpoint_ts, recovery.commits
            ));
        }
    }

    let (ingest, ingest_events) = ingest.expect("the ingest slice ran");
    // A serve slice ran between the yardstick taken before it and the one
    // taken before the next slice.
    let slowness = report
        .slices
        .windows(2)
        .map(|pair| sys::slowness((pair[0].yardstick_ns + pair[1].yardstick_ns) as f64 / 2.0))
        .collect();
    Ok(RepResult {
        setup,
        slices: report.slices[..serve_slices].to_vec(),
        slowness,
        samples,
        spans,
        ingest,
        ingest_requests: report.slices[serve_slices].requests,
        ingest_events,
        ingest_txns,
        requests: report.slices.iter().map(|s| s.requests).sum(),
        wal_bytes: stats.appended - wal_before,
        commits: live_commits - commits_before,
        segments: stats.segments,
        rotations: stats.rotations,
        checkpoints: stats.checkpoint_writes,
        recoveries,
    })
}
