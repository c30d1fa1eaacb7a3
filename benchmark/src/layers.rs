//! The traced run: what each layer costs, timed from outside through the
//! layers' public functions, over the same generated requests the wire
//! run sends.
//!
//! Layers are the crates. Three entry points into the same request give
//! the differences between them: the wire call (client-side), then
//! `rpc::dispatch`, `Runtime::handle_request` and a raw replay of the
//! request's write sets through `Session::apply_changes`, each on a fresh
//! identical environment, single-threaded, in-process. The four
//! `server.*` layers and `server.wire_residual_us` are **means** over the
//! probed requests so that they add up to `client.mean_us`; every other
//! timing is a median of timed calls.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use trod_core::json::Json;
use trod_core::{wire as codec, Trod};
use trod_db::{CommittedTxn, SyncMode, Wal, WalOptions};
use trod_kv::Session;
use trod_query::{QueryEngine, QueryOptions};
use trod_runtime::Args;
use trod_server::{http, rpc, ServerState};
use trod_trace::TraceEvent;

use crate::gen::{Class, ConnGen, Request};
use crate::rep::{self, RepResult};
use crate::spans::Recorder;
use crate::stats::{median, p50_us, percentile_sorted};
use crate::sys;
use crate::workload::Workload;
use crate::Options;

/// Requests of the generated list the in-process probes cover (a fifth of
/// that in `--quick` mode).
pub const PROBE_REQUESTS: usize = 2000;
/// Write sets replayed under each `SyncMode` and appended to the raw WAL.
const WRITE_SETS: usize = 300;

/// `(name, unit, higher is better)` of every per-layer metric, in the
/// order `BENCHMARK.json` lists them.
pub const METRICS: [(&str, &str, bool); 55] = [
    ("server.http_parse_us", "us", false),
    ("server.json_decode_us", "us", false),
    ("server.dispatch_us", "us", false),
    ("server.json_encode_us", "us", false),
    ("server.wire_residual_us", "us", false),
    ("runtime.handle_request_us", "us", false),
    ("runtime.handle_request_untraced_us", "us", false),
    ("runtime.handlers_per_req", "count", false),
    ("trace.capture_us_per_req", "us", false),
    ("trace.overhead_pct", "%", false),
    ("trace.events_per_req", "count", false),
    ("trace.drain_us_per_event", "us", false),
    ("provenance.ingest_us_per_event.first_quarter", "us", false),
    ("provenance.ingest_us_per_event.last_quarter", "us", false),
    ("provenance.ingest_growth", "ratio", false),
    ("provenance.rows_per_req", "count", false),
    ("provenance.rss_kb_per_req", "KiB", false),
    ("provenance.query_us", "us", false),
    ("query.parse_us", "us", false),
    ("query.exec_us", "us", false),
    ("db.commit_us.cached", "us", false),
    ("db.commit_us.flush", "us", false),
    ("db.commit_us.sync", "us", false),
    ("db.wal_append_us", "us", false),
    ("db.wal_sync_us.flush", "us", false),
    ("db.wal_sync_us.sync", "us", false),
    ("db.commits_per_req", "count", false),
    ("db.wal_bytes_per_commit", "B", false),
    ("db.segments", "count", false),
    ("db.rotations", "count", false),
    ("db.checkpoints", "count", false),
    ("db.get_us", "us", false),
    ("db.scan_us", "us", false),
    ("db.scan_rows_per_result", "count", false),
    ("db.recovery_us_per_commit", "us", false),
    ("db.checkpoint_ms", "ms", false),
    ("db.checkpoint_bytes", "B", false),
    ("db.recovery_ckpt_ms", "ms", false),
    ("db.gc_ms", "ms", false),
    ("kv.put_us", "us", false),
    ("kv.get_us", "us", false),
    ("core.fork_ms", "ms", false),
    ("core.replay_ms", "ms", false),
    ("core.reenact_ms", "ms", false),
    ("core.retroactive_ms", "ms", false),
    ("core.as_of_sql_us", "us", false),
    ("client.p99_us", "us", false),
    ("client.p999_us", "us", false),
    ("client.max_us", "us", false),
    ("client.mean_us", "us", false),
    ("client.read_p50_us", "us", false),
    ("client.write_p50_us", "us", false),
    ("client.samples", "count", true),
    ("harness.slice_spread_pct", "%", false),
    ("harness.trace_overhead_pct", "%", false),
];

pub struct Layers {
    /// `(name, unit, value)` in [`METRICS`] order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: usize,
}

/// Collects metric values by name and hands them back in [`METRICS`]
/// order, so a probe that forgets one fails loudly.
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|(n, _, _)| *n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn ordered(&self) -> Vec<(&'static str, &'static str, f64)> {
        METRICS
            .iter()
            .map(|(name, unit, _)| {
                let value = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("`{name}` was not measured"));
                (*name, *unit, *value)
            })
            .collect()
    }
}

/// A freshly built environment for in-process probing: no sockets, no
/// server threads, the same schema, preload, handlers and WAL.
struct Env {
    state: ServerState,
    session: Session,
    gens: Vec<Box<dyn ConnGen>>,
    /// Position in the generated list of the next request.
    next: usize,
    /// How many requests of the list the probes cover.
    probes: usize,
}

impl Env {
    fn build(
        workload: &dyn Workload,
        dir: &Path,
        opts: &Options,
        wal: WalOptions,
    ) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let session = Session::create_durable(dir, wal).map_err(|e| e.to_string())?;
        let counts = workload.counts();
        let built = workload.build(
            session.clone(),
            opts.seed,
            counts.serve_slice * opts.seconds * counts.slices,
        );
        Ok(Env {
            state: ServerState::new(
                Arc::new(built.trod),
                built
                    .patches
                    .into_iter()
                    .map(|(n, r)| (n.to_string(), r))
                    .collect(),
            ),
            session,
            gens: built.gens,
            next: 0,
            probes: opts.probe_requests,
        })
    }

    fn trod(&self) -> &Trod {
        &self.state.trod
    }

    /// The next request of the generated list, read round-robin over the
    /// connections, with its position and the JSON-RPC id the wire client
    /// would give it.
    fn next_request(&mut self) -> (u64, u64, Request) {
        let conns = self.gens.len();
        let position = self.next;
        self.next += 1;
        let request = self.gens[position % conns].next_request();
        (position as u64, (position / conns + 1) as u64, request)
    }
}

fn invoke_parts(request: &Request) -> Option<(&str, Args)> {
    if request.method != "trod_invoke" {
        return None;
    }
    let handler = request.params.get("handler")?.as_str()?;
    let mut args = Args::new();
    for (name, value) in request.params.get("args")?.as_object()? {
        args.set(name.clone(), codec::value_from_json(value).ok()?);
    }
    Some((handler, args))
}

/// What the dispatch pass leaves behind for the other probes.
struct Dispatched {
    /// The commits the probed requests made, oldest first.
    write_sets: Vec<CommittedTxn>,
    /// The last write request's id: the one the debugger probes target.
    last_write_req: String,
}

/// Pass 1: every probed request through the server's own steps —
/// `http::parse_request`, `Json::parse`, `rpc::dispatch`, `Json::write` —
/// as children of the request's `wire_call` span.
fn dispatch_pass(
    env: &mut Env,
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<Dispatched, String> {
    let db = env.trod().production_db().clone();
    let commits_before = db.log_len();
    let mut last_write_req = String::new();
    for _ in 0..env.probes {
        let (position, id, request) = env.next_request();
        let bytes = request.http_bytes(id);
        let parent = Some(position);
        let parsed = rec
            .time("http_parse", position, parent, || {
                http::parse_request(&bytes)
            })
            .map_err(|e| e.to_string())?
            .ok_or("incomplete HTTP request")?;
        let text = std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?;
        let doc = rec
            .time("json_decode", position, parent, || Json::parse(text))
            .map_err(|e| e.to_string())?;
        let method = doc
            .get("method")
            .and_then(Json::as_str)
            .ok_or("no method")?;
        let params = doc.get("params").cloned().unwrap_or(Json::Null);
        let result = rec
            .time("dispatch", position, parent, || {
                rpc::dispatch(&env.state, method, &params)
            })
            .map_err(|e| format!("{}: {}", request.kind, e.to_json()))?;
        (request.check)(&result)?;
        if request.class == Class::Write {
            if let Some(req_id) = result.get("req_id").and_then(Json::as_str) {
                last_write_req = req_id.to_string();
            }
        }
        let envelope = Json::obj(vec![
            ("jsonrpc", Json::str("2.0")),
            ("id", Json::from(id)),
            ("result", result),
        ]);
        black_box(rec.time("json_encode", position, parent, || envelope.to_string()));
    }
    values.set("server.http_parse_us", rec.mean_us("http_parse"));
    values.set("server.json_decode_us", rec.mean_us("json_decode"));
    values.set("server.dispatch_us", rec.mean_us("dispatch"));
    values.set("server.json_encode_us", rec.mean_us("json_encode"));
    let write_sets: Vec<CommittedTxn> = db.log_entries().split_off(commits_before);
    if last_write_req.is_empty() || write_sets.is_empty() {
        return Err("the probed requests include no write".into());
    }
    Ok(Dispatched {
        write_sets,
        last_write_req,
    })
}

/// Drains what pass 1 traced and ingests it a quarter at a time: if
/// ingest were O(1) per event the last quarter would cost what the first
/// does.
fn trace_and_ingest(env: &Env, values: &mut Values) {
    let trod = env.trod();
    let tracer = trod.runtime().tracer();
    let invokes = env.probes as f64;
    let rss_before = sys::rss_kb();
    let stats_before = trod.provenance().stats();
    let started = Instant::now();
    let mut events = tracer.drain();
    let drain_s = started.elapsed().as_secs_f64();
    // The debugger RPCs of `debug_session` sync on their own; whatever
    // they ingested is already in the store, the rest is here.
    values.set(
        "trace.drain_us_per_event",
        drain_s * 1e6 / events.len().max(1) as f64,
    );

    let quarter = events.len().div_ceil(4).max(1);
    let mut per_event_us = Vec::new();
    while !events.is_empty() {
        let rest = events.split_off(quarter.min(events.len()));
        let n = events.len();
        let started = Instant::now();
        trod.provenance().ingest(events);
        per_event_us.push(started.elapsed().as_secs_f64() * 1e6 / n as f64);
        events = rest;
    }
    let (first, last) = (per_event_us[0], per_event_us[per_event_us.len() - 1]);
    values.set("provenance.ingest_us_per_event.first_quarter", first);
    values.set("provenance.ingest_us_per_event.last_quarter", last);
    values.set("provenance.ingest_growth", last / first);
    let stats = trod.provenance().stats();
    let rows =
        (stats.transactions + stats.data_events + stats.handler_invocations + stats.external_calls)
            - (stats_before.transactions
                + stats_before.data_events
                + stats_before.handler_invocations
                + stats_before.external_calls);
    values.set("provenance.rows_per_req", rows as f64 / invokes);
    values.set(
        "provenance.rss_kb_per_req",
        sys::rss_kb().saturating_sub(rss_before) as f64 / invokes,
    );
}

fn timed_ns<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_nanos() as u64, out)
}

/// Median of `n` timed calls, microseconds.
fn p50_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<u64> = (0..n).map(|_| timed_ns(|| black_box(f())).0).collect();
    p50_us(&mut samples)
}

/// The debugger's operations, in-process, on the history pass 1 left:
/// target the last write request — replay it, reenact it, re-execute it
/// under the workload's patch, fork and query at its commit timestamp.
fn debugger_probes(
    env: &Env,
    workload: &dyn Workload,
    target: &str,
    values: &mut Values,
) -> Result<(), String> {
    let trod = env.trod();
    let commit_ts = trod
        .provenance()
        .txns_for_request(target)
        .iter()
        .map(|t| t.commit_ts)
        .max()
        .ok_or_else(|| format!("request {target} left no provenance"))?;
    let sql = format!(
        "SELECT TxnId, Timestamp, HandlerName, Metadata FROM Executions \
         WHERE ReqId = '{target}' ORDER BY Timestamp ASC"
    );
    let rows = trod.query(&sql).map_err(|e| e.to_string())?;
    if rows.rows().is_empty() {
        return Err(format!("provenance query found no execution of {target}"));
    }
    values.set("provenance.query_us", p50_of(20, || trod.query(&sql)));
    let parse_us = p50_of(200, || trod_query::parse(&sql));
    let stmt = trod_query::parse(&sql).map_err(|e| e.to_string())?;
    let engine = QueryEngine::new(trod.provenance().database().clone());
    values.set("query.parse_us", parse_us);
    values.set(
        "query.exec_us",
        p50_of(20, || engine.execute_stmt(&stmt, QueryOptions::default())),
    );

    let count_sql = format!("SELECT COUNT(*) FROM {}", workload.tables()[0]);
    let app = QueryEngine::new(trod.production_db().clone());
    app.execute_as_of(&count_sql, commit_ts)
        .map_err(|e| e.to_string())?;
    values.set(
        "core.as_of_sql_us",
        p50_of(20, || app.execute_as_of(&count_sql, commit_ts)),
    );

    trod.fork_at(commit_ts).map_err(|e| e.to_string())?;
    values.set("core.fork_ms", p50_of(10, || trod.fork_at(commit_ts)) / 1e3);

    let replay = || -> Result<bool, String> {
        let mut session = trod.replay(target).map_err(|e| e.to_string())?;
        Ok(session
            .run_to_end()
            .map_err(|e| e.to_string())?
            .is_faithful())
    };
    if !replay()? {
        return Err(format!("in-process replay of {target} is not faithful"));
    }
    values.set("core.replay_ms", p50_of(10, replay) / 1e3);

    let reports = trod
        .reenactor()
        .reenact_request(target)
        .map_err(|e| e.to_string())?;
    if reports.is_empty() {
        return Err(format!("nothing to reenact for {target}"));
    }
    values.set(
        "core.reenact_ms",
        p50_of(10, || trod.reenactor().reenact_request(target)) / 1e3,
    );

    let patch = env
        .state
        .patches
        .values()
        .next()
        .ok_or("workload installs no patch")?;
    let retroactive = || trod.retroactive(patch.clone()).requests(&[target]).run();
    let report = retroactive().map_err(|e| e.to_string())?;
    if report.orderings.is_empty() {
        return Err(format!("retroactive run of {target} explored no ordering"));
    }
    values.set("core.retroactive_ms", p50_of(5, retroactive) / 1e3);
    Ok(())
}

/// `Txn::get` / `Txn::scan` with the handlers' own key and predicate.
fn read_probes(env: &Env, workload: &dyn Workload, values: &mut Values) -> Result<(), String> {
    let probe = workload.read_probe();
    let session = &env.session;
    let (table, key) = &probe.get;
    values.set(
        "db.get_us",
        p50_of(500, || {
            let mut txn = session.begin();
            let row = txn.get(table, key);
            txn.abort();
            row
        }),
    );
    let (table, predicate) = &probe.scan;
    let rows = {
        let mut txn = session.begin();
        let rows = txn.scan(table, predicate).map_err(|e| e.to_string())?;
        txn.abort();
        rows.len()
    };
    values.set(
        "db.scan_us",
        p50_of(500, || {
            let mut txn = session.begin();
            let rows = txn.scan(table, predicate);
            txn.abort();
            rows
        }),
    );
    values.set("db.scan_rows_per_result", rows as f64);
    Ok(())
}

/// Reopen (full replay), forced checkpoint, reopen from it, GC.
fn recovery_probes(dir: &Path, values: &mut Values) -> Result<(), String> {
    let reopen =
        || Session::open_durable(dir, rep::wal_options()).map_err(|e| format!("reopen: {e}"));
    let (ns, reopened) = timed_ns(reopen);
    let (session, report) = reopened?;
    values.set(
        "db.recovery_us_per_commit",
        ns as f64 / 1e3 / report.commits.max(1) as f64,
    );

    let (ns, written) = timed_ns(|| session.checkpoint());
    let (_, bytes) = written
        .map_err(|e| e.to_string())?
        .ok_or("forced checkpoint was skipped")?;
    values.set("db.checkpoint_ms", ns as f64 / 1e6);
    values.set("db.checkpoint_bytes", bytes as f64);
    drop(session);

    let (ns, reopened) = timed_ns(reopen);
    let (session, report) = reopened?;
    if report.checkpoint_ts.is_none() {
        return Err("reopen ignored the checkpoint just written".into());
    }
    values.set("db.recovery_ckpt_ms", ns as f64 / 1e6);

    let horizon = session.database().current_ts() / 2;
    let (ns, _) = timed_ns(|| session.gc_before(horizon));
    values.set("db.gc_ms", ns as f64 / 1e6);
    Ok(())
}

/// Pass 2: the probed `trod_invoke` requests straight into
/// `Runtime::handle_request`, on two identical environments in lockstep —
/// tracer on in one, off in the other, taking turns to go first. The
/// sandbox's speed drifts by several percent over seconds (README.md);
/// pairing each request with its twin microseconds apart keeps that drift
/// out of the difference, which is the tracing cost the paper prices.
/// Records one `handle_request` and one `handle_request_untraced` span per
/// request, in the same order; returns the traced twin's events.
fn runtime_pass(
    workload: &dyn Workload,
    dirs: [&Path; 2],
    opts: &Options,
    rec: &mut Recorder,
) -> Result<Vec<TraceEvent>, String> {
    let mut traced = Env::build(workload, dirs[0], opts, rep::wal_options())?;
    let mut untraced = Env::build(workload, dirs[1], opts, rep::wal_options())?;
    untraced.trod().runtime().tracer().set_enabled(false);
    for turn in 0..traced.probes {
        let (position, _, request) = traced.next_request();
        let (_, _, twin) = untraced.next_request();
        let Some((handler, args)) = invoke_parts(&request) else {
            continue;
        };
        let mut serve = |env: &Env, span, request: &Request, args: Args| -> Result<(), String> {
            let runtime = env.trod().runtime();
            let result = rec.time(span, position, None, || {
                runtime.handle_request(handler, args)
            });
            let output = result.output.map_err(|e| format!("{handler}: {e}"))?;
            (request.check)(&Json::obj(vec![("output", codec::value_to_json(&output))]))
        };
        if turn % 2 == 0 {
            serve(&traced, "handle_request", &request, args.clone())?;
            serve(&untraced, "handle_request_untraced", &twin, args)?;
        } else {
            serve(&untraced, "handle_request_untraced", &twin, args.clone())?;
            serve(&traced, "handle_request", &request, args)?;
        }
    }
    let events = traced.trod().runtime().tracer().drain();
    drop((traced, untraced));
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(events)
}

/// The probed requests' own write sets, replayed as bare transactions
/// under each durability policy: the fsync share made explicit.
fn commit_mode_probes(
    workload: &dyn Workload,
    dir: &Path,
    opts: &Options,
    write_sets: &[CommittedTxn],
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<(), String> {
    for (mode, metric, span) in [
        (
            SyncMode::Cached,
            "db.commit_us.cached",
            "db_write_set_cached",
        ),
        (SyncMode::Flush, "db.commit_us.flush", "db_write_set_flush"),
        (SyncMode::Sync, "db.commit_us.sync", "db_write_set_sync"),
    ] {
        let env = Env::build(workload, dir, opts, WalOptions::with_sync_mode(mode))?;
        for (n, entry) in write_sets.iter().enumerate() {
            rec.time(span, n as u64, None, || {
                env.session.apply_changes(&entry.changes)
            })
            .map_err(|e| format!("replay write set {n} under {mode:?}: {e}"))?;
        }
        values.set(metric, p50_us(&mut rec.durations(span)));
        drop(env);
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// `Wal::append_entry` and `Wal::sync_to` on a bare log file.
fn wal_probes(dir: &Path, write_sets: &[CommittedTxn], values: &mut Values) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (mode, sync_metric) in [
        (SyncMode::Flush, "db.wal_sync_us.flush"),
        (SyncMode::Sync, "db.wal_sync_us.sync"),
    ] {
        let wal = Wal::create(dir.join("probe.wal"), WalOptions::with_sync_mode(mode))
            .map_err(|e| e.to_string())?;
        let (mut appends, mut syncs) = (Vec::new(), Vec::new());
        for entry in write_sets {
            let (ns, lsn) = timed_ns(|| wal.append_entry(entry));
            appends.push(ns);
            let lsn = lsn.map_err(|e| e.to_string())?;
            let (ns, synced) = timed_ns(|| wal.sync_to(lsn));
            synced.map_err(|e| e.to_string())?;
            syncs.push(ns);
        }
        if mode == SyncMode::Flush {
            values.set("db.wal_append_us", p50_us(&mut appends));
        }
        values.set(sync_metric, p50_us(&mut syncs));
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Cart-style key-value transactions through `Session`.
fn kv_probes(dir: &Path, values: &mut Values) -> Result<(), String> {
    let session = Session::create_durable(dir, rep::wal_options()).map_err(|e| e.to_string())?;
    session
        .create_namespace("carts")
        .map_err(|e| e.to_string())?;
    let mut n = 0;
    values.set(
        "kv.put_us",
        p50_of(500, || {
            n += 1;
            let mut txn = session.begin();
            txn.kv_put("carts", &format!("cart:{}", n % 100), "item-000")
                .expect("kv_put");
            txn.commit().expect("kv commit")
        }),
    );
    values.set(
        "kv.get_us",
        p50_of(500, || {
            n += 1;
            let mut txn = session.begin();
            let value = txn
                .kv_get("carts", &format!("cart:{}", n % 100))
                .expect("kv_get");
            txn.abort();
            value
        }),
    );
    drop(session);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// What the load generator saw, from the traced wire repetition.
fn client_metrics(rep: &RepResult, values: &mut Values) {
    let all = rep.latencies_ns(|_| true);
    values.set("client.p99_us", percentile_sorted(&all, 99.0) as f64 / 1e3);
    values.set("client.p999_us", percentile_sorted(&all, 99.9) as f64 / 1e3);
    values.set("client.max_us", all[all.len() - 1] as f64 / 1e3);
    values.set("client.samples", all.len() as f64);
    for (class, metric) in [
        (Class::Read, "client.read_p50_us"),
        (Class::Write, "client.write_p50_us"),
    ] {
        let of_class = rep.latencies_ns(|s| s.class == class);
        // 0 = the serve phase has no request of this class.
        let p50_ns = if of_class.is_empty() {
            0
        } else {
            percentile_sorted(&of_class, 50.0)
        };
        values.set(metric, p50_ns as f64 / 1e3);
    }
}

/// Serve-slice rates of a repetition, sorted.
fn slice_rates(rep: &RepResult) -> Vec<f64> {
    let mut rates: Vec<f64> = rep
        .slices
        .iter()
        .map(|s| s.requests as f64 / s.wall_s)
        .collect();
    rates.sort_by(f64::total_cmp);
    rates
}

/// Median latency per request kind, for the human-readable output.
fn print_kinds(rep: &RepResult) {
    let mut kinds: Vec<&'static str> = rep.samples.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let of_kind = rep.latencies_ns(|s| s.kind == kind);
        println!(
            "  client p50 of {kind:<32} {:>12.3} us  ({} samples)",
            percentile_sorted(&of_kind, 50.0) as f64 / 1e3,
            of_kind.len()
        );
    }
}

/// What pass 2 measured: `handle_request` with and without the tracer,
/// and the tracing cost as the median of the **paired** differences, not
/// the difference of the medians.
fn tracing_cost(rec: &Recorder, events: &[TraceEvent], values: &mut Values) {
    let (mut with_tracer, mut without_tracer) = (
        rec.durations("handle_request"),
        rec.durations("handle_request_untraced"),
    );
    let invokes = with_tracer.len() as f64;
    let mut differences: Vec<f64> = with_tracer
        .iter()
        .zip(&without_tracer)
        .map(|(with, without)| (*with as f64 - *without as f64) / 1e3)
        .collect();
    differences.sort_by(f64::total_cmp);
    let capture_us = percentile_sorted(&differences, 50.0);
    let untraced_us = p50_us(&mut without_tracer);
    values.set("runtime.handle_request_us", p50_us(&mut with_tracer));
    values.set("runtime.handle_request_untraced_us", untraced_us);
    values.set("trace.capture_us_per_req", capture_us);
    values.set("trace.overhead_pct", capture_us / untraced_us * 100.0);
    values.set("trace.events_per_req", events.len() as f64 / invokes);
    let handlers = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::HandlerStart { .. }))
        .count();
    values.set("runtime.handlers_per_req", handlers as f64 / invokes);
}

pub fn run(workload: &dyn Workload, root: &Path, opts: &Options) -> Result<Layers, String> {
    let mut values = Values::default();
    let mut rec = Recorder::new(Instant::now());
    let dir = |tag: &str| root.join(format!("{}-{tag}", workload.name()));

    // Pass 1 first, while the heap is fresh and resident-set growth means
    // something, then everything that needs the history it leaves.
    let mut env = Env::build(workload, &dir("dispatch"), opts, rep::wal_options())?;
    let dispatched = dispatch_pass(&mut env, &mut rec, &mut values)?;
    trace_and_ingest(&env, &mut values);
    debugger_probes(&env, workload, &dispatched.last_write_req, &mut values)?;
    read_probes(&env, workload, &mut values)?;
    drop(env);
    recovery_probes(&dir("dispatch"), &mut values)?;
    let _ = std::fs::remove_dir_all(dir("dispatch"));

    // Pass 2.
    let events = runtime_pass(workload, [&dir("traced"), &dir("untraced")], opts, &mut rec)?;
    tracing_cost(&rec, &events, &mut values);

    let write_sets = &dispatched.write_sets[..dispatched.write_sets.len().min(WRITE_SETS)];
    commit_mode_probes(
        workload,
        &dir("modes"),
        opts,
        write_sets,
        &mut rec,
        &mut values,
    )?;
    wal_probes(&dir("wal"), write_sets, &mut values)?;
    kv_probes(&dir("kv"), &mut values)?;

    // Two wire repetitions, harness tracing off then on: the difference
    // between their rates is what recording the spans costs.
    let wire_rep = |trace| {
        let result = rep::run(workload, &dir("wire"), opts.seed, opts.seconds, trace);
        let _ = std::fs::remove_dir_all(dir("wire"));
        result
    };
    let untraced = wire_rep(None)?;
    let mut traced = wire_rep(Some(rec.epoch()))?;
    rec.extend(std::mem::take(&mut traced.spans));
    let (rates, traced_rates) = (slice_rates(&untraced), slice_rates(&traced));
    values.set(
        "harness.trace_overhead_pct",
        (median(&rates) - median(&traced_rates)) / median(&rates) * 100.0,
    );
    // The run's own noise: interquartile range of the slice rates.
    values.set(
        "harness.slice_spread_pct",
        (percentile_sorted(&rates, 75.0) - percentile_sorted(&rates, 25.0)) / median(&rates)
            * 100.0,
    );
    client_metrics(&traced, &mut values);
    print_kinds(&traced);
    values.set(
        "db.commits_per_req",
        untraced.commits as f64 / untraced.requests as f64,
    );
    values.set(
        "db.wal_bytes_per_commit",
        untraced.wal_bytes as f64 / untraced.commits.max(1) as f64,
    );
    values.set("db.segments", untraced.segments as f64);
    values.set("db.rotations", untraced.rotations as f64);
    values.set("db.checkpoints", untraced.checkpoints as f64);

    // The layer table adds up: what the client waited for, minus what
    // the server's own steps took in-process, is sockets and hand-off.
    let table = rec.table();
    let (_, wire_mean, wire_self) = table["wire_call"];
    values.set("client.mean_us", wire_mean);
    values.set("server.wire_residual_us", wire_self);

    println!("  span                              count       mean us       self us");
    for (name, (count, mean, own)) in table {
        println!("  {name:<30} {count:>8} {mean:>13.3} {own:>13.3}");
    }
    let spans_path = root
        .parent()
        .unwrap_or(root)
        .join(format!("{}.spans.jsonl", workload.name()));
    rec.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    Ok(Layers {
        metrics: values.ordered(),
        attempted: untraced.requests + traced.requests + opts.probe_requests,
    })
}
