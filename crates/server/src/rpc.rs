//! The JSON-RPC method surface: one dispatcher mapping method names to
//! the engine, time-travel, and debugger operations of the wrapped
//! [`Trod`](trod_core::Trod) instance. See `PROTOCOL.md` for the protocol reference.

use trod_core::json::Json;
use trod_core::wire;
use trod_db::{Database, Key, Ts};
use trod_query::{QueryEngine, ResultSet};
use trod_runtime::Args;

use crate::dump::Dump;
use crate::error::RpcError;
use crate::state::{ForkEntry, ServerState};

/// Parameters a `fork` read may not be combined with: a fork is an
/// application database read at its own clock.
const FORK_EXCLUDES: [&str; 2] = ["as_of", "target"];

/// Default `retries` for `trod_invoke`: retryable conflicts are retried
/// server-side this many times before the error goes back on the wire.
const DEFAULT_RETRIES: usize = 0;

/// The most orderings one `trod_retroactive` call may ask to explore.
/// Each ordering is a fork and a re-execution of every selected request,
/// and the conflict-distinct orderings of n requests number up to n!, so
/// an unbounded `max_orderings` lets one call run for minutes (5,040
/// orderings of 7 conflicting requests took 1.2 s).
const MAX_ORDERINGS: u64 = 1024;

/// An optional param: absent and `null` are `None`; a value `read`
/// cannot take is `invalid_params`, never read as absent.
fn p_opt<'a, T>(
    params: &'a Json,
    field: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, RpcError> {
    match params.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| RpcError::invalid_params(format!("param `{field}` must be {what}"))),
    }
}

fn p_opt_str<'a>(params: &'a Json, field: &str) -> Result<Option<&'a str>, RpcError> {
    p_opt(params, field, "a string", Json::as_str)
}

/// A boolean param, `false` when absent.
fn p_flag(params: &Json, field: &str) -> Result<bool, RpcError> {
    Ok(p_opt(params, field, "a boolean", Json::as_bool)?.unwrap_or(false))
}

fn p_opt_u64(params: &Json, field: &str) -> Result<Option<u64>, RpcError> {
    p_opt(params, field, "a non-negative integer", Json::as_u64)
}

fn p_str<'a>(params: &'a Json, field: &str) -> Result<&'a str, RpcError> {
    p_opt_str(params, field)?
        .ok_or_else(|| RpcError::invalid_params(format!("missing string param `{field}`")))
}

fn p_ts(params: &Json, field: &str) -> Result<Ts, RpcError> {
    p_opt_u64(params, field)?
        .ok_or_else(|| RpcError::invalid_params(format!("missing timestamp param `{field}`")))
}

fn key_from_params(params: &Json) -> Result<Key, RpcError> {
    let j = params
        .get("key")
        .ok_or_else(|| RpcError::invalid_params("missing param `key`"))?;
    wire::key_from_json(j).map_err(|e| RpcError::from(&e))
}

fn result_set_to_json(rs: &ResultSet) -> Json {
    Json::obj(vec![
        (
            "columns",
            Json::Array(rs.columns().iter().map(|c| Json::str(c.clone())).collect()),
        ),
        (
            "rows",
            Json::Array(
                rs.rows()
                    .iter()
                    .map(|r| Json::Array(r.iter().map(wire::value_to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn replay_report_to_json(report: &trod_core::replay::ReplayReport) -> Json {
    Json::obj(vec![
        ("req_id", Json::str(report.req_id.clone())),
        ("faithful", Json::Bool(report.is_faithful())),
        ("injected_count", Json::from(report.injected_count())),
        ("writes_skipped", Json::from(report.writes_skipped())),
        (
            "steps",
            Json::Array(
                report
                    .steps
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("txn_id", Json::from(s.txn_id)),
                            ("handler", Json::str(s.handler.clone())),
                            ("function", Json::str(s.function.clone())),
                            (
                                "injected",
                                Json::Array(
                                    s.injected
                                        .iter()
                                        .map(|(txn, req)| {
                                            Json::Array(vec![
                                                Json::from(*txn),
                                                Json::str(req.clone()),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("reads_checked", Json::from(s.reads_checked)),
                            (
                                "mismatches",
                                Json::Array(
                                    s.mismatches.iter().map(|m| Json::str(m.clone())).collect(),
                                ),
                            ),
                            ("writes_applied", Json::from(s.writes_applied)),
                            ("writes_skipped", Json::from(s.writes_skipped)),
                            ("partial_data", Json::Bool(s.partial_data)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The database of the fork a read names in `fork`, if it names one.
fn fork_db(state: &ServerState, params: &Json) -> Result<Option<Database>, RpcError> {
    let Some(id) = p_opt_str(params, "fork")? else {
        return Ok(None);
    };
    if let Some(other) = FORK_EXCLUDES
        .iter()
        .find(|f| params.get(f).is_some_and(|v| !v.is_null()))
    {
        return Err(RpcError::invalid_params(format!(
            "`fork` cannot be combined with `{other}`: a fork is read at its own clock"
        )));
    }
    let session = state
        .fork_session(id)
        .ok_or_else(|| RpcError::not_found("no_such_fork", format!("no fork `{id}`")))?;
    Ok(Some(session.database().clone()))
}

/// Dispatches one already-parsed JSON-RPC call. Protocol-level errors
/// (unknown method, bad params) and every engine error come back as a
/// typed [`RpcError`].
pub fn dispatch(state: &ServerState, method: &str, params: &Json) -> Result<Json, RpcError> {
    match method {
        // ------------------------------------------------------ execution
        "trod_invoke" => {
            let handler = p_str(params, "handler")?;
            // Not an object, or a member that is no wire value, is
            // `invalid_params`.
            let args = match params.get("args") {
                None | Some(Json::Null) => Args::new(),
                Some(json) => Args::from_json(json).map_err(|e| RpcError::from(&e))?,
            };
            let retries = p_opt_u64(params, "retries")?.unwrap_or(DEFAULT_RETRIES as u64) as usize;
            let want_sync = p_flag(params, "sync")?;
            let result = state
                .trod
                .runtime()
                .handle_request_retrying(handler, args, retries);
            match result.output {
                Ok(value) => {
                    let mut fields = vec![
                        ("req_id".to_string(), Json::str(result.req_id.clone())),
                        ("output".to_string(), wire::value_to_json(&value)),
                        (
                            "duration_micros".to_string(),
                            Json::from(result.duration_micros),
                        ),
                    ];
                    if want_sync {
                        state.sync_provenance();
                        let commit_ts = state
                            .trod
                            .provenance()
                            .txns_for_request(&result.req_id)
                            .iter()
                            .map(|t| t.commit_ts)
                            .max()
                            .unwrap_or(0);
                        fields.push(("commit_ts".to_string(), Json::from(commit_ts)));
                    }
                    Ok(Json::Object(fields))
                }
                Err(e) => {
                    Err(RpcError::from(&e).with_detail("req_id", Json::str(result.req_id.clone())))
                }
            }
        }

        // ------------------------------------------ queries & time travel
        // `fork_sql` is a second name for `trod_sql` with a `fork`.
        "trod_sql" | "fork_sql" => {
            let sql = p_str(params, "sql")?;
            let fork = fork_db(state, params)?;
            let target = p_opt_str(params, "target")?.unwrap_or("app");
            let app = || QueryEngine::new(state.trod.production_db().clone());
            let rs = match (fork, target, p_opt_u64(params, "as_of")?) {
                (Some(fork), _, _) => QueryEngine::new(fork).execute(sql),
                (None, "app", Some(ts)) => app().execute_as_of(sql, ts),
                (None, "app", None) => app().execute(sql),
                // The provenance store's clock is its own, and its read
                // events are installed when a statement first needs them:
                // an `as_of` there would answer by when someone asked.
                (None, "provenance", Some(_)) => {
                    return Err(RpcError::invalid_params(
                        "`as_of` reads the application; provenance SQL reads the latest state",
                    ))
                }
                (None, "provenance", None) => {
                    state.sync_provenance();
                    state.trod.provenance().query(sql)
                }
                (None, other, _) => {
                    return Err(RpcError::invalid_params(format!(
                        "unknown target {other:?} (expected \"app\" or \"provenance\")"
                    )))
                }
            };
            Ok(result_set_to_json(&rs.map_err(|e| RpcError::from(&e))?))
        }
        "trod_get" => {
            let table = p_str(params, "table")?;
            let key = key_from_params(params)?;
            let row = match (fork_db(state, params)?, p_opt_u64(params, "as_of")?) {
                (Some(fork), _) => fork.get_latest(table, &key),
                (None, Some(ts)) => state.trod.production_db().get_as_of(table, &key, ts),
                (None, None) => state.trod.production_db().get_latest(table, &key),
            }
            .map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![(
                "row",
                row.map(|r| wire::row_to_json(&r)).unwrap_or(Json::Null),
            )]))
        }

        // ------------------------------------------------- fork sessions
        "trod_fork" => {
            // A fork cannot see past what is published; reply with the
            // timestamp it was actually taken at.
            let ts = p_ts(params, "ts")?.min(state.trod.production_db().current_ts());
            state.sync_provenance();
            let session = state.trod.fork_at(ts).map_err(|e| RpcError::from(&e))?;
            let id = state.fresh_fork_id();
            state
                .forks
                .lock()
                .insert(id.clone(), ForkEntry { session, ts });
            Ok(Json::obj(vec![
                ("fork_id", Json::str(id)),
                ("ts", Json::from(ts)),
            ]))
        }
        "fork_drop" => {
            let id = p_str(params, "fork")?;
            let removed = state.forks.lock().remove(id).is_some();
            if removed {
                Ok(Json::obj(vec![("dropped", Json::str(id))]))
            } else {
                Err(RpcError::not_found(
                    "no_such_fork",
                    format!("no fork `{id}`"),
                ))
            }
        }
        "fork_list" => {
            let forks = state.forks.lock();
            let mut list: Vec<(&String, Ts)> = forks.iter().map(|(id, e)| (id, e.ts)).collect();
            list.sort();
            Ok(Json::obj(vec![(
                "forks",
                Json::Array(
                    list.into_iter()
                        .map(|(id, ts)| {
                            Json::obj(vec![
                                ("fork_id", Json::str(id.clone())),
                                ("ts", Json::from(ts)),
                            ])
                        })
                        .collect(),
                ),
            )]))
        }

        // ------------------------------------------------------ debugger
        "trod_replay" => {
            let req_id = p_str(params, "req_id")?;
            state.sync_provenance();
            let mut replay = state.trod.replay(req_id).map_err(|e| RpcError::from(&e))?;
            let report = replay.run_to_end().map_err(|e| RpcError::from(&e))?;
            // Keep the development environment inspectable over the wire.
            let fork_id = state.fresh_fork_id();
            let dev = replay.dev_session().clone();
            let ts = dev.database().current_ts();
            state
                .forks
                .lock()
                .insert(fork_id.clone(), ForkEntry { session: dev, ts });
            let mut j = replay_report_to_json(&report);
            if let Json::Object(fields) = &mut j {
                fields.push(("fork_id".to_string(), Json::str(fork_id)));
            }
            Ok(j)
        }
        "trod_reenact" => {
            let req_id = p_str(params, "req_id")?;
            state.sync_provenance();
            let reports = state
                .trod
                .reenactor()
                .reenact_request(req_id)
                .map_err(|e| RpcError::from(&e))?;
            if reports.is_empty() {
                return Err(RpcError::not_found(
                    "unknown_request",
                    format!("no traced request `{req_id}` in provenance"),
                ));
            }
            Ok(Json::obj(vec![(
                "reports",
                Json::Array(
                    reports
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("txn_id", Json::from(r.txn_id)),
                                ("req_id", Json::str(r.req_id.clone())),
                                ("handler", Json::str(r.handler.clone())),
                                ("snapshot_ts", Json::from(r.snapshot_ts)),
                                ("reads_checked", Json::from(r.reads_checked)),
                                (
                                    "divergent_reads",
                                    Json::Array(
                                        r.divergent_reads
                                            .iter()
                                            .map(|d| Json::str(d.clone()))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "snapshot_consistent",
                                    Json::Bool(r.is_snapshot_consistent()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )]))
        }
        "trod_anomalies" => {
            state.sync_provenance();
            let anomalies = state.trod.reenactor().audit_anomalies();
            Ok(Json::obj(vec![(
                "anomalies",
                Json::Array(
                    anomalies
                        .iter()
                        .map(|a| {
                            Json::obj(vec![
                                ("kind", Json::str(a.kind.to_string())),
                                (
                                    "txns",
                                    Json::Array(vec![Json::from(a.txns.0), Json::from(a.txns.1)]),
                                ),
                                (
                                    "requests",
                                    Json::Array(vec![
                                        Json::str(a.requests.0.clone()),
                                        Json::str(a.requests.1.clone()),
                                    ]),
                                ),
                                (
                                    "handlers",
                                    Json::Array(vec![
                                        Json::str(a.handlers.0.clone()),
                                        Json::str(a.handlers.1.clone()),
                                    ]),
                                ),
                                (
                                    "tables",
                                    Json::Array(
                                        a.tables.iter().map(|t| Json::str(t.clone())).collect(),
                                    ),
                                ),
                                ("detail", Json::str(a.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            )]))
        }
        "trod_retroactive" => {
            let patch = p_str(params, "patch")?;
            let registry = state.patches.get(patch).cloned().ok_or_else(|| {
                RpcError::not_found(
                    "no_such_patch",
                    format!(
                        "no patch registry `{patch}` installed (available: {:?})",
                        state.patches.keys().collect::<Vec<_>>()
                    ),
                )
            })?;
            state.sync_provenance();
            let mut builder = state.trod.retroactive(registry);
            let requests = p_opt(params, "requests", "an array of strings", |j| {
                j.as_array()?
                    .iter()
                    .map(Json::as_str)
                    .collect::<Option<Vec<_>>>()
            })?;
            if let Some(requests) = requests {
                builder = builder.requests(&requests);
            }
            if let Some(table) = p_opt_str(params, "table")? {
                builder = builder.requests_touching_table(table);
            }
            if let Some(ts) = p_opt_u64(params, "snapshot_at")? {
                builder = builder.snapshot_at(ts);
            }
            if let Some(n) = p_opt_u64(params, "max_orderings")? {
                if n > MAX_ORDERINGS {
                    return Err(RpcError::invalid_params(format!(
                        "param `max_orderings` is {n}; the ceiling is {MAX_ORDERINGS}"
                    )));
                }
                builder = builder.max_orderings(n as usize);
            }
            let keep_forks = p_flag(params, "keep_forks")?;
            let report = builder.run().map_err(|e| RpcError::from(&e))?;
            let orderings = report
                .orderings
                .iter()
                .map(|o| {
                    let mut fields = vec![
                        (
                            "order".to_string(),
                            Json::Array(o.order.iter().map(|r| Json::str(r.clone())).collect()),
                        ),
                        (
                            "outcomes".to_string(),
                            Json::Array(
                                o.outcomes
                                    .iter()
                                    .map(|oc| {
                                        Json::obj(vec![
                                            ("req_id", Json::str(oc.req_id.clone())),
                                            (
                                                "original_req_id",
                                                Json::str(oc.original_req_id.clone()),
                                            ),
                                            ("handler", Json::str(oc.handler.clone())),
                                            ("ok", Json::Bool(oc.ok)),
                                            ("output", Json::str(oc.output.clone())),
                                            (
                                                "original_output",
                                                oc.original_output
                                                    .clone()
                                                    .map(Json::str)
                                                    .unwrap_or(Json::Null),
                                            ),
                                            (
                                                "original_ok",
                                                oc.original_ok
                                                    .map(Json::Bool)
                                                    .unwrap_or(Json::Null),
                                            ),
                                            ("outcome_changed", Json::Bool(oc.outcome_changed())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "violations".to_string(),
                            Json::Array(
                                o.violations.iter().map(|v| Json::str(v.clone())).collect(),
                            ),
                        ),
                    ];
                    if keep_forks {
                        let fork_id = state.fresh_fork_id();
                        let dev = o.dev.clone();
                        let ts = dev.database().current_ts();
                        state
                            .forks
                            .lock()
                            .insert(fork_id.clone(), ForkEntry { session: dev, ts });
                        fields.push(("fork_id".to_string(), Json::str(fork_id)));
                    }
                    Json::Object(fields)
                })
                .collect();
            Ok(Json::obj(vec![
                ("snapshot_ts", Json::from(report.snapshot_ts)),
                ("conflicting_pairs", Json::from(report.conflicting_pairs)),
                (
                    "all_orderings_clean",
                    Json::Bool(report.all_orderings_clean()),
                ),
                ("orderings", Json::Array(orderings)),
                ("hit_max_orderings", Json::Bool(report.hit_max_orderings)),
            ]))
        }
        "trod_trace" => {
            let req_id = p_str(params, "req_id")?;
            state.sync_provenance();
            let txns = state.trod.provenance().txns_for_request(req_id);
            if txns.is_empty() {
                return Err(RpcError::not_found(
                    "unknown_request",
                    format!("no traced request `{req_id}` in provenance"),
                ));
            }
            Ok(Json::obj(vec![(
                "txns",
                Json::Array(txns.iter().map(wire::txn_trace_to_json).collect()),
            )]))
        }

        // -------------------------------------------------------- system
        "sys_health" => {
            let db = state.trod.production_db();
            let wal = match db.wal() {
                Some(wal) => {
                    let s = wal.stats();
                    Json::obj(vec![
                        ("segments", Json::from(s.segments as u64)),
                        ("active_bytes", Json::from(s.active_bytes)),
                        ("appended", Json::from(s.appended)),
                        ("durable", Json::from(s.durable)),
                        ("segment_bytes", Json::from(s.segment_bytes)),
                        ("rotations", Json::from(s.rotations)),
                        ("rotation_errors", Json::from(s.rotation_errors)),
                        (
                            "checkpoints",
                            Json::obj(vec![
                                ("count", Json::from(s.checkpoints as u64)),
                                ("newest_ts", Json::from(s.checkpoint_newest_ts)),
                                ("checkpoint_bytes", Json::from(s.checkpoint_bytes)),
                                ("writes", Json::from(s.checkpoint_writes)),
                                ("skips", Json::from(s.checkpoint_skips)),
                                ("errors", Json::from(s.checkpoint_errors)),
                                ("fallbacks", Json::from(s.checkpoint_fallbacks)),
                            ]),
                        ),
                    ])
                }
                None => Json::Null,
            };
            let mut handlers = state.trod.runtime().registry().names();
            handlers.sort();
            let tracer_buffered = state.trod.runtime().tracer().stats().buffered;
            let deferred_reads = state.trod.provenance().stats().deferred_reads;
            Ok(Json::obj(vec![
                ("draining", Json::Bool(state.is_draining())),
                (
                    "served",
                    Json::from(state.served.load(std::sync::atomic::Ordering::Relaxed)),
                ),
                (
                    "inflight",
                    Json::from(state.inflight.load(std::sync::atomic::Ordering::Relaxed)),
                ),
                ("current_ts", Json::from(db.current_ts())),
                (
                    "handlers",
                    Json::Array(handlers.into_iter().map(Json::str).collect()),
                ),
                ("gc_floor", Json::from(db.log_truncated_below())),
                // What GC is held at: the oldest active transaction or
                // live fork (null: nothing holds it).
                (
                    "min_active_start_ts",
                    db.min_active_start_ts()
                        .map(Json::from)
                        .unwrap_or(Json::Null),
                ),
                ("forks", {
                    let (count, oldest_ts) = db.live_forks();
                    Json::obj(vec![
                        ("count", Json::from(count as u64)),
                        ("oldest_ts", oldest_ts.map(Json::from).unwrap_or(Json::Null)),
                    ])
                }),
                ("live_log_entries", Json::from(db.log_len())),
                ("wal", wal),
                // Ingest lag: events traced and not yet drained, and reads
                // ingested whose event rows are not installed yet.
                (
                    "provenance",
                    Json::obj(vec![
                        ("tracer_buffered", Json::from(tracer_buffered)),
                        ("deferred_reads", Json::from(deferred_reads)),
                    ]),
                ),
            ]))
        }
        "sys_checkpoint" => {
            let written = state.trod.checkpoint().map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![
                ("written", Json::Bool(written.is_some())),
                (
                    "checkpoint_ts",
                    written.map(|(ts, _)| Json::from(ts)).unwrap_or(Json::Null),
                ),
                (
                    "bytes",
                    written
                        .map(|(_, bytes)| Json::from(bytes))
                        .unwrap_or(Json::Null),
                ),
            ]))
        }
        "sys_dump" => {
            // The server writes no file a caller names: a client saves the
            // returned document itself (`Dump::write_to`).
            if params.get("path").is_some() {
                return Err(RpcError::invalid_params(
                    "`sys_dump` takes no `path`; write the returned dump client-side",
                ));
            }
            let up_to = p_opt_u64(params, "up_to")?.unwrap_or(Ts::MAX);
            let dump = Dump::capture(&state.trod, up_to).map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![("dump", dump.to_json())]))
        }

        _ => Err(RpcError::new(
            crate::error::METHOD_NOT_FOUND,
            "method_not_found",
            format!("unknown method `{method}`"),
        )),
    }
}
