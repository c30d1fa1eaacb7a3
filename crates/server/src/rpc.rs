//! The JSON-RPC method surface: one dispatcher mapping method names to
//! the engine, time-travel, and debugger operations of the wrapped
//! [`Trod`](trod_core::Trod) instance. See `PROTOCOL.md` for the protocol reference.

use trod_core::json::Json;
use trod_core::wire;
use trod_db::{Key, Ts, Value};
use trod_query::{QueryEngine, ResultSet};
use trod_runtime::Args;

use crate::dump::Dump;
use crate::error::RpcError;
use crate::state::{ForkEntry, ServerState};

/// Default `retries` for `trod_invoke`: retryable conflicts are retried
/// server-side this many times before the error goes back on the wire.
const DEFAULT_RETRIES: usize = 0;

fn p_str<'a>(params: &'a Json, field: &str) -> Result<&'a str, RpcError> {
    params
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| RpcError::invalid_params(format!("missing string param `{field}`")))
}

fn p_opt_u64(params: &Json, field: &str) -> Result<Option<u64>, RpcError> {
    match params.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            RpcError::invalid_params(format!("param `{field}` must be a non-negative integer"))
        }),
    }
}

fn p_ts(params: &Json, field: &str) -> Result<Ts, RpcError> {
    p_opt_u64(params, field)?
        .ok_or_else(|| RpcError::invalid_params(format!("missing timestamp param `{field}`")))
}

fn args_from_json(params: &Json) -> Result<Args, RpcError> {
    let mut args = Args::new();
    match params.get("args") {
        None | Some(Json::Null) => {}
        Some(Json::Object(fields)) => {
            for (name, v) in fields {
                let value: Value = wire::value_from_json(v).map_err(|e| RpcError::from(&e))?;
                args.set(name.clone(), value);
            }
        }
        Some(_) => return Err(RpcError::invalid_params("`args` must be an object")),
    }
    Ok(args)
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

fn kv_entries_to_json(entries: Vec<(String, String)>) -> Json {
    Json::Array(
        entries
            .into_iter()
            .map(|(k, v)| Json::Array(vec![Json::str(k), Json::str(v)]))
            .collect(),
    )
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

/// Runs a closure against a registered fork session.
fn with_fork<T>(
    state: &ServerState,
    params: &Json,
    f: impl FnOnce(&ForkEntry) -> Result<T, RpcError>,
) -> Result<T, RpcError> {
    let id = p_str(params, "fork")?;
    let forks = state.forks.lock();
    let entry = forks
        .get(id)
        .ok_or_else(|| RpcError::not_found("no_such_fork", format!("no fork `{id}`")))?;
    f(entry)
}

/// Dispatches one already-parsed JSON-RPC call. Protocol-level errors
/// (unknown method, bad params) and every engine error come back as a
/// typed [`RpcError`].
pub fn dispatch(state: &ServerState, method: &str, params: &Json) -> Result<Json, RpcError> {
    match method {
        // ------------------------------------------------------ execution
        "trod_invoke" => {
            let handler = p_str(params, "handler")?;
            let args = args_from_json(params)?;
            let retries = p_opt_u64(params, "retries")?.unwrap_or(DEFAULT_RETRIES as u64) as usize;
            let want_sync = params.get("sync").and_then(Json::as_bool).unwrap_or(false);
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
        "trod_sql" => {
            let sql = p_str(params, "sql")?;
            let target = params.get("target").and_then(Json::as_str).unwrap_or("app");
            let engine = match target {
                "app" => QueryEngine::new(state.trod.production_db().clone()),
                "provenance" => {
                    state.sync_provenance();
                    QueryEngine::new(state.trod.provenance().database().clone())
                }
                other => {
                    return Err(RpcError::invalid_params(format!(
                        "unknown target {other:?} (expected \"app\" or \"provenance\")"
                    )))
                }
            };
            let rs = match p_opt_u64(params, "as_of")? {
                Some(ts) => engine.execute_as_of(sql, ts),
                None => engine.execute(sql),
            }
            .map_err(|e| RpcError::from(&e))?;
            Ok(result_set_to_json(&rs))
        }
        "trod_get" => {
            let table = p_str(params, "table")?;
            let key = key_from_params(params)?;
            let db = state.trod.production_db();
            let row = match p_opt_u64(params, "as_of")? {
                Some(ts) => db.get_as_of(table, &key, ts),
                None => db.get_latest(table, &key),
            }
            .map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![(
                "row",
                row.map(|r| wire::row_to_json(&r)).unwrap_or(Json::Null),
            )]))
        }
        "kv_get" => {
            let namespace = p_str(params, "namespace")?;
            let key = p_str(params, "key")?;
            let kv = state.trod.session().kv();
            let value = match p_opt_u64(params, "as_of")? {
                Some(ts) => kv.get_as_of(namespace, key, ts),
                None => kv.get_latest(namespace, key),
            }
            .map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![(
                "value",
                value.map(Json::str).unwrap_or(Json::Null),
            )]))
        }
        "kv_scan" => {
            let namespace = p_str(params, "namespace")?;
            let prefix = params.get("prefix").and_then(Json::as_str).unwrap_or("");
            let kv = state.trod.session().kv();
            let entries = match p_opt_u64(params, "as_of")? {
                Some(ts) => kv.scan_prefix_as_of(namespace, prefix, ts),
                None => kv.scan_prefix(namespace, prefix),
            }
            .map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![("entries", kv_entries_to_json(entries))]))
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
        "fork_sql" => {
            let sql = p_str(params, "sql")?.to_string();
            with_fork(state, params, |fork| {
                let engine = QueryEngine::new(fork.session.database().clone());
                let rs = engine.execute(&sql).map_err(|e| RpcError::from(&e))?;
                Ok(result_set_to_json(&rs))
            })
        }
        "fork_get" => {
            let table = p_str(params, "table")?.to_string();
            let key = key_from_params(params)?;
            with_fork(state, params, |fork| {
                let row = fork
                    .session
                    .database()
                    .get_latest(&table, &key)
                    .map_err(|e| RpcError::from(&e))?;
                Ok(Json::obj(vec![(
                    "row",
                    row.map(|r| wire::row_to_json(&r)).unwrap_or(Json::Null),
                )]))
            })
        }
        "fork_kv_get" => {
            let namespace = p_str(params, "namespace")?.to_string();
            let key = p_str(params, "key")?.to_string();
            with_fork(state, params, |fork| {
                let value = fork
                    .session
                    .kv()
                    .get_latest(&namespace, &key)
                    .map_err(|e| RpcError::from(&e))?;
                Ok(Json::obj(vec![(
                    "value",
                    value.map(Json::str).unwrap_or(Json::Null),
                )]))
            })
        }
        "fork_kv_scan" => {
            let namespace = p_str(params, "namespace")?.to_string();
            let prefix = params
                .get("prefix")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            with_fork(state, params, |fork| {
                let entries = fork
                    .session
                    .kv()
                    .scan_prefix(&namespace, &prefix)
                    .map_err(|e| RpcError::from(&e))?;
                Ok(Json::obj(vec![("entries", kv_entries_to_json(entries))]))
            })
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
            if let Some(reqs) = params.get("requests").and_then(Json::as_array) {
                let ids: Vec<String> = reqs
                    .iter()
                    .map(|r| {
                        r.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| RpcError::invalid_params("`requests` must be strings"))
                    })
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
                builder = builder.requests(&refs);
            }
            if let Some(table) = params.get("table").and_then(Json::as_str) {
                builder = builder.requests_touching_table(table);
            }
            if let Some(ts) = p_opt_u64(params, "snapshot_at")? {
                builder = builder.snapshot_at(ts);
            }
            if let Some(n) = p_opt_u64(params, "max_orderings")? {
                builder = builder.max_orderings(n as usize);
            }
            let keep_forks = params
                .get("keep_forks")
                .and_then(Json::as_bool)
                .unwrap_or(false);
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
        "sys_schema" => {
            let schema = Dump::capture_schema(&state.trod);
            let j = schema.to_json();
            Ok(Json::obj(vec![
                ("tables", j.get("tables").cloned().unwrap_or(Json::Null)),
                (
                    "namespaces",
                    j.get("namespaces").cloned().unwrap_or(Json::Null),
                ),
                ("current_ts", Json::from(schema.current_ts)),
            ]))
        }
        "sys_history" => {
            let db = state.trod.production_db();
            let current_ts = db.current_ts();
            let up_to = p_opt_u64(params, "up_to")?.unwrap_or(current_ts);
            let entries = db.history(0, up_to).map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![
                ("current_ts", Json::from(current_ts)),
                (
                    "entries",
                    Json::Array(entries.iter().map(wire::txn_to_json).collect()),
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
            let dump = Dump::capture(&state.trod).map_err(|e| RpcError::from(&e))?;
            Ok(Json::obj(vec![("dump", dump.to_json())]))
        }

        _ => Err(RpcError::new(
            crate::error::METHOD_NOT_FOUND,
            "method_not_found",
            format!("unknown method `{method}`"),
        )),
    }
}
