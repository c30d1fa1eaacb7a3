//! Segmented-WAL servers over the wire: `sys_health` reports the
//! segment state of the durable log, and `sys_dump` stitches one
//! identical history out of many segment files — before and after a
//! restart that recovers from the sealed segments GC left below its
//! floor plus the active one.
//!
//! PR 10: `sys_checkpoint` forces an environment checkpoint over the
//! wire, `sys_health` reports checkpoint stats, and a restart boots
//! from the checkpoint (recovery report carries its ts) while serving
//! the same dump and forks below the checkpoint, both read from the log.

use trod_core::json::Json;
use trod_core::wire;
use trod_core::Trod;
use trod_db::{row, DataType, Schema, SyncMode, Ts, WalOptions};
use trod_kv::Session;
use trod_runtime::{HandlerRegistry, Runtime};
use trod_server::{Client, Dump, ServerBuilder};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("trod_seg_health_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn events_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

/// Tiny rotation bound: every synced commit rolls the active segment.
fn tiny_opts() -> WalOptions {
    WalOptions {
        sync_mode: SyncMode::Sync,
        segment_bytes: 1,
        ..WalOptions::default()
    }
}

fn attach(session: Session) -> Trod {
    let runtime = Runtime::builder(session.database().clone(), HandlerRegistry::new())
        .kv(session.kv().clone())
        .build();
    Trod::attach(runtime).expect("attach")
}

fn commit_step(session: &Session, i: i64) -> Ts {
    let mut txn = session.begin();
    txn.insert("events", row![i, i * 10]).unwrap();
    txn.kv_put("cache", &format!("key-{i}"), &i.to_string())
        .unwrap();
    txn.commit().unwrap().commit_ts
}

fn call_sys(client: &mut Client, method: &str) -> Json {
    client
        .call(method, Json::obj(Vec::<(&str, Json)>::new()))
        .unwrap_or_else(|e| panic!("{method}: {e}"))
}

fn wire_entries(dump: &Dump) -> String {
    Json::Array(dump.entries.iter().map(wire::txn_to_json).collect()).to_string()
}

#[test]
fn sys_health_reports_segments_and_sys_dump_stitches_across_restart() {
    let path = scratch_dir("restart");
    let mut floor = 0;
    let (before_dump, before_ts, segments) = {
        let session = Session::create_durable(&path, tiny_opts()).expect("create");
        session
            .database()
            .create_table("events", events_schema())
            .unwrap();
        session.create_namespace("cache").unwrap();
        for i in 0..12 {
            let ts = commit_step(&session, i);
            if i == 5 {
                floor = ts;
            }
        }
        let trod = attach(session);
        trod.production_db().gc_before(floor);

        let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
        let mut client = Client::connect(&server.addr()).expect("connect");

        let health = call_sys(&mut client, "sys_health");
        let wal = health.get("wal").expect("wal section");
        let get = |k: &str| wal.get(k).and_then(Json::as_u64).unwrap();
        assert!(get("segments") >= 2, "tiny bound must have rotated");
        assert_eq!(
            get("segments"),
            get("rotations") + 1,
            "GC keeps every sealed segment"
        );
        assert_eq!(get("durable"), get("appended"), "Sync mode: all durable");
        assert_eq!(get("rotation_errors"), 0);
        let segments = get("segments");
        assert_eq!(
            health.get("gc_floor").and_then(Json::as_u64).unwrap(),
            floor
        );

        // Nothing holds GC yet. A remote fork above the floor reads
        // through to production and pins its timestamp; one below the
        // floor is rebuilt from the log and pins nothing.
        let held = |health: &Json| {
            let forks = health.get("forks").expect("forks section");
            (
                forks.get("count").and_then(Json::as_u64).unwrap(),
                forks.get("oldest_ts").and_then(Json::as_u64),
                health.get("min_active_start_ts").and_then(Json::as_u64),
            )
        };
        assert_eq!(held(&health), (0, None, None));
        let mut fork_ids = Vec::new();
        for ts in [floor + 3, floor + 1, floor - 2] {
            let reply = client
                .call("trod_fork", Json::obj(vec![("ts", Json::from(ts))]))
                .expect("fork");
            fork_ids.push(
                reply
                    .get("fork_id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert_eq!(
            held(&call_sys(&mut client, "sys_health")),
            (2, Some(floor + 1), Some(floor + 1))
        );
        for id in fork_ids {
            client
                .call("fork_drop", Json::obj(vec![("fork", Json::str(id))]))
                .expect("drop");
        }
        assert_eq!(held(&call_sys(&mut client, "sys_health")), (0, None, None));

        let reply = call_sys(&mut client, "sys_dump");
        let dump = Dump::from_json(reply.get("dump").unwrap()).expect("parse dump");
        assert_eq!(dump.entries.len(), 12, "stitched history is gap-free");
        server.shutdown();
        (dump, floor, segments)
    };
    assert!(before_ts > 0);

    // Restart: recovery walks the manifest across the sealed and active
    // segments, so the full history is live again without any spill file.
    let (session, report) = Session::open_durable(&path, tiny_opts()).expect("reopen");
    assert_eq!(report.segments as u64, segments, "every segment replays");
    let trod = attach(session);
    let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");

    let reply = call_sys(&mut client, "sys_dump");
    let after_dump = Dump::from_json(reply.get("dump").unwrap()).expect("parse dump");
    assert_eq!(
        wire_entries(&before_dump),
        wire_entries(&after_dump),
        "dump must be byte-identical across the restart"
    );
    assert_eq!(before_dump.current_ts, after_dump.current_ts);

    // The recovered server keeps rotating: new commits land and health
    // stays coherent.
    {
        let state = server.state();
        let db = state.trod.production_db();
        assert_eq!(db.current_ts(), before_dump.current_ts);
    }
    let health = call_sys(&mut client, "sys_health");
    let wal = health.get("wal").expect("wal section");
    assert_eq!(
        wal.get("durable").and_then(Json::as_u64),
        wal.get("appended").and_then(Json::as_u64)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn sys_checkpoint_forces_one_and_recovery_boots_from_it() {
    let path = scratch_dir("checkpoint");
    let before_dump = {
        let session = Session::create_durable(&path, tiny_opts()).expect("create");
        session
            .database()
            .create_table("events", events_schema())
            .unwrap();
        session.create_namespace("cache").unwrap();
        for i in 0..8 {
            commit_step(&session, i);
        }
        let server = ServerBuilder::new(attach(session))
            .serve("127.0.0.1:0")
            .expect("bind");
        let mut client = Client::connect(&server.addr()).expect("connect");

        // No cadence configured: nothing checkpointed yet.
        let health = call_sys(&mut client, "sys_health");
        let ckpt = health
            .get("wal")
            .and_then(|w| w.get("checkpoints"))
            .expect("checkpoint section")
            .clone();
        assert_eq!(ckpt.get("count").and_then(Json::as_u64), Some(0));

        // Force one over the wire; a second call with no new commits is
        // an acknowledged no-op (`written: false`).
        let reply = call_sys(&mut client, "sys_checkpoint");
        assert_eq!(reply.get("written"), Some(&Json::Bool(true)));
        let ckpt_ts = reply.get("checkpoint_ts").and_then(Json::as_u64).unwrap();
        assert!(ckpt_ts > 0);
        assert!(reply.get("bytes").and_then(Json::as_u64).unwrap() > 0);
        let reply = call_sys(&mut client, "sys_checkpoint");
        assert_eq!(reply.get("written"), Some(&Json::Bool(false)));

        let health = call_sys(&mut client, "sys_health");
        let ckpt = health
            .get("wal")
            .and_then(|w| w.get("checkpoints"))
            .expect("checkpoint section")
            .clone();
        let get = |k: &str| ckpt.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(get("count"), 1);
        assert_eq!(get("newest_ts"), ckpt_ts);
        assert!(get("checkpoint_bytes") > 0);
        assert!(get("writes") >= 1);
        assert_eq!(get("errors"), 0);
        assert_eq!(get("fallbacks"), 0);

        let reply = call_sys(&mut client, "sys_dump");
        let dump = Dump::from_json(reply.get("dump").unwrap()).expect("parse dump");
        server.shutdown();
        dump
    };

    // Restart: recovery restores the forced checkpoint and replays only
    // the (empty) tail, yet serves the identical stitched dump.
    let (session, report) = Session::open_durable(&path, tiny_opts()).expect("reopen");
    assert!(report.checkpoint_ts.is_some(), "boot used the checkpoint");
    assert_eq!(report.checkpoint_fallbacks, 0);
    let server = ServerBuilder::new(attach(session))
        .serve("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let reply = call_sys(&mut client, "sys_dump");
    let after_dump = Dump::from_json(reply.get("dump").unwrap()).expect("parse dump");
    assert_eq!(before_dump.current_ts, after_dump.current_ts);
    // The boot truncated memory at the checkpoint; the history below it
    // is read back from the log.
    assert_eq!(after_dump.entries.len(), 8);
    assert_eq!(
        wire_entries(&before_dump),
        wire_entries(&after_dump),
        "dump must be byte-identical across the checkpoint boot"
    );

    // So is a fork below the boot checkpoint: the state after the fourth
    // commit, as it was before the restart.
    let fork_ts = before_dump.entries[3].commit_ts;
    assert!(fork_ts < report.checkpoint_ts.unwrap());
    let reply = client
        .call("trod_fork", Json::obj(vec![("ts", Json::from(fork_ts))]))
        .expect("fork below the checkpoint");
    let fork_id = reply.get("fork_id").and_then(Json::as_str).unwrap();
    let sql = "SELECT k, v FROM events ORDER BY k";
    let rs = client
        .call(
            "trod_sql",
            Json::obj(vec![("fork", Json::str(fork_id)), ("sql", Json::str(sql))]),
        )
        .expect("fork read");
    let want: Vec<Json> = (0..4)
        .map(|k| Json::Array(vec![Json::Int(k), Json::Int(k * 10)]))
        .collect();
    assert_eq!(rs.get("rows").and_then(Json::as_array), Some(&want[..]));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&path);
}
