//! Devnet-style dump/load: serialize a whole database —
//! relational schema, key-value namespaces, and the complete *aligned
//! history* — to one JSON document, and boot a fresh instance from it.
//!
//! The dump carries history, not state: loading replays every
//! [`CommittedTxn`] through [`Database::apply_entries`], the same
//! identity-preserving replay path crash recovery uses, which derives
//! each change record from the row its write displaces. A dump whose
//! records disagree with the derived ones (a forged before image) is
//! refused, so the loaded instance has the same aligned history (same txn
//! ids, same start/commit timestamps, same change records) and its commit
//! clock resumes where the source's left off. That is what makes the loaded
//! instance *debuggable*, not just state-equivalent: time-travel reads,
//! replay and retroactive runs against it see the same past.
//!
//! A remote fork is one call: [`fork_from_instance`] asks a *running*
//! server for `sys_dump {up_to: ts}` and boots the reply through
//! [`Dump::from_json`], the same decoder a dump file goes through, so a
//! new developer instance can pull a fork at any timestamp from
//! production without ever touching its files.
//!
//! Caveat: a dump carries the catalog as it is when the dump is taken —
//! the current schema, indexes and namespace set, applied up front —
//! not the DDL records the log interleaves with the commits. So a dump
//! taken at (or truncated to) timestamp `ts` may hold an object created
//! after `ts`. History at `ts` replays against it exactly because schema
//! changes are append-only in this engine.

use std::path::Path;

use trod_core::json::{Json, JsonError};
use trod_core::wire::{self, WireError};
use trod_core::Trod;
use trod_db::{Column, CommittedTxn, DataType, Database, DbResult, LoggedTxn, Schema, Ts, TS_LIVE};

/// Why a dump could not be produced, parsed, or booted.
#[derive(Debug)]
pub enum DumpError {
    Json(JsonError),
    Wire(WireError),
    /// The document is well-formed JSON but not a valid dump.
    Format(String),
    /// Rebuilding the environment failed.
    Load(String),
    /// The change records of the entry at `commit_ts` are not the ones its
    /// replay derived from the rows its writes displaced: a before image
    /// (or its absence) that the history before it does not produce.
    BeforeImage {
        commit_ts: Ts,
    },
    Io(std::io::Error),
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::Json(e) => write!(f, "dump is not valid JSON: {e}"),
            DumpError::Wire(e) => write!(f, "dump entry malformed: {e}"),
            DumpError::Format(d) => write!(f, "not a trod dump: {d}"),
            DumpError::Load(d) => write!(f, "could not boot from dump: {d}"),
            DumpError::BeforeImage { commit_ts } => write!(
                f,
                "could not boot from dump: the change records of commit ts {commit_ts} disagree with the rows its writes displace"
            ),
            DumpError::Io(e) => write!(f, "dump i/o: {e}"),
        }
    }
}

impl From<JsonError> for DumpError {
    fn from(e: JsonError) -> Self {
        DumpError::Json(e)
    }
}

impl From<WireError> for DumpError {
    fn from(e: WireError) -> Self {
        DumpError::Wire(e)
    }
}

impl From<std::io::Error> for DumpError {
    fn from(e: std::io::Error) -> Self {
        DumpError::Io(e)
    }
}

const FORMAT: &str = "trod-dump/1";

/// One table's DDL, as captured in a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    pub indexes: Vec<String>,
}

/// A serialized database: schema + namespaces + the complete
/// aligned history up to `current_ts`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dump {
    pub current_ts: Ts,
    pub tables: Vec<TableDef>,
    pub namespaces: Vec<String>,
    /// Aligned history in commit order ([`Database::history`]).
    pub entries: Vec<CommittedTxn>,
}

fn dtype_from_str(s: &str) -> Result<DataType, DumpError> {
    use DataType::*;
    let mut types = [Bool, Int, Float, Text, Bytes, Timestamp].into_iter();
    let found = types.find(|d| d.to_string() == s);
    found.ok_or_else(|| DumpError::Format(format!("unknown column type {s:?}")))
}

/// The strings of the array `field` of `j`; none when it is absent.
fn strings<'a>(j: &'a Json, field: &str) -> Vec<&'a str> {
    let items = j.get(field).and_then(Json::as_array).unwrap_or_default();
    items.iter().filter_map(Json::as_str).collect()
}

fn owned(strings: Vec<&str>) -> Vec<String> {
    strings.into_iter().map(str::to_string).collect()
}

impl Dump {
    /// Captures the whole environment of a live [`Trod`] instance as of
    /// `up_to`, clamped to the published clock (`Ts::MAX` for all of it):
    /// its schema and its history up to that timestamp, below the GC
    /// floor read from the durable log. Booting it reproduces the
    /// environment as of that timestamp. An in-memory environment GC
    /// truncated is [`trod_db::DbError::HistoryTruncated`], never a
    /// partial dump.
    pub fn capture(trod: &Trod, up_to: Ts) -> DbResult<Dump> {
        let db = trod.production_db();
        let current_ts = up_to.min(db.current_ts());
        let table = |name: String| {
            let store = db.table(&name)?;
            let (schema, indexes) = (store.schema().clone(), store.indexed_columns());
            Ok(TableDef {
                name,
                schema,
                indexes,
            })
        };
        let tables = db.table_names().into_iter().map(table);
        let tables = tables.collect::<DbResult<_>>()?;
        Ok(Dump {
            current_ts,
            tables,
            namespaces: db.namespaces(),
            entries: db.history(0, current_ts)?,
        })
    }

    pub fn to_json(&self) -> Json {
        let names = |names: Vec<&str>| Json::Array(names.into_iter().map(Json::str).collect());
        let column = |c: &Column| {
            Json::obj(vec![
                ("name", Json::str(c.name.clone())),
                ("dtype", Json::str(c.dtype.to_string())),
                ("nullable", Json::Bool(c.nullable)),
            ])
        };
        let tables = self.tables.iter().map(|t| {
            let columns = t.schema.columns();
            let primary_key = t.schema.primary_key().iter();
            Json::obj(vec![
                ("name", Json::str(t.name.clone())),
                ("columns", Json::Array(columns.iter().map(column).collect())),
                (
                    "primary_key",
                    names(primary_key.map(|&i| &*columns[i].name).collect()),
                ),
                (
                    "indexes",
                    names(t.indexes.iter().map(String::as_str).collect()),
                ),
            ])
        });
        Json::obj(vec![
            ("format", Json::str(FORMAT)),
            ("current_ts", Json::from(self.current_ts)),
            ("tables", Json::Array(tables.collect())),
            (
                "namespaces",
                names(self.namespaces.iter().map(String::as_str).collect()),
            ),
            (
                "entries",
                Json::Array(self.entries.iter().map(wire::txn_to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Dump, DumpError> {
        let format = j.get("format").and_then(Json::as_str).unwrap_or("");
        if format != FORMAT {
            return Err(DumpError::Format(format!(
                "format is {format:?}, expected {FORMAT:?}"
            )));
        }
        let current_ts: Ts = j
            .get("current_ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| DumpError::Format("missing current_ts".into()))?;
        let mut tables = Vec::new();
        for t in j
            .get("tables")
            .and_then(Json::as_array)
            .ok_or_else(|| DumpError::Format("missing tables".into()))?
        {
            let name = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| DumpError::Format("table without name".into()))?
                .to_string();
            let mut columns = Vec::new();
            for c in t
                .get("columns")
                .and_then(Json::as_array)
                .ok_or_else(|| DumpError::Format(format!("table {name}: missing columns")))?
            {
                let cname = c
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| DumpError::Format(format!("table {name}: column without name")))?
                    .to_string();
                let dtype = dtype_from_str(c.get("dtype").and_then(Json::as_str).unwrap_or(""))?;
                columns.push(match c.get("nullable").and_then(Json::as_bool) {
                    Some(true) => Column::nullable(cname, dtype),
                    _ => Column::new(cname, dtype),
                });
            }
            let schema = Schema::new(columns, &strings(t, "primary_key"))
                .map_err(|e| DumpError::Format(format!("table {name}: {e}")))?;
            let indexes = owned(strings(t, "indexes"));
            tables.push(TableDef {
                name,
                schema,
                indexes,
            });
        }
        let namespaces = owned(strings(j, "namespaces"));
        let mut entries = Vec::new();
        for e in j
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| DumpError::Format("missing entries".into()))?
        {
            entries.push(wire::txn_from_json(e)?);
        }
        Ok(Dump {
            current_ts,
            tables,
            namespaces,
            entries,
        })
    }

    /// Serializes to a file.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), DumpError> {
        std::fs::write(path, self.to_json().to_string())?;
        Ok(())
    }

    /// Parses a dump file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Dump, DumpError> {
        let text = std::fs::read_to_string(path)?;
        Dump::from_json(&Json::parse(&text)?)
    }

    /// Boots a fresh in-memory database from this dump: DDL first, then
    /// every history entry replayed with its original identity, then the
    /// commit clock advanced to the dumped watermark. A watermark of
    /// [`TS_LIVE`], which is no commit timestamp, is a
    /// [`DumpError::Load`]; an entry whose change records differ from the
    /// ones its replay derived is a [`DumpError::BeforeImage`] naming the
    /// first such commit.
    pub fn boot(&self) -> Result<Database, DumpError> {
        if self.current_ts == TS_LIVE {
            return Err(DumpError::Load(format!(
                "current_ts {} is not a commit timestamp",
                self.current_ts
            )));
        }
        let db = Database::new();
        for t in &self.tables {
            db.create_table(t.name.clone(), t.schema.clone())
                .map_err(|e| DumpError::Load(format!("table {}: {e}", t.name)))?;
            for col in &t.indexes {
                db.create_index(&t.name, col)
                    .map_err(|e| DumpError::Load(format!("index {}.{col}: {e}", t.name)))?;
            }
        }
        for ns in &self.namespaces {
            db.create_namespace(ns)
                .map_err(|e| DumpError::Load(format!("namespace {ns}: {e}")))?;
        }
        let logged: Vec<LoggedTxn> = self.entries.iter().map(LoggedTxn::from).collect();
        db.apply_entries(&logged)
            .map_err(|e| DumpError::Load(format!("history: {e}")))?;
        let derived = db.log_entries();
        let mut pairs = self.entries.iter().zip(&derived);
        if let Some((forged, _)) = pairs.find(|(dumped, replayed)| dumped != replayed) {
            let commit_ts = forged.commit_ts;
            return Err(DumpError::BeforeImage { commit_ts });
        }
        db.ensure_ts_at_least(self.current_ts);
        Ok(db)
    }
}

/// Pulls a fork of a *running* instance at timestamp `ts` over the wire:
/// one `sys_dump {up_to: ts}` call, decoded by [`Dump::from_json`] and
/// booted locally. The result is a whole-environment fork equivalent to
/// calling [`Database::fork_at`] on the remote instance — without file
/// access to it. Like [`Database::fork_at`], a `ts` past the remote's
/// published clock forks at that clock.
pub fn fork_from_instance(addr: &str, ts: Ts) -> Result<Database, DumpError> {
    let mut client = crate::client::Client::connect(addr)
        .map_err(|e| DumpError::Load(format!("connect {addr}: {e}")))?;
    let reply = client
        .call("sys_dump", Json::obj(vec![("up_to", Json::from(ts))]))
        .map_err(|e| DumpError::Load(format!("sys_dump: {e}")))?;
    let doc = reply
        .get("dump")
        .ok_or_else(|| DumpError::Format("sys_dump reply without `dump`".into()))?;
    Dump::from_json(doc)?.boot()
}
