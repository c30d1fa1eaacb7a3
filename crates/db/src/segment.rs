//! The segmented, manifest-driven durable log: rotation, checkpoints and
//! the recovery walk.
//!
//! A [`SegmentedWal`] is a [`LogDir`] holding segment files, checkpoint
//! files and one checksummed `MANIFEST` naming them. Invariants this
//! module owns (lifecycle diagram, crash windows and the fault model:
//! "The durable log" in `crates/db/DESIGN.md`):
//!
//! * **A sealed segment is the cold tier.** Rotation seals the active
//!   segment where it lies; while the log is open a listed segment is
//!   never rewritten, moved or deleted. Below the GC floor the sealed
//!   segments are the only copy of history.
//! * **Global LSNs** — appends go to the active segment's [`Wal`]; an
//!   LSN is that file's offset plus the summed lengths of every sealed
//!   file before it.
//! * **Only the active segment may be torn.** A segment is fully synced
//!   before it stops being active: any damage in a sealed file — a torn
//!   tail included — is [`StorageError::Corrupt`] naming the file, never
//!   silent truncation. The active segment's torn tail is truncated only
//!   after its last valid record has been replayed.
//! * **Recovery streams.** It reads a file one frame at a time through
//!   [`LogDir::open_read`] and never holds a file's bytes or its decoded
//!   records. Recovery and [`SegmentedWal::history`] share one walk over
//!   the files.
//! * **The MANIFEST is never edited in place**: write `MANIFEST.tmp`,
//!   fsync, rename over `MANIFEST`, fsync the directory. New files are
//!   durable before the manifest lists them; old files are deleted only
//!   after the manifest that stopped listing them is durable.
//! * **Rotation and checkpoint writes run outside the publication
//!   window**, serialized by one lock, and their errors are counted, not
//!   raised — a crash or failure there can never un-ack a commit;
//!   [`SegmentedWal::open_dir`] reconciles whatever debris is left.

use std::io::{BufRead, Read as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::checkpoint::{
    checkpoint_name, decode_checkpoint, encode_checkpoint, parse_checkpoint_name, Checkpoint,
};
use crate::dir::{io_err, FsDir, LogDir, LogFile};
use crate::error::StorageError;
use crate::log::CommittedTxn;
use crate::mvcc::Ts;
use crate::wal::{
    crc32, put_str, put_u32, put_u64, stream_records, Cursor, RecoveryInfo, SyncMode, Wal,
    WalOptions, WalRecord, Wanted, ALL, MIN_STR_LEN,
};

/// The manifest file name inside a log directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 8] = b"TRODMF01";
const MANIFEST_VERSION: u32 = 2;
/// Newest checkpoints kept in the manifest; older ones are deleted after
/// each successful checkpoint write.
const CHECKPOINTS_KEPT: usize = 2;

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:06}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Parses a `cold-<lo>-<hi>.seg` name. Such files were written by
/// earlier versions, which copied runs of sealed segments into them; a
/// listed one is read as a sealed segment, an unlisted one is debris.
fn parse_cold_name(name: &str) -> Option<(u64, u64)> {
    let body = name.strip_prefix("cold-")?.strip_suffix(".seg")?;
    let (lo, hi) = body.split_once('-')?;
    if lo.is_empty() || hi.is_empty() {
        return None;
    }
    if !lo.bytes().all(|b| b.is_ascii_digit()) || !hi.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((lo.parse().ok()?, hi.parse().ok()?))
}

/// Folds one record into a segment's summary: its highest commit ts and
/// whether it holds DDL (see [`ListedFile::has_ddl`]).
fn note_record(max_ts: &mut Ts, has_ddl: &mut bool, record: &WalRecord) {
    match record {
        WalRecord::Commit(e) => *max_ts = (*max_ts).max(e.commit_ts),
        _ => *has_ddl = true,
    }
}

// ---------------------------------------------------------------------
// The manifest
// ---------------------------------------------------------------------

/// A sealed segment as the manifest lists it: its sequence number (the
/// lowest one, for a cold file an earlier version wrote), its length, and
/// a summary of its records.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ListedFile {
    name: String,
    seq_lo: u64,
    len: u64,
    max_ts: Ts,
    /// True when the file holds any non-commit (DDL) record. A
    /// checkpoint boot may only skip a file when `max_ts <= checkpoint
    /// ts` **and** it carries no DDL — DDL records are untimestamped, so
    /// a DDL-only segment has `max_ts == 0` and would otherwise be
    /// skipped wrongly.
    has_ddl: bool,
}

/// One checkpoint file tracked by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CheckpointFile {
    name: String,
    ts: Ts,
    len: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    next_seq: u64,
    /// Sealed files in log order.
    sealed: Vec<ListedFile>,
    active_seq: u64,
    active_name: String,
    /// Checkpoints, oldest first.
    checkpoints: Vec<CheckpointFile>,
    /// Highest GC floor the database has raised. Checkpoints at or below it
    /// are retained as the deep time-travel ladder (see
    /// [`SegmentedWal::write_checkpoint`]); persisting it keeps the
    /// ladder safe across reboots.
    gc_floor: Ts,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_u32(&mut payload, MANIFEST_VERSION);
    put_u64(&mut payload, m.next_seq);
    // The cold list: always empty (see `decode_manifest`).
    put_u32(&mut payload, 0);
    put_u32(&mut payload, m.sealed.len() as u32);
    for s in &m.sealed {
        put_str(&mut payload, &s.name);
        put_u64(&mut payload, s.seq_lo);
        put_u64(&mut payload, s.len);
        put_u64(&mut payload, s.max_ts);
        payload.push(s.has_ddl as u8);
    }
    put_str(&mut payload, &m.active_name);
    put_u64(&mut payload, m.active_seq);
    put_u32(&mut payload, m.checkpoints.len() as u32);
    for ck in &m.checkpoints {
        put_str(&mut payload, &ck.name);
        put_u64(&mut payload, ck.ts);
        put_u64(&mut payload, ck.len);
    }
    put_u64(&mut payload, m.gc_floor);

    let mut out = Vec::with_capacity(8 + 12 + payload.len());
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    let hdr_crc = crc32(&out[8..16]);
    put_u32(&mut out, hdr_crc);
    out.extend_from_slice(&payload);
    out
}

/// Fewest bytes a sealed entry encodes in: name, sequence number,
/// length, highest commit ts, DDL flag.
const MIN_SEALED_LEN: usize = MIN_STR_LEN + 3 * 8 + 1;
/// Fewest bytes a checkpoint entry encodes in: name, ts, length.
const MIN_CHECKPOINT_LEN: usize = MIN_STR_LEN + 2 * 8;

fn manifest_corrupt(offset: u64, detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        offset,
        detail: format!("{MANIFEST_NAME}: {}", detail.into()),
    }
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StorageError> {
    if bytes.len() < 8 + 12 {
        return Err(manifest_corrupt(0, "truncated manifest"));
    }
    if &bytes[..8] != MANIFEST_MAGIC {
        return Err(manifest_corrupt(0, "bad magic"));
    }
    let hdr = &bytes[8..20];
    let stored_hdr_crc = u32::from_le_bytes(hdr[8..12].try_into().unwrap());
    if crc32(&hdr[0..8]) != stored_hdr_crc {
        return Err(manifest_corrupt(8, "header checksum mismatch"));
    }
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    if bytes.len() != 20 + len {
        return Err(manifest_corrupt(
            20,
            format!(
                "payload length mismatch: header says {len}, have {}",
                bytes.len() - 20
            ),
        ));
    }
    let payload = &bytes[20..];
    let stored_crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    if crc32(payload) != stored_crc {
        return Err(manifest_corrupt(20, "payload checksum mismatch"));
    }
    (|| -> Result<Manifest, String> {
        let mut c = Cursor::new(payload);
        let version = c.u32()?;
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let next_seq = c.u64()?;
        // A cold file, which earlier versions wrote, holds the frames of a
        // run of sealed segments, unchanged: its entry is a sealed entry
        // plus the run's highest sequence number. Cold entries are folded
        // into the sealed list by low sequence number, and the next
        // manifest swap writes them back there.
        let listed = |c: &mut Cursor, name, seq_lo| -> Result<ListedFile, String> {
            Ok(ListedFile {
                name,
                seq_lo,
                len: c.u64()?,
                max_ts: c.u64()?,
                has_ddl: c.bool()?,
            })
        };
        let mut sealed = Vec::new();
        let n_cold = c.count(MIN_SEALED_LEN + 8, "cold")?;
        for _ in 0..n_cold {
            let (name, seq_lo, _seq_hi) = (c.str()?, c.u64()?, c.u64()?);
            sealed.push(listed(&mut c, name, seq_lo)?);
        }
        for _ in 0..c.count(MIN_SEALED_LEN, "sealed")? {
            let (name, seq_lo) = (c.str()?, c.u64()?);
            sealed.push(listed(&mut c, name, seq_lo)?);
        }
        if n_cold > 0 {
            sealed.sort_by_key(|f| f.seq_lo);
        }
        let active_name = c.str()?;
        let active_seq = c.u64()?;
        let n_ckpt = c.count(MIN_CHECKPOINT_LEN, "checkpoint")?;
        let mut checkpoints = Vec::with_capacity(n_ckpt);
        for _ in 0..n_ckpt {
            checkpoints.push(CheckpointFile {
                name: c.str()?,
                ts: c.u64()?,
                len: c.u64()?,
            });
        }
        let gc_floor = c.u64()?;
        if c.remaining() != 0 {
            return Err(format!("{} trailing bytes", c.remaining()));
        }
        Ok(Manifest {
            next_seq,
            sealed,
            active_seq,
            active_name,
            checkpoints,
            gc_floor,
        })
    })()
    .map_err(|detail| manifest_corrupt(20, detail))
}

/// Publishes the file `name` atomically: `body` writes it as
/// `<name>.tmp`, which is fsynced, renamed over `name`, and made durable
/// by a directory fsync. A crash leaves the old file or the new one,
/// never a torn one; recovery reconciles a stale temp file.
fn write_durable(
    dir: &dyn LogDir,
    name: &str,
    body: impl FnOnce(&mut dyn LogFile) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let tmp = format!("{name}.tmp");
    let mut file = dir.create(&tmp)?;
    body(file.as_mut())?;
    file.sync()?;
    drop(file);
    dir.rename(&tmp, name)?;
    dir.sync_dir()
}

/// Writes the manifest atomically ([`write_durable`]). Never edits the
/// manifest in place.
fn write_manifest(dir: &dyn LogDir, m: &Manifest) -> Result<(), StorageError> {
    write_durable(dir, MANIFEST_NAME, |file| {
        file.write_all(&encode_manifest(m))
    })
}

// ---------------------------------------------------------------------
// The segmented WAL
// ---------------------------------------------------------------------

/// Point-in-time statistics, exposed over the wire as `sys_health`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Live segment files: sealed + the active one.
    pub segments: usize,
    /// Bytes in the active segment (the only file still growing).
    pub active_bytes: u64,
    /// Global logical end offset (every byte ever accepted).
    pub appended: u64,
    /// Global durable LSN watermark.
    pub durable: u64,
    /// Configured rotation bound (0 = rotation disabled).
    pub segment_bytes: u64,
    /// Completed rotations since open.
    pub rotations: u64,
    /// Rotation attempts that errored (recovery reconciles any debris).
    pub rotation_errors: u64,
    /// Checkpoint files currently tracked by the manifest.
    pub checkpoints: usize,
    /// Timestamp of the newest tracked checkpoint (0 = none).
    pub checkpoint_newest_ts: Ts,
    /// Total bytes of the tracked checkpoint files.
    pub checkpoint_bytes: u64,
    /// Checkpoints successfully written since open.
    pub checkpoint_writes: u64,
    /// Checkpoint attempts skipped (no new commits, duplicate timestamp,
    /// another checkpoint in flight, or checkpoints unsupported here).
    pub checkpoint_skips: u64,
    /// Checkpoint attempts that errored (recovery reconciles any debris).
    pub checkpoint_errors: u64,
    /// Checkpoints that failed validation and were skipped in favour of
    /// an older one (or full replay) — at boot or on a deep fork.
    pub checkpoint_fallbacks: u64,
}

/// What recovery found, repaired and rebuilt. The log walk
/// ([`SegmentedWal::open_dir`]) fills in the findings; the environment
/// replay (`Database::open_durable` / `Session::open_durable`) then adds
/// the replay counts to the same value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed.
    pub commits: usize,
    /// Tables re-created from DDL records.
    pub tables: usize,
    /// Secondary indexes re-created from DDL records (a declaration for a
    /// column that already has an index is not counted).
    pub indexes: usize,
    /// Key-value namespaces re-created from DDL records.
    pub namespaces: Vec<String>,
    /// Key-value writes re-installed while replaying commits.
    pub kv_writes_replayed: usize,
    /// Bytes discarded as a torn tail of the *newest* segment.
    pub truncated_bytes: u64,
    /// Segment files the recovery walked (sealed + active).
    pub segments: usize,
    /// Orphan successor segments adopted (crash mid-rotation).
    pub adopted_orphans: usize,
    /// Stale temp, segment, cold and checkpoint files reconciled away.
    pub removed_files: usize,
    /// Timestamp of the checkpoint this boot restored from, if any —
    /// `Some(ts)` means only WAL records after `ts` were replayed.
    pub checkpoint_ts: Option<Ts>,
    /// Checkpoints that failed validation before a usable one was found
    /// (each fell back to the next older one, or to full replay).
    pub checkpoint_fallbacks: usize,
    /// Sealed files recovery skipped entirely because every commit
    /// in them preceded the checkpoint.
    pub skipped_files: usize,
}

/// What the recovery walk ([`SegmentedWal::open_dir`]) hands its replay
/// callback, in log order.
pub enum Replay<'a> {
    /// The newest valid checkpoint, before any record: restore it first.
    Checkpoint(&'a Checkpoint),
    /// The next record, in global commit order. On a checkpoint boot the
    /// commits the snapshot covers are dropped as they are decoded; DDL
    /// records are kept (replay them leniently — the snapshot holds their
    /// objects).
    Record(WalRecord),
}

/// What one recovery walk leaves once every record has been replayed.
pub struct RecoveredLog {
    /// The live log, positioned after the recovered prefix.
    pub wal: Arc<SegmentedWal>,
    /// The walk's findings plus the counts its replay callback added.
    pub report: RecoveryReport,
}

/// The live half of the active segment (its name and sequence number
/// live in the manifest).
struct ActiveSeg {
    wal: Arc<Wal>,
    /// Global offset of this segment's byte 0: the summed lengths of
    /// every sealed file before it.
    base: u64,
    max_ts: Ts,
    /// Whether any non-commit (DDL) record was appended (see
    /// [`ListedFile::has_ddl`]).
    has_ddl: bool,
}

struct SegState {
    /// The layout as the next manifest swap will publish it. Mutated
    /// only under `rotate_lock`.
    manifest: Manifest,
    active: ActiveSeg,
}

#[derive(Default)]
struct Counters {
    rotations: AtomicU64,
    rotation_errors: AtomicU64,
    checkpoint_writes: AtomicU64,
    checkpoint_skips: AtomicU64,
    checkpoint_errors: AtomicU64,
    checkpoint_fallbacks: AtomicU64,
}

/// The segmented, manifest-driven WAL (module docs): the append/sync
/// surface of a [`Wal`] over a directory of segments, with **global**
/// LSNs spanning all of them.
pub struct SegmentedWal {
    dir: Arc<dyn LogDir>,
    opts: WalOptions,
    state: Mutex<SegState>,
    /// Serializes rotation and checkpoint writes — every manifest
    /// mutation. Lock order: `rotate_lock` → `state` → the
    /// active `Wal`'s internal state.
    rotate_lock: Mutex<()>,
    counters: Counters,
    /// Global appended offset at the last successful checkpoint — the
    /// reference point for [`SegmentedWal::wants_checkpoint`].
    last_ckpt_lsn: AtomicU64,
}

impl SegmentedWal {
    /// Creates a fresh segmented log in `dir` (segment 0 + manifest).
    pub fn create_dir(
        dir: Arc<dyn LogDir>,
        opts: WalOptions,
    ) -> Result<Arc<SegmentedWal>, StorageError> {
        // Wipe any previous log layout — create semantics truncate.
        for name in dir.list()? {
            if name == MANIFEST_NAME
                || name.ends_with(".tmp")
                || parse_segment_name(&name).is_some()
                || parse_cold_name(&name).is_some()
                || parse_checkpoint_name(&name).is_some()
            {
                dir.delete(&name)?;
            }
        }
        let name = segment_name(0);
        let file = dir.create(&name)?;
        dir.sync_dir()?;
        let manifest = Manifest {
            next_seq: 1,
            sealed: Vec::new(),
            active_seq: 0,
            active_name: name,
            checkpoints: Vec::new(),
            gc_floor: 0,
        };
        write_manifest(dir.as_ref(), &manifest)?;
        let active = ActiveSeg {
            wal: Wal::over(file, 0, opts),
            base: 0,
            max_ts: 0,
            has_ddl: false,
        };
        Ok(Self::assemble(dir, opts, manifest, active))
    }

    /// Creates (truncating) a segmented log in the directory at `path`.
    /// A regular file at `path` is refused, untouched.
    pub fn create_path(
        path: impl AsRef<Path>,
        opts: WalOptions,
    ) -> Result<Arc<SegmentedWal>, StorageError> {
        Self::create_dir(Arc::new(FsDir::open(path)?), opts)
    }

    /// The recovery walk over any [`LogDir`], one streaming pass: it
    /// validates the manifest, reconciles crash debris (temp files,
    /// orphan successors, unlisted leftovers) and hands the newest valid
    /// checkpoint to `replay`. It then streams every sealed file
    /// the checkpoint does not cover (strictly) and the active segment
    /// (torn-tail rule) one frame at a time, handing each record to
    /// `replay` in global commit order as it is decoded. Only after the
    /// last record does it rewrite the manifest and truncate a torn tail,
    /// so an error from a later file, or from `replay`, leaves the log
    /// files as they were. Attach the returned log only now, or the
    /// replayed records would be re-appended.
    pub fn open_dir<E: From<StorageError>>(
        dir: Arc<dyn LogDir>,
        opts: WalOptions,
        mut replay: impl FnMut(Replay<'_>, &mut RecoveryReport) -> Result<(), E>,
    ) -> Result<RecoveredLog, E> {
        let mut rec = RecoveryReport::default();
        let mut names = dir.list()?;
        names.sort();

        // Temp files never survive a crash: the manifest swap and the
        // checkpoint write go through `.tmp` names that are renamed away
        // before they are ever referenced.
        let mut dirty = false;
        for name in names.iter().filter(|n| n.ends_with(".tmp")) {
            dir.delete(name)?;
            rec.removed_files += 1;
            dirty = true;
        }
        names.retain(|n| !n.ends_with(".tmp"));

        let had_manifest = names.iter().any(|n| n == MANIFEST_NAME);
        let mut manifest = if had_manifest {
            decode_manifest(&dir.read(MANIFEST_NAME)?)?
        } else {
            // Manifest-less: a crash before the very first manifest
            // write, or a bare copy of the `wal-*.seg` files. The
            // synthesized manifest lists no cold file and no checkpoint:
            // nothing vouches for them, and the sweep below deletes them.
            let first = names
                .iter()
                .filter_map(|n| parse_segment_name(n).map(|seq| (seq, n.clone())))
                .min();
            let (first_seq, first_name) = match first {
                Some(first) => first,
                None => {
                    let name = segment_name(0);
                    drop(dir.create(&name)?);
                    dir.sync_dir()?;
                    names.push(name.clone());
                    (0, name)
                }
            };
            dirty = true;
            // Start from the lowest segment as active; the orphan
            // adoption walk below seals it and adopts the rest, sharing
            // one code path with crash-mid-rotation recovery.
            Manifest {
                next_seq: first_seq + 1,
                sealed: Vec::new(),
                active_seq: first_seq,
                active_name: first_name,
                checkpoints: Vec::new(),
                gc_floor: 0,
            }
        };

        // Adopt orphan successors: a crash after rotation's swap but
        // before its manifest write leaves `wal-<active_seq+1>.seg` (and,
        // under repeated manifest-write failures, a contiguous run of
        // them) outside the manifest. A non-empty successor proves the
        // swap completed, which proves its predecessor was fully synced
        // at seal time — so the predecessor must decode perfectly clean.
        // Adoption only summarizes it; the walk below streams it again.
        loop {
            let succ_name = segment_name(manifest.active_seq + 1);
            if !names.contains(&succ_name) {
                break;
            }
            let succ_empty = dir.open_read(&succ_name)?.fill_buf().map(|b| b.is_empty());
            if succ_empty.map_err(|e| io_err("read", e))? {
                // The swap may or may not have happened; either way an
                // empty successor carries nothing. Drop it and let the
                // next rotation recreate it.
                dir.delete(&succ_name)?;
                names.retain(|n| *n != succ_name);
                rec.removed_files += 1;
                dirty = true;
                break;
            }
            let prev_name = manifest.active_name.clone();
            let (mut max_ts, mut has_ddl) = (0, false);
            let info = stream_records(dir.open_read(&prev_name)?, &prev_name, ALL, |record| {
                note_record(&mut max_ts, &mut has_ddl, &record);
                Ok::<_, StorageError>(())
            })?;
            if info.truncated_bytes != 0 {
                return Err(StorageError::Corrupt {
                    offset: info.valid_len,
                    detail: format!(
                        "{prev_name}: sealed segment has a torn tail ({} bytes) but its successor {succ_name} holds data",
                        info.truncated_bytes
                    ),
                }
                .into());
            }
            manifest.sealed.push(ListedFile {
                name: prev_name,
                seq_lo: manifest.active_seq,
                len: info.valid_len,
                max_ts,
                has_ddl,
            });
            manifest.active_seq += 1;
            manifest.active_name = succ_name;
            manifest.next_seq = manifest.active_seq + 1;
            rec.adopted_orphans += 1;
            dirty = true;
        }

        // Delete unlisted leftovers: checkpoints renamed into place but
        // never manifest-listed (crash mid-checkpoint), empty creations
        // beyond the adopted run, and what an earlier version's
        // compaction left unlisted (a cold copy never published, or the
        // segments one replaced).
        let listed: Vec<&str> = manifest
            .sealed
            .iter()
            .map(|s| s.name.as_str())
            .chain(manifest.checkpoints.iter().map(|c| c.name.as_str()))
            .chain(std::iter::once(manifest.active_name.as_str()))
            .collect();
        for name in &names {
            let is_log_file = parse_segment_name(name).is_some()
                || parse_cold_name(name).is_some()
                || parse_checkpoint_name(name).is_some();
            if is_log_file && !listed.contains(&name.as_str()) {
                dir.delete(name)?;
                rec.removed_files += 1;
                dirty = true;
            }
        }

        // Select the newest checkpoint that validates end-to-end. A
        // missing or corrupt checkpoint is *expected* debris (crash
        // mid-write, bit rot): fall back to the next older one, counting
        // each fallback, and delist the bad file — never guess.
        let mut checkpoint: Option<Checkpoint> = None;
        let mut by_ts = manifest.checkpoints.clone();
        by_ts.sort_by_key(|c| c.ts);
        for ck in by_ts.iter().rev() {
            checkpoint = read_checkpoint(dir.as_ref(), ck);
            if checkpoint.is_some() {
                break;
            }
            rec.checkpoint_fallbacks += 1;
            manifest.checkpoints.retain(|c| c.name != ck.name);
            dir.delete(&ck.name)?;
            rec.removed_files += 1;
            dirty = true;
        }
        rec.checkpoint_ts = checkpoint.as_ref().map(|c| c.ts);
        let ckpt_ts = rec.checkpoint_ts.unwrap_or(0);
        if let Some(ck) = checkpoint {
            replay(Replay::Checkpoint(&ck), &mut rec)?;
        }
        // A checkpoint boot skips every sealed file whose commits the
        // snapshot already covers and that carries no DDL — unread and
        // unvalidated: that *is* the O(delta) win. Every frame it does
        // read is decoded — the structural check on on-disk input — and
        // the commits the checkpoint covers are dropped (the snapshot *is*
        // their state); DDL records are kept — the callback replays them
        // idempotently, since the checkpoint already restored the catalog
        // objects they made.
        let covered = |max_ts: Ts, has_ddl: bool| ckpt_ts > 0 && max_ts <= ckpt_ts && !has_ddl;
        let end = walk_log(
            dir.as_ref(),
            &manifest,
            &mut rec,
            covered,
            ALL,
            None,
            |record, rec| match &record {
                WalRecord::Commit(e) if e.commit_ts <= ckpt_ts => Ok(()),
                _ => replay(Replay::Record(record), rec),
            },
        )?;
        rec.truncated_bytes = end.info.truncated_bytes;

        if dirty {
            write_manifest(dir.as_ref(), &manifest)?;
        }

        // Repair the torn tail.
        let mut file = dir.open_append(&manifest.active_name)?;
        file.truncate_to(end.info.valid_len)?;
        let active = ActiveSeg {
            wal: Wal::over(file, end.info.valid_len, opts),
            base: end.base,
            max_ts: end.max_ts,
            has_ddl: end.has_ddl,
        };
        let wal = Self::assemble(dir, opts, manifest, active);
        if rec.checkpoint_ts.is_some() {
            // Cadence restarts from the recovered end of the log.
            wal.last_ckpt_lsn.store(wal.appended(), Ordering::Relaxed);
        }
        wal.counters
            .checkpoint_fallbacks
            .store(rec.checkpoint_fallbacks as u64, Ordering::Relaxed);
        Ok(RecoveredLog { wal, report: rec })
    }

    fn assemble(
        dir: Arc<dyn LogDir>,
        opts: WalOptions,
        manifest: Manifest,
        active: ActiveSeg,
    ) -> Arc<SegmentedWal> {
        Arc::new(SegmentedWal {
            dir,
            opts,
            state: Mutex::new(SegState { manifest, active }),
            rotate_lock: Mutex::new(()),
            counters: Counters::default(),
            last_ckpt_lsn: AtomicU64::new(0),
        })
    }

    /// Global logical end offset (bytes accepted across all segments).
    pub fn appended(&self) -> u64 {
        let s = self.state.lock();
        s.active.base + s.active.wal.appended()
    }

    /// Global durable LSN watermark. Every sealed byte is durable by
    /// construction, so only the active segment contributes uncertainty.
    pub fn durable(&self) -> u64 {
        let s = self.state.lock();
        s.active.base + s.active.wal.durable()
    }

    /// Appends one framed record; returns its **global** end offset (the
    /// LSN to pass to [`SegmentedWal::sync_to`]). Called inside the
    /// publication window, exactly like [`Wal::append_record`].
    pub fn append_record(&self, record: &WalRecord) -> Result<u64, StorageError> {
        let mut s = self.state.lock();
        let lsn = s.active.wal.append_record(record)?;
        let active = &mut s.active;
        note_record(&mut active.max_ts, &mut active.has_ddl, record);
        Ok(active.base + lsn)
    }

    /// [`SegmentedWal::append_record`] for a committed transaction.
    pub fn append_entry(&self, entry: &CommittedTxn) -> Result<u64, StorageError> {
        let mut s = self.state.lock();
        let lsn = s.active.wal.append_entry(entry)?;
        s.active.max_ts = s.active.max_ts.max(entry.commit_ts);
        Ok(s.active.base + lsn)
    }

    /// Blocks until the log is confirmed through global `lsn` per the
    /// sync mode, then (outside the publication window — the caller has
    /// dropped its footprint locks) rolls the active segment if it
    /// crossed the size bound. LSNs at or below the active segment's base
    /// are durable by construction.
    pub fn sync_to(&self, lsn: u64) -> Result<(), StorageError> {
        let (wal, base) = {
            let s = self.state.lock();
            (s.active.wal.clone(), s.active.base)
        };
        if lsn > base {
            // `wal` may already be sealed by a concurrent rotation; its
            // bytes were fully synced at seal time, so this returns
            // immediately in that case.
            wal.sync_to(lsn - base)?;
        }
        self.maybe_rotate();
        Ok(())
    }

    /// Pushes buffered bytes of the active segment to its file without
    /// fsync ([`SyncMode::Cached`] teardown), then checks rotation.
    pub fn flush(&self) -> Result<(), StorageError> {
        let wal = self.state.lock().active.wal.clone();
        wal.flush()?;
        self.maybe_rotate();
        Ok(())
    }

    /// Current statistics (the `sys_health` payload).
    pub fn stats(&self) -> WalStats {
        let s = self.state.lock();
        let c = &self.counters;
        WalStats {
            segments: s.manifest.sealed.len() + 1,
            active_bytes: s.active.wal.appended(),
            appended: s.active.base + s.active.wal.appended(),
            durable: s.active.base + s.active.wal.durable(),
            segment_bytes: self.opts.segment_bytes,
            rotations: c.rotations.load(Ordering::Relaxed),
            rotation_errors: c.rotation_errors.load(Ordering::Relaxed),
            checkpoints: s.manifest.checkpoints.len(),
            checkpoint_newest_ts: s
                .manifest
                .checkpoints
                .iter()
                .map(|c| c.ts)
                .max()
                .unwrap_or(0),
            checkpoint_bytes: s.manifest.checkpoints.iter().map(|c| c.len).sum(),
            checkpoint_writes: c.checkpoint_writes.load(Ordering::Relaxed),
            checkpoint_skips: c.checkpoint_skips.load(Ordering::Relaxed),
            checkpoint_errors: c.checkpoint_errors.load(Ordering::Relaxed),
            checkpoint_fallbacks: c.checkpoint_fallbacks.load(Ordering::Relaxed),
        }
    }

    // -- rotation ------------------------------------------------------

    fn active_is_full(&self, s: &SegState) -> bool {
        self.opts.segment_bytes > 0 && s.active.wal.appended() >= self.opts.segment_bytes
    }

    fn maybe_rotate(&self) {
        let full = self.active_is_full(&self.state.lock());
        if full && self.rotate().is_err() {
            self.counters
                .rotation_errors
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seals the active segment and installs a fresh successor. The old
    /// segment is pre-synced outside any lock, then micro-synced again
    /// under the state lock (appends blocked) during the swap — so a
    /// segment is always complete *and durable* the moment it stops being
    /// active, and a torn tail can only ever exist in the newest segment.
    fn rotate(&self) -> Result<(), StorageError> {
        let _g = self.rotate_lock.lock();
        let (old_wal, new_seq) = {
            let s = self.state.lock();
            if !self.active_is_full(&s) {
                return Ok(()); // another thread rotated first
            }
            (s.active.wal.clone(), s.manifest.next_seq)
        };
        // 1. Pre-sync: bulk of the segment goes durable without blocking
        //    appenders.
        seal_sync(&old_wal, self.opts.sync_mode)?;
        // 2. Create the successor before the swap; a crash here leaves at
        //    worst an empty orphan that recovery deletes.
        let new_name = segment_name(new_seq);
        let file = self.dir.create(&new_name)?;
        self.dir.sync_dir()?;
        let new_wal = Wal::over(file, 0, self.opts);
        // 3. Swap under the state lock with a final straggler micro-sync.
        let manifest = {
            let mut s = self.state.lock();
            seal_sync(&s.active.wal, self.opts.sync_mode)?;
            let len = s.active.wal.appended();
            let sealed = ListedFile {
                name: std::mem::replace(&mut s.manifest.active_name, new_name),
                seq_lo: s.manifest.active_seq,
                len,
                max_ts: s.active.max_ts,
                has_ddl: s.active.has_ddl,
            };
            s.manifest.sealed.push(sealed);
            s.manifest.active_seq = new_seq;
            s.manifest.next_seq = new_seq + 1;
            s.active = ActiveSeg {
                wal: new_wal,
                base: s.active.base + len,
                max_ts: 0,
                has_ddl: false,
            };
            s.manifest.clone()
        };
        self.counters.rotations.fetch_add(1, Ordering::Relaxed);
        // 4. Publish the new layout. A crash (or error) before this is
        //    healed by orphan adoption at recovery — the swap already
        //    happened, so the error is counted but the log stays correct.
        write_manifest(self.dir.as_ref(), &manifest)
    }

    // -- checkpoints ---------------------------------------------------

    /// True when enough WAL bytes accumulated since the last checkpoint
    /// that the cadence policy ([`WalOptions::checkpoint_bytes`]) wants a
    /// new one.
    pub fn wants_checkpoint(&self) -> bool {
        self.opts.checkpoint_bytes > 0
            && self
                .appended()
                .saturating_sub(self.last_ckpt_lsn.load(Ordering::Relaxed))
                >= self.opts.checkpoint_bytes
    }

    /// Counts a checkpoint attempt skipped before reaching the log (e.g.
    /// another checkpoint already in flight).
    pub fn count_checkpoint_skip(&self) {
        self.counters
            .checkpoint_skips
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records that the database raised its GC floor to `floor`: the
    /// checkpoints at or below it become the deep time-travel ladder and
    /// survive pruning (see [`SegmentedWal::write_checkpoint`]). The next
    /// manifest swap persists it.
    pub fn raise_gc_floor(&self, floor: Ts) {
        let _g = self.rotate_lock.lock();
        let mut s = self.state.lock();
        s.manifest.gc_floor = s.manifest.gc_floor.max(floor);
    }

    /// Writes `ck` durably and publishes it in the manifest: encode, temp
    /// file, fsync, rename to `ckpt-<ts>.ckpt`, dir fsync, manifest swap
    /// listing it; then checkpoints *above the GC floor* beyond the last
    /// `CHECKPOINTS_KEPT` are delisted and deleted (best-effort — a
    /// crash leaves unlisted files recovery reconciles). Checkpoints at
    /// or below the floor are retained: they are the ladder deep
    /// time-travel forks restore from. Every byte and
    /// metadata op goes through the [`LogDir`] seam, so fault-injection
    /// sweeps cover the whole path. Returns `(ts, file bytes)`, or `None`
    /// when the attempt was skipped (ts 0, or a checkpoint at this ts
    /// already exists).
    pub fn write_checkpoint(&self, ck: &Checkpoint) -> Result<Option<(Ts, u64)>, StorageError> {
        let listed = |c: &CheckpointFile| c.ts == ck.ts;
        if ck.ts == 0 || self.state.lock().manifest.checkpoints.iter().any(listed) {
            self.count_checkpoint_skip();
            return Ok(None);
        }
        let res = self.write_checkpoint_inner(ck);
        if res.is_err() {
            self.counters
                .checkpoint_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        res
    }

    fn write_checkpoint_inner(&self, ck: &Checkpoint) -> Result<Option<(Ts, u64)>, StorageError> {
        let _g = self.rotate_lock.lock();
        let dir = &self.dir;
        let bytes = encode_checkpoint(ck);
        let len = bytes.len() as u64;
        let final_name = checkpoint_name(ck.ts);
        write_durable(dir.as_ref(), &final_name, |file| file.write_all(&bytes))?;
        // Publish in the manifest, retaining only the newest few. The
        // in-memory list is updated first; if the manifest write below
        // fails, the next successful manifest swap publishes the (already
        // durable, already renamed) file — never a dangling reference.
        let (manifest, dropped) = {
            let mut s = self.state.lock();
            let m = &mut s.manifest;
            m.checkpoints.push(CheckpointFile {
                name: final_name,
                ts: ck.ts,
                len,
            });
            m.checkpoints.sort_by_key(|c| c.ts);
            // Retention is floor-aware: above the GC floor the live store
            // answers forks directly and a checkpoint only serves
            // recovery, so the newest CHECKPOINTS_KEPT suffice. At or
            // below the floor a checkpoint is the *only* bounded route
            // back into the truncated region (deep fork =
            // nearest checkpoint + the logged delta), so those form a
            // ladder and are never pruned.
            let floor = m.gc_floor;
            let above = m.checkpoints.iter().filter(|c| c.ts > floor).count();
            let excess = above.saturating_sub(CHECKPOINTS_KEPT);
            let mut dropped = Vec::with_capacity(excess);
            m.checkpoints.retain(|c| {
                let prune = c.ts > floor && dropped.len() < excess;
                if prune {
                    dropped.push(c.name.clone());
                }
                !prune
            });
            (m.clone(), dropped)
        };
        write_manifest(dir.as_ref(), &manifest)?;
        // Best-effort: the dropped files are unlisted now and recovery
        // deletes them if we crash (or error) here.
        for old in &dropped {
            let _ = dir.delete(old);
        }
        let _ = dir.sync_dir();
        self.counters
            .checkpoint_writes
            .fetch_add(1, Ordering::Relaxed);
        self.last_ckpt_lsn.store(self.appended(), Ordering::Relaxed);
        Ok(Some((ck.ts, len)))
    }

    /// Loads the newest manifest-listed checkpoint with `ts <= up_to`,
    /// falling back past corrupt or missing files (counted in
    /// [`WalStats::checkpoint_fallbacks`]). `Ok(None)` when no usable
    /// checkpoint exists at or below `up_to` — the caller falls back to
    /// full replay.
    pub fn load_checkpoint_at_or_before(
        &self,
        up_to: Ts,
    ) -> Result<Option<Checkpoint>, StorageError> {
        let mut candidates: Vec<CheckpointFile> = self
            .state
            .lock()
            .manifest
            .checkpoints
            .iter()
            .filter(|c| c.ts <= up_to)
            .cloned()
            .collect();
        candidates.sort_by_key(|c| c.ts);
        for ck in candidates.iter().rev() {
            if let Some(decoded) = read_checkpoint(self.dir.as_ref(), ck) {
                return Ok(Some(decoded));
            }
            self.counters
                .checkpoint_fallbacks
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(None)
    }

    // -- history -------------------------------------------------------

    /// The commits in `(after, up_to]`, in commit order, read from the
    /// log's files by the recovery walk (`walk_log`): files whose
    /// commits all sit at or below `after` are skipped unread, commits at
    /// or below it are left undecoded, and the walk stops at the first
    /// commit past `up_to`. Callers pass an `up_to` at or below the
    /// published clock; every such commit was appended before it
    /// published, so it lies below the active segment's appended
    /// watermark read here. The walk reads the active segment only up to
    /// that watermark, after pushing it to the file as sealing does
    /// (`Cached` mode holds appended bytes in process and a group write
    /// may be in flight); later commits may be landing past it.
    ///
    /// The walk takes no lock, so rotation runs alongside it: a listed
    /// file is immutable and stays where it is while the log is open, and
    /// a segment sealed after the snapshot is read as the active prefix.
    pub fn history(&self, after: Ts, up_to: Ts) -> Result<Vec<CommittedTxn>, StorageError> {
        let (manifest, active) = {
            let s = self.state.lock();
            (s.manifest.clone(), s.active.wal.clone())
        };
        let watermark = active.appended();
        seal_sync(&active, self.opts.sync_mode)?;
        let mut entries = Vec::new();
        // The walk ends early with `Some` failure, or with `None` at the
        // first commit past the range.
        let walked = walk_log(
            self.dir.as_ref(),
            &manifest,
            &mut RecoveryReport::default(),
            |max_ts, _| max_ts <= after,
            &|ts| ts.is_some_and(|ts| ts > after),
            Some(watermark),
            |record, _| match record {
                WalRecord::Commit(e) if e.commit_ts > up_to => Err(None),
                WalRecord::Commit(e) if e.commit_ts > after => {
                    entries.push(e);
                    Ok(())
                }
                _ => Ok(()),
            },
        );
        match walked {
            Err(Some(e)) => Err(e),
            _ => Ok(entries),
        }
    }
}

/// Reads one manifest-listed checkpoint file; `None` when it is missing,
/// fails its CRC frame, or disagrees with the manifest about its ts.
fn read_checkpoint(dir: &dyn LogDir, ck: &CheckpointFile) -> Option<Checkpoint> {
    let decoded = dir
        .read(&ck.name)
        .and_then(|b| decode_checkpoint(&b))
        .ok()?;
    (decoded.ts == ck.ts).then_some(decoded)
}

/// Makes a segment durable for sealing: in `Cached` mode buffered bytes
/// are pushed to the file (the mode never promised power-loss safety); in
/// `Sync`/`Flush` the standard group sync runs to the appended watermark.
fn seal_sync(wal: &Arc<Wal>, mode: SyncMode) -> Result<(), StorageError> {
    match mode {
        SyncMode::Cached => wal.flush(),
        SyncMode::Sync | SyncMode::Flush => wal.sync_to(wal.appended()),
    }
}

/// Where a [`walk_log`] ended: the active segment's global base offset,
/// what its stream found, and its summary (see [`ListedFile`]).
struct WalkEnd {
    base: u64,
    info: RecoveryInfo,
    max_ts: Ts,
    has_ddl: bool,
}

/// The walk over a log's files, shared by recovery and
/// [`SegmentedWal::history`]: every record of every file `manifest`
/// lists, in global commit order, one frame at a time into `on_record`.
///
/// Sealed files come first, in list order. They were fully durable
/// before they stopped being active: any damage in them is corruption,
/// never a torn tail. `skip(max_ts, has_ddl)` leaves one of them unread;
/// its manifest length still advances the global LSN base. Every frame
/// read is validated, and decoded only if `wanted` (recovery wants all,
/// so the active segment's summary sees every record).
///
/// The active segment comes last. Recovery (`active_len` `None`) reads it
/// to its end under the torn-tail rule. A reader of a live log passes the
/// segment's appended watermark and reads that prefix strictly: every
/// byte below it was written, and the bytes past it may be a write still
/// landing.
fn walk_log<E: From<StorageError>>(
    dir: &dyn LogDir,
    manifest: &Manifest,
    rec: &mut RecoveryReport,
    mut skip: impl FnMut(Ts, bool) -> bool,
    wanted: Wanted,
    active_len: Option<u64>,
    mut on_record: impl FnMut(WalRecord, &mut RecoveryReport) -> Result<(), E>,
) -> Result<WalkEnd, E> {
    // A listed file that is missing is a typed recovery error.
    let open = |name: &str, what: &str| {
        dir.open_read(name).map_err(|_| StorageError::Recovery {
            detail: format!("manifest references missing {what} `{name}`"),
        })
    };
    let mut base = 0u64;
    for file in &manifest.sealed {
        rec.segments += 1;
        base += file.len;
        if skip(file.max_ts, file.has_ddl) {
            rec.skipped_files += 1;
            continue;
        }
        let src = open(&file.name, "segment")?;
        stream_strict(src, &file.name, file.len, wanted, |record| {
            on_record(record, rec)
        })?;
    }

    let mut end = WalkEnd {
        base,
        info: RecoveryInfo::default(),
        max_ts: 0,
        has_ddl: false,
    };
    rec.segments += 1;
    let name = &manifest.active_name;
    let src = open(name, "active segment")?;
    let on_active = |record: WalRecord| {
        note_record(&mut end.max_ts, &mut end.has_ddl, &record);
        on_record(record, rec)
    };
    end.info = match active_len {
        None => stream_records(src, name, wanted, on_active)?,
        Some(len) => {
            stream_strict(Box::new(src.take(len)), name, len, wanted, on_active)?;
            RecoveryInfo {
                valid_len: len,
                truncated_bytes: 0,
            }
        }
    };
    Ok(end)
}

/// Streams one sealed file into `on_record`, strictly: every byte must
/// decode, the length must match the manifest, and a torn tail is
/// corruption here — these files were complete and durable before the
/// manifest ever referenced them.
fn stream_strict<E: From<StorageError>>(
    src: Box<dyn BufRead + Send>,
    name: &str,
    expect_len: u64,
    wanted: Wanted,
    on_record: impl FnMut(WalRecord) -> Result<(), E>,
) -> Result<(), E> {
    let info = stream_records(src, name, wanted, on_record)?;
    let detail = if info.truncated_bytes != 0 {
        format!(
            "immutable file has {} damaged tail bytes",
            info.truncated_bytes
        )
    } else if info.valid_len != expect_len {
        format!(
            "length {} does not match manifest length {expect_len}",
            info.valid_len
        )
    } else {
        return Ok(());
    };
    Err(StorageError::Corrupt {
        offset: info.valid_len,
        detail: format!("{name}: {detail}"),
    }
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdc::ChangeRecord;
    use crate::dir::{DirFailpointHandle, FailpointDir, MemDir};
    use crate::row;
    use crate::row::Key;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn entry(txn_id: u64, commit_ts: Ts) -> CommittedTxn {
        CommittedTxn {
            txn_id,
            start_ts: commit_ts.saturating_sub(1),
            commit_ts,
            changes: vec![ChangeRecord::insert(
                "t",
                Key::single(txn_id as i64),
                row![txn_id as i64, "v"],
            )]
            .into(),
        }
    }

    fn tiny_opts() -> WalOptions {
        WalOptions {
            segment_bytes: 1, // roll after every synced record
            ..Default::default()
        }
    }

    fn commit_ts_of(records: &[WalRecord]) -> Vec<Ts> {
        records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit(e) => Some(e.commit_ts),
                _ => None,
            })
            .collect()
    }

    /// The recovery walk, collecting the records it hands to replay.
    fn open_collect(dir: Arc<dyn LogDir>) -> Result<(RecoveredLog, Vec<WalRecord>), StorageError> {
        let mut records = Vec::new();
        let log = SegmentedWal::open_dir(dir, tiny_opts(), |step, _| {
            if let Replay::Record(record) = step {
                records.push(record);
            }
            Ok::<_, StorageError>(())
        })?;
        Ok((log, records))
    }

    /// The manifest framing (magic, payload length, payload CRC, header
    /// CRC) around `payload`.
    fn manifest_bytes(payload: &[u8]) -> Vec<u8> {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(payload));
        let hdr_crc = crc32(&bytes[8..16]);
        put_u32(&mut bytes, hdr_crc);
        bytes.extend_from_slice(payload);
        bytes
    }

    fn listed(name: String, seq_lo: u64, max_ts: Ts, has_ddl: bool) -> ListedFile {
        ListedFile {
            name,
            seq_lo,
            len: 100 + seq_lo,
            max_ts,
            has_ddl,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            next_seq: 7,
            sealed: vec![
                listed("cold-000000-000002.seg".into(), 0, 9, true),
                listed(segment_name(3), 3, 12, false),
            ],
            active_seq: 6,
            active_name: segment_name(6),
            checkpoints: vec![CheckpointFile {
                name: checkpoint_name(9),
                ts: 9,
                len: 4096,
            }],
            gc_floor: 7,
        };
        let bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes).unwrap(), m);
        // Any single bit flip is detected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                decode_manifest(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
        // Truncation is detected.
        for cut in 0..bytes.len() {
            assert!(decode_manifest(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn a_cold_list_is_folded_into_the_sealed_list_and_written_back_empty() {
        // As an earlier version wrote it: cold files for segments 0-1 and
        // 3-4, compacted around segment 2, still sealed.
        let mut payload = Vec::new();
        put_u32(&mut payload, MANIFEST_VERSION);
        put_u64(&mut payload, 6);
        put_u32(&mut payload, 2);
        for (lo, hi, max_ts, ddl) in [(0, 1, 4, 1), (3, 4, 9, 0)] {
            put_str(&mut payload, &format!("cold-{lo:06}-{hi:06}.seg"));
            for v in [lo, hi, 100 + lo, max_ts] {
                put_u64(&mut payload, v);
            }
            payload.push(ddl);
        }
        put_u32(&mut payload, 1);
        put_str(&mut payload, &segment_name(2));
        for v in [2, 102, 7] {
            put_u64(&mut payload, v);
        }
        payload.push(0);
        put_str(&mut payload, &segment_name(5));
        put_u64(&mut payload, 5);
        put_u32(&mut payload, 0);
        put_u64(&mut payload, 9);

        let m = decode_manifest(&manifest_bytes(&payload)).unwrap();
        assert_eq!(
            m.sealed,
            vec![
                listed("cold-000000-000001.seg".into(), 0, 4, true),
                listed(segment_name(2), 2, 7, false),
                listed("cold-000003-000004.seg".into(), 3, 9, false),
            ]
        );
        let written = encode_manifest(&m);
        assert_eq!(written[32..36], [0; 4], "the cold count is written as 0");
        assert_eq!(decode_manifest(&written).unwrap(), m);
    }

    #[test]
    fn version_1_manifest_is_a_typed_unsupported_version_error() {
        // A well-framed manifest whose payload starts with version 1.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 1); // next_seq; the rest is never reached
        match decode_manifest(&manifest_bytes(&payload)) {
            Err(StorageError::Corrupt { detail, .. }) => assert!(
                detail.contains("unsupported manifest version 1"),
                "detail: {detail}"
            ),
            other => panic!("expected a typed version error, got {other:?}"),
        }
    }

    /// The decoder's contract on bytes it did not write: a typed
    /// `Corrupt` error, or a manifest that re-encodes to exactly those
    /// bytes — unless they carry a cold list, which is written back in
    /// the sealed list, so only the decoded manifest survives the trip.
    fn decodes_typed_or_canonically(bytes: &[u8]) -> Result<(), TestCaseError> {
        match decode_manifest(bytes) {
            Err(StorageError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "untyped error {other:?}"),
            Ok(m) if bytes[32..36] == [0; 4] => prop_assert_eq!(encode_manifest(&m), bytes),
            Ok(m) => prop_assert_eq!(decode_manifest(&encode_manifest(&m)).unwrap(), m),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
        ))]

        /// Arbitrary bytes, raw or framed with valid CRCs so that they
        /// reach the payload decoder.
        #[test]
        fn manifest_decoder_takes_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..160),
            framed in 0u8..2,
        ) {
            let bytes = if framed == 1 { manifest_bytes(&bytes) } else { bytes };
            decodes_typed_or_canonically(&bytes)?;
        }

        /// A valid manifest with one payload byte replaced and both CRCs
        /// recomputed.
        #[test]
        fn manifest_decoder_takes_a_mutated_manifest(
            sealed in prop::collection::vec((0u64..1 << 40, 0u64..1 << 40, 0u8..2), 0..5),
            checkpoints in prop::collection::vec((0u64..1 << 40, 0u64..1 << 40), 0..3),
            gc_floor in 0u64..1 << 40,
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let n = sealed.len() as u64;
            let m = Manifest {
                next_seq: n + 1,
                sealed: sealed
                    .into_iter()
                    .zip(0..)
                    .map(|((len, max_ts, ddl), seq)| ListedFile {
                        len,
                        ..listed(segment_name(seq), seq, max_ts, ddl == 1)
                    })
                    .collect(),
                active_seq: n,
                active_name: segment_name(n),
                checkpoints: checkpoints
                    .into_iter()
                    .map(|(ts, len)| CheckpointFile { name: checkpoint_name(ts), ts, len })
                    .collect(),
                gc_floor,
            };
            let mut payload = encode_manifest(&m)[20..].to_vec();
            let i = at % payload.len();
            payload[i] = byte;
            decodes_typed_or_canonically(&manifest_bytes(&payload))?;
        }
    }

    #[test]
    fn name_parsing() {
        assert_eq!(parse_segment_name("wal-000042.seg"), Some(42));
        assert_eq!(parse_segment_name("wal-.seg"), None);
        assert_eq!(parse_segment_name("wal-00x0.seg"), None);
        assert_eq!(parse_segment_name("cold-000001-000002.seg"), None);
        assert_eq!(parse_cold_name("cold-000001-000002.seg"), Some((1, 2)));
        assert_eq!(parse_cold_name("cold-1-2.seg.tmp"), None);
        assert_eq!(parse_cold_name("wal-000001.seg"), None);
    }

    #[test]
    fn rotation_rolls_and_recovers() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let wal = SegmentedWal::create_dir(dir.clone(), tiny_opts()).unwrap();
        for i in 1..=5u64 {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        let stats = wal.stats();
        assert!(stats.rotations >= 4, "expected rotations, got {stats:?}");
        assert_eq!(stats.appended, stats.durable);
        drop(wal);

        let (
            RecoveredLog {
                wal: wal2,
                report: rec,
                ..
            },
            records,
        ) = open_collect(dir).unwrap();
        assert_eq!(commit_ts_of(&records), vec![1, 2, 3, 4, 5]);
        assert_eq!(rec.truncated_bytes, 0);
        assert!(rec.segments >= 5);
        // The log continues with consistent global offsets.
        let lsn = wal2.append_entry(&entry(6, 6)).unwrap();
        wal2.sync_to(lsn).unwrap();
        assert_eq!(wal2.durable(), lsn);
    }

    #[test]
    fn a_raised_gc_floor_is_persisted_by_the_next_manifest_swap() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let wal = SegmentedWal::create_dir(dir.clone(), tiny_opts()).unwrap();
        let commit = |i| {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        };
        for i in 1..=3u64 {
            commit(i);
        }
        let on_disk = || decode_manifest(&mem.file(MANIFEST_NAME).unwrap()).unwrap();
        wal.raise_gc_floor(2);
        wal.raise_gc_floor(1); // a floor never drops
        assert_eq!(
            on_disk().gc_floor,
            0,
            "nothing is written for the floor itself"
        );
        commit(4); // rotates: a manifest swap
        let manifest = on_disk();
        assert_eq!(manifest.gc_floor, 2);
        // Every sealed segment is still listed and on disk, below the
        // floor or not.
        let stats = wal.stats();
        assert_eq!(manifest.sealed.len() as u64, stats.rotations);
        assert!(manifest.sealed.iter().all(|f| mem.file(&f.name).is_some()));
        drop(wal);

        let (RecoveredLog { wal, .. }, records) = open_collect(dir).unwrap();
        assert_eq!(commit_ts_of(&records), vec![1, 2, 3, 4]);
        assert_eq!(wal.state.lock().manifest.gc_floor, 2);
    }

    #[test]
    fn orphan_successor_is_adopted() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let wal = SegmentedWal::create_dir(dir.clone(), tiny_opts()).unwrap();
        for i in 1..=3u64 {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        drop(wal);
        // Simulate a crash after the swap but before the manifest write:
        // manufacture an orphan successor holding a commit.
        let listed = decode_manifest(&mem.file(MANIFEST_NAME).unwrap()).unwrap();
        let orphan = segment_name(listed.active_seq + 1);
        let frame = crate::wal::encode_frame(&WalRecord::Commit(entry(9, 9)));
        // The orphan only exists if the previous active was sealed — and
        // sealing means fully synced. Also append a commit to the active
        // so adoption has a clean predecessor.
        mem.put_file(&orphan, frame);
        let (RecoveredLog { report: rec, .. }, records) = open_collect(dir).unwrap();
        assert_eq!(rec.adopted_orphans, 1);
        assert_eq!(commit_ts_of(&records).last(), Some(&9));
    }

    #[test]
    fn empty_orphan_is_deleted() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let wal = SegmentedWal::create_dir(dir.clone(), tiny_opts()).unwrap();
        let lsn = wal.append_entry(&entry(1, 1)).unwrap();
        wal.sync_to(lsn).unwrap();
        drop(wal);
        let listed = decode_manifest(&mem.file(MANIFEST_NAME).unwrap()).unwrap();
        mem.put_file(&segment_name(listed.active_seq + 1), Vec::new());
        let (RecoveredLog { report: rec, .. }, records) = open_collect(dir).unwrap();
        assert_eq!(commit_ts_of(&records), vec![1]);
        assert_eq!(rec.adopted_orphans, 0);
        assert!(rec.removed_files >= 1);
    }

    #[test]
    fn torn_tail_with_data_bearing_orphan_is_corruption() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        // No rotation (default bound): the commit stays in the active
        // segment.
        let wal = SegmentedWal::create_dir(dir.clone(), WalOptions::default()).unwrap();
        let lsn = wal.append_entry(&entry(1, 1)).unwrap();
        wal.sync_to(lsn).unwrap();
        drop(wal);
        let listed = decode_manifest(&mem.file(MANIFEST_NAME).unwrap()).unwrap();
        // Tear the active's tail, then add a data-bearing orphan — a
        // state the rotation protocol can never produce.
        let mut active = mem.file(&listed.active_name).unwrap();
        active.truncate(active.len() - 3);
        mem.put_file(&listed.active_name, active);
        let frame = crate::wal::encode_frame(&WalRecord::Commit(entry(2, 2)));
        mem.put_file(&segment_name(listed.active_seq + 1), frame);
        let err = open_collect(dir).map(|_| ()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn sealed_corruption_is_typed() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let wal = SegmentedWal::create_dir(dir.clone(), tiny_opts()).unwrap();
        for i in 1..=3u64 {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        drop(wal);
        // Flip a byte in the middle of the FIRST sealed segment.
        let name = segment_name(0);
        let mut bytes = mem.file(&name).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        mem.put_file(&name, bytes);
        let err = open_collect(dir).map(|_| ()).unwrap_err();
        match err {
            StorageError::Corrupt { detail, .. } => {
                assert!(detail.contains(&name), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_checkpoint_boot_decodes_the_covered_frames_it_reads() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        // No rotation: the checkpoint at 1 covers commit 1, but the
        // active segment holding it is read for commit 2.
        let wal = SegmentedWal::create_dir(dir.clone(), WalOptions::default()).unwrap();
        for i in 1..=2u64 {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        let ck = Checkpoint {
            ts: 1,
            next_txn_id: 2,
            tables: Vec::new(),
            namespaces: Vec::new(),
        };
        wal.write_checkpoint(&ck).unwrap();
        drop(wal);
        // Commit 1's frame, re-checksummed around a change count its
        // payload cannot hold: every CRC passes, the decode fails.
        let name = segment_name(0);
        let mut bytes = mem.file(&name).unwrap();
        let len = crate::wal::encode_frame(&WalRecord::Commit(entry(1, 1))).len();
        let frame = &mut bytes[..len];
        frame[12 + 25..12 + 29].copy_from_slice(&5u32.to_le_bytes());
        let payload_crc = crc32(&frame[12..]);
        frame[4..8].copy_from_slice(&payload_crc.to_le_bytes());
        let header_crc = crc32(&frame[..8]);
        frame[8..12].copy_from_slice(&header_crc.to_le_bytes());
        mem.put_file(&name, bytes);
        let err = open_collect(dir).map(|_| ()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn stale_temp_and_unlisted_files_are_reconciled() {
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let wal = SegmentedWal::create_dir(dir.clone(), tiny_opts()).unwrap();
        for i in 1..=2u64 {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        drop(wal);
        mem.put_file("MANIFEST.tmp", b"half-written".to_vec());
        mem.put_file("cold-000000-000000.seg.tmp", b"partial copy".to_vec());
        mem.put_file("cold-000090-000091.seg", b"unpublished".to_vec());
        let (RecoveredLog { report: rec, .. }, records) = open_collect(dir).unwrap();
        assert_eq!(commit_ts_of(&records), vec![1, 2]);
        assert!(rec.removed_files >= 3, "{rec:?}");
        assert!(mem.file("MANIFEST.tmp").is_none());
        assert!(mem.file("cold-000090-000091.seg").is_none());
    }

    /// A directory whose file `active` a write is still landing in: a
    /// reader sees the file and then `landing.0`, hits end-of-file, and
    /// only then sees `landing.1` — as a read racing an append can.
    struct LandingDir {
        mem: MemDir,
        active: String,
        landing: Mutex<(Vec<u8>, Vec<u8>)>,
    }

    /// Reads its parts in order, with an end-of-file after each.
    struct Parts(Vec<std::io::Cursor<Vec<u8>>>);

    impl std::io::Read for Parts {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(part) = self.0.first_mut() else {
                return Ok(0);
            };
            let n = part.read(buf)?;
            if n == 0 {
                self.0.remove(0);
            }
            Ok(n)
        }
    }

    impl LogDir for LandingDir {
        fn list(&self) -> Result<Vec<String>, StorageError> {
            self.mem.list()
        }
        fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
            let (mut seen, mut late) = (self.mem.read(name)?, Vec::new());
            if name == self.active {
                let landing = self.landing.lock();
                seen.extend_from_slice(&landing.0);
                late = landing.1.clone();
            }
            let parts = [seen, late].map(std::io::Cursor::new);
            Ok(Box::new(std::io::BufReader::new(Parts(parts.into()))))
        }
        fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
            self.mem.create(name)
        }
        fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
            self.mem.open_append(name)
        }
        fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
            self.mem.rename(from, to)
        }
        fn delete(&self, name: &str) -> Result<(), StorageError> {
            self.mem.delete(name)
        }
        fn sync_dir(&self) -> Result<(), StorageError> {
            self.mem.sync_dir()
        }
    }

    #[test]
    fn history_reads_the_active_segment_only_to_its_watermark() {
        let dir = Arc::new(LandingDir {
            mem: MemDir::new(),
            active: segment_name(0),
            landing: Mutex::default(),
        });
        // No rotation (default bound): every commit stays in the active
        // segment.
        let wal = SegmentedWal::create_dir(dir.clone(), WalOptions::default()).unwrap();
        for i in 1..=2u64 {
            let lsn = wal.append_entry(&entry(i, i)).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        // The write of commits 3 and 4 is landing: half of 3 is visible,
        // then end-of-file, then the rest of 3 and all of 4. Read to the
        // end, that is a damaged frame followed by a clean chain:
        // corruption under the torn-tail rule.
        let frame = |i| crate::wal::encode_frame(&WalRecord::Commit(entry(i, i)));
        let (three, four) = (frame(3), frame(4));
        let half = three.len() / 2;
        *dir.landing.lock() = (three[..half].to_vec(), [&three[half..], &four].concat());
        let got = wal.history(0, 2).unwrap();
        assert_eq!(got.iter().map(|e| e.commit_ts).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn failpoint_dir_freezes_at_budget() {
        let mem = MemDir::new();
        let points = DirFailpointHandle::new();
        let dir: Arc<dyn LogDir> =
            Arc::new(FailpointDir::new(Arc::new(mem.clone()), points.clone()));
        // Counting mode: learn the cost of creating a log + one commit.
        let wal = SegmentedWal::create_dir(dir.clone(), WalOptions::default()).unwrap();
        let lsn = wal.append_entry(&entry(1, 1)).unwrap();
        wal.sync_to(lsn).unwrap();
        let total = points.cost();
        assert!(total > 0);
        drop(wal);

        // Crash at cost 0: the very first mutation fails, nothing lands.
        let mem2 = MemDir::new();
        let points2 = DirFailpointHandle::new();
        points2.crash_after(0);
        let dir2: Arc<dyn LogDir> =
            Arc::new(FailpointDir::new(Arc::new(mem2.clone()), points2.clone()));
        assert!(SegmentedWal::create_dir(dir2, WalOptions::default()).is_err());
        assert!(points2.crashed());
        assert!(mem2.names().is_empty());
    }
}
