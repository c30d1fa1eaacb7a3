//! The storage seam: a flat directory of append-only log files.
//!
//! Everything the durable log persists — segments, the MANIFEST,
//! checkpoints — goes through [`LogDir`] and the [`LogFile`]
//! handles it gives out. [`FsDir`] is the real filesystem, [`MemDir`] an
//! in-memory disk image tests can snapshot and damage, and
//! [`FailpointDir`] the one fault injector (cost-unit crashes plus
//! transient append/fsync/short-write failures). Design notes: "The
//! durable log" in `crates/db/DESIGN.md`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::StorageError;

/// Read buffer of one [`LogDir::open_read`] stream over a real file.
const READ_BUFFER_BYTES: usize = 64 << 10;

pub(crate) fn io_err(op: &'static str, e: std::io::Error) -> StorageError {
    StorageError::Io {
        op,
        detail: e.to_string(),
    }
}

/// An open, append-only log file. `write_all` appends at the end;
/// `truncate_to` discards a partial write (repair after a failed group
/// write) and positions the handle at the new end.
pub trait LogFile: Send {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
    /// Durably persist everything written so far (fsync).
    fn sync(&mut self) -> Result<(), StorageError>;
    /// Truncate back to `len` bytes and position there.
    fn truncate_to(&mut self, len: u64) -> Result<(), StorageError>;
}

/// A flat directory of log files.
///
/// Contract: `rename` atomically replaces an existing destination;
/// `delete` of a missing file is a no-op; `sync_dir` makes preceding
/// creates/renames/deletes durable.
pub trait LogDir: Send + Sync {
    /// File names currently present (no ordering guarantee).
    fn list(&self) -> Result<Vec<String>, StorageError>;
    /// Opens a file for one sequential read from its start, through a
    /// bounded buffer: the recovery walk streams segments frame by frame
    /// instead of holding them.
    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError>;
    /// Reads a whole file.
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        let mut data = Vec::new();
        self.open_read(name)?
            .read_to_end(&mut data)
            .map_err(|e| io_err("read", e))?;
        Ok(data)
    }
    /// Creates (truncating) a file and returns an append handle for it.
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError>;
    /// Opens an existing file for appending at its end.
    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError>;
    /// Atomically renames `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError>;
    /// Deletes a file; missing files are not an error.
    fn delete(&self, name: &str) -> Result<(), StorageError>;
    /// Makes preceding directory mutations durable (fsync the dir).
    fn sync_dir(&self) -> Result<(), StorageError>;
}

// ---------------------------------------------------------------------
// The real filesystem
// ---------------------------------------------------------------------

/// A real file.
pub(crate) struct FsFile(File);

impl FsFile {
    /// Creates (truncating) the file at `path`.
    pub(crate) fn create(path: &Path) -> Result<FsFile, StorageError> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map(FsFile)
            .map_err(|e| io_err("create", e))
    }
}

impl LogFile for FsFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.0.write_all(bytes).map_err(|e| io_err("append", e))
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.0.sync_data().map_err(|e| io_err("sync", e))
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), StorageError> {
        self.0
            .set_len(len)
            .and_then(|()| self.0.seek(SeekFrom::Start(len)).map(|_| ()))
            .map_err(|e| io_err("truncate", e))
    }
}

/// A real filesystem directory.
pub struct FsDir {
    root: PathBuf,
}

impl FsDir {
    /// Opens (creating if absent) a directory. A regular file at `root`
    /// is refused and left untouched — a log lives in a directory.
    pub fn open(root: impl AsRef<Path>) -> Result<FsDir, StorageError> {
        let root = root.as_ref();
        if root.is_file() {
            return Err(StorageError::Io {
                op: "open",
                detail: format!(
                    "`{}` is a regular file, not a log directory",
                    root.display()
                ),
            });
        }
        std::fs::create_dir_all(root).map_err(|e| io_err("mkdir", e))?;
        Ok(FsDir {
            root: root.to_path_buf(),
        })
    }
}

impl LogDir for FsDir {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(|e| io_err("list", e))? {
            let entry = entry.map_err(|e| io_err("list", e))?;
            if entry.file_type().map_err(|e| io_err("list", e))?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    out.push(name);
                }
            }
        }
        Ok(out)
    }

    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
        let file = File::open(self.root.join(name)).map_err(|e| io_err("read", e))?;
        Ok(Box::new(BufReader::with_capacity(READ_BUFFER_BYTES, file)))
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(Box::new(FsFile::create(&self.root.join(name))?))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.root.join(name))
            .map_err(|e| io_err("open", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("open", e))?;
        Ok(Box::new(FsFile(file)))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        std::fs::rename(self.root.join(from), self.root.join(to)).map_err(|e| io_err("rename", e))
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.root.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("delete", e)),
        }
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        #[cfg(unix)]
        {
            File::open(&self.root)
                .and_then(|d| d.sync_all())
                .map_err(|e| io_err("sync_dir", e))
        }
        #[cfg(not(unix))]
        {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// The in-memory disk image
// ---------------------------------------------------------------------

/// An in-memory directory: files are byte vectors behind one shared map.
/// Cloning shares the map (it is "the same disk"); [`MemDir::snapshot`]
/// deep-copies it, so a fault-injection run can freeze the disk state at
/// the crash point and recover from the frozen copy.
#[derive(Clone, Default)]
pub struct MemDir {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemDir {
    pub fn new() -> MemDir {
        MemDir::default()
    }

    /// Deep copy of the current file set (an independent "disk image").
    pub fn snapshot(&self) -> MemDir {
        MemDir {
            files: Arc::new(Mutex::new(self.files.lock().clone())),
        }
    }

    /// The bytes of one file, if present.
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        self.files.lock().get(name).cloned()
    }

    /// Overwrites (or creates) a file — tests use this to inject
    /// corruption and to cut crash prefixes.
    pub fn put_file(&self, name: &str, bytes: Vec<u8>) {
        self.files.lock().insert(name.to_string(), bytes);
    }

    /// Every file name currently present.
    pub fn names(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn missing(op: &'static str, name: &str) -> StorageError {
        StorageError::Io {
            op,
            detail: format!("no such file `{name}`"),
        }
    }
}

struct MemFile {
    dir: MemDir,
    name: String,
}

impl LogFile for MemFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.dir
            .files
            .lock()
            .entry(self.name.clone())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), StorageError> {
        if let Some(data) = self.dir.files.lock().get_mut(&self.name) {
            data.truncate(len as usize);
        }
        Ok(())
    }
}

impl LogDir for MemDir {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.names())
    }

    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
        let data = self
            .file(name)
            .ok_or_else(|| MemDir::missing("read", name))?;
        Ok(Box::new(std::io::Cursor::new(data)))
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        self.put_file(name, Vec::new());
        self.open_append(name)
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        if !self.files.lock().contains_key(name) {
            return Err(MemDir::missing("open", name));
        }
        Ok(Box::new(MemFile {
            dir: self.clone(),
            name: name.to_string(),
        }))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        let mut files = self.files.lock();
        let data = files
            .remove(from)
            .ok_or_else(|| MemDir::missing("rename", from))?;
        files.insert(to.to_string(), data);
        Ok(())
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.files.lock().remove(name);
        Ok(())
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct DirFailState {
    /// Remaining cost units before the injected crash; `None` = counting
    /// mode (never crashes, just accumulates `cost`).
    budget: Option<u64>,
    /// Total cost units charged so far (bytes written + metadata ops).
    cost: u64,
    crashed: bool,
    /// Transient faults: file writes / fsyncs still to fail, and a
    /// pending short write.
    fail_appends: usize,
    fail_syncs: usize,
    short_write_at: Option<u64>,
}

impl DirFailState {
    /// Charges `n` units; returns how many of them may take effect, plus
    /// the crash error when the crash fired at or before this charge (the
    /// caller persists the affordable prefix, then errors).
    fn charge(&mut self, n: u64) -> (u64, Option<StorageError>) {
        self.cost += n;
        let Some(budget) = self.budget.as_mut() else {
            return (n, None);
        };
        if *budget >= n && !self.crashed {
            *budget -= n;
            return (n, None);
        }
        let allowed = if self.crashed { 0 } else { *budget };
        *budget = 0;
        self.crashed = true;
        (
            allowed,
            Some(injected("failpoint", "injected crash: directory is frozen")),
        )
    }
}

fn injected(op: &'static str, detail: &str) -> StorageError {
    StorageError::Io {
        op,
        detail: detail.to_string(),
    }
}

/// Control handle for a [`FailpointDir`]; settable while the log is
/// live, so tests inject faults at exact moments.
///
/// **Crashes.** Every mutation is metered in *cost units*: each byte
/// written through a file handle costs 1, and each metadata operation —
/// create, rename, delete, directory fsync, file fsync, file truncate —
/// costs 1. Run a workload once in counting mode to learn its total cost
/// `C`, then replay it with [`DirFailpointHandle::crash_after`]`(k)` for
/// every `k < C`: the mutation that exhausts the budget persists only its
/// affordable prefix and errors, and **every** later mutation errors —
/// the directory is frozen exactly as a crash at that point would leave
/// it. Reads are free and keep working (the harness recovers from a
/// snapshot anyway).
///
/// **Transient faults.** [`Self::fail_appends`], [`Self::fail_syncs`] and
/// [`Self::short_write_at`] fail individual file operations without
/// freezing anything: the disk "recovers" once they are used up (or
/// [`Self::clear`]ed), which is how the suite proves a failed group
/// commit never poisons later ones.
#[derive(Clone, Default)]
pub struct DirFailpointHandle {
    inner: Arc<Mutex<DirFailState>>,
}

impl DirFailpointHandle {
    pub fn new() -> Self {
        DirFailpointHandle::default()
    }

    /// Crash after `units` further cost units take effect.
    pub fn crash_after(&self, units: u64) {
        let mut s = self.inner.lock();
        s.budget = Some(units);
        s.crashed = units == 0;
    }

    /// Fail the next `n` file writes; nothing of them is persisted.
    pub fn fail_appends(&self, n: usize) {
        self.inner.lock().fail_appends = n;
    }

    /// Fail the next `n` file fsyncs.
    pub fn fail_syncs(&self, n: usize) {
        self.inner.lock().fail_syncs = n;
    }

    /// The next file write longer than `k` bytes persists only its first
    /// `k` bytes and fails (a short write / full disk). One-shot.
    pub fn short_write_at(&self, k: u64) {
        self.inner.lock().short_write_at = Some(k);
    }

    /// Back to counting mode: no crash budget, no pending transient
    /// faults; [`Self::cost`] keeps accumulating.
    pub fn clear(&self) {
        let mut s = self.inner.lock();
        *s = DirFailState {
            cost: s.cost,
            ..Default::default()
        };
    }

    /// Total cost units charged so far.
    pub fn cost(&self) -> u64 {
        self.inner.lock().cost
    }

    /// True once the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// One metadata operation.
    fn charge_op(&self) -> Result<(), StorageError> {
        self.inner.lock().charge(1).1.map_or(Ok(()), Err)
    }
}

/// A [`LogDir`] wrapper that injects faults per its
/// [`DirFailpointHandle`] — the only fault injector: the crash sweeps
/// over rotation, manifest swap and checkpoints and the
/// transient-failure tests of the group-commit path all run through it.
pub struct FailpointDir {
    inner: Arc<dyn LogDir>,
    points: DirFailpointHandle,
}

impl FailpointDir {
    pub fn new(inner: Arc<dyn LogDir>, points: DirFailpointHandle) -> Self {
        FailpointDir { inner, points }
    }

    fn wrap(&self, inner: Box<dyn LogFile>) -> Box<dyn LogFile> {
        Box::new(FailpointFile {
            inner,
            points: self.points.clone(),
        })
    }
}

struct FailpointFile {
    inner: Box<dyn LogFile>,
    points: DirFailpointHandle,
}

impl LogFile for FailpointFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        let (allowed, err) = {
            let mut s = self.points.inner.lock();
            if s.fail_appends > 0 {
                s.fail_appends -= 1;
                (0, Some(injected("append", "injected append failure")))
            } else if let Some(k) = s.short_write_at.take_if(|k| *k < len) {
                let (allowed, crash) = s.charge(k);
                let short = injected("append", "injected short write");
                (allowed, Some(crash.unwrap_or(short)))
            } else {
                s.charge(len)
            }
        };
        if allowed > 0 {
            self.inner.write_all(&bytes[..allowed as usize])?;
        }
        err.map_or(Ok(()), Err)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        {
            let mut s = self.points.inner.lock();
            if s.fail_syncs > 0 {
                s.fail_syncs -= 1;
                return Err(injected("sync", "injected sync failure"));
            }
        }
        self.points.charge_op()?;
        self.inner.sync()
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), StorageError> {
        self.points.charge_op()?;
        self.inner.truncate_to(len)
    }
}

impl LogDir for FailpointDir {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
        self.inner.open_read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        self.points.charge_op()?;
        Ok(self.wrap(self.inner.create(name)?))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(self.wrap(self.inner.open_append(name)?))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.points.charge_op()?;
        self.inner.rename(from, to)
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.points.charge_op()?;
        self.inner.delete(name)
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        self.points.charge_op()?;
        self.inner.sync_dir()
    }
}
