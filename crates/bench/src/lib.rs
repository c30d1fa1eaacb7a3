//! Benchmark support crate; see benches/ and src/bin/report.rs.
//!
//! The benches' `on_disk` arms commit through the real durable log
//! ([`durable_db`]) over [`FsyncDir`]: an in-memory directory whose file
//! fsync blocks for a fixed [`FSYNC`] off-CPU, so the measured cost of
//! durability is the group-commit protocol the server runs, independent
//! of the machine's disk.

use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use trod_db::{Database, LogDir, LogFile, MemDir, StorageError, SyncMode, WalOptions};

/// What one file fsync of an [`FsyncDir`] costs.
pub const FSYNC: Duration = Duration::from_micros(500);

/// A [`MemDir`] whose files sleep [`FSYNC`] in every `sync`. Directory
/// fsyncs (rotation, manifest swaps) stay free.
#[derive(Clone, Default)]
pub struct FsyncDir {
    inner: MemDir,
}

struct FsyncFile(Box<dyn LogFile>);

impl LogFile for FsyncFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        std::thread::sleep(FSYNC);
        self.0.sync()
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.truncate_to(len)
    }
}

impl LogDir for FsyncDir {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
        self.inner.open_read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(Box::new(FsyncFile(self.inner.create(name)?)))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(Box::new(FsyncFile(self.inner.open_append(name)?)))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.inner.rename(from, to)
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.inner.delete(name)
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        self.inner.sync_dir()
    }
}

/// An empty database whose commits append to a fresh [`FsyncDir`] log
/// and acknowledge after its group fsync ([`SyncMode::Sync`]).
pub fn durable_db() -> Database {
    let dir = Arc::new(FsyncDir::default());
    Database::create_durable_in(dir, WalOptions::with_sync_mode(SyncMode::Sync))
        .expect("an in-memory log directory cannot fail")
}
