//! The write-ahead log of one file: the frame codec and group commit.
//!
//! Invariants this module owns (design and fault model: "The durable
//! log" in `crates/db/DESIGN.md`):
//!
//! * **Frame format** — `[payload_len: u32 LE][payload_crc32: u32 LE]
//!   [header_crc32: u32 LE][payload]`. `header_crc32` covers the first 8
//!   header bytes, so a torn header is distinguishable from a valid
//!   header whose payload is missing. The payload starts with a record
//!   tag ([`WalRecord`]); integers are little-endian, strings
//!   length-prefixed UTF-8, the CRC the IEEE polynomial ([`crc32`]:
//!   a carry-less-multiply kernel on x86_64 CPUs with `pclmulqdq` and
//!   `sse4.1`, detected at run time, for inputs of 64 bytes or more;
//!   slice-by-8 tables otherwise — the same function, so the bytes on
//!   disk never depend on which ran). A payload is at most
//!   `MAX_RECORD_LEN` (256 MiB): appends refuse a longer one with
//!   [`StorageError::TooLarge`], readers treat a header claiming one as
//!   damage.
//! * **Byte order == commit order** — [`Wal::append_record`] only
//!   memcpys the frame into an in-process buffer under a mutex; it is
//!   called inside the commit protocol's ordered publication window.
//! * **Group commit** — [`Wal::sync_to`] runs after the committer
//!   dropped its locks: the first waiter whose bytes are not yet durable
//!   becomes the leader and performs one write + one fsync for every
//!   commit buffered meanwhile. A failed group fails only the commits it
//!   covered; their bytes stay queued at the front of the buffer and the
//!   next leader repairs the file (truncate to the last confirmed
//!   offset) and retries them — the commit path is never poisoned.
//! * **Torn-tail rule** — `stream_records` (and its slice form
//!   [`decode_records`]) reads a log one frame at a time and stops at the
//!   first damaged frame. Damage that extends to the end of the stream
//!   (an unacknowledged commit died mid-write) is reported as a torn tail
//!   for the caller to truncate; damage with valid records after it is
//!   [`StorageError::Corrupt`] — never a panic, never a silently wrong
//!   state. A whole frame whose checksums hold but whose payload does not
//!   decode was written so, not torn: it is corrupt wherever it lies (a
//!   log of an older layout is refused, not cut short).
//! * **Redo only** — a commit record holds each write's table, key and
//!   after image, never a before image: every reader replays the log
//!   forward from a checkpoint or from empty, so it holds the row a write
//!   displaces when it installs the write, and derives the record from it
//!   (`Database::apply_entries`).

use std::collections::HashSet;
use std::io::BufRead;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::dir::{io_err, FsFile, LogFile};
use crate::error::{DbResult, StorageError};
use crate::log::{CommittedTxn, LoggedTxn, LoggedWrite};
use crate::mvcc::Ts;
use crate::row::{Key, Row};
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// How far [`Wal::sync_to`] pushes a group before acknowledging it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Write + fsync: acknowledged commits survive power loss.
    #[default]
    Sync,
    /// Write to the OS, no fsync: acknowledged commits survive a process
    /// crash but not power loss.
    Flush,
    /// Buffer in process; bytes reach the OS only when the buffer fills
    /// or [`Wal::flush`] is called. Fastest, weakest: a crash loses the
    /// buffered tail.
    Cached,
}

/// Configuration for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    pub sync_mode: SyncMode,
    /// Size bound at which a [`crate::segment::SegmentedWal`] rolls its
    /// active segment (checked after each group sync, so a segment can
    /// overshoot by one group). `0` disables rotation — the log stays a
    /// single ever-growing segment.
    pub segment_bytes: u64,
    /// Bytes of new WAL appends after which the database takes the next
    /// environment checkpoint (on the post-ack path, outside the
    /// publication window). `0` disables automatic checkpoints; explicit
    /// [`crate::Database::checkpoint`] calls still work.
    pub checkpoint_bytes: u64,
}

/// Default [`WalOptions::segment_bytes`]: 64 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// Default [`WalOptions::checkpoint_bytes`]: 64 MiB of appended WAL
/// bytes between automatic environment checkpoints.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 64 << 20;

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync_mode: SyncMode::Sync,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
        }
    }
}

impl WalOptions {
    pub fn with_sync_mode(mode: SyncMode) -> Self {
        WalOptions {
            sync_mode: mode,
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE): carry-less-multiply folding where the CPU has it, the
// slice-by-8 tables everywhere else. Both compute the same function, so
// the kernel a process picks never shows in the bytes on disk.
// ---------------------------------------------------------------------

/// The reflected IEEE polynomial, without its `x^32` term.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table of the
/// reflected IEEE polynomial; `CRC_TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight table lookups fold eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) of `bytes`. On x86_64 with
/// `pclmulqdq` and `sse4.1` (detected at run time), inputs of
/// `clmul::MIN_LEN` bytes or more fold through the carry-less-multiply
/// kernel; everything else runs the slice-by-8 tables.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(bytes) {
        return crc;
    }
    !slice8(!0, bytes)
}

/// Advances the CRC register `c` (pre-inverted, not yet finalized) over
/// `bytes`, eight bytes per step: the portable path, and the oracle the
/// kernel is tested against.
fn slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let [b0, b1, b2, b3] = lo.to_le_bytes();
        c = t[7][b0 as usize] ^ t[6][b1 as usize] ^ t[5][b2 as usize] ^ t[4][b3 as usize];
        c ^= t[3][w[4] as usize] ^ t[2][w[5] as usize] ^ t[1][w[6] as usize] ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply CRC kernel: Intel's "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" for the reflected
/// IEEE polynomial (the construction crc32fast and zlib use). Four
/// 128-bit lanes fold 64 bytes per step, the lanes and any further
/// 16-byte blocks fold into one, that lane reduces to 64 bits, and a
/// Barrett reduction takes it to the 32-bit register; the tail of fewer
/// than 16 bytes runs the tables. This file's one `unsafe` block is here.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: its four lanes' first load.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^n mod P(x)`, bit-reflected and shifted left one bit. A lane
    /// moves `d` bits along as its low half times `key(d + 32)` plus its
    /// high half times `key(d - 32)`.
    const fn key(n: u32) -> i64 {
        let mut r = 0x8000_0000u32; // x^0, bit-reflected
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 {
                super::CRC_POLY ^ (r >> 1)
            } else {
                r >> 1
            };
            i += 1;
        }
        (r as i64) << 1
    }

    /// Moving a lane past the other three (512 bits).
    const K1: i64 = key(4 * 128 + 32);
    const K2: i64 = key(4 * 128 - 32);
    /// Moving a lane onto the next one (128 bits).
    const K3: i64 = key(128 + 32);
    const K4: i64 = key(128 - 32);
    /// Reducing 96 bits to 64.
    const K5: i64 = key(64);
    /// The Barrett pair: `P(x)` and `floor(x^64 / P(x))`, bit-reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// [`super::crc32`] through the kernel, or `None` for an input
    /// shorter than [`MIN_LEN`] or a CPU without the kernel's features.
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        if bytes.len() < MIN_LEN || !detected {
            return None;
        }
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `fold` enables `pclmulqdq` and `sse4.1`, and both were
        // detected on this CPU just above.
        let c = unsafe { fold(!0, blocks) };
        Some(!super::slice8(c, tail))
    }

    /// Advances the CRC register `crc` over `blocks`, of which there are
    /// at least four.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (quads, rest) = blocks.as_chunks::<4>();
        let (first, quads) = quads.split_first().expect("the caller passes four blocks");
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(lanes[0], lanes[1], k3k4);
        x = fold_into(x, lanes[2], k3k4);
        x = fold_into(x, lanes[3], k3k4);
        for block in rest {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 bits to 64: the low half times x^96, then the low 32 bits
        // of that times x^64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32) * mu, T2 = (T1 mod x^32) * P, and the
        // register is the upper half of R ^ T2 (reflected, so "upper").
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }

    /// `a` carried 128 (or 512) bits along by `keys`, added to `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// One block as a lane, little-endian: two safe 8-byte loads rather
    /// than an `unsafe` `_mm_loadu_si128`, which `wal_commit/crc32` did
    /// not measure as faster.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let half = |h: &[u8]| i64::from_le_bytes(h.try_into().expect("8 bytes"));
        _mm_set_epi64x(half(hi), half(lo))
    }
}

// ---------------------------------------------------------------------
// Records and their binary codec
// ---------------------------------------------------------------------

/// One durable log record: a committed transaction in its redo form
/// (keys and after images, `kv:<namespace>` rows included; replay derives
/// the before images) or a DDL statement, so recovery can rebuild the
/// catalog before replaying the commits that use it.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One committed transaction: an aligned history entry without its
    /// before images.
    Commit(LoggedTxn),
    /// A table was created with this schema.
    CreateTable { name: String, schema: Schema },
    /// A secondary index was created.
    CreateIndex { table: String, column: String },
    /// A key-value namespace was created.
    CreateNamespace { name: String },
}

/// A commit in the redo layout. Tag 1 was a commit that also carried
/// before images; a log holding one is refused as corrupt.
const TAG_COMMIT: u8 = 5;
const TAG_CREATE_TABLE: u8 = 2;
const TAG_CREATE_INDEX: u8 = 3;
const TAG_CREATE_NAMESPACE: u8 = 4;
/// The byte closing a `CreateIndex` record. It once chose between a hash
/// (0) and an ordered (1) index; there is one index kind now, so it is
/// written as 1 and ignored on read.
const CREATE_INDEX_FLAG: u8 = 1;

/// Frame header size: payload length + payload CRC + header CRC.
pub const FRAME_HEADER_LEN: usize = 12;
/// Upper bound on a single record's payload; a valid header advertising
/// more is treated as damage, not as an allocation request.
const MAX_RECORD_LEN: u32 = 1 << 28;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(5);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Value::Timestamp(t) => {
            out.push(6);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

pub(crate) fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_value(out, v);
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bytes => 4,
        DataType::Timestamp => 5,
    }
}

/// A schema: each column's name, type tag and nullable flag, then the
/// primary key as column names, so it round-trips through
/// [`Schema::new`] ([`Cursor::schema`]). A `CreateTable` record and a
/// checkpoint table both write it.
pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.columns().len() as u32);
    for col in schema.columns() {
        put_str(out, &col.name);
        out.push(dtype_tag(col.dtype));
        out.push(col.nullable as u8);
    }
    put_u32(out, schema.primary_key().len() as u32);
    for &idx in schema.primary_key() {
        put_str(out, &schema.columns()[idx].name);
    }
}

/// A commit: txn id, start and commit ts, then each write's table, key,
/// a flag byte (1 when an after image follows, 0 for a delete) and the
/// after image.
fn put_commit<'a>(
    out: &mut Vec<u8>,
    ids: [u64; 3],
    writes: impl ExactSizeIterator<Item = (&'a str, &'a Key, Option<&'a Row>)>,
) {
    out.push(TAG_COMMIT);
    ids.into_iter().for_each(|id| put_u64(out, id));
    put_u32(out, writes.len() as u32);
    for (table, key, after) in writes {
        put_str(out, table);
        put_values(out, key.values());
        out.push(after.is_some() as u8);
        if let Some(after) = after {
            put_values(out, after.values());
        }
    }
}

fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        WalRecord::Commit(e) => {
            let writes = e.writes.iter();
            let writes = writes.map(|w| (&*w.table, &w.key, w.after.as_deref()));
            put_commit(&mut out, [e.txn_id, e.start_ts, e.commit_ts], writes);
        }
        WalRecord::CreateTable { name, schema } => {
            out.push(TAG_CREATE_TABLE);
            put_str(&mut out, name);
            put_schema(&mut out, schema);
        }
        WalRecord::CreateIndex { table, column } => {
            out.push(TAG_CREATE_INDEX);
            put_str(&mut out, table);
            put_str(&mut out, column);
            out.push(CREATE_INDEX_FLAG);
        }
        WalRecord::CreateNamespace { name } => {
            out.push(TAG_CREATE_NAMESPACE);
            put_str(&mut out, name);
        }
    }
    out
}

/// Encodes one record as a complete frame (header + payload) — the exact
/// bytes [`Wal::append_record`] appends. Exposed so tests can compute
/// record boundaries of a captured byte stream.
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    frame_of(&encode_payload(record))
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(payload));
    let hdr_crc = crc32(&frame[0..8]);
    put_u32(&mut frame, hdr_crc);
    frame.extend_from_slice(payload);
    frame
}

/// Bytes before a sealed file's payload: its magic, then a frame header.
const SEALED_HEADER_LEN: usize = 8 + FRAME_HEADER_LEN;

/// Encodes a sealed file (a checkpoint, the MANIFEST): `magic`, a frame
/// header, then the payload — `version`, followed by what `body` writes.
/// The whole file is one frame, valid in its entirety or not at all.
/// The header is filled in over the payload's buffer, so a multi-MB
/// payload is never copied.
pub(crate) fn seal(magic: &[u8; 8], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(magic);
    out.resize(SEALED_HEADER_LEN, 0);
    put_u32(&mut out, version);
    body(&mut out);
    let len = (out.len() - SEALED_HEADER_LEN) as u32;
    let crc = crc32(&out[SEALED_HEADER_LEN..]);
    out[8..12].copy_from_slice(&len.to_le_bytes());
    out[12..16].copy_from_slice(&crc.to_le_bytes());
    let hdr_crc = crc32(&out[8..16]);
    out[16..20].copy_from_slice(&hdr_crc.to_le_bytes());
    out
}

/// Checks a sealed file named `what` ([`seal`]) and decodes its payload:
/// the version must be `version`, and `body` must consume the rest. Every
/// failure is a typed [`StorageError::Corrupt`] whose detail starts with
/// `what`, at the payload's offset once the frame itself is whole.
pub(crate) fn unseal<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
    what: &str,
    body: impl FnOnce(&mut Cursor) -> Result<T, String>,
) -> Result<T, StorageError> {
    let corrupt = |offset: usize, detail: String| StorageError::Corrupt {
        offset: offset as u64,
        detail: format!("{what}: {detail}"),
    };
    let noun = what.to_lowercase();
    if bytes.len() < SEALED_HEADER_LEN {
        return Err(corrupt(0, format!("truncated {noun}")));
    }
    if &bytes[..8] != magic {
        return Err(corrupt(0, "bad magic".into()));
    }
    let (hdr, payload) = bytes[8..].split_at(FRAME_HEADER_LEN);
    if !header_crc_ok(hdr) {
        return Err(corrupt(8, "header checksum mismatch".into()));
    }
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    if payload.len() != len {
        let detail = format!(
            "payload length mismatch: header says {len}, have {}",
            payload.len()
        );
        return Err(corrupt(SEALED_HEADER_LEN, detail));
    }
    if crc32(payload) != u32::from_le_bytes(hdr[4..8].try_into().unwrap()) {
        return Err(corrupt(
            SEALED_HEADER_LEN,
            "payload checksum mismatch".into(),
        ));
    }
    let mut c = Cursor::new(payload);
    let decoded = c.u32().and_then(|found| match found == version {
        true => body(&mut c),
        false => Err(format!("unsupported {noun} version {found}")),
    });
    decoded
        .and_then(|decoded| match c.remaining() {
            0 => Ok(decoded),
            n => Err(format!("{n} trailing bytes")),
        })
        .map_err(|detail| corrupt(SEALED_HEADER_LEN, detail))
}

// Bounds-checked reader: every decode failure is a `String` detail the
// caller wraps into a typed error — malformed bytes can never panic.
// Shared with the sealed-file codecs of `crate::segment` and
// `crate::checkpoint` ([`unseal`]).
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() - self.pos < n {
            return Err(format!(
                "record payload truncated: wanted {n} bytes at {}, have {}",
                self.pos,
                self.data.len() - self.pos
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str_ref(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        self.str_ref().map(str::to_string)
    }

    pub(crate) fn value(&mut self) -> Result<Value, String> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Text(self.str()?),
            5 => {
                let len = self.u32()? as usize;
                Value::Bytes(self.take(len)?.to_vec())
            }
            6 => Value::Timestamp(self.i64()?),
            t => return Err(format!("unknown value tag {t}")),
        })
    }

    /// Reads a `u32` element count; see `fits`.
    pub(crate) fn count(&mut self, min_len: usize, what: &str) -> Result<usize, String> {
        let n = self.u32()?;
        self.fits(n.into(), min_len, what)
    }

    /// Reads a `u64` element count; see `fits`.
    pub(crate) fn count_u64(&mut self, min_len: usize, what: &str) -> Result<usize, String> {
        let n = self.u64()?;
        self.fits(n, min_len, what)
    }

    /// Checks an element count against the bytes left: every element
    /// encodes in at least `min_len` bytes, so a count the rest of the
    /// input cannot hold is rejected before anything is reserved for it.
    /// A reservation for the count returned is at most the bytes left
    /// times the element's in-memory size over `min_len`.
    fn fits(&self, n: u64, min_len: usize, what: &str) -> Result<usize, String> {
        let fit = self.remaining() / min_len;
        match usize::try_from(n) {
            Ok(n) if n <= fit => Ok(n),
            _ => Err(format!(
                "{what} count {n} exceeds the {} bytes left",
                self.remaining()
            )),
        }
    }

    /// Reads a flag byte: 0 or 1, nothing else.
    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid flag byte {b}")),
        }
    }

    pub(crate) fn values(&mut self) -> Result<Vec<Value>, String> {
        let n = self.count(1, "value")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    /// A key, decoded straight into its one allocation: collecting a
    /// mapped range allocates its exact length once.
    fn key(&mut self) -> Result<Key, String> {
        let n = self.count(1, "value")?;
        let mut failed = None;
        let values: Arc<[Value]> = (0..n)
            .map(|_| {
                self.value()
                    .map_err(|e| failed = Some(e))
                    .unwrap_or(Value::Null)
            })
            .collect();
        failed.map_or(Ok(Key::new(values)), Err)
    }

    /// Decodes one logged write. Its table name is the one `names` holds,
    /// added on first sight: every write of a walk naming a table shares
    /// one allocation of its name.
    fn write(&mut self, names: &mut Names) -> Result<LoggedWrite, String> {
        let name = self.str_ref()?;
        let table = names.get(name).cloned().unwrap_or_else(|| {
            let table: Arc<str> = Arc::from(name);
            names.insert(table.clone());
            table
        });
        let key = self.key()?;
        let after = match self.bool()? {
            true => Some(Arc::new(Row::from(self.values()?))),
            false => None,
        };
        Ok(LoggedWrite { table, key, after })
    }

    /// A schema written by [`put_schema`], `pk` naming its primary-key
    /// count in a detail. The outer error is the bytes', the inner one
    /// the schema's own ([`Schema::new`]), for the caller to word.
    pub(crate) fn schema(&mut self, pk: &str) -> Result<DbResult<Schema>, String> {
        let ncols = self.count(MIN_COLUMN_LEN, "column")?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = self.str()?;
            let dtype = self.dtype()?;
            let nullable = self.u8()? != 0;
            columns.push(if nullable {
                Column::nullable(name, dtype)
            } else {
                Column::new(name, dtype)
            });
        }
        let npk = self.count(MIN_STR_LEN, pk)?;
        let mut names = Vec::with_capacity(npk);
        for _ in 0..npk {
            names.push(self.str()?);
        }
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        Ok(Schema::new(columns, &names))
    }

    fn dtype(&mut self) -> Result<DataType, String> {
        Ok(match self.u8()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Text,
            4 => DataType::Bytes,
            5 => DataType::Timestamp,
            t => return Err(format!("unknown data-type tag {t}")),
        })
    }
}

/// Fewest bytes a string encodes in: its `u32` length.
pub(crate) const MIN_STR_LEN: usize = 4;
/// Fewest bytes a column encodes in: name, type tag, nullable flag.
const MIN_COLUMN_LEN: usize = MIN_STR_LEN + 2;
/// Fewest bytes a logged write encodes in: table name, key count, flag.
const MIN_WRITE_LEN: usize = MIN_STR_LEN + 4 + 1;

/// The table names a walk decoded (see `Cursor::write`).
pub(crate) type Names = HashSet<Arc<str>, crate::hash::CellHash>;

fn decode_payload(payload: &[u8], names: &mut Names) -> Result<WalRecord, String> {
    let mut c = Cursor::new(payload);
    let record = match c.u8()? {
        TAG_COMMIT => {
            let txn_id = c.u64()?;
            let start_ts = c.u64()?;
            let commit_ts = c.u64()?;
            let n = c.count(MIN_WRITE_LEN, "write")?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push(c.write(names)?);
            }
            WalRecord::Commit(LoggedTxn {
                txn_id,
                start_ts,
                commit_ts,
                writes,
            })
        }
        TAG_CREATE_TABLE => {
            let name = c.str()?;
            let schema = c
                .schema("primary-key")?
                .map_err(|e| format!("invalid schema: {e}"))?;
            WalRecord::CreateTable { name, schema }
        }
        TAG_CREATE_INDEX => {
            let record = WalRecord::CreateIndex {
                table: c.str()?,
                column: c.str()?,
            };
            c.u8()?;
            record
        }
        TAG_CREATE_NAMESPACE => WalRecord::CreateNamespace { name: c.str()? },
        t => return Err(format!("unknown record tag {t}")),
    };
    if c.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after record payload",
            payload.len() - c.pos
        ));
    }
    Ok(record)
}

// ---------------------------------------------------------------------
// Recovery: frame validation and the torn-tail rule
// ---------------------------------------------------------------------

/// What recovery found in a log file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Bytes of valid log consumed (the repaired file length).
    pub valid_len: u64,
    /// Bytes discarded as a torn tail (0 for a clean log).
    pub truncated_bytes: u64,
}

enum Frame {
    Record(WalRecord),
    /// Valid, but not wanted: left undecoded.
    Skipped,
    CleanEnd,
    /// Structurally incomplete or checksum-damaged; the caller decides
    /// torn-tail vs corruption.
    Damaged(String),
    /// Whole and checksum-valid, yet not a record of this layout: written
    /// so, never torn, hence corruption wherever it lies.
    Undecodable(String),
}

fn header_crc_ok(hdr: &[u8]) -> bool {
    u32::from_le_bytes(hdr[8..12].try_into().unwrap()) == crc32(&hdr[0..8])
}

/// Which frames a reader wants decoded, by the commit timestamp their
/// payload carries (`None` for DDL); see [`read_frame`].
pub(crate) type Wanted<'a> = &'a dyn Fn(Option<Ts>) -> bool;

/// Every frame.
pub(crate) const ALL: Wanted = &|_| true;

/// The frame parser: reads the next frame of `src` into `frame` (header
/// and payload bytes) and validates it — header CRC, length bound,
/// payload CRC, then a full decode of a frame `wanted` accepts; the
/// others are skipped undecoded, their commit timestamp read from its
/// fixed place in the payload. The payload buffer grows only with bytes
/// actually read, so a valid header claiming a huge length never
/// allocates more than the stream holds.
fn read_frame(
    src: &mut impl BufRead,
    frame: &mut Vec<u8>,
    wanted: Wanted,
    names: &mut Names,
) -> Result<Frame, StorageError> {
    // Copies from the reader's buffer until `frame` holds `end` bytes or
    // the stream ends; returns the length reached.
    let mut fill_to = |end: usize, frame: &mut Vec<u8>| {
        while frame.len() < end {
            let buf = src.fill_buf().map_err(|e| io_err("read", e))?;
            let take = buf.len().min(end - frame.len());
            if take == 0 {
                break;
            }
            frame.extend_from_slice(&buf[..take]);
            src.consume(take);
        }
        Ok::<_, StorageError>(frame.len())
    };
    frame.clear();
    let got = fill_to(FRAME_HEADER_LEN, frame)?;
    if got == 0 {
        return Ok(Frame::CleanEnd);
    }
    if got < FRAME_HEADER_LEN {
        return Ok(Frame::Damaged(format!("truncated header ({got} bytes)")));
    }
    if !header_crc_ok(frame) {
        return Ok(Frame::Damaged("header checksum mismatch".to_string()));
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Ok(Frame::Damaged(format!(
            "record length {len} exceeds maximum"
        )));
    }
    let got = fill_to(FRAME_HEADER_LEN + len as usize, frame)? - FRAME_HEADER_LEN;
    if got < len as usize {
        return Ok(Frame::Damaged(format!(
            "truncated payload ({got} of {len} bytes)"
        )));
    }
    let payload = &frame[FRAME_HEADER_LEN..];
    if crc32(payload) != u32::from_le_bytes(frame[4..8].try_into().unwrap()) {
        return Ok(Frame::Damaged("payload checksum mismatch".to_string()));
    }
    // A commit payload opens with its tag, txn id and start ts.
    let commit_ts = match payload.get(..25) {
        Some(p) if p[0] == TAG_COMMIT => Some(u64::from_le_bytes(p[17..].try_into().unwrap())),
        _ => None,
    };
    if !wanted(commit_ts) {
        return Ok(Frame::Skipped);
    }
    Ok(match decode_payload(payload, names) {
        Ok(record) => Frame::Record(record),
        Err(detail) => Frame::Undecodable(format!("undecodable record: {detail}")),
    })
}

/// True if a complete, valid chain of ≥1 records runs to the end of `data`.
fn chain_is_clean(mut data: &[u8]) -> bool {
    let (mut frame, mut names) = (Vec::new(), Names::default());
    let mut any = false;
    loop {
        match read_frame(&mut data, &mut frame, ALL, &mut names) {
            Ok(Frame::Record(_)) => any = true,
            Ok(Frame::CleanEnd) => return any,
            _ => return false,
        }
    }
}

/// Validates a log stream one frame at a time, handing each record
/// `wanted` accepts, decoded, to `on_record`, and
/// applies the torn-tail rule (module docs) at the first damaged frame.
/// Holds one frame at a time; only damage reads the rest of the stream,
/// for the resync scan. A [`StorageError::Corrupt`] names `file` in its
/// detail, unless empty.
pub(crate) fn stream_records<E: From<StorageError>>(
    mut src: impl BufRead,
    file: &str,
    wanted: Wanted,
    mut on_record: impl FnMut(WalRecord) -> Result<(), E>,
) -> Result<RecoveryInfo, E> {
    let (mut frame, mut names) = (Vec::new(), Names::default());
    let mut valid_len = 0u64;
    let corrupt = |offset, detail| StorageError::Corrupt {
        offset,
        detail: match file {
            "" => detail,
            file => format!("{file}: {detail}"),
        },
    };
    let damage = loop {
        match read_frame(&mut src, &mut frame, wanted, &mut names)? {
            Frame::Record(record) => {
                on_record(record)?;
                valid_len += frame.len() as u64;
            }
            Frame::Skipped => valid_len += frame.len() as u64,
            Frame::CleanEnd => break None,
            Frame::Damaged(detail) => break Some(detail),
            Frame::Undecodable(detail) => return Err(corrupt(valid_len, detail).into()),
        }
    };
    // `frame` now holds the damaged frame's bytes (none after a clean
    // end); the resync scan runs over them and everything after them. If
    // any later offset starts a valid chain of records running to the
    // end, the damage is mid-file corruption — truncating here would drop
    // acknowledged commits. A damaged region extending to the end is a
    // torn tail. The cheap header-CRC check gates the chain walk.
    src.read_to_end(&mut frame).map_err(|e| io_err("read", e))?;
    let resync_found = (1..frame.len().saturating_sub(FRAME_HEADER_LEN - 1))
        .any(|cand| header_crc_ok(&frame[cand..]) && chain_is_clean(&frame[cand..]));
    match damage {
        Some(detail) if resync_found => Err(corrupt(valid_len, detail).into()),
        _ => Ok(RecoveryInfo {
            valid_len,
            truncated_bytes: frame.len() as u64,
        }),
    }
}

/// `stream_records` over a byte slice, collecting the records.
pub fn decode_records(data: &[u8]) -> Result<(Vec<WalRecord>, RecoveryInfo), StorageError> {
    let mut records = Vec::new();
    let info = stream_records(data, "", ALL, |record| {
        records.push(record);
        Ok::<_, StorageError>(())
    })?;
    Ok((records, info))
}

// ---------------------------------------------------------------------
// The WAL itself: buffered appends, leader-based group sync
// ---------------------------------------------------------------------

/// Flush threshold for [`SyncMode::Cached`]: appends push buffered bytes
/// to the file (without fsync) once the buffer crosses this.
const CACHED_FLUSH_BYTES: usize = 64 * 1024;

struct WalState {
    /// `None` while a leader holds the file for a group write.
    file: Option<Box<dyn LogFile>>,
    /// Framed bytes accepted but not yet confirmed at the file:
    /// exactly the byte range `[durable, appended)` (minus any batch a
    /// leader currently holds).
    buf: Vec<u8>,
    /// Logical end offset: every byte ever accepted by `append_record`.
    appended: u64,
    /// Offset up to which bytes are confirmed per the sync mode.
    durable: u64,
    /// A failed group: `(covered_end, error)` — every waiter with
    /// `lsn <= covered_end` reports the error; later groups retry the
    /// bytes and clear this once `durable` passes `covered_end`.
    last_fail: Option<(u64, StorageError)>,
    /// The file may hold a partial write past `durable`; the next leader
    /// truncates back before writing.
    need_repair: bool,
}

/// The group-commit write-ahead log (module docs). Cheap to share:
/// appends are a memcpy under a mutex; syncs elect a leader per group.
pub struct Wal {
    state: Mutex<WalState>,
    cv: Condvar,
    mode: SyncMode,
    /// Threads currently inside [`Wal::sync_to`]. The group leader opens
    /// a short batching window only when this shows other committers in
    /// flight — a lone commit never pays the window's latency.
    sync_waiters: AtomicUsize,
}

impl Wal {
    /// A log over `file`, whose first `offset` bytes are already valid
    /// and durable (0 for a fresh file).
    pub(crate) fn over(file: Box<dyn LogFile>, offset: u64, opts: WalOptions) -> Arc<Wal> {
        Arc::new(Wal {
            state: Mutex::new(WalState {
                file: Some(file),
                buf: Vec::new(),
                appended: offset,
                durable: offset,
                last_fail: None,
                need_repair: false,
            }),
            cv: Condvar::new(),
            mode: opts.sync_mode,
            sync_waiters: AtomicUsize::new(0),
        })
    }

    /// Creates (truncating) a bare log file — one unsegmented stream of
    /// frames, for callers that want the codec and group commit without
    /// the directory lifecycle of [`crate::segment::SegmentedWal`].
    pub fn create(path: impl AsRef<Path>, opts: WalOptions) -> Result<Arc<Wal>, StorageError> {
        Ok(Wal::over(Box::new(FsFile::create(path.as_ref())?), 0, opts))
    }

    /// Logical end offset of the log (bytes accepted so far).
    pub fn appended(&self) -> u64 {
        self.state.lock().appended
    }

    /// Offset up to which the log is confirmed per the sync mode.
    pub fn durable(&self) -> u64 {
        self.state.lock().durable
    }

    /// Appends one framed record to the in-process buffer and returns its
    /// end offset (the LSN to pass to [`Wal::sync_to`]). Called inside
    /// the publication window, so buffer order == commit order; the only
    /// IO here is the opportunistic [`SyncMode::Cached`] spill.
    pub fn append_record(&self, record: &WalRecord) -> Result<u64, StorageError> {
        self.append_payload(&encode_payload(record))
    }

    /// [`Wal::append_record`] for a committed transaction: encodes the
    /// borrowed entry's redo form directly, its before images left out.
    pub fn append_entry(&self, entry: &CommittedTxn) -> Result<u64, StorageError> {
        let mut payload = Vec::with_capacity(64);
        let e = entry;
        let writes = e.changes.iter().map(|c| (&*c.table, &c.key, c.op.after()));
        put_commit(&mut payload, [e.txn_id, e.start_ts, e.commit_ts], writes);
        self.append_payload(&payload)
    }

    /// Frames `payload` and buffers the frame. A payload longer than a
    /// reader accepts ([`MAX_RECORD_LEN`]) is refused with
    /// [`StorageError::TooLarge`] first: its frame would read back as
    /// damage and make the log unbootable.
    fn append_payload(&self, payload: &[u8]) -> Result<u64, StorageError> {
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(StorageError::TooLarge {
                len: payload.len() as u64,
                max: MAX_RECORD_LEN.into(),
            });
        }
        let frame = frame_of(payload);
        let mut s = self.state.lock();
        s.buf.extend_from_slice(&frame);
        s.appended += frame.len() as u64;
        let lsn = s.appended;
        if matches!(self.mode, SyncMode::Cached) && s.buf.len() >= CACHED_FLUSH_BYTES {
            self.spill_locked(&mut s)?;
        }
        Ok(lsn)
    }

    /// Writes the pending buffer to the file without fsync, under the
    /// state lock ([`SyncMode::Cached`] only — `sync_to` never takes the
    /// file in that mode, so nobody else holds it).
    fn spill_locked(&self, s: &mut WalState) -> Result<(), StorageError> {
        let Some(mut file) = s.file.take() else {
            return Ok(());
        };
        let batch = std::mem::take(&mut s.buf);
        let batch_end = s.appended;
        let res = (|| {
            if s.need_repair {
                file.truncate_to(s.durable)?;
            }
            file.write_all(&batch)
        })();
        s.file = Some(file);
        match res {
            Ok(()) => {
                s.need_repair = false;
                s.durable = batch_end;
                Ok(())
            }
            Err(e) => {
                // Keep the bytes queued (retried on the next spill) but
                // surface the failure.
                let mut restored = batch;
                restored.extend_from_slice(&s.buf);
                s.buf = restored;
                s.need_repair = true;
                Err(e)
            }
        }
    }

    /// Blocks until the log is confirmed through `lsn` per the sync mode
    /// — the group-commit point. The first waiter whose LSN is not yet
    /// durable becomes the leader: it takes the file, writes the *whole*
    /// pending buffer, and (in [`SyncMode::Sync`]) fsyncs once for every
    /// commit in it. A failure fails exactly the commits whose bytes the
    /// attempt covered; their bytes stay queued and later groups retry.
    pub fn sync_to(&self, lsn: u64) -> Result<(), StorageError> {
        if matches!(self.mode, SyncMode::Cached) {
            return Ok(());
        }
        self.sync_waiters.fetch_add(1, Ordering::AcqRel);
        let res = self.sync_to_inner(lsn);
        self.sync_waiters.fetch_sub(1, Ordering::AcqRel);
        res
    }

    fn sync_to_inner(&self, lsn: u64) -> Result<(), StorageError> {
        // Whether this thread already held a batching window open; one
        // per sync_to call, so a slow disk cannot stack windows.
        let mut batched = false;
        loop {
            let mut s = self.state.lock();
            loop {
                if s.durable >= lsn {
                    return Ok(());
                }
                if let Some((end, err)) = &s.last_fail {
                    if *end >= lsn {
                        return Err(err.clone());
                    }
                }
                if s.file.is_some() {
                    break;
                }
                self.cv.wait(&mut s);
            }
            // Group batching window: commits publish one at a time, so at
            // the instant a leader is elected the buffer often holds only
            // its own record while the rest of the burst is a few
            // microseconds behind. When other committers are visibly in
            // flight, wait briefly (lock released) until arrivals stop,
            // so the whole burst shares this group's one fsync. Skipped
            // for lone commits.
            if !batched && self.sync_waiters.load(Ordering::Acquire) > 1 {
                batched = true;
                // Yield (not a timed wait, whose wake-up latency rivals
                // the fsync; not a spin, which starves the very
                // publishers it waits for on small machines): runnable
                // committers get the CPU, publish and append, then block
                // in their own sync_to — at which point the leader runs
                // again and takes the whole burst in one group. Kept open
                // only while records are actually arriving, bounded at a
                // handful of rounds, one window per GROUP.
                let mut rounds = 0;
                loop {
                    let before = s.appended;
                    drop(s);
                    std::thread::yield_now();
                    s = self.state.lock();
                    rounds += 1;
                    if s.appended == before || rounds >= 8 {
                        break;
                    }
                }
                // State moved while we waited (another leader may have
                // synced past our LSN, or failed): re-evaluate from the
                // top before leading.
                drop(s);
                continue;
            }
            // Leader: take the file and everything pending.
            let mut file = s.file.take().expect("leader checked file presence");
            let mut batch = std::mem::take(&mut s.buf);
            let batch_end = s.appended;
            let repair_to = s.need_repair.then_some(s.durable);
            drop(s);

            let res = (|| {
                if let Some(off) = repair_to {
                    file.truncate_to(off)?;
                }
                if !batch.is_empty() {
                    file.write_all(&batch)?;
                }
                if matches!(self.mode, SyncMode::Sync) {
                    file.sync()?;
                }
                Ok(())
            })();

            let mut s = self.state.lock();
            s.file = Some(file);
            match res {
                Ok(()) => {
                    s.need_repair = false;
                    s.durable = batch_end;
                    if s.last_fail
                        .as_ref()
                        .is_some_and(|(end, _)| *end <= batch_end)
                    {
                        s.last_fail = None;
                    }
                }
                Err(e) => {
                    // The log must stay a commit-order prefix: the failed
                    // group's bytes go back to the FRONT of the buffer
                    // (ahead of anything appended during the attempt) and
                    // retry with the next group. Waiters covered by the
                    // attempt observe the error via last_fail.
                    batch.extend_from_slice(&s.buf);
                    s.buf = batch;
                    s.need_repair = true;
                    s.last_fail = Some((batch_end, e));
                }
            }
            drop(s);
            self.cv.notify_all();
            // Loop: re-evaluate our own lsn against the new state.
        }
    }

    /// Pushes any buffered bytes to the file without fsync. Mostly for
    /// [`SyncMode::Cached`] teardown; a no-op when nothing is buffered.
    pub fn flush(&self) -> Result<(), StorageError> {
        let mut s = self.state.lock();
        if s.buf.is_empty() {
            return Ok(());
        }
        self.spill_locked(&mut s)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use super::*;
    use crate::cdc::ChangeRecord;
    use crate::dir::{DirFailpointHandle, FailpointDir, LogDir, MemDir};
    use crate::row;

    /// The CRC by its definition, one polynomial step per bit, advancing
    /// the register `c`.
    fn bitwise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    /// `crc32`, the slice-by-8 tables called directly and the bitwise
    /// definition agree on `bytes`; `defined` is its bitwise CRC.
    fn crc_paths_agree(bytes: &[u8], defined: u32) -> Result<(), String> {
        let (dispatched, table) = (crc32(bytes), !slice8(!0, bytes));
        if dispatched == defined && table == defined {
            return Ok(());
        }
        Err(format!(
            "{} bytes: crc32 {dispatched:08x}, slice-by-8 {table:08x}, bitwise {defined:08x}",
            bytes.len()
        ))
    }

    #[test]
    fn crc32_is_the_ieee_crc_bit_for_bit() {
        // The standard check values.
        for (bytes, known) in [(&b""[..], 0), (b"123456789", 0xCBF4_3926)] {
            assert_eq!(crc32(bytes), known);
            crc_paths_agree(bytes, !bitwise(!0, bytes)).unwrap();
        }
        // Every length through 4 KiB at every start offset within a
        // 16-byte block: the kernel's 64-byte, 16-byte and table loops and
        // each remainder. The bitwise CRC of each prefix extends the last.
        let data: Vec<u8> = (0..4096 + 16u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            let data = &data[start..start + 4096];
            let mut defined = !0;
            for len in 0..=data.len() {
                crc_paths_agree(&data[..len], !defined)
                    .unwrap_or_else(|e| panic!("start {start}: {e}"));
                if let Some(&b) = data.get(len) {
                    defined = bitwise(defined, &[b]);
                }
            }
        }
        // A buffer past 1 MiB, not a multiple of any block.
        let big: Vec<u8> = (0..(1u32 << 20) + 77)
            .map(|i| (i ^ (i >> 7)).wrapping_mul(2_654_435_761) as u8)
            .collect();
        crc_paths_agree(&big, !bitwise(!0, &big)).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
        ))]

        /// Random byte strings at random start offsets.
        #[test]
        fn crc32_is_the_ieee_crc_on_random_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..2048),
            start in 0usize..16,
        ) {
            let bytes = &bytes[start.min(bytes.len())..];
            crc_paths_agree(bytes, !bitwise(!0, bytes)).map_err(TestCaseError::fail)?;
        }
    }

    fn commit_record(txn_id: u64, commit_ts: Ts) -> WalRecord {
        WalRecord::Commit(LoggedTxn::from(&CommittedTxn {
            txn_id,
            start_ts: commit_ts - 1,
            commit_ts,
            changes: vec![
                ChangeRecord::insert("t", Key::single(txn_id as i64), row![txn_id as i64, "v"]),
                ChangeRecord::update(
                    "kv:ns",
                    Key::single("k"),
                    Row::from(vec![Value::Text("k".into()), Value::Text("old".into())]),
                    Row::from(vec![Value::Text("k".into()), Value::Text("new".into())]),
                ),
            ]
            .into(),
        }))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema: Schema::builder()
                    .column("id", DataType::Int)
                    .nullable("v", DataType::Text)
                    .primary_key(&["id"])
                    .build()
                    .unwrap(),
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                column: "v".into(),
            },
            WalRecord::CreateNamespace { name: "ns".into() },
            commit_record(1, 1),
            commit_record(2, 2),
        ]
    }

    fn stream_of(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(encode_frame).collect()
    }

    /// A log over one file of an in-memory directory behind the fault
    /// injector; `bytes()` reads what "the disk" holds.
    fn mem_wal(opts: WalOptions) -> (Arc<Wal>, DirFailpointHandle, impl Fn() -> Vec<u8>) {
        let mem = MemDir::new();
        let points = DirFailpointHandle::new();
        let dir = FailpointDir::new(Arc::new(mem.clone()), points.clone());
        let wal = Wal::over(dir.create("log").unwrap(), 0, opts);
        (wal, points, move || mem.file("log").unwrap())
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        for record in sample_records() {
            let frame = encode_frame(&record);
            let (decoded, info) = decode_records(&frame).unwrap();
            assert_eq!(decoded, vec![record]);
            assert_eq!(info.valid_len, frame.len() as u64);
            assert_eq!(info.truncated_bytes, 0);
        }
        // All values survive, including floats, bytes and NULL.
        let exotic = WalRecord::Commit(LoggedTxn::from(&CommittedTxn {
            txn_id: 7,
            start_ts: 9,
            commit_ts: 10,
            changes: vec![ChangeRecord::delete(
                "t",
                Key::from(vec![Value::Int(-1), Value::Text("x".into())]),
                Row::from(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Float(-0.5),
                    Value::Bytes(vec![0, 255, 3]),
                    Value::Timestamp(123_456),
                ]),
            )]
            .into(),
        }));
        let (decoded, _) = decode_records(&encode_frame(&exotic)).unwrap();
        assert_eq!(decoded, vec![exotic]);
    }

    /// A whole frame whose checksums hold but whose payload is no record
    /// of this layout (here a commit under tag 1, which carried before
    /// images) is corruption even as the last frame, where a torn write
    /// is cut away.
    #[test]
    fn an_undecodable_last_frame_is_corruption_not_a_torn_tail() {
        let mut payload = encode_payload(&commit_record(1, 1));
        payload[0] = 1;
        let valid = stream_of(&sample_records()[..3]);
        let stream = [valid.clone(), frame_of(&payload)].concat();
        match decode_records(&stream) {
            Err(StorageError::Corrupt { offset, detail }) => {
                assert_eq!(offset, valid.len() as u64);
                assert!(detail.contains("unknown record tag 1"), "{detail}");
            }
            other => panic!("expected a Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let records = sample_records();
        let stream = stream_of(&records);
        // Record boundaries (cumulative frame ends).
        let mut boundaries = vec![0u64];
        for r in &records {
            boundaries.push(boundaries.last().unwrap() + encode_frame(r).len() as u64);
        }
        for cut in 0..=stream.len() {
            let (decoded, info) = decode_records(&stream[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut} must be a torn tail, got {e}"));
            // Exactly the records whose frames fit entirely below the cut.
            let complete = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(decoded.len(), complete, "cut at {cut}");
            assert_eq!(info.valid_len, boundaries[complete], "cut at {cut}");
            assert_eq!(
                info.truncated_bytes,
                cut as u64 - boundaries[complete],
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn midfile_damage_is_a_typed_corruption_error_never_a_panic() {
        let stream = stream_of(&sample_records());
        // Flip every single byte in turn: the result must be either a
        // typed Corrupt error or a clean prefix — never a panic, never a
        // bogus record.
        let originals = sample_records();
        for i in 0..stream.len() {
            let mut damaged = stream.clone();
            damaged[i] ^= 0xFF;
            match decode_records(&damaged) {
                Err(StorageError::Corrupt { .. }) => {}
                Err(e) => panic!("byte {i}: unexpected error kind {e}"),
                Ok((decoded, _)) => {
                    // Tail damage decodes as a prefix of the original.
                    assert!(decoded.len() < originals.len(), "byte {i}");
                    assert_eq!(decoded[..], originals[..decoded.len()], "byte {i}");
                }
            }
        }
        // Damage in the FIRST record with intact records after it is
        // always classified corruption (resync finds the later chain).
        let mut damaged = stream.clone();
        damaged[FRAME_HEADER_LEN] ^= 0xFF; // first payload byte
        assert!(matches!(
            decode_records(&damaged),
            Err(StorageError::Corrupt { offset: 0, .. })
        ));
    }

    /// A frame header with valid CRCs that claims `len` payload bytes
    /// whose checksum is that of `payload`.
    fn header_claiming(len: u32, payload: &[u8]) -> Vec<u8> {
        let mut header = Vec::new();
        put_u32(&mut header, len);
        put_u32(&mut header, crc32(payload));
        let header_crc = crc32(&header);
        put_u32(&mut header, header_crc);
        header
    }

    /// The frame decoder's contract on bytes it did not write: a typed
    /// `Corrupt` error, or a clean prefix (the rest a torn tail) whose
    /// records re-encode to exactly its length and decode back to
    /// themselves. Walking the frames one by one, the frame buffer never
    /// outgrows the bytes present (twice them, for `Vec`'s doubling),
    /// whatever length a header claims.
    fn decodes_typed_or_round_trips(bytes: &[u8]) -> Result<(), TestCaseError> {
        let (mut src, mut frame) = (bytes, Vec::new());
        loop {
            let read = read_frame(&mut src, &mut frame, ALL, &mut Names::default());
            let bound = 2 * bytes.len().max(FRAME_HEADER_LEN);
            prop_assert!(frame.capacity() <= bound, "{} > {bound}", frame.capacity());
            if !matches!(read, Ok(Frame::Record(_))) {
                break;
            }
        }
        match decode_records(bytes) {
            Err(StorageError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "untyped error {other:?}"),
            Ok((records, info)) => {
                prop_assert_eq!(info.valid_len + info.truncated_bytes, bytes.len() as u64);
                let written = stream_of(&records);
                prop_assert_eq!(written.len() as u64, info.valid_len);
                prop_assert_eq!(
                    decode_records(&written).ok(),
                    Some((
                        records,
                        RecoveryInfo {
                            valid_len: info.valid_len,
                            truncated_bytes: 0,
                        }
                    ))
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
        ))]

        /// Arbitrary bytes: raw, framed with valid CRCs so that they reach
        /// the payload decoder, or behind a valid header that claims more
        /// than `MAX_RECORD_LEN` or more than the stream holds; each
        /// optionally followed by a valid frame for the resync scan to find.
        #[test]
        fn frame_decoder_takes_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..160),
            framing in 0u8..4,
            excess in 1u32..1 << 20,
            then_valid in 0u8..2,
        ) {
            let mut bytes = match framing {
                0 => bytes,
                1 => frame_of(&bytes),
                2 => [header_claiming(MAX_RECORD_LEN + excess, &bytes), bytes].concat(),
                _ => [header_claiming(bytes.len() as u32 + excess, &bytes), bytes].concat(),
            };
            if then_valid == 1 {
                bytes.extend(encode_frame(&WalRecord::CreateNamespace { name: "ns".into() }));
            }
            decodes_typed_or_round_trips(&bytes)?;
        }

        /// A valid stream with one byte of one frame replaced: anywhere in
        /// the frame under stale CRCs, or in its payload under recomputed
        /// ones.
        #[test]
        fn frame_decoder_takes_a_mutated_frame(
            commits in prop::collection::vec((1u64..1 << 40, -1000i64..1000, "[a-z]{0,6}"), 0..4),
            which in 0usize..1 << 8,
            at in 0usize..1 << 16,
            byte in 0u8..=255,
            recompute in 0u8..2,
        ) {
            let mut records = sample_records();
            records.extend(commits.into_iter().map(|(ts, id, v)| {
                WalRecord::Commit(LoggedTxn::from(&CommittedTxn {
                    txn_id: ts,
                    start_ts: ts - 1,
                    commit_ts: ts,
                    changes: vec![ChangeRecord::insert("t", Key::single(id), row![id, v])].into(),
                }))
            }));
            let i = which % records.len();
            let frame = if recompute == 1 {
                let mut payload = encode_payload(&records[i]);
                let at = at % payload.len();
                payload[at] = byte;
                frame_of(&payload)
            } else {
                let mut frame = encode_frame(&records[i]);
                let at = at % frame.len();
                frame[at] = byte;
                frame
            };
            let bytes = [stream_of(&records[..i]), frame, stream_of(&records[i + 1..])].concat();
            decodes_typed_or_round_trips(&bytes)?;
        }
    }

    #[test]
    fn group_sync_amortizes_and_survives_mode_differences() {
        for mode in [SyncMode::Sync, SyncMode::Flush] {
            let (wal, _, bytes) = mem_wal(WalOptions::with_sync_mode(mode));
            let mut last = 0;
            for i in 1..=4u64 {
                last = wal
                    .append_record(&WalRecord::CreateNamespace {
                        name: format!("ns{i}"),
                    })
                    .unwrap();
            }
            wal.sync_to(last).unwrap();
            assert_eq!(wal.durable(), last);
            assert_eq!(bytes().len() as u64, last);
            let (decoded, _) = decode_records(&bytes()).unwrap();
            assert_eq!(decoded.len(), 4);
        }
    }

    #[test]
    fn cached_mode_buffers_until_flush() {
        let (wal, _, bytes) = mem_wal(WalOptions::with_sync_mode(SyncMode::Cached));
        let lsn = wal
            .append_record(&WalRecord::CreateNamespace { name: "ns".into() })
            .unwrap();
        wal.sync_to(lsn).unwrap(); // no-op in cached mode
        assert_eq!(bytes().len(), 0, "cached bytes stay in process");
        wal.flush().unwrap();
        assert_eq!(bytes().len() as u64, lsn);
    }

    #[test]
    fn failed_group_is_isolated_and_later_groups_recover() {
        let (wal, points, bytes) = mem_wal(WalOptions::default());
        let a = wal
            .append_record(&WalRecord::CreateNamespace { name: "a".into() })
            .unwrap();
        points.fail_syncs(1);
        let err = wal.sync_to(a).unwrap_err();
        assert!(matches!(err, StorageError::Io { op: "sync", .. }));
        assert!(err.is_retryable());
        // The same LSN keeps reporting the failure until a later group
        // succeeds...
        assert!(wal.sync_to(a).is_err());
        // ...and once the disk recovers, the next group carries the
        // failed bytes through: nothing is lost, order is preserved.
        points.clear();
        let b = wal
            .append_record(&WalRecord::CreateNamespace { name: "b".into() })
            .unwrap();
        wal.sync_to(b).unwrap();
        assert_eq!(wal.durable(), b);
        let (decoded, _) = decode_records(&bytes()).unwrap();
        assert_eq!(
            decoded,
            vec![
                WalRecord::CreateNamespace { name: "a".into() },
                WalRecord::CreateNamespace { name: "b".into() },
            ]
        );
        // The old failure no longer poisons anything.
        assert!(wal.sync_to(a).is_ok());
    }

    #[test]
    fn short_writes_are_repaired_by_the_next_group() {
        let (wal, points, bytes) = mem_wal(WalOptions::default());
        let a = wal
            .append_record(&WalRecord::CreateNamespace { name: "a".into() })
            .unwrap();
        // Persist only half the first record, then error.
        points.short_write_at(a / 2);
        assert!(wal.sync_to(a).is_err());
        assert_eq!(
            bytes().len() as u64,
            a / 2,
            "exactly the short prefix landed"
        );
        points.clear();
        // The next sync truncates the partial bytes and rewrites cleanly.
        wal.sync_to(a).unwrap_or_else(|_| {
            // First retry may still observe last_fail for this lsn; a new
            // append forms the next group.
            let b = wal
                .append_record(&WalRecord::CreateNamespace { name: "b".into() })
                .unwrap();
            wal.sync_to(b).unwrap();
        });
        let (decoded, info) = decode_records(&bytes()).unwrap();
        assert!(!decoded.is_empty());
        assert_eq!(decoded[0], WalRecord::CreateNamespace { name: "a".into() });
        assert_eq!(info.truncated_bytes, 0);
    }
}
