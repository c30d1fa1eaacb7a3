//! The commit-participant abstraction: how non-relational stores join
//! the sharded commit protocol.
//!
//! PR 2 sharded the *relational* commit path (per-table commit locks in
//! sorted footprint order, validate-all, claim one atomic timestamp,
//! publish ordered). The paper's §5 needs the same protocol to span data
//! stores: a polyglot transaction must commit atomically across the
//! relational database and, say, a key-value store, with one commit
//! timestamp and one aligned history — without re-introducing a global
//! cross-store lock.
//!
//! [`CommitParticipant`] is the seam. A participant contributes:
//!
//! * **Resources** — globally-unique lock names (the relational side uses
//!   table names; a key-value store uses `kv:<namespace>` shard names).
//!   The coordinator merges every participant's resources with the
//!   relational footprint, sorts the union, and acquires each resource's
//!   commit lock in that one global order — so mixed commits are
//!   deadlock-free and commits with disjoint footprints (different
//!   tables, different namespaces) run fully concurrently.
//! * **Validation** — optimistic checks run while the whole footprint is
//!   locked, before the commit timestamp is claimed. Any participant can
//!   still veto the commit here; nothing has been installed yet, so an
//!   abort is side-effect-free on every store.
//! * **Installation** — infallible application of the participant's
//!   buffered writes at the claimed timestamp, invoked inside the ordered
//!   publication window. The change records it returns are appended to
//!   the relational transaction log entry, which is what makes the log
//!   *aligned by construction*: a commit that wrote three tables and two
//!   namespaces is one log entry with one timestamp.
//!
//! The driver is [`Transaction::commit_with_participants`]
//! (see [`crate::txn`]); `Transaction::commit` is the zero-participant
//! special case.
//!
//! Durability rides the same seam: the coordinator appends the aligned
//! log entry — participant records included — to the attached WAL inside
//! the publication window (segment rotation happens strictly *outside*
//! that window, on the post-ack sync path, so a roll never creates a
//! commit-order hole across files), and recovery re-installs recovered
//! entries through participant `install` calls, so a crash-recovered kv
//! store is rebuilt by the identical code path that wrote it live (see
//! "The durable log" in `crates/db/DESIGN.md`).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::cdc::ChangeRecord;
use crate::error::TrodResult;
use crate::mvcc::Ts;

/// A non-relational store taking part in a coordinated commit.
///
/// Implementations are short-lived: one participant per committing
/// transaction, carrying that transaction's buffered reads and writes
/// against its store. See the [module docs](self) for the protocol
/// phases and their guarantees.
pub trait CommitParticipant {
    /// The globally-unique resource names whose commit locks this
    /// participant needs — e.g. `kv:<namespace>` for each namespace the
    /// transaction read (under serializable validation) or wrote.
    /// Duplicates are tolerated; order is irrelevant (the coordinator
    /// sorts the union of all participants' resources).
    ///
    /// Names must not collide with relational table names; prefixing with
    /// the store kind (`kv:`) keeps the namespaces disjoint.
    fn resources(&self) -> Vec<String>;

    /// The shared commit lock for one of [`Self::resources`]. The
    /// coordinator clones the `Arc` and locks all resources in sorted
    /// name order, holding every guard until after publication.
    fn resource_lock(&self, resource: &str) -> Arc<Mutex<()>>;

    /// Validates this participant's reads and writes against its store's
    /// current state. Called with the entire footprint (relational and
    /// participant resources) locked, after relational validation. An
    /// error aborts the commit before anything is installed anywhere.
    ///
    /// `min_commit_ts` is a lower bound on the timestamp a successful
    /// commit will claim (timestamps are allocated from a monotone
    /// counter, read under the footprint locks). A participant whose
    /// store enforces per-resource timestamp monotonicity must reject the
    /// commit here if any written resource has already been advanced to
    /// `min_commit_ts` or beyond by writes outside the coordinator (e.g.
    /// a standalone store-level commit) — that is the one condition that
    /// could otherwise make [`Self::install`] fail, and install runs
    /// inside the publication window where failure is not an option.
    fn validate(&self, min_commit_ts: Ts) -> TrodResult<()>;

    /// True if this participant has buffered writes. A commit with no
    /// relational writes and no participant writes is read-only and
    /// serializes at its snapshot without locking or logging.
    fn has_writes(&self) -> bool;

    /// True if this participant carries reads that must be re-validated
    /// inside the publication window ([`Self::revalidate_reads`]) because
    /// their resources were *not* locked (SSI mode: read-only resources
    /// are left out of [`Self::resources`]). `false` (the default) means
    /// every read was either validated under its resource lock or this
    /// participant has no reads.
    fn needs_revalidation(&self) -> bool {
        false
    }

    /// Re-validates the participant's reads against every commit that
    /// published (or is installed and certain to publish) before
    /// `commit_ts`. Called inside the ordered publication window, before
    /// anything is installed for this commit — an error aborts the commit
    /// with nothing installed anywhere (the coordinator publishes the
    /// claimed timestamp as an empty tick). Only invoked when
    /// [`Self::needs_revalidation`] returned `true`.
    fn revalidate_reads(&self, _commit_ts: Ts) -> TrodResult<()> {
        Ok(())
    }

    /// Installs the buffered writes at `commit_ts` and returns their
    /// change records (under the participant's virtual table names, e.g.
    /// `kv:<namespace>`), which the coordinator appends to the commit's
    /// transaction-log entry.
    ///
    /// Called with this participant's resource locks held, at or before
    /// the commit's turn in the ordered publication window. Installs may
    /// run *pre-publication* (the coordinator moves them out of the
    /// ordered critical section when it can): the store must therefore
    /// stamp versions with `commit_ts` and keep them invisible to readers
    /// until the publication clock reaches `commit_ts` — clock-aware
    /// versioning, exactly like the relational version chains. Must not
    /// fail — all fallible checks belong in [`Self::validate`] and
    /// [`Self::revalidate_reads`].
    fn install(&self, commit_ts: Ts) -> Vec<ChangeRecord>;
}
