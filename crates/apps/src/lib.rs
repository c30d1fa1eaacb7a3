//! # trod-apps
//!
//! The benchmark applications used throughout the TROD reproduction —
//! faithful re-implementations of the *transactional shape* of the
//! applications and bugs the paper discusses:
//!
//! * [`moodle`] — forum subscriptions with the MDL-59854 TOCTOU race and
//!   the MDL-60669 course-restore regression (paper §2, §3.3–3.6, §4.1).
//! * [`mediawiki`] — page edits and site links with the MW-44325
//!   duplicate-sitelink race and the MW-39225 wrong-article-size race
//!   (paper §4.1).
//! * [`shop`] — an e-commerce checkout microservice workflow used as the
//!   load-generating workload for the tracing-overhead and provenance
//!   benchmarks (paper §3.7).
//! * [`profiles`] — a user-profile service with an access-control bug and
//!   a data-exfiltration workflow (paper §4.2).
//!
//! Each application module exposes its schema builders, a buggy handler
//! registry, a patched registry where the paper discusses a fix, argument
//! constructors, and — for the concurrency bugs — scheduler scripts that
//! force the exact interleaving that triggers the bug.

pub mod mediawiki;
pub mod moodle;
pub mod profiles;
pub mod shop;
