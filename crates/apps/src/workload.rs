//! Workload generators for tests and examples.
//!
//! The paper's §3.7 numbers come from running "popular microservices
//! benchmarks" under always-on tracing. This module generates comparable
//! synthetic request streams for the shop, Moodle and MediaWiki
//! applications: configurable request counts, key skew and conflict
//! rates, with a fixed seed so a stream is reproducible. The end-to-end
//! benchmark (`benchmark/`) has its own generators: these streams share
//! hot keys between workers, so how many requests conflict varies from
//! run to run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trod_runtime::Args;

use crate::moodle;
use crate::shop;

/// Configuration for a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct users issuing requests.
    pub users: usize,
    /// Number of distinct items/forums requests target.
    pub items: usize,
    /// Fraction (0.0–1.0) of requests that target a single hot item,
    /// creating read/write conflicts.
    pub conflict_rate: f64,
    /// RNG seed, so runs are reproducible.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            requests: 1_000,
            users: 100,
            items: 50,
            conflict_rate: 0.1,
            seed: 42,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for quick tests.
    pub fn small() -> Self {
        WorkloadConfig {
            requests: 50,
            users: 10,
            items: 5,
            conflict_rate: 0.2,
            seed: 7,
        }
    }
}

fn pick_item(rng: &mut StdRng, cfg: &WorkloadConfig) -> usize {
    if rng.gen_bool(cfg.conflict_rate.clamp(0.0, 1.0)) {
        0 // the hot item
    } else {
        rng.gen_range(0..cfg.items.max(1))
    }
}

/// Generates a stream of shop `checkout` requests (plus occasional
/// `getOrder` look-ups), as `(handler, args)` pairs ready for
/// [`trod_runtime::Runtime::run_concurrent`].
pub fn shop_workload(cfg: &WorkloadConfig) -> Vec<(String, Args)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let customer = format!("user-{}", rng.gen_range(0..cfg.users.max(1)));
        let item = format!("item-{}", pick_item(&mut rng, cfg));
        if i % 10 == 9 && i > 0 {
            // Every tenth request reads an earlier order.
            let earlier = rng.gen_range(0..i);
            out.push((
                "getOrder".to_string(),
                Args::new().with("order_id", format!("order-{earlier}")),
            ));
        } else {
            out.push((
                "checkout".to_string(),
                shop::checkout_args(&format!("order-{i}"), &customer, &item, 1),
            ));
        }
    }
    out
}

/// Generates a stream of Moodle subscribe/fetch requests. A configurable
/// fraction of subscriptions target the same (user, forum) pair so that
/// racy interleavings are possible under concurrent execution.
pub fn moodle_workload(cfg: &WorkloadConfig) -> Vec<(String, Args)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let forum = format!("F{}", pick_item(&mut rng, cfg));
        if i % 5 == 4 {
            out.push(("fetchSubscribers".to_string(), moodle::fetch_args(&forum)));
        } else {
            let user = if rng.gen_bool(cfg.conflict_rate.clamp(0.0, 1.0)) {
                "U0".to_string()
            } else {
                format!("U{}", rng.gen_range(0..cfg.users.max(1)))
            };
            out.push((
                "subscribeUser".to_string(),
                moodle::subscribe_args(&format!("sub-{i}"), &user, &forum),
            ));
        }
    }
    out
}

/// Generates a stream of MediaWiki page create/edit/read requests.
/// Edits concentrate on a hot page at the configured conflict rate
/// (the MW-39225 stale-size shape needs concurrent edits of one page);
/// every fifth request is a `getPage` or `listSiteLinks` read.
pub fn mediawiki_workload(cfg: &WorkloadConfig) -> Vec<(String, Args)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.requests);
    // Create the page pool first so edits and reads hit existing pages;
    // the creates count against the request budget like any other
    // request.
    let pool = cfg.items.max(1).min(cfg.requests);
    for k in 0..pool {
        out.push((
            "createPage".to_string(),
            Args::new()
                .with("title", format!("Page_{k}"))
                .with("content", format!("seed content {k}")),
        ));
    }
    for i in pool..cfg.requests {
        let page = format!("Page_{}", pick_item(&mut rng, cfg).min(pool - 1));
        match i % 10 {
            4 => out.push((
                "getPage".to_string(),
                Args::new().with("title", page.clone()),
            )),
            9 => out.push((
                "listSiteLinks".to_string(),
                Args::new().with("page", page.clone()),
            )),
            3 | 7 => out.push((
                "addSiteLink".to_string(),
                crate::mediawiki::sitelink_args(
                    &format!("link-{i}"),
                    &page,
                    &format!("https://example.org/{i}"),
                ),
            )),
            _ => out.push((
                "editPage".to_string(),
                crate::mediawiki::edit_args(
                    &format!("rev-{i}"),
                    &page,
                    &format!(
                        "content rev {i} by user-{}",
                        rng.gen_range(0..cfg.users.max(1))
                    ),
                ),
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible_and_sized() {
        let cfg = WorkloadConfig::small();
        let a = shop_workload(&cfg);
        let b = shop_workload(&cfg);
        assert_eq!(a.len(), cfg.requests);
        assert_eq!(
            a.iter()
                .map(|(h, args)| (h.clone(), args.to_json()))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|(h, args)| (h.clone(), args.to_json()))
                .collect::<Vec<_>>()
        );

        let m = moodle_workload(&cfg);
        assert_eq!(m.len(), cfg.requests);
        assert!(m.iter().any(|(h, _)| h == "fetchSubscribers"));
        assert!(m.iter().any(|(h, _)| h == "subscribeUser"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = shop_workload(&WorkloadConfig {
            seed: 1,
            ..WorkloadConfig::small()
        });
        let b = shop_workload(&WorkloadConfig {
            seed: 2,
            ..WorkloadConfig::small()
        });
        let enc = |w: &Vec<(String, Args)>| {
            w.iter()
                .map(|(h, a)| format!("{h}:{}", a.to_json()))
                .collect::<Vec<_>>()
        };
        assert_ne!(enc(&a), enc(&b));
    }

    #[test]
    fn conflict_rate_extremes_are_accepted() {
        let all_hot = WorkloadConfig {
            conflict_rate: 1.0,
            ..WorkloadConfig::small()
        };
        let w = shop_workload(&all_hot);
        assert!(w
            .iter()
            .filter(|(h, _)| h == "checkout")
            .all(|(_, args)| args.get_str("item") == Some("item-0")));
        let none_hot = WorkloadConfig {
            conflict_rate: 0.0,
            ..WorkloadConfig::small()
        };
        let _ = shop_workload(&none_hot);
    }

    #[test]
    fn mediawiki_workload_runs_against_the_mediawiki_app() {
        use crate::mediawiki;
        let db = mediawiki::mediawiki_db();
        let runtime = trod_runtime::Runtime::new(db, mediawiki::registry());
        let cfg = WorkloadConfig::small();
        let mut workload = mediawiki_workload(&cfg);
        assert_eq!(workload.len(), cfg.requests);
        assert!(workload.iter().any(|(h, _)| h == "editPage"));
        assert!(workload.iter().any(|(h, _)| h == "getPage"));
        // Serve the page-pool creates before racing the rest, mirroring
        // how a load generator warms up against a live server.
        let rest = workload.split_off(cfg.items.min(cfg.requests));
        let mut results = runtime.run_concurrent(workload, 4);
        results.extend(runtime.run_concurrent(rest, 4));
        assert_eq!(results.len(), cfg.requests);
        // Every page in the pool exists before any edit/read targets it,
        // so failures can only be retryable conflicts.
        assert!(results.iter().all(|r| match &r.output {
            Ok(_) => true,
            Err(e) => e.is_retryable(),
        }));
        assert!(results
            .iter()
            .filter(|r| r.handler == "editPage")
            .any(|r| r.is_ok()));
    }

    #[test]
    fn shop_workload_runs_against_the_shop_app() {
        let db = shop::shop_db();
        shop::seed_inventory(&db, 10, 1_000);
        let runtime = trod_runtime::Runtime::new(db, shop::registry());
        let cfg = WorkloadConfig::small();
        let results = runtime.run_concurrent(shop_workload(&cfg), 4);
        assert_eq!(results.len(), cfg.requests);
        // Checkouts either succeed or lose a serializable conflict on the
        // hot item; getOrder requests for not-yet-created orders may fail.
        let checkouts: Vec<_> = results.iter().filter(|r| r.handler == "checkout").collect();
        assert!(checkouts.iter().any(|r| r.is_ok()));
        assert!(checkouts.iter().all(|r| match &r.output {
            Ok(_) => true,
            Err(e) => e.is_retryable(),
        }));
    }
}
