//! The four workloads: for each, how its environment is built (schema,
//! in-process preload, handlers, provenance layout), which generators
//! drive it, and what the database must hold afterwards.

use trod_apps::{mediawiki, moodle, shop};
use trod_core::Trod;
use trod_db::{row, Database, Key, Predicate};
use trod_kv::Session;
use trod_runtime::{HandlerRegistry, Runtime};

use crate::gen::{self, ConnGen};

/// Frozen request counts of one repetition, calibrated once on the seed
/// commit so that a run at `--seconds 10` spends about ten seconds serving
/// and ingesting. `--seconds` scales the serve phase and nothing else:
/// what the ingest phase costs per request depends on how many requests it
/// ingests, so that number never moves.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Serve-phase slices per repetition.
    pub slices: usize,
    /// Requests per connection per serve-phase slice, per `--seconds`.
    pub serve_slice: usize,
    /// Requests per connection in the ingest phase.
    pub ingest: usize,
}

/// A built environment, ready to be served.
pub struct Built {
    pub trod: Trod,
    /// Named registries `trod_retroactive` can re-execute under.
    pub patches: Vec<(&'static str, HandlerRegistry)>,
    /// One request stream per connection.
    pub gens: Vec<Box<dyn ConnGen>>,
}

pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    /// One line: which layers this workload makes work, and which it
    /// leaves idle. Recorded in `BENCHMARK.json` and the README.
    fn why(&self) -> &'static str;
    fn counts(&self) -> Counts;
    /// Tables whose row counts must be the same after a restart.
    fn tables(&self) -> &'static [&'static str];
    /// Creates the schema on a fresh durable session, preloads it
    /// in-process, and attaches handlers, tracer and provenance store.
    /// `serve_requests` is how many requests each connection sends before
    /// the ingest phase starts.
    fn build(&self, session: Session, seed: u64, serve_requests: usize) -> Built;
    /// Compares the database with what the generators issued (`tally` is
    /// summed over connections).
    fn verify(&self, trod: &Trod, tally: &Tally) -> Result<(), String>;
    /// The point read and the predicate scan the workload's handlers do
    /// most, for the `db.get_us` / `db.scan_us` probes.
    fn read_probe(&self) -> ReadProbe;
}

/// A point read and a scan, as a handler would issue them.
pub struct ReadProbe {
    pub get: (&'static str, Key),
    pub scan: (&'static str, Predicate),
}

/// Generator tallies summed over connections.
#[derive(Debug, Default)]
pub struct Tally(Vec<(&'static str, i64)>);

impl Tally {
    pub fn sum(gens: &[&dyn ConnGen]) -> Tally {
        let mut total = Tally::default();
        for gen in gens {
            for (name, n) in gen.tally() {
                match total.0.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, sum)) => *sum += n,
                    None => total.0.push((name, n)),
                }
            }
        }
        total
    }

    pub fn get(&self, name: &str) -> i64 {
        self.0
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, n)| *n)
    }
}

pub fn all() -> [&'static dyn Workload; 4] {
    [
        &ShopCheckout,
        &MoodleFetch,
        &WikiEdit,
        &crate::debug::DebugSession,
    ]
}

pub fn by_name(name: &str) -> Option<&'static dyn Workload> {
    all().into_iter().find(|w| w.name() == name)
}

pub fn count_rows(db: &Database, table: &str) -> usize {
    db.scan_latest(table, &Predicate::True)
        .unwrap_or_else(|e| panic!("count {table}: {e}"))
        .len()
}

fn expect_eq(what: &str, got: i64, want: i64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: database has {got}, generators issued {want}"
        ))
    }
}

/// One generator per wire connection.
fn per_connection<G: ConnGen + 'static>(new: impl Fn(usize) -> G) -> Vec<Box<dyn ConnGen>> {
    (0..gen::CONNECTIONS)
        .map(|conn| Box::new(new(conn)) as Box<dyn ConnGen>)
        .collect()
}

/// Wraps a preloaded durable session in a traced runtime.
fn runtime_over(session: &Session, registry: HandlerRegistry) -> Runtime {
    Runtime::builder(session.database().clone(), registry)
        .kv(session.kv().clone())
        .build()
}

// ---------------------------------------------------------------- shop

pub struct ShopCheckout;

impl Workload for ShopCheckout {
    fn name(&self) -> &'static str {
        "shop_checkout"
    }
    fn why(&self) -> &'static str {
        "90% checkout (4 handlers, 3 write txns + kv cart clear) / 10% getOrder: most commits, WAL appends, trace events and provenance rows per request; query and large JSON idle"
    }
    fn counts(&self) -> Counts {
        Counts {
            slices: 20,
            serve_slice: 80,
            ingest: 400,
        }
    }
    fn tables(&self) -> &'static [&'static str] {
        &[
            shop::INVENTORY_TABLE,
            shop::ORDERS_TABLE,
            shop::PAYMENTS_TABLE,
        ]
    }

    fn build(&self, session: Session, seed: u64, _serve_requests: usize) -> Built {
        let db = session.database();
        shop::create_schema(db);
        session
            .create_namespace(shop::CARTS_NAMESPACE)
            .expect("fresh session");
        let mut txn = db.begin();
        for item in 0..gen::shop::ITEMS {
            txn.insert(
                shop::INVENTORY_TABLE,
                row![gen::shop::item_name(item), gen::shop::STOCK, 0i64],
            )
            .expect("fresh inventory");
        }
        txn.commit().expect("fresh inventory");
        // The shop has been open for a while: past orders and their
        // payments, so the tables and the `customer` index the requests
        // hit are not empty ones.
        for chunk in (0..gen::shop::PAST_ORDERS).collect::<Vec<_>>().chunks(500) {
            let mut txn = db.begin();
            for &n in chunk {
                let order_id = format!("p{n:05}");
                let customer = format!(
                    "cust-{}-{:03}",
                    n % gen::CONNECTIONS,
                    n % gen::shop::CUSTOMERS
                );
                txn.insert(
                    shop::ORDERS_TABLE,
                    row![
                        order_id.clone(),
                        customer,
                        gen::shop::item_name(n % gen::shop::ITEMS),
                        1i64,
                        "confirmed"
                    ],
                )
                .expect("fresh orders");
                txn.insert(
                    shop::PAYMENTS_TABLE,
                    row![format!("pay-{order_id}"), order_id, 10i64],
                )
                .expect("fresh payments");
            }
            txn.commit().expect("fresh orders");
        }
        let trod = Trod::attach(runtime_over(&session, shop::registry())).expect("attach");
        Built {
            trod,
            patches: vec![("identity", shop::registry())],
            gens: per_connection(|conn| gen::shop::ShopGen::new(seed, conn)),
        }
    }

    fn verify(&self, trod: &Trod, tally: &Tally) -> Result<(), String> {
        let db = trod.production_db();
        let reserved: i64 = db
            .scan_latest(shop::INVENTORY_TABLE, &Predicate::True)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|(_, r)| r[2].as_int().unwrap_or(0))
            .sum();
        expect_eq("units reserved", reserved, tally.get("units"))?;
        let orders = gen::shop::PAST_ORDERS as i64 + tally.get("checkouts");
        expect_eq("orders", count_rows(db, shop::ORDERS_TABLE) as i64, orders)?;
        expect_eq(
            "payments",
            count_rows(db, shop::PAYMENTS_TABLE) as i64,
            orders,
        )
    }

    fn read_probe(&self) -> ReadProbe {
        ReadProbe {
            // reserveInventory's read; listOrders' scan.
            get: (shop::INVENTORY_TABLE, Key::single(gen::shop::item_name(0))),
            scan: (shop::ORDERS_TABLE, Predicate::eq("customer", "cust-0-000")),
        }
    }
}

// -------------------------------------------------------------- moodle

pub struct MoodleFetch;

/// Preloads every forum with its subscribers, one commit per 10 forums.
fn preload_forum_subs(db: &Database) {
    for chunk in (0..gen::moodle::FORUMS).collect::<Vec<_>>().chunks(10) {
        let mut txn = db.begin();
        for &forum in chunk {
            for user in 0..gen::moodle::USERS_PER_FORUM {
                txn.insert(
                    moodle::FORUM_SUB_TABLE,
                    row![
                        format!("s{forum:03}-{user:03}"),
                        gen::moodle::user_name(user),
                        gen::moodle::forum_name(forum)
                    ],
                )
                .expect("fresh forum_sub");
            }
        }
        txn.commit().expect("fresh forum_sub");
    }
}

const PRELOADED_SUBS: usize = gen::moodle::FORUMS * gen::moodle::USERS_PER_FORUM;

/// `fetchSubscribers`' scan of one forum, and a subscription by id.
pub fn moodle_read_probe(forum: String, sub_id: &str) -> ReadProbe {
    ReadProbe {
        get: (moodle::FORUM_SUB_TABLE, Key::single(sub_id)),
        scan: (moodle::FORUM_SUB_TABLE, Predicate::eq("forum", forum)),
    }
}

impl Workload for MoodleFetch {
    fn name(&self) -> &'static str {
        "moodle_fetch"
    }
    fn why(&self) -> &'static str {
        "90% fetchSubscribers (100 of 20k rows by index) / 10% paired subscribe+unsubscribe: db scan/index/SSI read validation, 100-row read-set capture, response encoding; WAL nearly idle"
    }
    fn counts(&self) -> Counts {
        Counts {
            slices: 20,
            serve_slice: 70,
            ingest: 600,
        }
    }
    fn tables(&self) -> &'static [&'static str] {
        &[moodle::FORUM_SUB_TABLE]
    }

    fn build(&self, session: Session, seed: u64, _serve_requests: usize) -> Built {
        let db = session.database();
        moodle::create_schema(db);
        preload_forum_subs(db);
        let provenance = moodle::provenance_for(db);
        let trod = Trod::attach_with(runtime_over(&session, moodle::registry()), provenance);
        Built {
            trod,
            patches: vec![("atomic-subscribe", moodle::patched_registry())],
            gens: per_connection(|conn| gen::moodle::MoodleGen::new(seed, conn)),
        }
    }

    fn verify(&self, trod: &Trod, tally: &Tally) -> Result<(), String> {
        expect_eq(
            "forum_sub rows",
            count_rows(trod.production_db(), moodle::FORUM_SUB_TABLE) as i64,
            PRELOADED_SUBS as i64 + tally.get("guests"),
        )
    }

    fn read_probe(&self) -> ReadProbe {
        moodle_read_probe(gen::moodle::forum_name(0), "s000-000")
    }
}

// ---------------------------------------------------------------- wiki

pub struct WikiEdit;

impl Workload for WikiEdit {
    fn name(&self) -> &'static str {
        "wiki_edit"
    }
    fn why(&self) -> &'static str {
        "50% editPage of 2-8 KiB bodies / 20% getPage / 20% addSiteLink / 10% listSiteLinks on 500 pages: few large in-place updates to hot version chains, KiB-sized JSON both ways"
    }
    fn counts(&self) -> Counts {
        Counts {
            slices: 20,
            serve_slice: 70,
            ingest: 400,
        }
    }
    fn tables(&self) -> &'static [&'static str] {
        &[
            mediawiki::PAGES_TABLE,
            mediawiki::SITE_LINKS_TABLE,
            mediawiki::REVISIONS_TABLE,
        ]
    }

    fn build(&self, session: Session, seed: u64, _serve_requests: usize) -> Built {
        let db = session.database();
        mediawiki::create_schema(db);
        let bodies = gen::wiki::initial_bodies(seed);
        for (chunk_no, chunk) in bodies.chunks(50).enumerate() {
            let mut txn = db.begin();
            for (i, body) in chunk.iter().enumerate() {
                let (page, size) = (chunk_no * 50 + i, body.len() as i64);
                let title = gen::wiki::page_title(page);
                txn.insert(
                    mediawiki::PAGES_TABLE,
                    row![title.clone(), body.clone(), size, 1i64],
                )
                .expect("fresh pages");
                // Every page links home, so no listing is ever empty.
                txn.insert(
                    mediawiki::SITE_LINKS_TABLE,
                    row![format!("home-{page:03}"), title, gen::wiki::home_link(page)],
                )
                .expect("fresh site links");
            }
            txn.commit().expect("fresh pages");
        }
        let trod = Trod::attach(runtime_over(&session, mediawiki::registry())).expect("attach");
        Built {
            trod,
            patches: vec![("atomic-edit", mediawiki::patched_registry())],
            gens: per_connection(|conn| gen::wiki::WikiGen::new(seed, conn)),
        }
    }

    fn verify(&self, trod: &Trod, tally: &Tally) -> Result<(), String> {
        let db = trod.production_db();
        let pages = db
            .scan_latest(mediawiki::PAGES_TABLE, &Predicate::True)
            .map_err(|e| e.to_string())?;
        expect_eq("pages", pages.len() as i64, gen::wiki::PAGES as i64)?;
        // Every page starts at revision 1 and every edit adds one.
        let revisions: i64 = pages
            .iter()
            .map(|(_, r)| r[3].as_int().unwrap_or(0) - 1)
            .sum();
        expect_eq("page revisions", revisions, tally.get("edits"))?;
        expect_eq(
            "revision rows",
            count_rows(db, mediawiki::REVISIONS_TABLE) as i64,
            tally.get("edits"),
        )?;
        expect_eq(
            "site links",
            count_rows(db, mediawiki::SITE_LINKS_TABLE) as i64,
            gen::wiki::PAGES as i64 + tally.get("links"),
        )
    }

    fn read_probe(&self) -> ReadProbe {
        ReadProbe {
            // editPage's read; listSiteLinks' scan.
            get: (
                mediawiki::PAGES_TABLE,
                Key::single(gen::wiki::page_title(0)),
            ),
            scan: (
                mediawiki::SITE_LINKS_TABLE,
                Predicate::eq("page", gen::wiki::page_title(0)),
            ),
        }
    }
}
