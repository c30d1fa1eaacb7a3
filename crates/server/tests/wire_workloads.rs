//! The application workloads (shop, Moodle, MediaWiki) driven over the
//! wire: 8 concurrent keep-alive connections, every request a
//! `trod_invoke`. How many requests lose a race depends on the
//! scheduler, so the tests assert what every interleaving must satisfy:
//! each request ends as a success, a typed retryable conflict, or the
//! application's own error (a `getOrder` racing the checkout that creates
//! the order; the Moodle duplicate-subscription check catching the
//! MDL-59854 race that the stream's repeated (user, forum) pairs exist to
//! provoke) — never as a fatal failure, which would mean a broken mapping.

use std::collections::BTreeMap;
use std::sync::Mutex;

use trod_apps::{mediawiki, moodle, shop};
use trod_core::json::Json;
use trod_core::Trod;
use trod_runtime::{Args, Runtime};
use trod_server::{Client, ClientError, ServerBuilder, ServerHandle};

fn serve(trod: Trod) -> ServerHandle {
    ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind")
}

/// How the requests of one drive ended.
#[derive(Debug, Default)]
struct Tally {
    /// Successes per handler.
    ok: BTreeMap<String, usize>,
    /// Conflicts under contention, expected on the hot keys.
    retryable: usize,
    /// The handler's own rejection (wire kind `application_error`).
    application: usize,
    /// Every other failure: the wire mapping or the engine is broken.
    fatal: Vec<String>,
}

impl Tally {
    fn succeeded(&self) -> usize {
        self.ok.values().sum()
    }
}

/// Sends `requests` as `trod_invoke` calls over `connections` clients,
/// dealt round-robin, so each connection keeps the list's relative order.
fn drive(addr: &str, requests: &[(String, Args)], connections: usize) -> Tally {
    let tally = Mutex::new(Tally::default());
    std::thread::scope(|scope| {
        for first in 0..connections {
            let tally = &tally;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (handler, args) in requests.iter().skip(first).step_by(connections) {
                    let params = Json::obj(vec![
                        ("handler", Json::str(handler.clone())),
                        ("args", args.to_json()),
                    ]);
                    let outcome = client.call("trod_invoke", params);
                    let mut tally = tally.lock().unwrap();
                    match outcome {
                        Ok(_) => *tally.ok.entry(handler.clone()).or_default() += 1,
                        Err(ClientError::Rpc(f)) if f.retryable => tally.retryable += 1,
                        Err(ClientError::Rpc(f)) if f.kind == "application_error" => {
                            tally.application += 1
                        }
                        Err(e) => tally.fatal.push(format!("{handler}: {e}")),
                    }
                }
            });
        }
    });
    let tally = tally.into_inner().unwrap();
    assert!(tally.fatal.is_empty(), "tally: {tally:?}");
    assert_eq!(
        tally.succeeded() + tally.application + tally.retryable,
        requests.len(),
        "tally: {tally:?}"
    );
    tally
}

#[test]
fn shop_workload_over_the_wire() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 10, 10_000);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    let server = serve(Trod::attach(runtime).expect("attach"));

    // Every fifth request is a checkout of the hot item-0; every tenth
    // looks up an earlier order, which may not have committed yet.
    let requests: Vec<(String, Args)> = (0..120)
        .map(|i| match i % 10 {
            9 => (
                "getOrder".to_string(),
                Args::new().with("order_id", format!("order-{}", i / 2)),
            ),
            _ => {
                let item = if i % 5 == 0 { 0 } else { i % 8 };
                let (order, user, item) = (
                    format!("order-{i}"),
                    format!("user-{}", i % 10),
                    format!("item-{item}"),
                );
                (
                    "checkout".to_string(),
                    shop::checkout_args(&order, &user, &item, 1),
                )
            }
        })
        .collect();
    let tally = drive(&server.addr(), &requests, 8);
    assert!(tally.succeeded() > requests.len() / 2, "tally: {tally:?}");

    let shutdown = server.shutdown();
    assert_eq!(shutdown.requests_served as usize, requests.len());
}

#[test]
fn moodle_workload_over_the_wire() {
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry()).build();
    let server = serve(Trod::attach_with(runtime, provenance));

    // Requests 2k and 2k+1 subscribe the same (user, forum) pair, and the
    // 12 pairs repeat: duplicates race on neighbouring connections.
    let requests: Vec<(String, Args)> = (0..100)
        .map(|i| {
            let pair = i / 2 % 12;
            let forum = format!("F{}", pair % 6);
            match i % 5 {
                4 => ("fetchSubscribers".to_string(), moodle::fetch_args(&forum)),
                _ => (
                    "subscribeUser".to_string(),
                    moodle::subscribe_args(&format!("sub-{i}"), &format!("U{pair}"), &forum),
                ),
            }
        })
        .collect();
    let tally = drive(&server.addr(), &requests, 8);
    assert!(tally.succeeded() > requests.len() / 2, "tally: {tally:?}");
    server.shutdown();
}

#[test]
fn mediawiki_workload_over_the_wire() {
    let runtime = Runtime::builder(mediawiki::mediawiki_db(), mediawiki::registry()).build();
    let server = serve(Trod::attach(runtime).expect("attach"));

    // Create the page pool serially (as a deployment would), then race
    // the edit/read mix over the wire; every third request is on the
    // hot Page_0.
    let pool: Vec<(String, Args)> = (0..5)
        .map(|k| {
            let page = Args::new()
                .with("title", format!("Page_{k}"))
                .with("content", format!("seed content {k}"));
            ("createPage".to_string(), page)
        })
        .collect();
    let created = drive(&server.addr(), &pool, 1);
    assert_eq!(created.succeeded(), pool.len(), "tally: {created:?}");
    let requests: Vec<(String, Args)> = (0..95)
        .map(|i| {
            let page = format!("Page_{}", if i % 3 == 0 { 0 } else { i % 5 });
            match i % 10 {
                4 => ("getPage".to_string(), Args::new().with("title", page)),
                9 => ("listSiteLinks".to_string(), Args::new().with("page", page)),
                3 | 7 => {
                    let url = format!("https://example.org/{i}");
                    let args = mediawiki::sitelink_args(&format!("link-{i}"), &page, &url);
                    ("addSiteLink".to_string(), args)
                }
                _ => {
                    let content = format!("content rev {i} by user-{}", i % 8);
                    let args = mediawiki::edit_args(&format!("rev-{i}"), &page, &content);
                    ("editPage".to_string(), args)
                }
            }
        })
        .collect();
    // Every page exists and every URL is new, so no request may fail as
    // the application's own error, and some edit must win its race.
    let tally = drive(&server.addr(), &requests, 8);
    assert_eq!(tally.application, 0, "tally: {tally:?}");
    assert!(tally.ok.get("editPage") > Some(&0), "tally: {tally:?}");
    server.shutdown();
}
