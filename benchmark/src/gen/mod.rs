//! Seeded request generators, one per workload.
//!
//! `--seed` is the only input: a generator is a pure function of
//! `(seed, connection index)` and the frozen counts, and the program under
//! test sees nothing but the requests it yields. The rules every generator
//! follows, and why (see README.md, "Noise findings"):
//!
//! * **Disjoint partitions.** Connection `c` only ever touches its own
//!   items / forums / pages, so two in-flight requests can never conflict
//!   and `failed == 0` is an invariant, not a hope.
//! * **Exact mixes.** A request kind's share is fixed per block of 10 or
//!   20 requests; the seed permutes the order inside the block and picks
//!   the keys. The amount of work is therefore the same for every seed and
//!   only its arrangement changes — which is what lets ten runs on ten
//!   seeds agree to a few percent.
//! * **Steady tables.** Subscribes are paired with unsubscribes, site
//!   links are capped per page, page bodies are replaced in place; only
//!   the append-only logs the applications keep (orders, payments,
//!   revisions) grow, linearly in the frozen request count.
//! * **Streaming.** A generator yields one request at a time and carries
//!   the model state needed to say what the reply must be, so the harness
//!   never holds more than one slice of rendered requests.
//!
//! `trod_apps::workload` is deliberately not reused: its streams share hot
//! keys between connections (conflicts vary run to run) and grow tables
//! without bound (the slice rate decays 4× over 100k requests).

pub mod debug;
pub mod moodle;
pub mod shop;
pub mod wiki;

use trod_core::json::Json;

/// Client threads / keep-alive connections the wire workloads use. The
/// sandbox has two cores; 1 and 4 connections were tried and were no
/// steadier (README.md).
pub const CONNECTIONS: usize = 2;

/// Whether a request writes (at least one write transaction commits) or
/// only reads; the load generator reports a latency median for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// Checks one reply (`result` member of the JSON-RPC response).
pub type Check = Box<dyn Fn(&Json) -> Result<(), String> + Send>;

/// One generated request and the reply it must get.
pub struct Request {
    /// JSON-RPC method (`trod_invoke`, `trod_sql`, ...).
    pub method: &'static str,
    /// Handler name for `trod_invoke`, otherwise the method: the request
    /// *kind* latency is reported under.
    pub kind: &'static str,
    pub class: Class,
    /// Traced transactions the request runs (each becomes one row of the
    /// provenance `Executions` table once ingested).
    pub txns: u64,
    pub params: Json,
    pub check: Check,
}

impl Request {
    /// A `trod_invoke` of `handler` whose reply's `output` must equal
    /// `expect`.
    pub fn invoke(
        handler: &'static str,
        class: Class,
        txns: u64,
        args: Vec<(&'static str, Json)>,
        expect: Json,
    ) -> Request {
        Request {
            method: "trod_invoke",
            kind: handler,
            class,
            txns,
            params: Json::obj(vec![
                ("handler", Json::str(handler)),
                ("args", Json::obj(args)),
            ]),
            check: Box::new(move |result| match result.get("output") {
                Some(got) if *got == expect => Ok(()),
                got => Err(format!("{handler}: output {got:?}, expected {expect}")),
            }),
        }
    }

    /// The JSON-RPC envelope text for this request.
    pub fn envelope(&self, id: u64) -> String {
        // Built by hand around `params` so the (possibly KiB-sized)
        // params tree is not cloned just to be serialized.
        let mut out = String::with_capacity(96);
        out.push_str("{\"jsonrpc\":\"2.0\",\"id\":");
        out.push_str(&id.to_string());
        out.push_str(",\"method\":\"");
        out.push_str(self.method);
        out.push_str("\",\"params\":");
        self.params.write(&mut out);
        out.push('}');
        out
    }

    /// The full HTTP/1.1 request bytes, exactly as the wire client sends
    /// them and as the per-layer probes feed `http::parse_request`.
    pub fn http_bytes(&self, id: u64) -> Vec<u8> {
        let body = self.envelope(id);
        let mut out = Vec::with_capacity(body.len() + 96);
        out.extend_from_slice(
            format!(
                "POST /rpc HTTP/1.1\r\nhost: trod\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        out.extend_from_slice(body.as_bytes());
        out
    }
}

/// The request stream of one connection.
pub trait ConnGen: Send {
    fn next_request(&mut self) -> Request;

    /// Named totals of what has been issued so far (checkouts, units sold,
    /// edits, ...): what the database must hold once every request issued
    /// has been answered. Summed over connections by the output checks.
    fn tally(&self) -> Vec<(&'static str, i64)>;
}

/// SplitMix64: tiny, seedable, and good enough to permute blocks and pick
/// keys. The vendored `rand` stub is avoided so the generated bytes depend
/// on nothing outside this directory.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `len` lowercase letters and spaces — page bodies and the like.
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz      ";
        let mut out = String::with_capacity(len);
        while out.len() < len {
            let mut word = self.next_u64();
            for _ in 0..12 {
                if out.len() == len {
                    break;
                }
                out.push(ALPHABET[(word & 31) as usize] as char);
                word >>= 5;
            }
        }
        out
    }
}

/// The half-open key range connection `conn` owns out of `total` keys.
pub fn partition(total: usize, conn: usize) -> std::ops::Range<usize> {
    let per = total / CONNECTIONS;
    conn * per..(conn + 1) * per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(43, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
    }

    #[test]
    fn shuffle_permutes() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(7, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn partitions_are_disjoint_and_cover() {
        assert_eq!(partition(500, 0), 0..250);
        assert_eq!(partition(500, 1), 250..500);
    }

    #[test]
    fn text_has_the_requested_length() {
        for len in [0, 1, 11, 12, 13, 4096] {
            assert_eq!(Rng::new(1, 1).text(len).len(), len);
        }
    }

    /// The wire generators, by name.
    fn generator(workload: &str, seed: u64, conn: usize) -> Box<dyn ConnGen> {
        match workload {
            "shop" => Box::new(shop::ShopGen::new(seed, conn)),
            "moodle" => Box::new(moodle::MoodleGen::new(seed, conn)),
            "wiki" => Box::new(wiki::WikiGen::new(seed, conn)),
            other => panic!("no generator {other}"),
        }
    }

    const WIRE: [&str; 3] = ["shop", "moodle", "wiki"];

    /// The bytes the wire client would send for the first `n` requests.
    fn rendered(gen: &mut dyn ConnGen, n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| gen.next_request().http_bytes(i as u64 + 1))
            .collect()
    }

    #[test]
    fn same_seed_renders_identical_bytes_and_another_seed_does_not() {
        for workload in WIRE {
            for conn in 0..CONNECTIONS {
                let bytes = |seed| rendered(generator(workload, seed, conn).as_mut(), 500);
                assert_eq!(bytes(42), bytes(42), "{workload} connection {conn}");
                assert_ne!(bytes(42), bytes(43), "{workload} connection {conn}");
            }
        }
        let history = |seed| {
            debug::History::new(seed)
                .map(|op| match op {
                    debug::HistoryOp::Subscribe { user, forum, .. } => format!("+{user}@{forum}"),
                    debug::HistoryOp::Unsubscribe { user, forum } => format!("-{user}@{forum}"),
                    debug::HistoryOp::Fetch { forum, expect } => format!("?{forum}={expect}"),
                    debug::HistoryOp::Race(k) => format!("race{k}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(history(42), history(42));
        assert_ne!(history(42), history(43));
    }

    /// The key (item, forum, page) a request touches.
    fn key_of(request: &Request) -> Option<String> {
        let args = request.params.get("args")?;
        ["item", "forum", "title", "page"]
            .iter()
            .find_map(|field| args.get(field)?.as_str().map(str::to_string))
    }

    #[test]
    fn connections_touch_disjoint_keys() {
        for workload in WIRE {
            let keys = |conn| {
                let mut gen = generator(workload, 42, conn);
                (0..4000)
                    .filter_map(|_| key_of(&gen.next_request()))
                    .collect::<std::collections::BTreeSet<String>>()
            };
            let (first, second) = (keys(0), keys(1));
            assert!(
                first.len() > 50 && second.len() > 50,
                "{workload} spreads over its keys"
            );
            assert!(
                first.is_disjoint(&second),
                "{workload}: connections share keys"
            );
        }
    }

    #[test]
    fn moodle_table_size_is_restored_every_block() {
        let mut gen = moodle::MoodleGen::new(42, 0);
        let (mut subscribed, mut unsubscribed) = (0, 0);
        for n in 1..=2000 {
            match gen.next_request().kind {
                "subscribeUser" => subscribed += 1,
                "unsubscribeUser" => unsubscribed += 1,
                _ => {}
            }
            assert!(
                subscribed - unsubscribed <= 1,
                "at most one guest at a time"
            );
            if n % 20 == 0 {
                assert_eq!(
                    subscribed,
                    unsubscribed,
                    "block {} leaves a guest behind",
                    n / 20
                );
                assert_eq!(gen.tally(), vec![("guests", 0)]);
            }
        }
        assert_eq!(subscribed, 100, "exactly one pair per block of 20");
    }

    #[test]
    fn mixes_are_exact() {
        let count = |workload, kind: &str| {
            let mut gen = generator(workload, 7, 1);
            (0..1000)
                .filter(|_| gen.next_request().kind == kind)
                .count()
        };
        assert_eq!(count("shop", "checkout"), 900);
        assert_eq!(count("shop", "getOrder"), 100);
        assert_eq!(count("moodle", "fetchSubscribers"), 900);
        assert_eq!(count("wiki", "editPage"), 500);
        assert_eq!(count("wiki", "getPage"), 200);
        assert_eq!(count("wiki", "addSiteLink"), 200);
        assert_eq!(count("wiki", "listSiteLinks"), 100);
    }

    #[test]
    fn wiki_bytes_edited_do_not_depend_on_the_seed() {
        let edited = |seed| {
            let mut gen = wiki::WikiGen::new(seed, 0);
            (0..1280)
                .map(|_| gen.next_request())
                .filter(|r| r.kind == "editPage")
                .map(|r| {
                    r.params
                        .get("args")
                        .unwrap()
                        .get("content")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .len()
                })
                .sum::<usize>()
        };
        // 640 edits cycle ten times through the 64 body sizes.
        assert_eq!(edited(1), edited(2));
    }

    #[test]
    fn history_membership_matches_what_was_issued() {
        let mut history = debug::History::new(42);
        let (mut joined, mut left, mut races) = (0, 0, 0);
        for op in history.by_ref() {
            match op {
                debug::HistoryOp::Subscribe { .. } => joined += 1,
                debug::HistoryOp::Unsubscribe { .. } => left += 1,
                debug::HistoryOp::Race(_) => races += 1,
                debug::HistoryOp::Fetch { .. } => {}
            }
        }
        assert_eq!(races, debug::RACES);
        assert_eq!(history.issued(), debug::HISTORY);
        assert_eq!(history.members.rows(), joined - left + 2 * races);
    }
}
