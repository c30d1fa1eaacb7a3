//! `wiki_edit`: 50 % `editPage`, 20 % `getPage`, 20 % `addSiteLink`,
//! 10 % `listSiteLinks` over a fixed pool of pages with 2–8 KiB bodies.
//!
//! The same `db` write layer as `shop_checkout`, used differently: few
//! large in-place updates to hot version chains instead of many small
//! inserts, and KiB-sized JSON in both directions. A WAL / JSON / trace
//! change tuned for small records that costs large ones shows here.

use std::ops::Range;

use trod_core::json::Json;

use super::{partition, Class, ConnGen, Request, Rng};

/// Preloaded pages (`Page_000` … `Page_499`).
pub const PAGES: usize = 500;
pub const MIN_BODY: usize = 2 * 1024;
pub const MAX_BODY: usize = 8 * 1024;
/// Site links a page may collect; the generator spreads links evenly over
/// its pages and refuses to exceed this.
pub const MAX_LINKS_PER_PAGE: usize = 32;
/// Distinct bodies per connection. Their sizes are spread evenly over
/// 2–8 KiB and every size is used equally often, so the bytes edited per
/// run do not depend on the seed — only the letters do.
const BODIES: usize = 64;
/// 5 edits, 2 gets, 2 link adds, 1 link listing.
const BLOCK: [Op; 10] = [
    Op::Edit,
    Op::Edit,
    Op::Edit,
    Op::Edit,
    Op::Edit,
    Op::Get,
    Op::Get,
    Op::AddLink,
    Op::AddLink,
    Op::ListLinks,
];

pub fn page_title(page: usize) -> String {
    format!("Page_{page:03}")
}

/// The one site link every page is preloaded with.
pub fn home_link(page: usize) -> String {
    format!("https://example.org/home/{page:03}")
}

/// Body size number `k` of `n`, evenly spread over the allowed range.
fn spread_size(k: usize, n: usize) -> usize {
    MIN_BODY + k * (MAX_BODY - MIN_BODY) / (n - 1)
}

/// The preloaded body of every page: sizes are a seeded permutation of an
/// even spread over 2–8 KiB, letters are seeded.
pub fn initial_bodies(seed: u64) -> Vec<String> {
    let mut sizes: Vec<usize> = (0..PAGES).map(|k| spread_size(k, PAGES)).collect();
    let mut rng = Rng::new(seed, 1000);
    rng.shuffle(&mut sizes);
    sizes.into_iter().map(|size| rng.text(size)).collect()
}

#[derive(Clone, Copy)]
enum Op {
    Edit,
    Get,
    AddLink,
    ListLinks,
}

struct Page {
    size: i64,
    revision: i64,
    links: Vec<String>,
}

pub struct WikiGen {
    conn: usize,
    rng: Rng,
    pages: Range<usize>,
    state: Vec<Page>,
    bodies: Vec<String>,
    block: [Op; 10],
    pos: usize,
    /// Seeded orders in which bodies and link targets are cycled through.
    body_order: Vec<usize>,
    link_order: Vec<usize>,
    edits: usize,
    links: usize,
}

impl WikiGen {
    pub fn new(seed: u64, conn: usize) -> WikiGen {
        let mut rng = Rng::new(seed, conn as u64);
        let pages = partition(PAGES, conn);
        let state = pages
            .clone()
            .zip(&initial_bodies(seed)[pages.clone()])
            .map(|(page, body)| Page {
                size: body.len() as i64,
                revision: 1,
                links: vec![home_link(page)],
            })
            .collect();
        let bodies = (0..BODIES)
            .map(|k| rng.text(spread_size(k, BODIES)))
            .collect();
        let mut body_order: Vec<usize> = (0..BODIES).collect();
        rng.shuffle(&mut body_order);
        let mut link_order: Vec<usize> = (0..pages.len()).collect();
        rng.shuffle(&mut link_order);
        let mut gen = WikiGen {
            conn,
            rng,
            pages,
            state,
            bodies,
            block: BLOCK,
            pos: 0,
            body_order,
            link_order,
            edits: 0,
            links: 0,
        };
        gen.rng.shuffle(&mut gen.block);
        gen
    }

    fn pick_page(&mut self) -> usize {
        self.rng.below(self.state.len())
    }
}

impl ConnGen for WikiGen {
    fn next_request(&mut self) -> Request {
        if self.pos == self.block.len() {
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        let op = self.block[self.pos];
        self.pos += 1;
        match op {
            Op::Edit => {
                let local = self.pick_page();
                let rev_id = format!("r{}-{}", self.conn, self.edits);
                let body = &self.bodies[self.body_order[self.edits % BODIES]];
                self.edits += 1;
                // Every revision's text is distinct: the id leads it.
                let content = format!("{rev_id} {body}");
                let page = &mut self.state[local];
                let delta = content.len() as i64 - page.size;
                page.size = content.len() as i64;
                page.revision += 1;
                Request::invoke(
                    "editPage",
                    Class::Write,
                    // Read txn, then write txn (the MW-39225 shape).
                    2,
                    vec![
                        ("rev_id", Json::str(rev_id)),
                        ("title", Json::str(page_title(self.pages.start + local))),
                        ("content", Json::str(content)),
                    ],
                    Json::from(delta),
                )
            }
            Op::Get => {
                let local = self.pick_page();
                let page = &self.state[local];
                Request::invoke(
                    "getPage",
                    Class::Read,
                    1,
                    vec![("title", Json::str(page_title(self.pages.start + local)))],
                    Json::str(format!("size={},revision={}", page.size, page.revision)),
                )
            }
            Op::AddLink => {
                let local = self.link_order[self.links % self.link_order.len()];
                let link_id = format!("l{}-{}", self.conn, self.links);
                let url = format!("https://example.org/{}/{}", self.conn, self.links);
                self.links += 1;
                let page = &mut self.state[local];
                page.links.push(url.clone());
                assert!(
                    page.links.len() <= MAX_LINKS_PER_PAGE,
                    "frozen counts put more than {MAX_LINKS_PER_PAGE} links on one page"
                );
                Request::invoke(
                    "addSiteLink",
                    Class::Write,
                    // Check txn, then insert txn (the MW-44325 shape).
                    2,
                    vec![
                        ("link_id", Json::str(link_id)),
                        ("page", Json::str(page_title(self.pages.start + local))),
                        ("url", Json::str(url)),
                    ],
                    Json::Bool(true),
                )
            }
            Op::ListLinks => {
                let local = self.pick_page();
                let mut urls = self.state[local].links.clone();
                urls.sort();
                Request::invoke(
                    "listSiteLinks",
                    Class::Read,
                    1,
                    vec![("page", Json::str(page_title(self.pages.start + local)))],
                    Json::str(urls.join(",")),
                )
            }
        }
    }

    fn tally(&self) -> Vec<(&'static str, i64)> {
        vec![("edits", self.edits as i64), ("links", self.links as i64)]
    }
}
