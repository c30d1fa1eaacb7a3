//! `moodle_fetch`: 90 % `fetchSubscribers` / 10 % paired
//! `subscribeUser` + `unsubscribeUser`.
//!
//! The read path: every fetch scans the 100 subscribers of one forum out
//! of a 20 000-row table through the `forum` index, is SSI-validated, and
//! captures a 100-row read set. Each block of 20 subscribes one new user
//! to a forum and unsubscribes them again, so `forum_sub` has the same
//! size after every block and the scan cost cannot drift over a run.

use std::ops::Range;

use trod_core::json::Json;

use super::{partition, Class, ConnGen, Request, Rng};

/// Preloaded forums (`F000` … `F199`).
pub const FORUMS: usize = 200;
/// Subscribers preloaded into every forum (`u000` … `u099`).
pub const USERS_PER_FORUM: usize = 100;
/// 18 fetches, one subscribe, one unsubscribe.
const BLOCK: usize = 20;

pub fn forum_name(forum: usize) -> String {
    format!("F{forum:03}")
}

pub fn user_name(user: usize) -> String {
    format!("u{user:03}")
}

/// What `fetchSubscribers` answers for a forum nobody has joined since
/// the preload: the preloaded users, sorted.
pub fn preloaded_subscribers() -> String {
    (0..USERS_PER_FORUM)
        .map(user_name)
        .collect::<Vec<_>>()
        .join(",")
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Fetch,
    Subscribe,
    Unsubscribe,
}

pub struct MoodleGen {
    conn: usize,
    rng: Rng,
    forums: Range<usize>,
    block: Vec<Op>,
    pos: usize,
    preloaded: String,
    /// Subscriptions issued so far; names the next new user.
    subscribed: usize,
    /// The `(forum, user)` subscribed in this block and not yet removed.
    guest: Option<(usize, String)>,
}

impl MoodleGen {
    pub fn new(seed: u64, conn: usize) -> MoodleGen {
        let mut gen = MoodleGen {
            conn,
            rng: Rng::new(seed, conn as u64),
            forums: partition(FORUMS, conn),
            block: Vec::new(),
            pos: 0,
            preloaded: preloaded_subscribers(),
            subscribed: 0,
            guest: None,
        };
        gen.next_block();
        gen
    }

    /// Two seeded positions for the pair, subscribe first; fetches
    /// everywhere else.
    fn next_block(&mut self) {
        let a = self.rng.below(BLOCK);
        let b = (a + 1 + self.rng.below(BLOCK - 1)) % BLOCK;
        self.block = vec![Op::Fetch; BLOCK];
        self.block[a.min(b)] = Op::Subscribe;
        self.block[a.max(b)] = Op::Unsubscribe;
        self.pos = 0;
    }

    fn pick_forum(&mut self) -> usize {
        self.forums.start + self.rng.below(self.forums.len())
    }
}

impl ConnGen for MoodleGen {
    fn next_request(&mut self) -> Request {
        if self.pos == BLOCK {
            self.next_block();
        }
        let op = self.block[self.pos];
        self.pos += 1;
        match op {
            Op::Fetch => {
                let forum = self.pick_forum();
                // New users are named `x…`, which sorts after every
                // preloaded `u…`.
                let expect = match &self.guest {
                    Some((f, user)) if *f == forum => format!("{},{user}", self.preloaded),
                    _ => self.preloaded.clone(),
                };
                Request::invoke(
                    "fetchSubscribers",
                    Class::Read,
                    1,
                    vec![("forum", Json::str(forum_name(forum)))],
                    Json::str(expect),
                )
            }
            Op::Subscribe => {
                let forum = self.pick_forum();
                let user = format!("x{}-{:06}", self.conn, self.subscribed);
                let sub_id = format!("n{}-{:06}", self.conn, self.subscribed);
                self.subscribed += 1;
                self.guest = Some((forum, user.clone()));
                Request::invoke(
                    "subscribeUser",
                    Class::Write,
                    // The buggy handler: check and insert are two txns.
                    2,
                    vec![
                        ("sub_id", Json::str(sub_id)),
                        ("user_id", Json::str(user)),
                        ("forum", Json::str(forum_name(forum))),
                    ],
                    Json::Bool(true),
                )
            }
            Op::Unsubscribe => {
                let (forum, user) = self.guest.take().expect("subscribe precedes unsubscribe");
                Request::invoke(
                    "unsubscribeUser",
                    Class::Write,
                    1,
                    vec![
                        ("user_id", Json::str(user)),
                        ("forum", Json::str(forum_name(forum))),
                    ],
                    Json::from(1i64),
                )
            }
        }
    }

    fn tally(&self) -> Vec<(&'static str, i64)> {
        vec![("guests", self.guest.is_some() as i64)]
    }
}
