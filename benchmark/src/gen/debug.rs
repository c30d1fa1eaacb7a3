//! `debug_session`: the developer-facing half of the paper.
//!
//! Two generators. [`History`] is the traced Moodle production history the
//! set-up replays in-process — subscriptions, fetches, unsubscriptions and
//! a handful of MDL-59854 races that leave duplicate subscribers behind.
//! [`DebugGen`] is what the one debugging connection then sends: a fixed
//! cycle of nine RPCs that finds a duplicate with the paper's provenance
//! query, time-travels, forks, replays, reenacts and retroactively patches
//! — then, for the ingest phase, ordinary Moodle requests against the same
//! server.

use trod_core::json::Json;

use super::{Class, ConnGen, Request, Rng};

/// Forums in the history (`F00` …). The first [`RACES`] are the ones a
/// race corrupts; fetches only ever target the others, so no request of
/// the benchmark fails on the bug it is debugging.
pub const FORUMS: usize = 40;
/// Racing `subscribeUser` pairs in the history.
pub const RACES: usize = 8;
/// Requests in the history, races included.
pub const HISTORY: usize = 3000;
/// The server-side patch `trod_retroactive` re-executes under.
pub const PATCH: &str = "atomic-subscribe";
/// RPCs per debug cycle.
pub const CYCLE: usize = 9;

pub fn forum_name(forum: usize) -> String {
    format!("F{forum:02}")
}

/// One step of the history.
pub enum HistoryOp {
    Subscribe {
        sub_id: String,
        user: String,
        forum: String,
    },
    Unsubscribe {
        user: String,
        forum: String,
    },
    Fetch {
        forum: String,
        expect: String,
    },
    /// Two requests for the same `(user, forum)` interleaved so that both
    /// check before either inserts.
    Race(usize),
}

/// The racing pair number `race`: request ids, user, forum, sub ids.
pub struct Race {
    pub first_req: String,
    pub second_req: String,
    pub user: String,
    pub forum: String,
    pub first_sub: String,
    pub second_sub: String,
}

pub fn race(race: usize) -> Race {
    Race {
        first_req: format!("race{race}a"),
        second_req: format!("race{race}b"),
        user: format!("dup{race}"),
        forum: forum_name(race),
        first_sub: format!("dup{race}a"),
        second_sub: format!("dup{race}b"),
    }
}

/// Who is subscribed where, as the history and the ingest phase know it.
#[derive(Clone)]
pub struct Membership {
    forums: Vec<Vec<String>>,
}

impl Membership {
    pub fn rows(&self) -> usize {
        self.forums.iter().map(Vec::len).sum()
    }

    fn sorted(&self, forum: usize) -> String {
        let mut users = self.forums[forum].clone();
        users.sort();
        users.join(",")
    }
}

/// The seeded production history: blocks of ten (7 subscribe, 2 fetch,
/// 1 unsubscribe, order permuted), with the races at fixed positions.
pub struct History {
    rng: Rng,
    pub members: Membership,
    issued: usize,
    races: usize,
    block: [u8; 10],
    pos: usize,
    users: usize,
}

impl History {
    pub fn new(seed: u64) -> History {
        let mut history = History {
            rng: Rng::new(seed, 7),
            members: Membership {
                forums: vec![Vec::new(); FORUMS],
            },
            issued: 0,
            races: 0,
            block: [0, 0, 0, 0, 0, 0, 0, 1, 1, 2],
            pos: 0,
            users: 0,
        };
        history.rng.shuffle(&mut history.block);
        history
    }

    /// Requests issued so far (a race counts as two).
    pub fn issued(&self) -> usize {
        self.issued
    }

    fn subscribe(&mut self) -> HistoryOp {
        let forum = self.rng.below(FORUMS);
        let user = format!("h{:05}", self.users);
        let sub_id = format!("s{:05}", self.users);
        self.users += 1;
        self.members.forums[forum].push(user.clone());
        HistoryOp::Subscribe {
            sub_id,
            user,
            forum: forum_name(forum),
        }
    }
}

impl Iterator for History {
    type Item = HistoryOp;

    fn next(&mut self) -> Option<HistoryOp> {
        if self.issued >= HISTORY {
            return None;
        }
        // Races are spread evenly through the history.
        if self.races < RACES && self.issued >= (self.races + 1) * HISTORY / (RACES + 1) {
            let k = self.races;
            self.races += 1;
            self.issued += 2;
            let user = race(k).user;
            self.members.forums[k].extend([user.clone(), user]);
            return Some(HistoryOp::Race(k));
        }
        if self.pos == self.block.len() {
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        let kind = self.block[self.pos];
        self.pos += 1;
        self.issued += 1;
        // Fetches and unsubscribes stay off the forums races corrupt.
        let clean = RACES + self.rng.below(FORUMS - RACES);
        Some(match kind {
            1 => HistoryOp::Fetch {
                forum: forum_name(clean),
                expect: self.members.sorted(clean),
            },
            2 if !self.members.forums[clean].is_empty() => {
                let members = &mut self.members.forums[clean];
                let user = members.swap_remove(self.rng.below(members.len()));
                HistoryOp::Unsubscribe {
                    user,
                    forum: forum_name(clean),
                }
            }
            _ => self.subscribe(),
        })
    }
}

/// What set-up learned while replaying the history and the debug cycle
/// needs: timestamps to travel to and the counts that must be found there.
#[derive(Clone)]
pub struct Facts {
    /// A timestamp in mid-history and the `forum_sub` row count then.
    pub mid_ts: u64,
    pub mid_rows: usize,
    /// Per race: a timestamp at which exactly one of the two duplicate
    /// rows exists.
    pub between_inserts_ts: Vec<u64>,
}

pub struct DebugGen {
    rng: Rng,
    facts: Facts,
    members: Membership,
    /// Requests of the serve phase; after them come the ingest-phase
    /// Moodle requests.
    serve_requests: usize,
    issued: usize,
    guests: usize,
}

impl DebugGen {
    pub fn new(seed: u64, facts: Facts, members: Membership, serve_requests: usize) -> DebugGen {
        assert_eq!(serve_requests % CYCLE, 0, "serve phase is whole cycles");
        DebugGen {
            rng: Rng::new(seed, 8),
            facts,
            members,
            serve_requests,
            issued: 0,
            guests: 0,
        }
    }

    fn cycle_request(&self, cycle: usize, step: usize) -> Request {
        let k = cycle % RACES;
        let race = race(k);
        // The server numbers forks in the order they are taken; this
        // connection is the only one taking any.
        let fork_id = format!("fork-{}", 2 * cycle + 1);
        let replay_fork_id = format!("fork-{}", 2 * cycle + 2);
        let dup_filter = format!("user_id = '{}' AND forum = '{}'", race.user, race.forum);
        match step {
            // The paper's §3.3 query: which requests inserted the
            // duplicated subscription?
            0 => {
                let sql = format!(
                    "SELECT Timestamp, ReqId, HandlerName, E.TxnId \
                     FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
                     WHERE F.Type = 'Insert' AND F.user_id = '{}' AND F.forum = '{}' \
                     ORDER BY Timestamp ASC",
                    race.user, race.forum
                );
                // The second request of the script inserts first.
                let want = vec![race.second_req.clone(), race.first_req.clone()];
                rpc(
                    "trod_sql",
                    "sql_provenance",
                    vec![("sql", Json::str(sql)), ("target", Json::str("provenance"))],
                    move |result| {
                        let got: Vec<String> = rows(result)?
                            .iter()
                            .filter_map(|r| r.as_array()?.get(1)?.as_str().map(str::to_string))
                            .collect();
                        expect(got == want, || {
                            format!("writers {got:?}, expected {want:?}")
                        })
                    },
                )
            }
            1 => {
                let want = self.facts.mid_rows as i64;
                rpc(
                    "trod_sql",
                    "sql_as_of",
                    vec![
                        ("sql", Json::str("SELECT COUNT(*) FROM forum_sub")),
                        ("as_of", Json::from(self.facts.mid_ts)),
                    ],
                    move |result| {
                        let got = rows(result)?
                            .first()
                            .and_then(|r| r.as_array()?.first()?.as_i64());
                        expect(got == Some(want), || {
                            format!("{got:?} rows as of mid-history, expected {want}")
                        })
                    },
                )
            }
            2 => {
                let want = fork_id.clone();
                rpc(
                    "trod_fork",
                    "trod_fork",
                    vec![("ts", Json::from(self.facts.between_inserts_ts[k]))],
                    move |result| expect_fork_id(result, &want),
                )
            }
            3 => rpc(
                "fork_sql",
                "fork_sql",
                vec![
                    ("fork", Json::str(fork_id)),
                    (
                        "sql",
                        Json::str(format!("SELECT sub_id FROM forum_sub WHERE {dup_filter}")),
                    ),
                ],
                |result| {
                    let n = rows(result)?.len();
                    expect(n == 1, || {
                        format!("{n} duplicate rows between the two inserts, expected 1")
                    })
                },
            ),
            4 => drop_fork(fork_id),
            5 => rpc(
                "trod_replay",
                "trod_replay",
                vec![("req_id", Json::str(race.first_req))],
                move |result| {
                    expect(
                        result.get("faithful").and_then(Json::as_bool) == Some(true),
                        || format!("replay is not faithful: {result}"),
                    )?;
                    expect_fork_id(result, &replay_fork_id)
                },
            ),
            6 => drop_fork(replay_fork_id),
            7 => rpc(
                "trod_reenact",
                "trod_reenact",
                vec![("req_id", Json::str(race.first_req))],
                |result| {
                    let reports = result
                        .get("reports")
                        .and_then(Json::as_array)
                        .unwrap_or(&[]);
                    // Check txn and insert txn.
                    expect(reports.len() == 2, || {
                        format!("{} reenactment reports, expected 2", reports.len())
                    })
                },
            ),
            _ => rpc(
                "trod_retroactive",
                "trod_retroactive",
                vec![
                    ("patch", Json::str(PATCH)),
                    (
                        "requests",
                        Json::Array(vec![Json::str(race.first_req), Json::str(race.second_req)]),
                    ),
                ],
                |result| {
                    let orderings = result
                        .get("orderings")
                        .and_then(Json::as_array)
                        .unwrap_or(&[]);
                    let all_ok = orderings.iter().all(|o| {
                        o.get("outcomes")
                            .and_then(Json::as_array)
                            .is_some_and(|outs| {
                                outs.len() == 2
                                    && outs.iter().all(|out| {
                                        out.get("ok").and_then(Json::as_bool) == Some(true)
                                    })
                            })
                    });
                    expect(!orderings.is_empty() && all_ok, || {
                        format!("retroactive run: {result}")
                    })
                },
            ),
        }
    }

    /// Ingest phase: nine fetches of a clean forum, then one new
    /// subscriber, per block of ten.
    fn moodle_request(&mut self, n: usize) -> Request {
        let forum = RACES + self.rng.below(FORUMS - RACES);
        if n % 10 == 9 {
            let user = format!("y{:05}", self.guests);
            let sub_id = format!("t{:05}", self.guests);
            self.guests += 1;
            self.members.forums[forum].push(user.clone());
            Request::invoke(
                "subscribeUser",
                Class::Write,
                2,
                vec![
                    ("sub_id", Json::str(sub_id)),
                    ("user_id", Json::str(user)),
                    ("forum", Json::str(forum_name(forum))),
                ],
                Json::Bool(true),
            )
        } else {
            Request::invoke(
                "fetchSubscribers",
                Class::Read,
                1,
                vec![("forum", Json::str(forum_name(forum)))],
                Json::str(self.members.sorted(forum)),
            )
        }
    }
}

impl ConnGen for DebugGen {
    fn next_request(&mut self) -> Request {
        let n = self.issued;
        self.issued += 1;
        if n < self.serve_requests {
            self.cycle_request(n / CYCLE, n % CYCLE)
        } else {
            self.moodle_request(n - self.serve_requests)
        }
    }

    fn tally(&self) -> Vec<(&'static str, i64)> {
        vec![("rows", self.members.rows() as i64)]
    }
}

fn rpc(
    method: &'static str,
    kind: &'static str,
    params: Vec<(&'static str, Json)>,
    check: impl Fn(&Json) -> Result<(), String> + Send + 'static,
) -> Request {
    Request {
        method,
        kind,
        class: Class::Read,
        txns: 0,
        params: Json::obj(params),
        check: Box::new(move |result| check(result).map_err(|e| format!("{kind}: {e}"))),
    }
}

fn drop_fork(fork_id: String) -> Request {
    rpc(
        "fork_drop",
        "fork_drop",
        vec![("fork", Json::str(fork_id))],
        |_| Ok(()),
    )
}

fn rows(result: &Json) -> Result<&[Json], String> {
    result
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("no rows in {result}"))
}

fn expect(ok: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(detail())
    }
}

fn expect_fork_id(result: &Json, want: &str) -> Result<(), String> {
    let got = result.get("fork_id").and_then(Json::as_str);
    expect(got == Some(want), || {
        format!("fork id {got:?}, expected {want}")
    })
}
