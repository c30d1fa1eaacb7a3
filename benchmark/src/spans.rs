//! Harness-side spans: one record around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! The program under test is not instrumented (that is a later change);
//! layers are timed from outside through their public functions. The wire
//! call of request *n* is recorded by the client thread that made it; its
//! children — `http_parse`, `json_decode`, `dispatch`, `json_encode` of
//! the same request *n* — are recorded in a separate single-threaded pass
//! over the same generated requests and point at it through `parent`. A
//! span's self time is its duration minus its children's, so the self
//! time of `wire_call` is what the sockets and the thread hand-off cost.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Position of the request in the generated list; spans of one
    /// request share it.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The client-side span of request number `req`.
    pub fn wire_call(req: u64, epoch: Instant, start: Instant, end: Instant) -> Span {
        Span {
            name: "wire_call",
            start_ns: (start - epoch).as_nanos() as u64,
            end_ns: (end - epoch).as_nanos() as u64,
            id: req,
            parent: None,
            req,
        }
    }
}

/// Span ids below this are `wire_call` ids (the request's position), so a
/// child recorded in another pass can name its parent without a lookup.
const FIRST_FREE_ID: u64 = 1 << 32;

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            next_id: FIRST_FREE_ID,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            id: self.next_id,
            parent,
            req,
        });
        self.next_id += 1;
        out
    }

    /// The epoch spans count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adds spans recorded elsewhere (the clients' `wire_call`s).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// Durations of every span called `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Mean duration of the spans called `name`, microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let durations = self.durations(name);
        assert!(!durations.is_empty(), "no `{name}` spans recorded");
        durations.iter().sum::<u64>() as f64 / durations.len() as f64 / 1e3
    }

    /// Per span name: `(count, mean duration µs, mean self time µs)`.
    /// Self time is duration minus the durations of the spans whose
    /// `parent` is this span.
    pub fn table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut sums: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            // Only a span that has children gets a self time different
            // from its duration; a `wire_call` without a probed twin (past
            // the probed prefix) is left out of the self-time mean.
            let children = child_ns.get(&span.id).copied();
            if span.name == "wire_call" && children.is_none() {
                continue;
            }
            let entry = sums.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns() as f64;
            entry.2 += span.duration_ns() as f64 - children.unwrap_or(0) as f64;
        }
        for (count, total, own) in sums.values_mut() {
            *total /= *count as f64 * 1e3;
            *own /= *count as f64 * 1e3;
        }
        sums
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let ns = std::time::Duration::from_nanos;
        let mut rec = Recorder::new(epoch);
        rec.extend([Span::wire_call(
            0,
            epoch,
            epoch + ns(1_000),
            epoch + ns(101_000),
        )]);
        rec.spans.push(Span {
            name: "dispatch",
            start_ns: 0,
            end_ns: 60_000,
            id: FIRST_FREE_ID,
            parent: Some(0),
            req: 0,
        });
        rec.spans.push(Span {
            name: "json_encode",
            start_ns: 0,
            end_ns: 10_000,
            id: FIRST_FREE_ID + 1,
            parent: Some(0),
            req: 0,
        });
        // A wire call nobody probed does not dilute the self time.
        rec.extend([Span::wire_call(
            1,
            epoch,
            epoch + ns(1_000),
            epoch + ns(501_000),
        )]);
        let table = rec.table();
        assert_eq!(table["wire_call"], (1, 100.0, 30.0));
        assert_eq!(table["dispatch"], (1, 60.0, 60.0));
        assert_eq!(rec.mean_us("wire_call"), 300.0);
    }
}
