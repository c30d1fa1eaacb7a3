//! The end-to-end run: [`REPS`] repetitions, each on a fresh server and
//! directory, reduced to the nine metrics a user of the system would see.
//!
//! Two defences against the sandbox's noise (README.md, "Noise findings"):
//!
//! * every timing is a **median** — over repetitions, or over all serve
//!   slices of all repetitions — so a stalled slice or a slow repetition
//!   does not move the result;
//! * every timed window is bracketed by the harness's own fixed CPU kernel
//!   ([`crate::sys::yardstick_ns`]) and reported **at reference speed**:
//!   divided by how much slower than its reference that yardstick ran
//!   around it. The machine's speed wanders by tens of percent over
//!   seconds; the program's cost relative to a fixed piece of work on the
//!   same CPU at the same moment does not.
//!
//! Counts are asserted identical across repetitions instead.

use std::path::Path;

use crate::rep::{self, RepResult};
use crate::stats::{median, percentile_sorted};
use crate::sys::{self, Timed};
use crate::workload::Workload;
use crate::Options;

/// Repetitions per run.
pub const REPS: usize = 5;

/// `(name, unit, higher is better)` of every end-to-end metric, in the
/// order `BENCHMARK.json` lists them.
pub const METRICS: [(&str, &str, bool); 9] = [
    ("setup_s", "s", false),
    ("rps", "1/s", true),
    ("p50_us", "us", false),
    ("p95_us", "us", false),
    ("cpu_us_per_req", "us", false),
    ("ingest_us_per_req", "us", false),
    ("wal_bytes_per_req", "B", false),
    ("peak_rss_mb", "MiB", false),
    ("recovery_ms", "ms", false),
];

/// What the repetitions of one run measured.
pub struct Run {
    pub reps: Vec<RepResult>,
    /// `VmHWM` when the first repetition ended: the peak of one
    /// repetition on a fresh heap. Later repetitions reuse and fragment
    /// what the first one freed, which adds noise and no information.
    pub peak_rss_kb: u64,
}

/// A timing as the clock read it and as it would have read at reference
/// speed.
#[derive(Debug, Clone, Copy)]
pub struct Both {
    pub raw: f64,
    pub at_reference_speed: f64,
}

/// `reduce` (median, minimum) of each reading over `samples`, scaled by
/// `unit`.
fn reduced(samples: &[Timed], reduce: fn(&[f64]) -> f64, unit: f64) -> Both {
    let of = |reading: fn(&Timed) -> f64| {
        reduce(&samples.iter().map(reading).collect::<Vec<_>>()) * unit
    };
    Both {
        raw: of(|t| t.seconds),
        at_reference_speed: of(Timed::at_reference_speed),
    }
}

fn medians(samples: &[Timed], unit: f64) -> Both {
    reduced(samples, median, unit)
}

fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

impl Run {
    pub fn attempted(&self) -> usize {
        self.reps.iter().map(|r| r.requests).sum()
    }

    /// How slow the machine was over the run: the median slowness of the
    /// serve slices (1.0 = the yardstick's reference).
    pub fn slowness(&self) -> f64 {
        median(
            &self
                .reps
                .iter()
                .flat_map(|r| r.slowness.clone())
                .collect::<Vec<_>>(),
        )
    }

    /// The end-to-end metrics, in [`METRICS`] order. Timings carry both
    /// readings; the reported value is the one at reference speed.
    pub fn metrics(&self) -> Vec<Both> {
        let reps = &self.reps;
        let per_rep = |f: &dyn Fn(&RepResult) -> Timed, unit: f64| {
            medians(&reps.iter().map(f).collect::<Vec<_>>(), unit)
        };
        let exact = |value: f64| Both {
            raw: value,
            at_reference_speed: value,
        };

        // Per serve slice: seconds per request, median latency, 95th
        // percentile — each with the slice's slowness.
        let (mut pace, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
        for rep in reps {
            for (index, (slice, &slowness)) in rep.slices.iter().zip(&rep.slowness).enumerate() {
                let timed = |seconds: f64| Timed { seconds, slowness };
                pace.push(timed(slice.wall_s / slice.requests as f64));
                let latencies = rep.latencies_ns(|s| s.slice as usize == index);
                p50s.push(timed(percentile_sorted(&latencies, 50.0) as f64 / 1e9));
                p95s.push(timed(percentile_sorted(&latencies, 95.0) as f64 / 1e9));
            }
        }
        let pace = medians(&pace, 1.0);
        let recoveries: Vec<Timed> = reps.iter().flat_map(|r| r.recoveries.clone()).collect();

        vec![
            per_rep(&|r| r.setup, 1.0),
            Both {
                raw: 1.0 / pace.raw,
                at_reference_speed: 1.0 / pace.at_reference_speed,
            },
            medians(&p50s, 1e6),
            medians(&p95s, 1e6),
            per_rep(
                &|r| Timed {
                    seconds: r.slices.iter().map(|s| s.cpu_s).sum::<f64>()
                        / r.serve_requests() as f64,
                    slowness: median(&r.slowness),
                },
                1e6,
            ),
            // One memory-bound pass of a quarter of a second per
            // repetition, with no slices to take a median over, and
            // disturbances that are one-sided and large (the same sync
            // reads 230 µs or 680 µs per request seconds apart): the least
            // disturbed of the repetitions is the measurement.
            reduced(
                &reps
                    .iter()
                    .map(|r| Timed {
                        seconds: r.ingest.seconds / r.ingest_requests as f64,
                        ..r.ingest
                    })
                    .collect::<Vec<_>>(),
                minimum,
                1e6,
            ),
            exact(reps[0].wal_bytes as f64 / reps[0].requests as f64),
            exact(self.peak_rss_kb as f64 / 1024.0),
            medians(&recoveries, 1e3),
        ]
    }
}

/// Runs the repetitions. Counts that must repeat exactly — WAL bytes,
/// commits, trace events, traced transactions — are compared across
/// repetitions; a difference is an error, not noise.
pub fn run(workload: &dyn Workload, root: &Path, opts: &Options) -> Result<Run, String> {
    let mut results: Vec<RepResult> = Vec::with_capacity(opts.reps);
    let mut peak_rss_kb = 0;
    for index in 0..opts.reps {
        let dir = root.join(format!("{}-rep{index}", workload.name()));
        // Harness tracing off: these are the end-to-end numbers.
        let result = rep::run(workload, &dir, opts.seed, opts.seconds, None);
        let _ = std::fs::remove_dir_all(&dir);
        let result = result.map_err(|e| format!("repetition {index}: {e}"))?;
        if let Some(first) = results.first() {
            let counts = |r: &RepResult| (r.wal_bytes, r.commits, r.ingest_events, r.ingest_txns);
            if counts(first) != counts(&result) {
                return Err(format!(
                    "repetition {index} counted (wal bytes, commits, trace events, txns) = {:?}, \
                     repetition 0 counted {:?}",
                    counts(&result),
                    counts(first)
                ));
            }
        }
        if results.is_empty() {
            peak_rss_kb = sys::peak_rss_kb();
        }
        results.push(result);
    }
    Ok(Run {
        reps: results,
        peak_rss_kb,
    })
}
