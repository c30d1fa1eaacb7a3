//! A repeatable end-to-end + per-layer benchmark of the traced, durable,
//! wire-served TROD. See README.md for the workloads, the metrics and how
//! to read them; `BENCHMARK.json` (repo root) for the contract.
//!
//! ```text
//! benchmark/run.sh [--workload W] [--seed 42] [--seconds 10] [--trace 0|1] [--quick]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (harness tracing off),
//! `--trace 1` (or `--traced`) the per-layer ones; with neither, both.
//! Without `--workload`, every workload runs in turn. The last line of
//! standard output for each workload is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod debug;
mod e2e;
mod gen;
mod layers;
mod rep;
mod spans;
mod stats;
mod sys;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trod_core::json::Json;

use workload::Workload;

/// `--seconds` of the frozen configuration in `BENCHMARK.json`.
const DEFAULT_SECONDS: usize = 10;

pub struct Options {
    workload: Option<String>,
    pub seed: u64,
    /// Scales the serve phase; 1 in `--quick` mode.
    pub seconds: usize,
    /// Repetitions of the end-to-end run; 1 in `--quick` mode.
    pub reps: usize,
    /// Requests the in-process per-layer probes cover; fewer in `--quick`
    /// mode.
    pub probe_requests: usize,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only.
    trace: Option<bool>,
    quick: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        reps: e2e::REPS,
        probe_requests: layers::PROBE_REQUESTS,
        trace: None,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&opts.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                opts.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--traced" => opts.trace = Some(true),
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.quick {
        // Smoke use: a tenth of the serve phase, one repetition, a fifth
        // of the probed requests.
        opts.seconds = 1;
        opts.reps = 1;
        opts.probe_requests /= 5;
    }
    Ok(opts)
}

/// Where this run was made: recorded with every result, because a number
/// without its machine is not comparable to anything.
fn environment(opts: &Options, load: f64, nproc: usize, cpu: usize) -> Json {
    let env = |name: &str| Json::str(std::env::var(name).unwrap_or_else(|_| "unknown".into()));
    Json::obj(vec![
        ("nproc", Json::from(nproc)),
        ("pinned_to_cpu", Json::from(cpu)),
        ("kernel", Json::str(sys::kernel())),
        ("rustc", env("TROD_BENCH_RUSTC")),
        ("commit", env("TROD_BENCH_COMMIT")),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("repetitions", Json::from(opts.reps)),
        ("connections", Json::from(gen::CONNECTIONS)),
        ("sync_mode", Json::str(format!("{:?}", rep::SYNC_MODE))),
        ("loadavg_1m", Json::Float(load)),
        ("quick", Json::Bool(opts.quick)),
    ])
}

fn frozen_counts(workload: &dyn Workload, seconds: usize) -> Json {
    let counts = workload.counts();
    Json::obj(vec![
        ("serve_slices", Json::from(counts.slices)),
        (
            "serve_requests_per_connection_per_slice",
            Json::from(counts.serve_slice * seconds),
        ),
        ("ingest_requests_per_connection", Json::from(counts.ingest)),
    ])
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, Json)>,
    quick: bool,
) -> Json {
    let mut fields = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::from(attempted.max(1))),
        ("failed".to_string(), Json::from(failed)),
        ("metrics".to_string(), Json::Object(metrics)),
    ];
    if quick {
        // Smoke numbers; `aa.sh` refuses them.
        fields.push(("quick".to_string(), Json::Bool(true)));
    }
    Json::Object(fields)
}

/// Runs one workload and prints its result line. `Err` is a failed
/// request or a failed output check.
fn run_workload(workload: &dyn Workload, opts: &Options, root: &Path) -> Result<(), String> {
    println!(
        "{}",
        Json::obj(vec![
            ("workload", Json::str(workload.name())),
            ("why", Json::str(workload.why())),
            ("frozen_counts", frozen_counts(workload, opts.seconds)),
        ])
    );
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut attempted = 0;
    let mut push = |name: &str, unit: &str, value: f64| {
        println!("  {name:<44} {value:>16.3} {unit}");
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::str(unit)),
            ]),
        ));
    };
    if opts.trace != Some(true) {
        let run = e2e::run(workload, root, opts)?;
        attempted += run.attempted();
        // Reported: timings at reference speed. Shown beside them: what
        // the clock read, and how slow the machine was.
        let mut raw = vec![("machine_slowness".to_string(), Json::Float(run.slowness()))];
        for ((name, unit, _), value) in e2e::METRICS.iter().zip(run.metrics()) {
            push(name, unit, value.at_reference_speed);
            raw.push((name.to_string(), Json::Float(value.raw)));
        }
        println!("{}", Json::obj(vec![("clock_readings", Json::Object(raw))]));
    }
    if opts.trace != Some(false) {
        let layers = layers::run(workload, root, opts)?;
        attempted += layers.attempted;
        for (name, unit, value) in &layers.metrics {
            push(name, unit, *value);
        }
    }
    println!("{}", result_line(true, attempted, 0, metrics, opts.quick));
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("trod-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = sys::nproc();
    if nproc < 2 {
        // One CPU for the run, one left to the kernel and whatever else
        // the machine is doing.
        eprintln!("trod-benchmark: needs at least 2 CPUs, found {nproc}");
        return ExitCode::from(2);
    }
    let workloads: Vec<&dyn Workload> = match &opts.workload {
        None => workload::all().to_vec(),
        Some(name) => match workload::by_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("trod-benchmark: no workload `{name}`");
                return ExitCode::from(2);
            }
        },
    };
    // Every thread of the run — clients, server workers, the harness —
    // shares one CPU: see README.md, "Noise findings", for what leaving
    // placement to the scheduler costs on a two-vCPU sandbox. The highest
    // CPU, because interrupts tend to land on the lowest.
    let cpu = nproc - 1;
    if !sys::pin_to_cpu(cpu) {
        eprintln!("trod-benchmark: warning: cannot pin to CPU {cpu}; timings will be noisy");
    }
    let load = sys::loadavg_1m();
    if load > 0.5 {
        eprintln!(
            "trod-benchmark: warning: 1-minute load average is {load:.2}; timings will be noisy"
        );
    }
    println!(
        "{}",
        Json::obj(vec![("environment", environment(&opts, load, nproc, cpu))])
    );

    // Everything a run writes stays under the benchmark's own directory.
    let out = std::env::var_os("TROD_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    let root = out.join(format!("run-{}", std::process::id()));
    let mut status = ExitCode::SUCCESS;
    for workload in workloads {
        if let Err(e) = run_workload(workload, &opts, &root) {
            eprintln!("trod-benchmark: {}: {e}", workload.name());
            println!("{}", result_line(false, 0, 1, Vec::new(), opts.quick));
            status = ExitCode::FAILURE;
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the gate reads; it must describe exactly
    /// what this program prints.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| {
            contract
                .get(key)
                .and_then(Json::as_array)
                .expect(key)
                .to_vec()
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workload::all()
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let declared = |key: &str| -> Vec<(String, String, bool)> {
            list(key)
                .iter()
                .map(|m| {
                    (
                        text(m, "name"),
                        text(m, "unit"),
                        text(m, "better") == "higher",
                    )
                })
                .collect()
        };
        let ours = |metrics: &[(&str, &str, bool)]| -> Vec<(String, String, bool)> {
            metrics
                .iter()
                .map(|(n, u, h)| (n.to_string(), u.to_string(), *h))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&e2e::METRICS));
        assert_eq!(declared("per_layer"), ours(&layers::METRICS));
        for metric in list("end_to_end") {
            let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{metric}");
        }
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS as u64)
        );
        let paths: Vec<String> = list("paths")
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
