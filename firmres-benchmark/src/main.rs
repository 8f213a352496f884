//! `firmres-benchmark`: the one outside-in benchmark of the FIRMRES
//! reproduction.
//!
//! ```text
//! firmres-benchmark --workload <cold|warm|update|sweep|all> [--seed <n>]
//!                   [--seconds <n>] [--trace <0|1>] [--scale <f>] [--out <file>]
//! firmres-benchmark compare <runs-A…> -- <runs-B…>
//! ```
//!
//! A run prints every metric as `name value unit`, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). `--out` also writes the run, with the seed, scale, `nproc`,
//! store filesystem, model fingerprint and git revision, as JSON that
//! `compare` reads. Every input is made from `--seed`; the exit status
//! is non-zero when any output fails its correctness check. Run it from
//! the repository root: scratch files go under `.bench_work/`. See
//! `README.md` next to this package for the workloads and metrics.
//!
//! Two further subcommands are the benchmark's own processes: `serve …`
//! is `firmres-cli serve` (the daemon under test), and `sweep-worker`
//! runs the sweep workload in a process of its own.

mod compare;
mod daemon;
mod inputs;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, RunInfo};
use std::path::{Path, PathBuf};
use workloads::{Ctx, SweepArgs};

const WORKLOADS: [&str; 4] = ["cold", "warm", "update", "sweep"];

const USAGE: &str =
    "usage: firmres-benchmark --workload <cold|warm|update|sweep|all> [--seed <n>] \
[--seconds <n>] [--trace <0|1>] [--scale <f>] [--out <file>]\n\
       firmres-benchmark compare <runs-A…> -- <runs-B…>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: Option<PathBuf>,
    model: Option<PathBuf>,
    index: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        out: None,
        model: None,
        index: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let number = |v: &String| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or(format!("{flag} takes a positive number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got {v:?}"))?;
            }
            "--seconds" => a.seconds = number(value()?)?,
            "--scale" => a.scale = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--model" => a.model = Some(PathBuf::from(value()?)),
            "--index" => a.index = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The scratch directory of one run; removed when dropped, so stores
/// and port files never outlive the run.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn run_benchmark(a: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = match a.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        "" => return Err(format!("--workload is required\n{USAGE}")),
        w => return Err(format!("unknown workload {w:?}\n{USAGE}")),
    };
    let work = WorkDir::create()?;
    let model_path = work.0.join("model.fsm");
    eprintln!("training the semantics model…");
    let model = inputs::train_model(&model_path)?;
    let ctx = Ctx {
        seed: a.seed,
        scale: a.scale,
        seconds: a.seconds,
        work: work.0.clone(),
        model_path,
        model,
    };
    let info = RunInfo {
        seed: a.seed,
        scale: a.scale,
        seconds: a.seconds.round() as u64,
        trace: a.trace,
        nproc: inputs::nproc(),
        store_fs: daemon::filesystem_of(&work.0),
        model_fingerprint: firmres_cache::classifier_fingerprint(Some(&ctx.model)),
        git_revision: git_revision(),
    };
    let spans = a
        .out
        .as_ref()
        .filter(|_| a.trace)
        .map(|p| p.with_extension("spans.tsv"));
    if let Some(p) = &spans {
        let _ = std::fs::remove_file(p);
    }

    let mut outcomes = Vec::new();
    for w in &workloads {
        eprintln!("workload {w}{}…", if a.trace { " (traced)" } else { "" });
        let mut o = if a.trace {
            trace::run(&ctx, w, spans.as_deref())?
        } else {
            workloads::run(&ctx, w)?
        };
        o.extra(
            "failed_share",
            o.failed as f64 / o.attempted.max(1) as f64,
            "ratio",
        );
        if workloads.len() > 1 {
            println!("# {w}");
        }
        print!("{}", o.lines());
        outcomes.push(o);
    }

    let results: Vec<String> = outcomes
        .iter()
        .map(|o| report::result_json(&info, o))
        .collect();
    if let Some(path) = &a.out {
        let body = if results.len() == 1 {
            results[0].clone()
        } else {
            format!("[{}]", results.join(",\n"))
        };
        std::fs::write(path, body + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let prefix = workloads.len() > 1;
    let metrics: Vec<(String, &report::Metric)> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", o.workload, m.name)
                } else {
                    m.name.clone()
                };
                (name, m)
            })
        })
        .collect();
    let correct = outcomes.iter().all(Outcome::correct);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        Outcome::metrics_json(&metrics)
    );
    for o in &outcomes {
        for p in &o.problems {
            eprintln!("FAIL {}: {p}", o.workload);
        }
    }
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => match firmres_suite::cli::run(&args) {
            Ok(out) => {
                print!("{out}");
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
        Some("compare") => match compare::run(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                1
            }
        },
        Some("sweep-worker") => {
            let result = parse_args(&args[1..]).and_then(|a| {
                workloads::sweep_worker(&SweepArgs {
                    seed: a.seed,
                    scale: a.scale,
                    seconds: a.seconds,
                    model: a.model.ok_or("sweep-worker needs --model")?,
                    index: a.index.ok_or("sweep-worker needs --index")?,
                })
            });
            match result {
                Ok(o) => {
                    print!("{}", o.lines());
                    0
                }
                Err(e) => {
                    eprintln!("sweep worker: {e}");
                    1
                }
            }
        }
        _ => match parse_args(&args).and_then(|a| run_benchmark(&a)) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("firmres-benchmark: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(json::Json::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&workloads::END_TO_END));
        assert_eq!(declared("per_layer"), owned(&trace::PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);

        let mut names: Vec<&str> = workloads::END_TO_END
            .iter()
            .chain(trace::PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| stats::valid_metric_name(n)));
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
        let (bounds, _) = compare::read_bounds(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && b.lower_is_better));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    fn arguments_are_checked() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&["--workload", "warm", "--seed", "3", "--trace", "1"])).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("warm", 3, true));
        assert_eq!(a.seconds, 10.0);
        for bad in [
            &["--seed", "x"][..],
            &["--trace", "2"],
            &["--scale", "0"],
            &["--bogus"],
            &["--seed"],
        ] {
            assert!(parse_args(&s(bad)).is_err(), "{bad:?}");
        }
    }
}
