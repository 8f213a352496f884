//! `firmres-benchmark compare <runs-A…> -- <runs-B…>`: judge set B
//! against set A by the bounds `BENCHMARK.json` fixes, one row per
//! workload.

use crate::json::Json;
use crate::stats::{median, spread, valid_metric_name};
use std::collections::BTreeMap;

/// How one (metric, workload) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either set is wider than the bound, and
    /// B does not beat A on every run, so the sets cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A declared end-to-end metric and its bound.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Compare samples `b` against `a`. Returns the verdict and how much
/// worse B's median is than A's, as a share of A's (negative = better).
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let delta = if bound.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    let worse = if ma == 0.0 { 0.0 } else { delta / ma.abs() };
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init: f64| v.iter().copied().fold(init, f);
    let every_run_better = if bound.lower_is_better {
        fold(b, f64::max, f64::MIN) < fold(a, f64::min, f64::MAX)
    } else {
        fold(b, f64::min, f64::MAX) > fold(a, f64::max, f64::MIN)
    };
    let v = if spread(a).max(spread(b)) > bound.bound && !every_run_better {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (v, worse)
}

/// The `end_to_end` bounds and workload order of a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<(Vec<Bound>, Vec<String>), String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    if let Some(bad) = bounds.iter().find(|b| !valid_metric_name(&b.name)) {
        return Err(format!("BENCHMARK.json: bad metric name {:?}", bad.name));
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .map(|w| {
            w.iter()
                .filter_map(|x| x.get("name").and_then(Json::as_str).map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok((bounds, workloads))
}

/// workload → metric → one value per run, from result files (each a
/// run object or a list of them). Traced runs are skipped.
fn collect(files: &[String]) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let runs = match doc.as_array() {
            Some(runs) => runs.to_vec(),
            None => vec![doc],
        };
        for run in runs {
            if run.get("trace") == Some(&Json::Bool(true)) {
                continue;
            }
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}: run without a workload"))?;
            let metrics = run
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("{file}: run without metrics"))?;
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Run the subcommand. Exit status: 0 when nothing regressed, 3 when
/// some pair regressed.
pub fn run(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: firmres-benchmark compare <runs-A…> -- <runs-B…>")?;
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    if a_files.is_empty() || b_files.is_empty() {
        return Err("compare needs at least one result file on each side of --".to_string());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let (bounds, mut order) = read_bounds(&text)?;
    let (a, b) = (collect(a_files)?, collect(b_files)?);
    for w in a.keys().chain(b.keys()) {
        if !order.contains(w) {
            order.push(w.clone());
        }
    }
    let mut tally = BTreeMap::new();
    for workload in order {
        let (Some(wa), Some(wb)) = (a.get(&workload), b.get(&workload)) else {
            continue;
        };
        let mut row = format!("{workload:<7}");
        for bound in &bounds {
            let (Some(xa), Some(xb)) = (wa.get(&bound.name), wb.get(&bound.name)) else {
                row.push_str(&format!("  {}=missing", bound.name));
                *tally.entry("missing").or_insert(0) += 1;
                continue;
            };
            let (v, worse) = verdict(xa, xb, bound);
            *tally.entry(v.label()).or_insert(0) += 1;
            row.push_str(&format!(
                "  {}={}({:+.1}%, spread {:.1}%/{:.1}%, n={}/{})",
                bound.name,
                v.label(),
                worse * 100.0,
                spread(xa) * 100.0,
                spread(xb) * 100.0,
                xa.len(),
                xb.len()
            ));
        }
        println!("{row}");
    }
    let count = |k: &str| tally.get(k).copied().unwrap_or(0);
    println!(
        "compare: {} ok, {} regressed, {} unresolved, {} missing",
        count("ok"),
        count("regressed"),
        count("unresolved"),
        count("missing")
    );
    Ok(if count("regressed") > 0 { 3 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let (v, worse) = verdict(&a, &slower, &bound(true, 0.10));
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.15).abs() < 1e-9);
        assert_eq!(verdict(&a, &slower, &bound(true, 0.20)).0, Verdict::Ok);
        // The same numbers are an improvement when higher is better.
        let (v, worse) = verdict(&a, &slower, &bound(false, 0.10));
        assert_eq!(v, Verdict::Ok);
        assert!(worse < 0.0);
        let (v, _) = verdict(&slower, &a, &bound(false, 0.10));
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let b = [8.5, 10.5, 12.5, 9.5, 11.5];
        assert_eq!(verdict(&a, &b, &bound(true, 0.10)).0, Verdict::Unresolved);
        let better = [5.0, 6.0, 7.0, 5.5, 6.5];
        assert_eq!(verdict(&a, &better, &bound(true, 0.10)).0, Verdict::Ok);
        // A spread inside the bound is judged on the medians.
        assert_eq!(verdict(&a, &b, &bound(true, 0.50)).0, Verdict::Ok);
    }

    #[test]
    fn reads_the_benchmark_bounds() {
        let text = r#"{"workloads": [{"name": "cold", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let (bounds, workloads) = read_bounds(text).unwrap();
        assert_eq!(workloads, ["cold"]);
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        assert_eq!(bounds[1].bound, 0.1);
    }
}
