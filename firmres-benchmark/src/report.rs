//! What one workload run measured, and how it is printed.

use crate::json::{number, quote};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result of one workload run (timed or traced).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    /// Operations the run attempted: timed requests (or images) plus
    /// correctness-gate requests.
    pub attempted: u64,
    /// Operations that failed: rejected, cancelled, wire or protocol
    /// errors, gate mismatches, and warm requests that missed.
    pub failed: u64,
    /// Human-readable reasons the run is not correct, if any.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further printed measurements (tail percentiles, sample counts,
    /// generator lateness) that no bound applies to.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Record a failed check and the operations it failed (0 for a
    /// check on the run as a whole, such as generator lateness).
    pub fn fail(&mut self, failed_ops: u64, problem: String) {
        self.failed += failed_ops;
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `name value unit` lines, declared metrics first.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("{} {} {}\n", m.name, number(m.value), m.unit));
        }
        out.push_str(&format!("attempted {} count\n", self.attempted));
        out.push_str(&format!("failed {} count\n", self.failed));
        for p in &self.problems {
            out.push_str(&format!("problem {p}\n"));
        }
        out
    }

    /// Parse the [`Outcome::lines`] form back (the sweep worker process
    /// reports through it). Lines that are not `name number unit`, and
    /// names not in `declared`, land in [`Outcome::extra`].
    pub fn from_lines(workload: &str, text: &str, declared: &[&str]) -> Result<Outcome, String> {
        let mut out = Outcome::new(workload);
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if let ["problem", rest @ ..] = parts.as_slice() {
                out.problems.push(rest.join(" "));
                continue;
            }
            let [name, value, unit] = parts.as_slice() else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            match *name {
                "attempted" => out.attempted = value as u64,
                "failed" => out.failed = value as u64,
                n if declared.contains(&n) => out.metric(n, value, unit),
                n => out.extra(n, value, unit),
            }
        }
        if out.metrics.len() != declared.len() {
            return Err(format!(
                "{workload}: worker reported {} of {} metrics",
                out.metrics.len(),
                declared.len()
            ));
        }
        Ok(out)
    }

    /// The `metrics` object of the result JSON.
    pub fn metrics_json(metrics: &[(String, &Metric)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Facts about the environment every result file records.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub seed: u64,
    pub scale: f64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub store_fs: String,
    pub model_fingerprint: u64,
    pub git_revision: String,
}

/// One run as the `--out` file stores it (the form `compare` reads).
pub fn result_json(info: &RunInfo, o: &Outcome) -> String {
    let declared: Vec<(String, &Metric)> = o.metrics.iter().map(|m| (m.name.clone(), m)).collect();
    let extra: Vec<(String, &Metric)> = o.extra.iter().map(|m| (m.name.clone(), m)).collect();
    let problems: Vec<String> = o.problems.iter().map(|p| quote(p)).collect();
    format!(
        concat!(
            "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"scale\": {}, \"seconds\": {}, ",
            "\"nproc\": {}, \"store_fs\": {}, \"model_fingerprint\": \"{:016x}\", ",
            "\"git_revision\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
            "\"problems\": [{}], \"metrics\": {}, \"extra\": {}}}"
        ),
        quote(&o.workload),
        info.trace,
        info.seed,
        number(info.scale),
        info.seconds,
        info.nproc,
        quote(&info.store_fs),
        info.model_fingerprint,
        quote(&info.git_revision),
        o.correct(),
        o.attempted,
        o.failed,
        problems.join(", "),
        Outcome::metrics_json(&declared),
        Outcome::metrics_json(&extra),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn lines_round_trip_through_the_worker_protocol() {
        let mut o = Outcome::new("sweep");
        o.metric("setup_s", 0.012345678901, "s");
        o.metric("throughput_per_s", 250.5, "1/s");
        o.extra("latency_p99_ms", 7.0, "ms");
        o.attempted = 40;
        let back =
            Outcome::from_lines("sweep", &o.lines(), &["setup_s", "throughput_per_s"]).unwrap();
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.extra, o.extra);
        assert_eq!(back.attempted, 40);
        assert!(back.correct());
        assert!(
            Outcome::from_lines("sweep", "setup_s 1 s\n", &["setup_s", "rss_peak_mb"]).is_err()
        );
    }

    #[test]
    fn result_json_parses() {
        let mut o = Outcome::new("cold");
        o.metric("latency_p50_ms", 12.5, "ms");
        o.fail(1, "gate \"mismatch\"".to_string());
        let info = RunInfo {
            seed: 7,
            scale: 1.0,
            seconds: 10,
            trace: false,
            nproc: 2,
            store_fs: "ext4".to_string(),
            model_fingerprint: 0xabc,
            git_revision: "unknown".to_string(),
        };
        let v = Json::parse(&result_json(&info, &o)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
