//! Results: the one-line JSON result of a workload run, the
//! `github-action-benchmark` file of a whole run, and `compare`.

use crate::stats::Samples;
use ldc_batch::jsonin::Value;

/// The end-to-end metrics every untraced run reports, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "jobs_per_s",
    "job_p50_ms",
    "job_p95_ms",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread and sample count, printed next to the value.
    pub detail: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            detail: String::new(),
        }
    }

    pub fn with(mut self, detail: String) -> Metric {
        self.detail = detail;
        self
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the run's deterministic output; the untraced and
    /// the traced run of one seed must print the same.
    pub digest: u64,
}

/// A JSON number with all its digits (never exponent notation).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// Print one line per metric, then the result object as the last
    /// line of standard output. Returns the exit code.
    pub fn print(&self, workload: &str) -> i32 {
        for m in &self.metrics {
            println!(
                "{workload} {} = {} {} ({})",
                m.name,
                number(m.value),
                m.unit,
                if m.detail.is_empty() { "-" } else { &m.detail }
            );
        }
        println!("{workload} digest = {:016x}", self.digest);
        for p in &self.problems {
            println!("{workload} CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        let correct = self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite());
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// One `github-action-benchmark` entry (`customSmallerIsBetter` /
/// `customBiggerIsBetter` shape), with the run manifest in `extra`.
pub fn action_entry(workload: &str, name: &str, unit: &str, value: f64, extra: &str) -> String {
    format!(
        "{{\"name\": \"{workload}/{name}\", \"unit\": \"{unit}\", \"value\": {}, \"extra\": \"{extra}\"}}",
        number(value)
    )
}

/// `(name, unit, value)` of each metric of a result line.
pub type Reported = Vec<(String, String, f64)>;

/// Parse the last line of a workload run's standard output into its
/// `correct` flag and metrics.
pub fn parse_result(stdout: &str) -> Result<(bool, Reported), String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let v = Value::parse(last)?;
    let correct = v
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("no \"correct\"")?;
    let Some(Value::Obj(fields)) = v.get("metrics") else {
        return Err("no \"metrics\" object".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), unit.to_string(), value)
        })
        .collect();
    Ok((correct, metrics))
}

/// `compare A.json B.json`: per-metric medians of two result files (each
/// a `github-action-benchmark` array; repeated names are pooled), the
/// ratio B/A, and pass/fail against the bounds in `BENCHMARK.json`.
pub fn compare(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: ldc-benchmark compare A.json B.json");
        return 2;
    };
    match compare_files(a, b) {
        Ok(ok) => i32::from(!ok),
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

/// The digest a workload run printed (`<workload> digest = <hex>`).
pub fn parse_digest(stdout: &str, workload: &str) -> Option<String> {
    let prefix = format!("{workload} digest = ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix).map(str::to_string))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `BENCHMARK.json` at the repository root: run length and bounds.
pub fn benchmark_json() -> Result<Value, String> {
    read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

/// name → values, from a `github-action-benchmark` array.
fn entries(v: &Value) -> Result<Vec<(String, f64)>, String> {
    v.as_arr()
        .ok_or("not a JSON array")?
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("entry without name")?;
            let value = e
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("entry without value")?;
            Ok((name.to_string(), value))
        })
        .collect()
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let bench = benchmark_json()?;
    let Some(e2e) = bench.get("end_to_end").and_then(Value::as_arr) else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let (a_entries, b_entries) = (entries(&read_json(a)?)?, entries(&read_json(b)?)?);
    let mut names: Vec<&String> = a_entries.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    let mut all_ok = true;
    println!(
        "{:<36} {:>12} {:>12} {:>8}  verdict",
        "metric", "A median", "B median", "B/A"
    );
    for name in names {
        let pick = |es: &[(String, f64)]| {
            let mut s = Samples::new();
            for (_, v) in es.iter().filter(|(n, _)| n == name) {
                s.push(*v);
            }
            s
        };
        let (mut va, mut vb) = (pick(&a_entries), pick(&b_entries));
        if vb.is_empty() {
            println!("{name:<36} missing from B  FAIL");
            all_ok = false;
            continue;
        }
        let (ma, mb) = (va.median(), vb.median());
        let metric = name.rsplit('/').next().unwrap_or(name);
        let spec = e2e
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(metric));
        let verdict = match spec {
            None => "per-layer".to_string(),
            Some(m) => {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
                let higher = m.get("better").and_then(Value::as_str) == Some("higher");
                let worse_by = if higher {
                    (ma - mb) / ma
                } else {
                    (mb - ma) / ma
                };
                let ok = worse_by <= bound;
                all_ok &= ok;
                format!(
                    "{} (bound {:.0}%)",
                    if ok { "pass" } else { "FAIL" },
                    bound * 100.0
                )
            }
        };
        println!(
            "{name:<36} {ma:>12.4} {mb:>12.4} {:>8.3}  {verdict}",
            mb / ma
        );
    }
    Ok(all_ok)
}
