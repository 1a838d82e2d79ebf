//! The offline workloads: `fleet_mixed`, `oldc_dense`, `congest_sparse`.
//!
//! The timed unit is one `ldc batch` invocation minus process start and
//! file I/O: `parse_spec_file` → `Fleet::run` → `FleetRun::to_jsonl`.
//! `fleet_mixed` is one 240-job unit (closed loop, all jobs queued up
//! front); the single-solve workloads are one-job units run back to back,
//! so every solve rebuilds its graph, as `ldc batch` does.

use crate::inputs;
use crate::layers::Layers;
use crate::report::{Metric, Outcome};
use crate::service::service_probe;
use crate::stats::{fnv1a, fold_digests, load_metrics, peak_rss_mb, Samples};
use ldc_batch::{parse_spec_file, Fleet, FleetRun, GraphCache, JobSpec};
use std::path::Path;
use std::time::{Duration, Instant};

struct Unit {
    text: String,
    jobs: Vec<JobSpec>,
}

/// Set-up output: the units, and the warm-up rows every later pass must
/// reproduce byte for byte.
struct Prepared {
    units: Vec<Unit>,
    /// Per unit: (job index, warm-up row).
    reference: Vec<Vec<(usize, String)>>,
}

impl Prepared {
    /// The warmed-up jobs, one per distinct (graph, algorithm) class.
    fn representatives(&self) -> Vec<JobSpec> {
        self.reference
            .iter()
            .zip(&self.units)
            .flat_map(|(rows, unit)| rows.iter().map(|(i, _)| unit.jobs[*i].clone()))
            .collect()
    }
}

/// Input generation, parsing, every graph built once, and a discarded
/// warm-up solve of one job per (graph, algorithm) class.
fn prepare(workload: &str, seed: u64) -> Result<Prepared, String> {
    let (jobs, one_job_units) = match workload {
        "fleet_mixed" => (inputs::fleet_mixed(seed), false),
        "oldc_dense" => (inputs::oldc_dense(seed), true),
        "congest_sparse" => (inputs::congest_sparse(seed), true),
        other => return Err(format!("unknown offline workload {other:?}")),
    };
    let groups: Vec<Vec<JobSpec>> = if one_job_units {
        jobs.into_iter().map(|j| vec![j]).collect()
    } else {
        vec![jobs]
    };
    let mut units = Vec::new();
    for group in groups {
        let text = inputs::spec_text(&group);
        let parsed = parse_spec_file(&text)?;
        if parsed != group {
            return Err("spec text does not parse back to the generated jobs".into());
        }
        units.push(Unit { text, jobs: parsed });
    }

    let mut cache = GraphCache::new();
    let fleet = Fleet::new(1);
    let mut seen = std::collections::BTreeSet::new();
    let mut reference = Vec::new();
    for unit in &units {
        let mut rows = Vec::new();
        for (i, job) in unit.jobs.iter().enumerate() {
            let graph = cache.resolve(&job.graph);
            if !seen.insert((job.graph.cache_key(), job.algorithm.name())) {
                continue;
            }
            let o = fleet.run_one(i, job, &graph, None);
            if !(o.ok && o.valid) {
                return Err(format!("warm-up job {i} failed: {}", o.row));
            }
            rows.push((i, o.row));
        }
        reference.push(rows);
    }
    Ok(Prepared { units, reference })
}

/// Check one unit's result: every row ok and valid, the stream's digest
/// equal to the unit's first pass, and the warm-up rows reproduced.
fn check_unit(
    prep: &Prepared,
    u: usize,
    run: &FleetRun,
    jsonl: &str,
    digests: &mut [Option<u64>],
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for o in &run.outcomes {
        if !(o.ok && o.valid) {
            failed += 1;
            problems.push(format!("unit {u} job {}: {}", o.index, o.row));
        }
    }
    let digest = fnv1a(jsonl.as_bytes());
    match digests[u] {
        None => digests[u] = Some(digest),
        Some(d) if d != digest => problems.push(format!(
            "unit {u}: JSONL digest {digest:016x} differs from the first pass's {d:016x}"
        )),
        Some(_) => {}
    }
    for (i, row) in &prep.reference[u] {
        if &run.outcomes[*i].row != row {
            problems.push(format!(
                "unit {u} job {i}: row differs from its warm-up row"
            ));
        }
    }
    failed
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    spans: &Path,
) -> Result<Outcome, String> {
    let mut setup = Samples::new();
    let mut prep = None;
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        prep = Some(prepare(workload, seed)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up");
    if trace {
        return traced(&prep, seconds, out_dir, spans);
    }

    // One shard, not one per CPU: see README.md, "Design choices".
    let fleet = Fleet::new(1);
    let mut out = Outcome::default();
    let mut digests = vec![None; prep.units.len()];
    // The fastest wall time of every unit and every job (ms), over
    // repetitions: see README.md, "Fastest of repetitions".
    let mut best_unit = vec![f64::INFINITY; prep.units.len()];
    let mut best_job: Vec<Vec<f64>> = prep
        .units
        .iter()
        .map(|u| vec![f64::INFINITY; u.jobs.len()])
        .collect();
    let mut reps = 0;
    let start = Instant::now();
    // Whole passes over the units, so every input is repeated equally
    // often.
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        for (u, unit) in prep.units.iter().enumerate() {
            let t = Instant::now();
            let jobs = parse_spec_file(&unit.text)?;
            let run = fleet.run(&jobs);
            let jsonl = run.to_jsonl();
            let wall_ms = elapsed_ms(t);
            out.attempted += jobs.len() as u64;
            out.failed += check_unit(&prep, u, &run, &jsonl, &mut digests, &mut out.problems);
            best_unit[u] = best_unit[u].min(wall_ms);
            for (best, o) in best_job[u].iter_mut().zip(&run.outcomes) {
                let ms = if jobs.len() == 1 {
                    wall_ms
                } else {
                    o.wall_nanos as f64 / 1e6
                };
                *best = best.min(ms);
            }
        }
        reps += 1;
    }
    out.digest = fold_digests(digests.into_iter().flatten());
    let mut latency = Samples::new();
    for ms in best_job.iter().flatten() {
        latency.push(*ms);
    }
    let jobs_per_s = latency.len() as f64 / (best_unit.iter().sum::<f64>() / 1e3);
    out.metrics = vec![
        Metric::new("setup_s", "s", setup.median()).with(setup.spread()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    let detail = format!(
        "over {} jobs, each its fastest of {reps} repetitions; {}",
        latency.len(),
        latency.spread()
    );
    out.metrics.extend(load_metrics(
        (
            jobs_per_s,
            format!(
                "{} jobs over the summed fastest of {reps} repetitions of {} units",
                latency.len(),
                best_unit.len()
            ),
        ),
        (latency.median(), detail.clone()),
        (latency.pct(95.0), detail),
    ));
    Ok(out)
}

/// The traced run: the same units under spans at every call boundary,
/// each followed by a per-layer decomposition of its jobs, then the
/// service probe on the warmed-up jobs.
fn traced(prep: &Prepared, seconds: f64, out_dir: &Path, spans: &Path) -> Result<Outcome, String> {
    let mut layers = Layers::new();
    let mut out = Outcome::default();
    let mut digests = vec![None; prep.units.len()];
    let start = Instant::now();
    let mut unit_id = 0u64;
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        for (u, unit) in prep.units.iter().enumerate() {
            let (run, jsonl) = layers.trace_unit(unit_id, &unit.text, &mut out.problems)?;
            out.failed += check_unit(prep, u, &run, &jsonl, &mut digests, &mut out.problems);
            out.attempted += unit.jobs.len() as u64;
            unit_id += 1;
        }
    }
    // Offered at half of what one worker can serve, so the probe measures
    // service overhead rather than queueing.
    let rate = (0.5 / layers.run_one_mean_s()).min(crate::service::RATE);
    let (service, _) = service_probe(
        out_dir,
        &prep.representatives(),
        rate,
        &|_| true,
        &layers.rec,
        &mut out.problems,
    )?;
    out.digest = fold_digests(digests.into_iter().flatten());
    out.metrics = layers.metrics(service);
    layers.rec.write_jsonl(spans)?;
    Ok(out)
}
