//! Per-layer attribution for the traced run.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. A probed job is decomposed into the calls `Fleet::run_one`
//! makes — graph resolution, list building, the solve (with a `Tracer`
//! attached, its span tree grafted in), validation — and then run once
//! more through `Fleet::run_one` itself, whose row must agree with the
//! traced solve on every number it renders. The same calls run once more
//! without a tracer, and must produce the same coloring and numbers.

use crate::report::Metric;
use crate::spans::Recorder;
use ldc_batch::jsonin::Value;
use ldc_batch::{parse_spec_file, Algorithm, Fleet, FleetRun, GraphCache, JobOutcome, JobSpec};
use ldc_core::congest::{congest_degree_plus_one, CongestConfig};
use ldc_core::edge_coloring::edge_coloring;
use ldc_core::validate::{
    validate_arbdefective, validate_ldc, validate_oldc, validate_proper_list_coloring,
};
use ldc_core::{ColorSpace, KernelStats, LdcInstance, OldcInstance, SolveOptions};
use ldc_graph::{DirectedView, Graph};
use ldc_sim::{Bandwidth, Network, Outbox, Tracer};
use std::collections::BTreeSet;
use std::time::Instant;

/// Everything the traced run accumulates besides the spans themselves.
pub struct Layers {
    pub rec: Recorder,
    jobs: u64,
    half_edges: u64,
    cache_hits: u64,
    cache_misses: u64,
    kernels: KernelStats,
    rounds: u64,
    messages: u64,
    bits: u64,
    max_message_bits: u64,
    traced_ns: u64,
    run_one_ns: u64,
    exchanged: BTreeSet<u64>,
    exchange_ns: f64,
    exchange_slots: f64,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            rec: Recorder::new(),
            jobs: 0,
            half_edges: 0,
            cache_hits: 0,
            cache_misses: 0,
            kernels: KernelStats::default(),
            rounds: 0,
            messages: 0,
            bits: 0,
            max_message_bits: 0,
            traced_ns: 0,
            run_one_ns: 0,
            exchanged: BTreeSet::new(),
            exchange_ns: 0.0,
            exchange_slots: 0.0,
        }
    }

    /// One `ldc batch` unit under spans — parse, `Fleet::run`, render —
    /// then every job of it decomposed, resolving graphs through a fresh
    /// cache in job order exactly as `Fleet::run` does. The decomposed
    /// jobs' `Fleet::run_one` rows must equal the fleet's rows.
    pub fn trace_unit(
        &mut self,
        unit: u64,
        text: &str,
        problems: &mut Vec<String>,
    ) -> Result<(FleetRun, String), String> {
        let fleet = Fleet::new(1);
        let rec = &self.rec;
        let open = rec.open();
        let parent = Some(open.id);
        let jobs = rec.span("batch.parse", parent, unit, || parse_spec_file(text))?;
        let run = rec.span("batch.fleet_run", parent, unit, || fleet.run(&jobs));
        let jsonl = rec.span("batch.render", parent, unit, || run.to_jsonl());
        rec.close(open, "unit", None, unit);

        let mut cache = GraphCache::new();
        for ((i, job), row) in jobs.iter().enumerate().zip(&run.outcomes) {
            let probed = self.probe_job(unit, i, job, &mut cache, &fleet)?;
            if probed.row != row.row {
                problems.push(format!(
                    "unit {unit} job {i}: traced-run row differs from the fleet row"
                ));
            }
        }
        self.cache_hits += cache.hits();
        self.cache_misses += cache.misses();
        Ok((run, jsonl))
    }

    fn probe_job(
        &mut self,
        unit: u64,
        index: usize,
        job: &JobSpec,
        cache: &mut GraphCache,
        fleet: &Fleet,
    ) -> Result<JobOutcome, String> {
        let id = unit << 20 | index as u64;
        let rec = &self.rec;
        let job_span = rec.open();
        let misses = cache.misses();
        let start = rec.now();
        let graph = cache.resolve(&job.graph);
        let end = rec.now();
        rec.record("batch.graph_resolve", Some(job_span.id), id, start, end);
        if cache.misses() > misses {
            // A miss is a build: the cache does nothing else on a miss. Not
            // a child span, so `batch.graph_resolve` keeps the whole call.
            rec.record("graph.build", None, id, start, end);
        }
        let g = match graph.as_ref() {
            Ok(g) => g,
            Err(e) => return Err(format!("job {index}: graph: {e}")),
        };
        let tracer = Tracer::new();
        let traced = solve_job(rec, job_span.id, id, job, g, Some(&tracer))
            .map_err(|e| format!("job {index}: traced solve: {e}"))?;
        // `run_one` is handed a resolved graph, so the overhead comparison
        // leaves resolution out.
        self.traced_ns += rec.close(job_span, "job", None, id) - (end - start);

        let open = rec.open();
        let outcome = fleet.run_one(index, job, &graph, None);
        self.run_one_ns += rec.close(open, "batch.run_one", None, id);

        if !(outcome.ok && outcome.valid) {
            return Err(format!("job {index}: row not ok/valid: {}", outcome.row));
        }
        // The same calls without a tracer, timed into a recorder that is
        // thrown away: attaching the tracer must not change the output.
        let plain = solve_job(&Recorder::new(), 0, id, job, g, None)
            .map_err(|e| format!("job {index}: untraced solve: {e}"))?;
        if plain != traced {
            return Err(format!(
                "job {index}: attaching a Tracer changed the solve's output"
            ));
        }
        let total = tracer.report().total();
        // The tracer follows a Theorem 1.3 solve into its substrate
        // sub-networks, whose rounds `Solution::rounds` leaves out; every
        // other pipeline reports the tracer's total.
        let tracer_rounds_match =
            job.algorithm == Algorithm::Arbdefective || total.rounds == traced.rounds;
        let row = (
            outcome.rounds,
            outcome.total_bits,
            outcome.colors_used,
            outcome.kernels,
        );
        let solve = (
            traced.rounds,
            traced.bits,
            traced.colors_used(),
            traced.kernels,
        );
        if row != solve || row_max_message_bits(&outcome.row) != Some(traced.max_message_bits) {
            return Err(format!(
                "job {index}: traced solve disagrees with its row: rounds/bits/colors/kernels {solve:?}, row {}",
                outcome.row
            ));
        }
        if !tracer_rounds_match {
            return Err(format!(
                "job {index}: tracer counted {} rounds, the solve {}",
                total.rounds, traced.rounds
            ));
        }
        self.jobs += 1;
        self.half_edges += 2 * g.num_edges() as u64;
        self.kernels.absorb(&outcome.kernels);
        self.rounds += total.rounds;
        self.messages += total.messages;
        self.bits += total.total_bits;
        self.max_message_bits = self.max_message_bits.max(total.max_message_bits);
        if self.exchanged.insert(job.graph.cache_key()) {
            self.exchange_probe(g);
        }
        Ok(outcome)
    }

    /// Five LOCAL flood rounds of `Network::exchange` on `g`, after one
    /// warm-up round.
    fn exchange_probe(&mut self, g: &Graph) {
        let mut net = Network::new(g, Bandwidth::Local);
        let mut states = vec![0u64; g.num_nodes()];
        let mut flood = |net: &mut Network<'_>| {
            net.exchange(
                &mut states,
                |_, s, out: &mut Outbox<'_, u64>| {
                    for p in 0..out.ports() {
                        out.send(p, s.wrapping_add(p as u64));
                    }
                },
                |v, s, inbox| {
                    *s = inbox.iter().fold(u64::from(v), |a, (_, m)| {
                        a.wrapping_mul(31).wrapping_add(*m)
                    });
                },
            )
            .expect("a LOCAL round cannot fail");
        };
        flood(&mut net);
        let t = Instant::now();
        for _ in 0..5 {
            flood(&mut net);
        }
        std::hint::black_box(&states);
        self.exchange_ns += t.elapsed().as_nanos() as f64;
        self.exchange_slots += 5.0 * 2.0 * g.num_edges().max(1) as f64;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Times are mean
    /// self time per probed job.
    pub fn metrics(&self, service: Vec<Metric>) -> Vec<Metric> {
        let times = self.rec.layer_self_times();
        let jobs = self.jobs.max(1) as f64;
        let ms = |layers: &[&str]| {
            layers
                .iter()
                .map(|l| times.get(*l).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / 1e6
                / jobs
        };
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let k = &self.kernels;
        let mut out = vec![
            Metric::new("batch.parse_ms", "ms", ms(&["batch.parse"])),
            Metric::new("batch.graph_resolve_ms", "ms", ms(&["batch.graph_resolve"])),
            Metric::new(
                "batch.graph_cache_hit_ratio",
                "ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            ),
            Metric::new("batch.lists_ms", "ms", ms(&["batch.lists"])),
            Metric::new("batch.run_one_ms", "ms", ms(&["batch.run_one"])),
            Metric::new("batch.render_ms", "ms", ms(&["batch.render"])),
            Metric::new("graph.build_ms", "ms", ms(&["graph.build"])),
            Metric::new("graph.half_edges", "count", self.half_edges as f64 / jobs),
            Metric::new(
                "core.solve_other_ms",
                "ms",
                ms(&["core.solve", "core.solve_other"]),
            ),
            Metric::new("core.thm11_ms", "ms", ms(&["core.thm11"])),
            Metric::new("core.phaseI_ms", "ms", ms(&["core.phaseI"])),
            Metric::new("core.phaseII_ms", "ms", ms(&["core.phaseII"])),
            Metric::new("core.census_ms", "ms", ms(&["core.census"])),
            Metric::new("core.aux_classes_ms", "ms", ms(&["core.aux_classes"])),
            Metric::new("core.thm13_stage_ms", "ms", ms(&["core.thm13_stage"])),
            Metric::new("core.bucket_oldc_ms", "ms", ms(&["core.bucket_oldc"])),
            Metric::new("core.substrate_ms", "ms", ms(&["core.substrate"])),
            Metric::new("core.validate_ms", "ms", ms(&["core.validate"])),
            Metric::new("core.select_calls", "count", k.select_calls as f64 / jobs),
            Metric::new(
                "core.select_hit_ratio",
                "ratio",
                ratio(k.select_calls - k.select_misses, k.select_calls),
            ),
            Metric::new(
                "core.conflict_calls",
                "count",
                k.conflict_calls as f64 / jobs,
            ),
            Metric::new(
                "core.conflict_hit_ratio",
                "ratio",
                ratio(k.conflict_calls - k.conflict_misses, k.conflict_calls),
            ),
            Metric::new("core.evictions", "count", k.evictions as f64 / jobs),
            Metric::new("classic.linial_init_ms", "ms", ms(&["classic.linial_init"])),
            Metric::new(
                "classic.seq_arbdefective_ms",
                "ms",
                ms(&["classic.seq_arbdefective"]),
            ),
            Metric::new("sim.rounds", "count", self.rounds as f64 / jobs),
            Metric::new("sim.messages", "count", self.messages as f64 / jobs),
            Metric::new("sim.total_bits", "bits", self.bits as f64 / jobs),
            Metric::new("sim.max_message_bits", "bits", self.max_message_bits as f64),
            Metric::new(
                "sim.exchange_ns_per_slot",
                "ns",
                self.exchange_ns / self.exchange_slots.max(1.0),
            ),
        ];
        out.extend(service);
        out.push(Metric::new(
            "trace.overhead_pct",
            "%",
            (self.traced_ns as f64 / self.run_one_ns.max(1) as f64 - 1.0) * 100.0,
        ));
        out
    }

    /// Mean `Fleet::run_one` time per probed job, in seconds.
    pub fn run_one_mean_s(&self) -> f64 {
        self.run_one_ns as f64 / 1e9 / self.jobs.max(1) as f64
    }
}

/// The one row field `JobOutcome` does not carry as a number.
fn row_max_message_bits(row: &str) -> Option<u64> {
    Value::parse(row).ok()?.get("max_message_bits")?.as_u64()
}

/// What a decomposed solve produced: the numbers its row is rendered
/// from, and the coloring itself.
#[derive(PartialEq)]
struct Solved {
    rounds: u64,
    bits: u64,
    max_message_bits: u64,
    colors: Vec<u64>,
    kernels: KernelStats,
}

impl Solved {
    fn colors_used(&self) -> u64 {
        self.colors.iter().collect::<BTreeSet<_>>().len() as u64
    }
}

/// The body of `Fleet::run_one` for a fault-free job, one public call at
/// a time: lists, the solve (with a `Tracer` attached when `tracer` is
/// given), then validation.
fn solve_job(
    rec: &Recorder,
    parent: u64,
    id: u64,
    job: &JobSpec,
    g: &Graph,
    tracer: Option<&Tracer>,
) -> Result<Solved, String> {
    let mut opts = SolveOptions::default().with_seed(job.seed);
    if let Some(t) = tracer {
        opts = opts.with_trace(t.clone());
    }
    let cfg = CongestConfig {
        seed: job.seed,
        ..CongestConfig::default()
    };
    let space = job.lists.space(g);
    let solve = |f: &mut dyn FnMut() -> Result<(), ldc_core::CoreError>| {
        let open = rec.open();
        let (sid, start) = (open.id, open.start);
        let result = f();
        rec.close(open, "core.solve", Some(parent), id);
        if let Some(t) = tracer {
            rec.graft(&t.report(), sid, id, start);
        }
        result.map_err(|e| e.to_string())
    };
    let validate =
        |f: &dyn Fn() -> Result<(), String>| rec.span("core.validate", Some(parent), id, f);
    let solved = |rounds: usize, bits, max_message_bits, colors, kernels| Solved {
        rounds: rounds as u64,
        bits,
        max_message_bits,
        colors,
        kernels,
    };

    Ok(match job.algorithm {
        Algorithm::Oldc => {
            let lists = rec.span("batch.lists", Some(parent), id, || {
                job.lists.defect_lists(g)
            });
            let inst =
                OldcInstance::new(DirectedView::bidirected(g), ColorSpace::new(space), lists);
            let mut sol = None;
            solve(&mut || inst.solve(&opts).map(|s| sol = Some(s)))?;
            let sol = sol.expect("solve succeeded");
            validate(&|| {
                validate_oldc(&inst.view, &inst.lists, &sol.colors).map_err(|e| e.to_string())
            })?;
            solved(
                sol.rounds,
                sol.total_bits,
                sol.max_message_bits,
                sol.colors,
                sol.kernels,
            )
        }
        Algorithm::LdcDistributed | Algorithm::Arbdefective => {
            let arb = job.algorithm == Algorithm::Arbdefective;
            let lists = rec.span("batch.lists", Some(parent), id, || {
                job.lists.defect_lists(g)
            });
            let inst = LdcInstance::new(g, ColorSpace::new(space), lists);
            let mut sol = None;
            solve(&mut || {
                if arb {
                    inst.solve_arbdefective(&opts)
                } else {
                    inst.solve_distributed(&opts)
                }
                .map(|s| sol = Some(s))
            })?;
            let sol = sol.expect("solve succeeded");
            validate(&|| {
                match (&sol.orientation, arb) {
                    (Some(o), true) => validate_arbdefective(g, &inst.lists, &sol.colors, o),
                    _ => validate_ldc(g, &inst.lists, &sol.colors),
                }
                .map_err(|e| e.to_string())
            })?;
            solved(
                sol.rounds,
                sol.total_bits,
                sol.max_message_bits,
                sol.colors,
                sol.kernels,
            )
        }
        Algorithm::Congest => {
            let lists = rec.span("batch.lists", Some(parent), id, || job.lists.color_lists(g));
            let mut out = None;
            solve(&mut || {
                congest_degree_plus_one(g, space, &lists, &cfg, &opts).map(|o| out = Some(o))
            })?;
            let (colors, r) = out.expect("solve succeeded");
            validate(&|| {
                validate_proper_list_coloring(g, &lists, &colors).map_err(|e| e.to_string())
            })?;
            solved(
                r.rounds_total(),
                r.bits_total,
                r.max_message_bits,
                colors,
                r.kernels,
            )
        }
        Algorithm::EdgeColoring => {
            // Builds its own 2Δ−1 palette on the line graph: no list call.
            let mut out = None;
            solve(&mut || edge_coloring(g, &cfg, &opts).map(|ec| out = Some(ec)))?;
            let ec = out.expect("solve succeeded");
            validate(&|| ec.validate(g))?;
            let r = ec.report;
            solved(
                r.rounds_total(),
                r.bits_total,
                r.max_message_bits,
                ec.colors,
                r.kernels,
            )
        }
    })
}
