//! Job specifications: what to run, on which graph, under which
//! environment. Every spec round-trips through JSON — [`JobSpec::to_json`]
//! is the canonical echo embedded in each result row, and
//! [`parse_spec_file`] reads the `ldc batch` input format.
//!
//! Rates are specified in **milli units** (`drop_milli: 50` = 5%), so
//! specs stay integer-only: echoes are byte-exact and the graph-cache
//! hash never depends on float formatting.

use crate::jsonin::Value;
use ldc_core::problem::DefectList;

/// Version of the JobSpec JSON schema (and of the `ldcd` wire frames
/// that embed it). Every canonical echo leads with `"v":1`; parsing
/// accepts an absent `v` (pre-versioning fixtures) and rejects any other
/// value with a typed error, so a future `"v":2` reader can coexist with
/// this one without silently misreading either format.
pub const SPEC_VERSION: u64 = 1;

/// Check a parsed object's `v` field against [`SPEC_VERSION`] (absent
/// means version 1, for fixture compatibility).
pub fn check_version(v: &Value) -> Result<(), String> {
    let got = v.u64_or("v", SPEC_VERSION)?;
    if got != SPEC_VERSION {
        return Err(format!(
            "unsupported schema version {got} (supported: {SPEC_VERSION})"
        ));
    }
    Ok(())
}
use ldc_core::Color;
use ldc_graph::{generators, io, Graph};
use ldc_sim::json::Obj;
use ldc_sim::{FaultPlan, RetryPolicy};

/// Where a job's graph comes from: a generator spec or a file on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// Cycle on `n` nodes.
    Ring {
        /// Node count.
        n: usize,
    },
    /// Path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// Complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// `rows × cols` torus.
    Torus {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Random `d`-regular graph.
    Regular {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Erdős–Rényi `G(n, p)` with `p = p_milli / 1000`.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability in milli units.
        p_milli: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Complete multipartite graph: `parts` parts of `size` nodes each.
    Multipartite {
        /// Number of parts.
        parts: usize,
        /// Nodes per part.
        size: usize,
    },
    /// Complete `arity`-ary tree on `n` nodes.
    Tree {
        /// Node count.
        n: usize,
        /// Branching factor.
        arity: usize,
    },
    /// Hypercube of dimension `dim`.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Preferential-attachment graph (`m` edges per arriving node).
    Powerlaw {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Edge-list file (the `ldc gen` output format).
    File {
        /// Path to the edge-list file.
        path: String,
    },
}

impl GraphSource {
    /// Build (or load) the graph.
    pub fn build(&self) -> Result<Graph, String> {
        Ok(match self {
            GraphSource::Ring { n } => generators::ring(*n),
            GraphSource::Path { n } => generators::path(*n),
            GraphSource::Complete { n } => generators::complete(*n),
            GraphSource::Torus { rows, cols } => generators::torus(*rows, *cols),
            GraphSource::Regular { n, d, seed } => generators::random_regular(*n, *d, *seed),
            GraphSource::Gnp { n, p_milli, seed } => {
                generators::gnp(*n, *p_milli as f64 / 1000.0, *seed)
            }
            GraphSource::Multipartite { parts, size } => {
                generators::complete_multipartite(*parts, *size)
            }
            GraphSource::Tree { n, arity } => generators::complete_tree(*n, *arity),
            GraphSource::Hypercube { dim } => generators::hypercube(*dim),
            GraphSource::Powerlaw { n, m, seed } => {
                generators::preferential_attachment(*n, *m, *seed)
            }
            GraphSource::File { path } => {
                let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
                io::read_edge_list(std::io::BufReader::new(f)).map_err(|e| e.to_string())?
            }
        })
    }

    /// Cache key: an FNV-1a hash of the canonical JSON spec, so two jobs
    /// naming the same source share one built graph. (File sources key on
    /// the *path*: a batch run treats files as immutable.)
    pub fn cache_key(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }

    /// Canonical JSON form (deterministic field order).
    pub fn to_json(&self) -> String {
        match self {
            GraphSource::Ring { n } => family("ring").u64("n", *n as u64).finish(),
            GraphSource::Path { n } => family("path").u64("n", *n as u64).finish(),
            GraphSource::Complete { n } => family("complete").u64("n", *n as u64).finish(),
            GraphSource::Torus { rows, cols } => family("torus")
                .u64("rows", *rows as u64)
                .u64("cols", *cols as u64)
                .finish(),
            GraphSource::Regular { n, d, seed } => family("regular")
                .u64("n", *n as u64)
                .u64("d", *d as u64)
                .u64("seed", *seed)
                .finish(),
            GraphSource::Gnp { n, p_milli, seed } => family("gnp")
                .u64("n", *n as u64)
                .u64("p_milli", *p_milli)
                .u64("seed", *seed)
                .finish(),
            GraphSource::Multipartite { parts, size } => family("multipartite")
                .u64("parts", *parts as u64)
                .u64("size", *size as u64)
                .finish(),
            GraphSource::Tree { n, arity } => family("tree")
                .u64("n", *n as u64)
                .u64("arity", *arity as u64)
                .finish(),
            GraphSource::Hypercube { dim } => {
                family("hypercube").u64("dim", u64::from(*dim)).finish()
            }
            GraphSource::Powerlaw { n, m, seed } => family("powerlaw")
                .u64("n", *n as u64)
                .u64("m", *m as u64)
                .u64("seed", *seed)
                .finish(),
            GraphSource::File { path } => family("file").str("path", path).finish(),
        }
    }

    /// Parse from a spec-file object (`{"family": "...", ...}`).
    pub fn from_json(v: &Value) -> Result<GraphSource, String> {
        let fam = v
            .require("family")?
            .as_str()
            .ok_or("graph family is not a string")?;
        let n =
            || -> Result<usize, String> { Ok(v.require("n")?.as_u64().ok_or("bad n")? as usize) };
        Ok(match fam {
            "ring" => GraphSource::Ring { n: n()? },
            "path" => GraphSource::Path { n: n()? },
            "complete" => GraphSource::Complete { n: n()? },
            "torus" => GraphSource::Torus {
                rows: v.require("rows")?.as_u64().ok_or("bad rows")? as usize,
                cols: v.require("cols")?.as_u64().ok_or("bad cols")? as usize,
            },
            "regular" => GraphSource::Regular {
                n: n()?,
                d: v.require("d")?.as_u64().ok_or("bad d")? as usize,
                seed: v.u64_or("seed", 1)?,
            },
            "gnp" => GraphSource::Gnp {
                n: n()?,
                p_milli: v.require("p_milli")?.as_u64().ok_or("bad p_milli")?,
                seed: v.u64_or("seed", 1)?,
            },
            "multipartite" => GraphSource::Multipartite {
                parts: v.require("parts")?.as_u64().ok_or("bad parts")? as usize,
                size: v.require("size")?.as_u64().ok_or("bad size")? as usize,
            },
            "tree" => GraphSource::Tree {
                n: n()?,
                arity: v.require("arity")?.as_u64().ok_or("bad arity")? as usize,
            },
            "hypercube" => GraphSource::Hypercube {
                dim: v.require("dim")?.as_u64().ok_or("bad dim")? as u32,
            },
            "powerlaw" => GraphSource::Powerlaw {
                n: n()?,
                m: v.require("m")?.as_u64().ok_or("bad m")? as usize,
                seed: v.u64_or("seed", 1)?,
            },
            "file" => GraphSource::File {
                path: v.require("path")?.as_str().ok_or("bad path")?.to_string(),
            },
            other => return Err(format!("unknown graph family {other:?}")),
        })
    }
}

fn family(name: &str) -> Obj {
    Obj::new().str("family", name)
}

/// FNV-1a, 64-bit — the one content hash the cache uses (never
/// `RandomState`, which would vary per process and break determinism
/// diagnostics).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// How a job's color lists (and defect values) are generated from its
/// graph. `space = 0` means *auto*: `Δ + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListSpec {
    /// Every node gets the full palette `0..space` with defect `defect`.
    FullPalette {
        /// Color-space size (0 = `Δ + 1`).
        space: u64,
        /// Per-color defect bound.
        defect: u64,
    },
    /// Node `v` gets `deg(v) + 1` salted colors from `0..space` — the
    /// Theorem 1.4 `(degree+1)`-list regime.
    DegreePlusOne {
        /// Color-space size (0 = `Δ + 1`).
        space: u64,
        /// Salt mixed into the per-node color pattern.
        salt: u64,
    },
    /// Every node gets `len` salted colors from `0..space` with defect
    /// `defect` — the rich-list regime of the OLDC experiments.
    Uniform {
        /// Color-space size (0 = `Δ + 1`).
        space: u64,
        /// List length per node.
        len: u64,
        /// Per-color defect bound.
        defect: u64,
        /// Salt mixed into the per-node color pattern.
        salt: u64,
    },
}

impl ListSpec {
    /// The effective color-space size on `g`.
    pub fn space(&self, g: &Graph) -> u64 {
        let raw = match self {
            ListSpec::FullPalette { space, .. }
            | ListSpec::DegreePlusOne { space, .. }
            | ListSpec::Uniform { space, .. } => *space,
        };
        if raw == 0 {
            g.max_degree() as u64 + 1
        } else {
            raw
        }
    }

    /// The per-color defect bound.
    pub fn defect(&self) -> u64 {
        match self {
            ListSpec::FullPalette { defect, .. } | ListSpec::Uniform { defect, .. } => *defect,
            ListSpec::DegreePlusOne { .. } => 0,
        }
    }

    /// The color lists, one per node.
    pub fn color_lists(&self, g: &Graph) -> Vec<Vec<Color>> {
        let space = self.space(g);
        match self {
            ListSpec::FullPalette { .. } => g.nodes().map(|_| (0..space).collect()).collect(),
            ListSpec::DegreePlusOne { salt, .. } => g
                .nodes()
                .map(|v| salted_list(u64::from(v), g.degree(v) as u64 + 1, space, *salt))
                .collect(),
            ListSpec::Uniform { len, salt, .. } => g
                .nodes()
                .map(|v| salted_list(u64::from(v), *len, space, *salt))
                .collect(),
        }
    }

    /// The lists as [`DefectList`]s with this spec's defect bound.
    pub fn defect_lists(&self, g: &Graph) -> Vec<DefectList> {
        let d = self.defect();
        self.color_lists(g)
            .into_iter()
            .map(|l| DefectList::uniform(l, d))
            .collect()
    }

    /// Canonical JSON form.
    pub fn to_json(&self) -> String {
        match self {
            ListSpec::FullPalette { space, defect } => Obj::new()
                .str("kind", "full_palette")
                .u64("space", *space)
                .u64("defect", *defect)
                .finish(),
            ListSpec::DegreePlusOne { space, salt } => Obj::new()
                .str("kind", "degree_plus_one")
                .u64("space", *space)
                .u64("salt", *salt)
                .finish(),
            ListSpec::Uniform {
                space,
                len,
                defect,
                salt,
            } => Obj::new()
                .str("kind", "uniform")
                .u64("space", *space)
                .u64("len", *len)
                .u64("defect", *defect)
                .u64("salt", *salt)
                .finish(),
        }
    }

    /// Parse from a spec-file object.
    pub fn from_json(v: &Value) -> Result<ListSpec, String> {
        let kind = v
            .require("kind")?
            .as_str()
            .ok_or("list kind is not a string")?;
        Ok(match kind {
            "full_palette" => ListSpec::FullPalette {
                space: v.u64_or("space", 0)?,
                defect: v.u64_or("defect", 0)?,
            },
            "degree_plus_one" => ListSpec::DegreePlusOne {
                space: v.u64_or("space", 0)?,
                salt: v.u64_or("salt", 0)?,
            },
            "uniform" => ListSpec::Uniform {
                space: v.u64_or("space", 0)?,
                len: v.require("len")?.as_u64().ok_or("bad len")?,
                defect: v.u64_or("defect", 0)?,
                salt: v.u64_or("salt", 0)?,
            },
            other => return Err(format!("unknown list kind {other:?}")),
        })
    }
}

impl Default for ListSpec {
    fn default() -> Self {
        ListSpec::DegreePlusOne { space: 0, salt: 0 }
    }
}

/// `count` distinct salted colors from `0..space` for node `v` (padded
/// from the palette floor on collision — same discipline as the congest
/// test fixtures).
fn salted_list(v: u64, count: u64, space: u64, salt: u64) -> Vec<Color> {
    let count = count.min(space) as usize;
    let mut l: Vec<Color> = (0..count as u64)
        .map(|i| (v * 31 + i * 71 + salt) % space)
        .collect();
    l.sort_unstable();
    l.dedup();
    let mut c = 0;
    while l.len() < count {
        if !l.contains(&c) {
            l.push(c);
        }
        c += 1;
    }
    l.sort_unstable();
    l
}

/// Which solver a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// [`ldc_core::OldcInstance::solve`] on the bidirected lift.
    Oldc,
    /// [`ldc_core::LdcInstance::solve_distributed`].
    LdcDistributed,
    /// [`ldc_core::LdcInstance::solve_arbdefective`] (Theorem 1.3).
    Arbdefective,
    /// [`ldc_core::congest::congest_degree_plus_one`] (Theorem 1.4).
    Congest,
    /// [`ldc_core::edge_coloring::edge_coloring`] on the line graph
    /// (ignores the job's list spec: it builds its own `2Δ−1` palette).
    EdgeColoring,
}

impl Algorithm {
    /// The JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Oldc => "oldc",
            Algorithm::LdcDistributed => "ldc_distributed",
            Algorithm::Arbdefective => "arbdefective",
            Algorithm::Congest => "congest",
            Algorithm::EdgeColoring => "edge_coloring",
        }
    }

    /// Parse a JSON name.
    pub fn from_name(s: &str) -> Result<Algorithm, String> {
        Ok(match s {
            "oldc" => Algorithm::Oldc,
            "ldc_distributed" => Algorithm::LdcDistributed,
            "arbdefective" => Algorithm::Arbdefective,
            "congest" => Algorithm::Congest,
            "edge_coloring" => Algorithm::EdgeColoring,
            other => {
                return Err(format!(
                    "unknown algorithm {other:?} \
                     (oldc|ldc_distributed|arbdefective|congest|edge_coloring)"
                ))
            }
        })
    }
}

/// A job's fault environment, integer-encoded (rates in milli units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fault-plan seed.
    pub seed: u64,
    /// Message-drop rate, milli units.
    pub drop_milli: u64,
    /// Truncation rate, milli units.
    pub trunc_milli: u64,
    /// Truncation cap in bits (with `trunc_milli > 0`).
    pub trunc_cap: u64,
    /// Node-sleep rate, milli units.
    pub sleep_milli: u64,
    /// Transient-error rate, milli units.
    pub error_milli: u64,
    /// Engine round retries per fault.
    pub max_retries: u32,
    /// Stall rounds charged per retry.
    pub backoff_rounds: u32,
    /// Solver restarts ([`ldc_core::Resilient`]) for instance algorithms.
    pub max_restarts: u32,
    /// Crash windows: nodes `0..crash_nodes` are down for rounds
    /// `crash_from..crash_until` (0 = no crash windows). Deterministic by
    /// round, **not** re-drawn on retries or restarts — use it only where
    /// the algorithm tolerates the outage.
    pub crash_nodes: u64,
    /// First crashed round (with `crash_nodes > 0`).
    pub crash_from: u64,
    /// First recovered round, exclusive (with `crash_nodes > 0`).
    pub crash_until: u64,
    /// Bandwidth schedule: clamp the per-message budget to `bw_cap` bits
    /// from round `bw_from`, restoring the configured bandwidth at round
    /// `bw_until` (0 = no schedule). Like crash windows, the schedule is
    /// round-keyed and survives retries.
    pub bw_cap: u64,
    /// First clamped round (with `bw_cap > 0`).
    pub bw_from: u64,
    /// First restored round (with `bw_cap > 0`).
    pub bw_until: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xFA,
            drop_milli: 0,
            trunc_milli: 0,
            trunc_cap: 0,
            sleep_milli: 0,
            error_milli: 0,
            max_retries: 3,
            backoff_rounds: 1,
            max_restarts: 3,
            crash_nodes: 0,
            crash_from: 0,
            crash_until: 0,
            bw_cap: 0,
            bw_from: 0,
            bw_until: 0,
        }
    }
}

impl FaultSpec {
    /// The seeded [`FaultPlan`] this spec describes.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed)
            .with_drop_rate(self.drop_milli as f64 / 1000.0)
            .with_sleep_rate(self.sleep_milli as f64 / 1000.0)
            .with_error_rate(self.error_milli as f64 / 1000.0);
        if self.trunc_milli > 0 {
            plan = plan.with_truncation(self.trunc_milli as f64 / 1000.0, self.trunc_cap);
        }
        for node in 0..self.crash_nodes {
            plan = plan.with_crash(
                node as u32,
                self.crash_from as usize,
                self.crash_until as usize,
            );
        }
        if self.bw_cap > 0 {
            plan = plan
                .with_budget_step(self.bw_from as usize, Some(self.bw_cap))
                .with_budget_step(self.bw_until as usize, None);
        }
        plan
    }

    /// The engine retry policy this spec describes.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            backoff_rounds: self.backoff_rounds,
        }
    }

    /// Canonical JSON form. The crash-window and bandwidth-schedule
    /// fields are rendered only when active, so echoes of specs that
    /// predate them (e.g. the checked-in CI goldens) are byte-unchanged.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .u64("seed", self.seed)
            .u64("drop_milli", self.drop_milli)
            .u64("trunc_milli", self.trunc_milli)
            .u64("trunc_cap", self.trunc_cap)
            .u64("sleep_milli", self.sleep_milli)
            .u64("error_milli", self.error_milli)
            .u64("max_retries", u64::from(self.max_retries))
            .u64("backoff_rounds", u64::from(self.backoff_rounds))
            .u64("max_restarts", u64::from(self.max_restarts));
        if self.crash_nodes > 0 {
            o = o
                .u64("crash_nodes", self.crash_nodes)
                .u64("crash_from", self.crash_from)
                .u64("crash_until", self.crash_until);
        }
        if self.bw_cap > 0 {
            o = o
                .u64("bw_cap", self.bw_cap)
                .u64("bw_from", self.bw_from)
                .u64("bw_until", self.bw_until);
        }
        o.finish()
    }

    /// Parse from a spec-file object.
    pub fn from_json(v: &Value) -> Result<FaultSpec, String> {
        let d = FaultSpec::default();
        Ok(FaultSpec {
            seed: v.u64_or("seed", d.seed)?,
            drop_milli: v.u64_or("drop_milli", 0)?,
            trunc_milli: v.u64_or("trunc_milli", 0)?,
            trunc_cap: v.u64_or("trunc_cap", 0)?,
            sleep_milli: v.u64_or("sleep_milli", 0)?,
            error_milli: v.u64_or("error_milli", 0)?,
            max_retries: v.u64_or("max_retries", u64::from(d.max_retries))? as u32,
            backoff_rounds: v.u64_or("backoff_rounds", u64::from(d.backoff_rounds))? as u32,
            max_restarts: v.u64_or("max_restarts", u64::from(d.max_restarts))? as u32,
            crash_nodes: v.u64_or("crash_nodes", 0)?,
            crash_from: v.u64_or("crash_from", 0)?,
            crash_until: v.u64_or("crash_until", 0)?,
            bw_cap: v.u64_or("bw_cap", 0)?,
            bw_from: v.u64_or("bw_from", 0)?,
            bw_until: v.u64_or("bw_until", 0)?,
        })
    }
}

/// One unit of batch work: a graph, an algorithm, list generation rules,
/// a solver seed, and an optional fault environment.
///
/// Execution knobs — shard count, solver pool width, the fleet-shared
/// kernel cache — live on [`crate::Fleet`], not here: they change how a
/// job runs, never what it computes, so the JSON schema (and the
/// per-row spec echo) stays byte-stable across runner configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The graph to color.
    pub graph: GraphSource,
    /// The solver to run.
    pub algorithm: Algorithm,
    /// How to generate the color lists.
    pub lists: ListSpec,
    /// Selection seed handed to the solver.
    pub seed: u64,
    /// Fault environment (`None` = flawless network).
    pub faults: Option<FaultSpec>,
}

impl JobSpec {
    /// The top-level fields a job object may carry (strict mode).
    pub const FIELDS: &'static [&'static str] =
        &["v", "graph", "algorithm", "lists", "seed", "faults"];

    /// Canonical JSON echo embedded in every result row.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .u64("v", SPEC_VERSION)
            .raw("graph", &self.graph.to_json())
            .str("algorithm", self.algorithm.name())
            .raw("lists", &self.lists.to_json())
            .u64("seed", self.seed);
        if let Some(f) = &self.faults {
            o = o.raw("faults", &f.to_json());
        }
        o.finish()
    }

    /// Parse from a spec-file object (loose mode: unknown fields are
    /// ignored, so fixtures that predate a field keep parsing).
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        check_version(v)?;
        let graph = GraphSource::from_json(v.require("graph")?)?;
        let algorithm = match v.get("algorithm") {
            None => Algorithm::Congest,
            Some(a) => Algorithm::from_name(a.as_str().ok_or("algorithm is not a string")?)?,
        };
        let lists = match v.get("lists") {
            None => ListSpec::default(),
            Some(l) => ListSpec::from_json(l)?,
        };
        let faults = match v.get("faults") {
            None | Some(Value::Null) => None,
            Some(f) => Some(FaultSpec::from_json(f)?),
        };
        Ok(JobSpec {
            graph,
            algorithm,
            lists,
            seed: v.u64_or("seed", 1)?,
            faults,
        })
    }
}

impl JobSpec {
    /// Parse in strict mode: like [`JobSpec::from_json`], but unknown
    /// top-level fields are typed errors. The daemon's wire frames parse
    /// this way; spec *files* stay loose for fixture compatibility.
    pub fn from_json_strict(v: &Value) -> Result<JobSpec, String> {
        v.expect_only(JobSpec::FIELDS)?;
        JobSpec::from_json(v)
    }
}

/// Parse a spec file: either a bare JSON array of job objects or
/// `{"jobs": [...]}`. Loose mode; see [`parse_spec_file_strict`].
pub fn parse_spec_file(text: &str) -> Result<Vec<JobSpec>, String> {
    parse_spec_file_mode(text, false)
}

/// [`parse_spec_file`] in strict mode: unknown top-level fields on the
/// document or on any job object are errors.
pub fn parse_spec_file_strict(text: &str) -> Result<Vec<JobSpec>, String> {
    parse_spec_file_mode(text, true)
}

fn parse_spec_file_mode(text: &str, strict: bool) -> Result<Vec<JobSpec>, String> {
    let doc = Value::parse(text)?;
    let jobs = match &doc {
        Value::Arr(items) => items.as_slice(),
        Value::Obj(_) => {
            if strict {
                doc.expect_only(&["v", "jobs"])?;
            }
            check_version(&doc)?;
            doc.require("jobs")?
                .as_arr()
                .ok_or("\"jobs\" is not an array")?
        }
        _ => return Err("spec must be a JSON array or an object with \"jobs\"".into()),
    };
    jobs.iter()
        .enumerate()
        .map(|(i, j)| {
            if strict {
                JobSpec::from_json_strict(j)
            } else {
                JobSpec::from_json(j)
            }
            .map_err(|e| format!("job {i}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_sources_round_trip_and_build() {
        let sources = vec![
            GraphSource::Ring { n: 8 },
            GraphSource::Path { n: 5 },
            GraphSource::Complete { n: 6 },
            GraphSource::Torus { rows: 3, cols: 4 },
            GraphSource::Regular {
                n: 20,
                d: 4,
                seed: 7,
            },
            GraphSource::Gnp {
                n: 20,
                p_milli: 150,
                seed: 3,
            },
            GraphSource::Multipartite { parts: 4, size: 3 },
            GraphSource::Tree { n: 15, arity: 2 },
            GraphSource::Hypercube { dim: 3 },
            GraphSource::Powerlaw {
                n: 20,
                m: 2,
                seed: 5,
            },
        ];
        for src in sources {
            let echo = src.to_json();
            let back = GraphSource::from_json(&Value::parse(&echo).unwrap()).unwrap();
            assert_eq!(back, src, "{echo}");
            assert!(src.build().unwrap().num_nodes() > 0);
        }
    }

    #[test]
    fn cache_keys_separate_distinct_specs() {
        let a = GraphSource::Regular {
            n: 20,
            d: 4,
            seed: 7,
        };
        let b = GraphSource::Regular {
            n: 20,
            d: 4,
            seed: 8,
        };
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), a.clone().cache_key());
    }

    #[test]
    fn list_specs_generate_valid_lists() {
        let g = generators::random_regular(30, 4, 2);
        let dp1 = ListSpec::default();
        let lists = dp1.color_lists(&g);
        assert_eq!(lists.len(), 30);
        for (v, l) in lists.iter().enumerate() {
            assert_eq!(l.len(), g.degree(v as u32) + 1);
            assert!(l.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
            assert!(l.iter().all(|&c| c < dp1.space(&g)));
        }
        let uni = ListSpec::Uniform {
            space: 64,
            len: 9,
            defect: 2,
            salt: 1,
        };
        for l in uni.color_lists(&g) {
            assert_eq!(l.len(), 9);
        }
        assert_eq!(uni.defect(), 2);
        assert_eq!(uni.defect_lists(&g).len(), 30);
    }

    #[test]
    fn job_specs_round_trip_with_defaults() {
        let text = r#"{"jobs": [
            {"graph": {"family": "ring", "n": 10}},
            {"graph": {"family": "regular", "n": 40, "d": 4, "seed": 2},
             "algorithm": "oldc",
             "lists": {"kind": "uniform", "space": 128, "len": 24, "defect": 3},
             "seed": 9,
             "faults": {"seed": 5, "error_milli": 100}}
        ]}"#;
        let jobs = parse_spec_file(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].algorithm, Algorithm::Congest);
        assert_eq!(jobs[0].lists, ListSpec::default());
        assert!(jobs[0].faults.is_none());
        assert_eq!(jobs[1].algorithm, Algorithm::Oldc);
        let f = jobs[1].faults.unwrap();
        assert_eq!(f.seed, 5);
        assert_eq!(f.error_milli, 100);
        assert_eq!(f.max_retries, 3, "defaulted");
        // The echo itself re-parses to the same spec.
        for job in &jobs {
            let back = JobSpec::from_json(&Value::parse(&job.to_json()).unwrap()).unwrap();
            assert_eq!(&back, job);
        }
    }

    #[test]
    fn echoes_lead_with_the_schema_version() {
        let jobs = parse_spec_file(r#"[{"graph": {"family": "ring", "n": 6}}]"#).unwrap();
        let echo = jobs[0].to_json();
        assert!(echo.starts_with("{\"v\":1,"), "{echo}");
        // The explicit-version spelling parses to the same job.
        let versioned =
            parse_spec_file(r#"{"v": 1, "jobs": [{"v": 1, "graph": {"family": "ring", "n": 6}}]}"#)
                .unwrap();
        assert_eq!(versioned[0], jobs[0]);
    }

    #[test]
    fn unknown_versions_are_typed_errors() {
        let err =
            parse_spec_file(r#"[{"v": 2, "graph": {"family": "ring", "n": 6}}]"#).unwrap_err();
        assert!(err.contains("unsupported schema version 2"), "{err}");
        let err = parse_spec_file(r#"{"v": 3, "jobs": []}"#).unwrap_err();
        assert!(err.contains("unsupported schema version 3"), "{err}");
        assert!(parse_spec_file(r#"[{"v": "one", "graph": {"family": "ring", "n": 6}}]"#).is_err());
    }

    #[test]
    fn strict_mode_rejects_unknown_fields_loose_ignores_them() {
        let text = r#"[{"graph": {"family": "ring", "n": 6}, "sede": 7}]"#;
        let loose = parse_spec_file(text).unwrap();
        assert_eq!(loose[0].seed, 1, "unknown field ignored, default kept");
        let err = parse_spec_file_strict(text).unwrap_err();
        assert!(err.contains("job 0") && err.contains("sede"), "{err}");
        // Strict also covers the document wrapper.
        let err = parse_spec_file_strict(r#"{"jobs": [], "extra": 1}"#).unwrap_err();
        assert!(err.contains("extra"), "{err}");
        // Well-formed specs parse identically in both modes.
        let ok = r#"{"v": 1, "jobs": [{"v": 1, "graph": {"family": "ring", "n": 6}, "seed": 4}]}"#;
        assert_eq!(
            parse_spec_file_strict(ok).unwrap(),
            parse_spec_file(ok).unwrap()
        );
    }

    #[test]
    fn bad_specs_error_with_job_index() {
        let err = parse_spec_file(r#"[{"graph": {"family": "nope", "n": 3}}]"#).unwrap_err();
        assert!(err.contains("job 0"), "{err}");
        assert!(parse_spec_file("42").is_err());
        let err =
            parse_spec_file(r#"[{"graph": {"family": "ring", "n": 4}, "algorithm": "magic"}]"#)
                .unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse_spec_file(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn fault_spec_builds_plan_and_retry() {
        let f = FaultSpec {
            error_milli: 200,
            trunc_milli: 100,
            trunc_cap: 8,
            max_retries: 7,
            ..FaultSpec::default()
        };
        assert_eq!(f.retry().max_retries, 7);
        // Rates survive the milli encoding exactly.
        let echo = FaultSpec::from_json(&Value::parse(&f.to_json()).unwrap()).unwrap();
        assert_eq!(echo, f);
    }

    #[test]
    fn crash_and_bandwidth_fields_round_trip_and_shape_the_plan() {
        // Absent fields stay out of the echo: pre-existing spec echoes
        // (the CI goldens) must not grow new keys.
        let plain = FaultSpec::default();
        assert!(!plain.to_json().contains("crash_nodes"));
        assert!(!plain.to_json().contains("bw_cap"));
        assert!(plain.plan().is_noop());

        let f = FaultSpec {
            crash_nodes: 2,
            crash_from: 1,
            crash_until: 3,
            bw_cap: 1 << 20,
            bw_from: 2,
            bw_until: 6,
            ..FaultSpec::default()
        };
        let echo = FaultSpec::from_json(&Value::parse(&f.to_json()).unwrap()).unwrap();
        assert_eq!(echo, f);
        let plan = f.plan();
        assert!(!plan.is_noop());
        // Nodes 0 and 1 are down exactly for rounds 1..3.
        assert!(plan.faulted(1, 0, 0) && plan.faulted(2, 0, 1));
        assert!(!plan.faulted(0, 0, 0) && !plan.faulted(3, 0, 1));
        assert!(!plan.faulted(1, 0, 2), "node 2 is outside the window");
        // The budget clamps inside [2, 6) and restores after.
        use ldc_sim::Bandwidth;
        assert_eq!(plan.bandwidth_at(1, Bandwidth::Local), Bandwidth::Local);
        assert_eq!(
            plan.bandwidth_at(3, Bandwidth::Local),
            Bandwidth::Congest {
                bits_per_message: 1 << 20
            }
        );
        assert_eq!(plan.bandwidth_at(6, Bandwidth::Local), Bandwidth::Local);
    }
}
