//! Seeded workload inputs. Every job list is a pure function of the
//! workload seed; the program under test only ever sees the rendered spec
//! text (or, for `ldcd`, the request frames built from these specs).
//!
//! The seed draws solver seeds, list salts and the `ldcd` request order;
//! graph topologies are fixed. A random graph's seed alone can move a
//! solve's cost several-fold — Theorem 1.4 on G(6000, 0.003) took 1394
//! rounds with one graph seed and 7986 with another — so seeded graphs
//! would turn the seed into the dominant source of run-to-run spread.
//!
//! Two input families are deliberately absent (see README.md):
//! `powerlaw` graphs, whose generator iterates a `HashSet` and so builds a
//! different graph in every process, and `oldc`/`ldc_distributed` jobs
//! with Δ+1 palettes, which panic in the laggard phase.

use ldc_batch::{Algorithm, GraphSource, JobSpec, ListSpec};
use ldc_rand::Rng;

/// Solver seed / list salt range: small, so spec echoes stay short.
fn small(rng: &mut Rng) -> u64 {
    rng.gen_range(1..1000u64)
}

fn job(graph: GraphSource, algorithm: Algorithm, lists: ListSpec, seed: u64) -> JobSpec {
    JobSpec {
        graph,
        algorithm,
        lists,
        seed,
        faults: None,
    }
}

/// Rich uniform lists for the OLDC-family jobs of the small-job mixes.
fn rich(rng: &mut Rng, space: u64, len: u64) -> ListSpec {
    ListSpec::Uniform {
        space,
        len,
        defect: 3,
        salt: small(rng),
    }
}

fn degree_plus_one(rng: &mut Rng) -> ListSpec {
    ListSpec::DegreePlusOne {
        space: 0,
        salt: small(rng),
    }
}

/// Render a job list as an `ldc batch` spec file.
pub fn spec_text(jobs: &[JobSpec]) -> String {
    let rows: Vec<String> = jobs.iter().map(JobSpec::to_json).collect();
    format!("[{}]", rows.join(",\n"))
}

/// `fleet_mixed`: 240 small jobs — six topologies (64–1000 nodes) × all
/// five algorithms × eight seeds, interleaved so contiguous shards get
/// equal shares of every job kind.
pub fn fleet_mixed(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xF1EE7);
    let topologies = [
        GraphSource::Regular {
            n: 256,
            d: 8,
            seed: 1,
        },
        GraphSource::Gnp {
            n: 200,
            p_milli: 40,
            seed: 1,
        },
        GraphSource::Torus { rows: 16, cols: 16 },
        GraphSource::Ring { n: 1000 },
        GraphSource::Tree { n: 364, arity: 3 },
        GraphSource::Hypercube { dim: 6 },
    ];
    let algorithms = [
        Algorithm::Oldc,
        Algorithm::LdcDistributed,
        Algorithm::Arbdefective,
        Algorithm::Congest,
        Algorithm::EdgeColoring,
    ];
    (0..240)
        .map(|i| {
            let graph = topologies[i % topologies.len()].clone();
            let algorithm = algorithms[(i / topologies.len()) % algorithms.len()];
            let lists = match algorithm {
                Algorithm::Oldc | Algorithm::LdcDistributed => rich(&mut rng, 8192, 1500),
                _ => degree_plus_one(&mut rng),
            };
            job(graph, algorithm, lists, small(&mut rng))
        })
        .collect()
}

/// `oldc_dense`: Theorem 1.1 on K₃₀₀, K₄₀₀, K₅₀₀ and G(512, 0.35) with
/// long uniform lists — shapes that reach the Phase I conflict kernels
/// for every ordered neighbour pair.
pub fn oldc_dense(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDE45E);
    let mut dense = |graph: GraphSource, space: u64, len: u64, defect: u64| {
        let lists = ListSpec::Uniform {
            space,
            len,
            defect,
            salt: small(&mut rng),
        };
        job(graph, Algorithm::Oldc, lists, small(&mut rng))
    };
    vec![
        dense(GraphSource::Complete { n: 300 }, 65536, 12288, 255),
        dense(GraphSource::Complete { n: 400 }, 65536, 12288, 255),
        dense(GraphSource::Complete { n: 500 }, 65536, 12288, 255),
        dense(
            GraphSource::Gnp {
                n: 512,
                p_milli: 350,
                seed: 1,
            },
            32768,
            8192,
            63,
        ),
    ]
}

/// `congest_sparse`: Theorem 1.4 (degree+1)-list coloring, alternating
/// a random 8-regular graph (n = 10 000, above the engine's parallel
/// threshold) and G(3000, 0.003) (below it) — hundreds of engine rounds,
/// no conflict kernels.
pub fn congest_sparse(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5BA25E);
    let regular = GraphSource::Regular {
        n: 10_000,
        d: 8,
        seed: 1,
    };
    let gnp = GraphSource::Gnp {
        n: 3000,
        p_milli: 3,
        seed: 2,
    };
    [regular.clone(), gnp.clone(), regular, gnp]
        .into_iter()
        .map(|g| {
            let lists = degree_plus_one(&mut rng);
            job(g, Algorithm::Congest, lists, small(&mut rng))
        })
        .collect()
}

/// `daemon_mixed`: the five ~1 ms request shapes `ldcd` serves.
pub fn daemon_mix(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDAE);
    let congest = |rng: &mut Rng, graph| job(graph, Algorithm::Congest, degree_plus_one(rng), 1);
    let mut mix = vec![
        congest(&mut rng, GraphSource::Ring { n: 64 }),
        congest(
            &mut rng,
            GraphSource::Regular {
                n: 64,
                d: 4,
                seed: 1,
            },
        ),
        job(
            GraphSource::Torus { rows: 8, cols: 8 },
            Algorithm::EdgeColoring,
            ListSpec::default(),
            1,
        ),
        job(
            GraphSource::Gnp {
                n: 64,
                p_milli: 100,
                seed: 1,
            },
            Algorithm::Arbdefective,
            degree_plus_one(&mut rng),
            1,
        ),
    ];
    let oldc_graph = GraphSource::Regular {
        n: 48,
        d: 4,
        seed: 1,
    };
    let lists = rich(&mut rng, 2048, 600);
    mix.push(job(oldc_graph, Algorithm::Oldc, lists, 1));
    mix
}

/// The request sequence of `daemon_mixed`: every block of `mix.len()`
/// requests holds each mix entry once, in seeded order, each request with
/// its own solver seed. Exact proportions keep the median, which falls
/// between the entries' service times, from moving with the draw.
pub fn daemon_requests(seed: u64, mix: &[JobSpec], count: usize) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5E0);
    let mut order: Vec<usize> = (0..mix.len()).collect();
    (0..count)
        .map(|k| {
            if k % mix.len() == 0 {
                rng.shuffle(&mut order);
            }
            let mut j = mix[order[k % mix.len()]].clone();
            j.seed = small(&mut rng);
            j
        })
        .collect()
}
