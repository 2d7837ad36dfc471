//! The three workloads: instance generation, the entry call each one
//! times, its sequential oracle, and the two-sided answer check.

use mwc_core::{
    approx_girth, approx_mwc_undirected_weighted, two_approx_directed_mwc, MwcOutcome, Params,
};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::{girth_exact, mwc_exact};
use mwc_graph::{Graph, Orientation, Weight};

/// A benchmark workload: one Table 1 row on one graph family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Thm 1.3.B `approx_girth` on undirected unit-weight graphs.
    GirthUnit,
    /// Thm 1.2.C `two_approx_directed_mwc` on directed unit-weight graphs.
    DirectedAlg3,
    /// Thm 1.4.C `approx_mwc_undirected_weighted` on weighted graphs.
    WeightedStretch,
}

/// Problem size: the benchmark's stated size, or a tiny one for the
/// smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The instance family of a workload at one scale.
pub struct Family {
    pub n: usize,
    pub extra_edges: usize,
    pub orientation: Orientation,
    pub weights: WeightRange,
    /// Distinct graphs in the pool.
    pub graphs: usize,
    /// `Params` seeds each graph is solved under.
    pub params_per_graph: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GirthUnit,
        Workload::DirectedAlg3,
        Workload::WeightedStretch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GirthUnit => "girth-unit",
            Workload::DirectedAlg3 => "directed-alg3",
            Workload::WeightedStretch => "weighted-stretch",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// 40 instances per pool at full scale. `girth-unit` reuses each graph
    /// under ten `Params` seeds because its oracle costs several solves.
    pub fn family(self, scale: Scale) -> Family {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::GirthUnit => {
                let n = if tiny { 64 } else { 1024 };
                Family {
                    n,
                    extra_edges: 2 * n,
                    orientation: Orientation::Undirected,
                    weights: WeightRange::unit(),
                    graphs: if tiny { 2 } else { 4 },
                    params_per_graph: if tiny { 2 } else { 10 },
                }
            }
            Workload::DirectedAlg3 => {
                let n = if tiny { 64 } else { 1024 };
                Family {
                    n,
                    extra_edges: 3 * n,
                    orientation: Orientation::Directed,
                    weights: WeightRange::unit(),
                    graphs: if tiny { 4 } else { 40 },
                    params_per_graph: 1,
                }
            }
            Workload::WeightedStretch => {
                let n = if tiny { 48 } else { 384 };
                Family {
                    n,
                    extra_edges: 2 * n,
                    orientation: Orientation::Undirected,
                    weights: WeightRange::uniform(1, 32),
                    graphs: if tiny { 4 } else { 40 },
                    params_per_graph: 1,
                }
            }
        }
    }

    /// The `mwc-core` entry call the benchmark times.
    pub fn solve(self, g: &Graph, params: &Params) -> MwcOutcome {
        match self {
            Workload::GirthUnit => approx_girth(g, params),
            Workload::DirectedAlg3 => two_approx_directed_mwc(g, params),
            Workload::WeightedStretch => approx_mwc_undirected_weighted(g, params),
        }
    }

    /// The exact minimum cycle weight from the sequential oracle.
    pub fn oracle(self, g: &Graph) -> Option<Weight> {
        let exact = match self {
            Workload::GirthUnit => girth_exact(g),
            Workload::DirectedAlg3 | Workload::WeightedStretch => mwc_exact(g),
        };
        exact.map(|m| m.weight)
    }

    /// Whether `reported` is within the theorem's factor of `opt`:
    /// `2 − 1/g` for girth, 2 for directed, `2 + ε` for weighted.
    fn within_factor(self, reported: Weight, opt: Weight, params: &Params) -> bool {
        match self {
            // (2 − 1/g)·g = 2g − 1, exact in integers.
            Workload::GirthUnit => reported < 2 * opt,
            Workload::DirectedAlg3 => reported <= 2 * opt,
            Workload::WeightedStretch => reported as f64 <= (2.0 + params.epsilon) * opt as f64,
        }
    }

    /// Checks one outcome on both sides: the witness validates against the
    /// graph at the reported weight, and `opt ≤ weight ≤ factor · opt`.
    /// Returns the approximation ratio `weight / opt`.
    pub fn check(
        self,
        g: &Graph,
        opt: Weight,
        params: &Params,
        out: &MwcOutcome,
    ) -> Result<f64, String> {
        let (Some(weight), Some(witness)) = (out.weight, out.witness.as_ref()) else {
            return Err(format!("no cycle reported (oracle weight {opt})"));
        };
        match witness.validate(g) {
            Ok(w) if w == weight => {}
            Ok(w) => return Err(format!("witness weighs {w}, reported {weight}")),
            Err(e) => return Err(format!("invalid witness: {e}")),
        }
        if weight < opt {
            return Err(format!("reported {weight} below the oracle's {opt}"));
        }
        if !self.within_factor(weight, opt, params) {
            return Err(format!(
                "reported {weight} breaks the bound for oracle {opt}"
            ));
        }
        Ok(weight as f64 / opt as f64)
    }
}

/// One solve: a pool graph under one `Params` seed.
pub struct Instance {
    pub graph: usize,
    pub params: Params,
}

/// The pre-generated inputs of one run, with their oracle weights.
pub struct Pool {
    pub graphs: Vec<Graph>,
    pub opt: Vec<Weight>,
    pub instances: Vec<Instance>,
}

/// SplitMix64 finalizer: decorrelates the per-graph and per-solve seeds
/// derived from the workload seed.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates pool graph `i` of the workload seed.
pub fn generate(family: &Family, seed: u64, i: usize) -> Graph {
    connected_gnm(
        family.n,
        family.extra_edges,
        family.orientation,
        family.weights,
        mix(seed, 1, i as u64),
    )
}

/// The solve list: every graph under each of its `Params` seeds, graph by
/// graph.
pub fn instances(family: &Family, seed: u64) -> Vec<Instance> {
    (0..family.graphs)
        .flat_map(|graph| {
            (0..family.params_per_graph).map(move |j| Instance {
                graph,
                params: Params::new().with_seed(mix(seed, 2, (graph * 64 + j) as u64)),
            })
        })
        .collect()
}
