//! `congest-mwc` command line: run the paper's algorithms on generated or
//! edge-list graphs and print outcomes with round ledgers.
//!
//! ```text
//! congest-mwc <command> [options]
//!
//! commands:
//!   exact      --graph <spec>                 exact MWC (Õ(n) baseline)
//!   approx     --graph <spec> [--eps E]       best matching approximation
//!   girth      --graph <spec>                 (2 − 1/g)-approx girth
//!   ksssp      --graph <spec> --sources a,b,c k-source BFS
//!   detect     --graph <spec> --q Q           shortest cycle within q hops
//!
//! graph specs:
//!   gnm:<n>:<extra>[:directed][:w=<min>-<max>][:seed=<s>]
//!   ring:<n>[:chords][:directed][:w=...][:seed=...]
//!   grid:<rows>x<cols>
//!   file:<path>            edge list: "n directed|undirected" header, then "u v w" lines
//!
//! options: --seed <s> (default 0), --eps <f> (default 0.25),
//!          --verbose (print the per-phase ledger)
//! ```

use congest_mwc::core::{
    approx_girth, approx_mwc_directed_weighted, approx_mwc_undirected_weighted, exact_mwc,
    k_source_bfs, shortest_cycle_within, two_approx_directed_mwc, MwcOutcome, Params,
};
use congest_mwc::graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
use congest_mwc::graph::io::MAX_VERTICES;
use congest_mwc::graph::{Graph, NodeId, Orientation};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: congest-mwc <exact|approx|girth|ksssp|detect> --graph <spec> \
         [--sources a,b,c] [--q Q] [--eps E] [--seed S] [--verbose]\n\
         graph specs: gnm:<n>:<extra>[:directed][:w=min-max][:seed=s] | \
         ring:<n>[:chords][:directed][:w=min-max][:seed=s] | grid:<r>x<c> | file:<path>"
    );
    ExitCode::from(2)
}

#[derive(Default)]
struct Opts {
    command: String,
    graph: Option<String>,
    sources: Vec<NodeId>,
    q: u64,
    eps: f64,
    seed: u64,
    verbose: bool,
}

fn parse_args() -> Option<Opts> {
    let mut args = std::env::args().skip(1);
    let mut o = Opts {
        q: 4,
        eps: 0.25,
        ..Opts::default()
    };
    o.command = args.next()?;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--graph" => o.graph = Some(args.next()?),
            "--sources" => {
                o.sources = args
                    .next()?
                    .split(',')
                    .map(|t| t.trim().parse().ok())
                    .collect::<Option<Vec<_>>>()?;
            }
            "--q" => o.q = args.next()?.parse().ok()?,
            "--eps" => o.eps = args.next()?.parse().ok()?,
            "--seed" => o.seed = args.next()?.parse().ok()?,
            "--verbose" => o.verbose = true,
            _ => return None,
        }
    }
    Some(o)
}

fn parse_graph(spec: &str) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let mut orientation = Orientation::Undirected;
    let mut weights = WeightRange::unit();
    let mut seed = 0u64;
    for p in &parts[1..] {
        if *p == "directed" {
            orientation = Orientation::Directed;
        } else if let Some(w) = p.strip_prefix("w=") {
            let (lo, hi) = w.split_once('-').ok_or("weights must be w=min-max")?;
            weights = WeightRange::uniform(
                lo.parse().map_err(|_| "bad weight min")?,
                hi.parse().map_err(|_| "bad weight max")?,
            );
        } else if let Some(s) = p.strip_prefix("seed=") {
            seed = s.parse().map_err(|_| "bad seed")?;
        }
    }
    let num = |i: usize, default: usize| -> usize {
        parts.get(i).and_then(|t| t.parse().ok()).unwrap_or(default)
    };
    // Checked before any generator allocates.
    let vertices = |n: usize| match n {
        0..=MAX_VERTICES => Ok(n),
        _ => Err(format!(
            "{n} vertices: at most {MAX_VERTICES} are supported"
        )),
    };
    match parts[0] {
        "gnm" => {
            let n = vertices(num(1, 100))?;
            let extra = num(2, 2 * n);
            Ok(connected_gnm(n, extra, orientation, weights, seed))
        }
        "ring" => {
            let n = vertices(num(1, 100))?;
            let chords = num(2, 0);
            Ok(ring_with_chords(n, chords, orientation, weights, seed))
        }
        "grid" => {
            let dims = parts.get(1).ok_or("grid needs <rows>x<cols>")?;
            let (r, c) = dims.split_once('x').ok_or("grid needs <rows>x<cols>")?;
            let rows: usize = r.parse().map_err(|_| "bad rows")?;
            let cols: usize = c.parse().map_err(|_| "bad cols")?;
            vertices(rows.saturating_mul(cols))?;
            Ok(grid(rows, cols, orientation, weights, seed))
        }
        "file" => {
            let path = parts.get(1).ok_or("file needs a path")?;
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            congest_mwc::graph::io::parse_edge_list(&text).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown graph family {other}")),
    }
}

/// Rejects weights outside the word model before any solve. Every
/// distance an entry point forms stays below `32·n²·W`. The largest
/// per-edge length is a stretched latency `⌈16·h·w/(en·2^s)⌉`
/// (`scaling::stretched_latency_table`, with `en, 2^s ≥ 1`), at most
/// `16·n·W` since every hop bound `h ≤ n`. A path has fewer than `n`
/// edges, and the factor 2 covers one more edge on top of a path: an
/// in-transit announcement or a cycle's closing edge. Below `2^63`, a sum
/// of two distances never reaches the `INF` sentinel `2^64 − 1`.
fn check_word_model(g: &Graph) -> Result<(), String> {
    let n = g.n() as u64;
    let n2x32 = n.checked_mul(n).and_then(|n2| n2.checked_mul(32));
    let limit = n2x32.map_or(0, |c| i64::MAX as u64 / c.max(1));
    match g.max_weight() {
        w if w <= limit => Ok(()),
        w => Err(format!(
            "max edge weight {w} exceeds the word model: distances up to 32·n²·W must fit \
             in 63 bits, so W ≤ {limit} for n = {n}"
        )),
    }
}

fn report(label: &str, g: &Graph, out: &MwcOutcome, verbose: bool) {
    println!(
        "{label}: n = {}, m = {}, {} — {} rounds, {} words",
        g.n(),
        g.m(),
        g.orientation(),
        out.ledger.rounds,
        out.ledger.words
    );
    match (&out.weight, &out.witness) {
        (Some(w), Some(c)) => {
            println!("MWC weight: {w}");
            println!("witness:    {c}");
        }
        _ => println!("no cycle found"),
    }
    if verbose {
        println!("\nledger:\n{}", out.ledger);
    }
}

fn main() -> ExitCode {
    let Some(o) = parse_args() else {
        return usage();
    };
    let Some(spec) = o.graph.as_deref() else {
        return usage();
    };
    let g = match parse_graph(spec) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bad graph spec: {e}");
            return ExitCode::from(2);
        }
    };
    if !g.is_comm_connected() {
        eprintln!("graph's communication topology is disconnected; CONGEST requires connectivity");
        return ExitCode::from(2);
    }
    if let Err(e) = check_word_model(&g) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let params = Params::new().with_seed(o.seed).with_epsilon(o.eps);

    match o.command.as_str() {
        "exact" => report("exact", &g, &exact_mwc(&g), o.verbose),
        "approx" => {
            let out = if g.is_directed() {
                if g.is_unit_weight() {
                    two_approx_directed_mwc(&g, &params)
                } else {
                    approx_mwc_directed_weighted(&g, &params)
                }
            } else if g.is_unit_weight() {
                approx_girth(&g, &params)
            } else {
                approx_mwc_undirected_weighted(&g, &params)
            };
            report("approx", &g, &out, o.verbose);
        }
        "girth" => {
            if g.is_directed() || !g.is_unit_weight() {
                eprintln!(
                    "girth needs an undirected unweighted graph; use `approx` for a directed \
                     or weighted one"
                );
                return ExitCode::from(2);
            }
            report("girth", &g, &approx_girth(&g, &params), o.verbose);
        }
        "detect" => report(
            &format!("detect(q={})", o.q),
            &g,
            &shortest_cycle_within(&g, o.q),
            o.verbose,
        ),
        "ksssp" => {
            if o.sources.is_empty() {
                eprintln!("ksssp needs --sources a,b,c");
                return ExitCode::from(2);
            }
            let out = k_source_bfs(
                &g,
                &o.sources,
                congest_mwc::graph::seq::Direction::Forward,
                &params,
            );
            println!(
                "k-source BFS from {:?}: {} rounds, {} words",
                o.sources, out.ledger.rounds, out.ledger.words
            );
            for (row, &s) in o.sources.iter().enumerate() {
                let reach = (0..g.n())
                    .filter(|&v| out.get_row(row, v) != congest_mwc::congest::INF)
                    .count();
                let ecc = (0..g.n())
                    .map(|v| out.get_row(row, v))
                    .filter(|&d| d != congest_mwc::congest::INF)
                    .max()
                    .unwrap_or(0);
                println!(
                    "  source {s}: reaches {reach}/{} nodes, eccentricity {ecc}",
                    g.n()
                );
            }
            if o.verbose {
                println!("\nledger:\n{}", out.ledger);
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_parse() {
        let g = parse_graph("gnm:40:80:directed:w=2-5:seed=9").unwrap();
        assert_eq!(g.n(), 40);
        assert!(g.is_directed());
        assert!(g.edges().iter().all(|e| (2..=5).contains(&e.weight)));

        let g = parse_graph("ring:12").unwrap();
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 12);

        let g = parse_graph("grid:3x4").unwrap();
        assert_eq!(g.n(), 12);

        assert!(parse_graph("grid:oops").is_err());
        assert!(parse_graph("nope:3").is_err());
        assert!(parse_graph("gnm:10:10:w=5").is_err());
    }

    #[test]
    fn file_spec_round_trips() {
        let g = congest_mwc::graph::Graph::from_edges(
            3,
            Orientation::Directed,
            [(0, 1, 2), (1, 2, 3), (2, 0, 4)],
        )
        .unwrap();
        let path = std::env::temp_dir().join("congest_mwc_cli_test.txt");
        std::fs::write(&path, congest_mwc::graph::io::to_edge_list(&g)).unwrap();
        let parsed = parse_graph(&format!("file:{}", path.display())).unwrap();
        assert_eq!(parsed.edges(), g.edges());
        let _ = std::fs::remove_file(path);
    }
}
