//! `mwcbench`: end-to-end benchmark of the MWC entry points.
//!
//! One caller solves pre-generated instances one after another (a closed
//! loop: single process, single thread) and checks every answer against
//! a sequential oracle. Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path mwcbench/Cargo.toml -- \
//!     --workload girth-unit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, timed with tracing
//! off; with `--trace 1` it also runs a traced pass and prints the
//! per-layer metrics instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod workload;

use mwc_congest::{flood_engagement, flood_kernel, set_flood_kernel, FloodKernel};
use mwc_core::MwcOutcome;
use mwc_graph::{Graph, Weight};
use mwc_trace::json::Json;
use mwc_trace::profile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Family, Instance, Pool, Scale, Workload};

/// Heap high-water per solve is read from this allocator's live-bytes gauge.
#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median. A traced run sets
/// up once.
const SETUP_REPEATS: usize = 3;

/// Variables that switch on a trace file sink or otherwise change the
/// measured program; the benchmark refuses to time while any is set.
const REFUSED_ENV: [&str; 4] = [
    "MWC_TRACE",
    "MWC_TRACE_EXPORT",
    "MWC_TRACE_EVENTS",
    "MWC_NO_CACHE",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

/// The exact counts of one solve: they must repeat on every solve of the
/// same instance, in this run and in any run of the same binary and seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exact {
    pub rounds: u64,
    pub words: u64,
    pub weight: Weight,
    pub floods: u64,
    pub scalar_floods: u64,
    pub phases: u64,
}

/// One timed entry call, before its answer is checked.
pub struct Raw {
    pub ms: f64,
    pub peak_bytes: u64,
    pub floods: u64,
    pub scalar_floods: u64,
    pub outcome: MwcOutcome,
}

/// One checked solve.
pub struct Solved {
    pub ms: f64,
    pub peak_bytes: u64,
    pub ratio: f64,
    pub exact: Exact,
}

/// Solves one instance, timing only the entry call. A panic inside the
/// solve is caught and reported like a wrong answer.
pub fn solve(w: Workload, pool: &Pool, inst: &Instance) -> Result<Raw, String> {
    let g = &pool.graphs[inst.graph];
    let (bitset0, scalar0) = flood_engagement();
    profile::reset_peak_alloc();
    let live0 = profile::peak_alloc_bytes();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.solve(g, &inst.params)));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let peak_bytes = profile::peak_alloc_bytes().saturating_sub(live0);
    let (bitset1, scalar1) = flood_engagement();
    let outcome = result.map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("solve panicked: {msg}")
    })?;
    Ok(Raw {
        ms,
        peak_bytes,
        floods: (bitset1 - bitset0) + (scalar1 - scalar0),
        scalar_floods: scalar1 - scalar0,
        outcome,
    })
}

/// Checks a solve's answer against the instance's oracle weight.
pub fn check(w: Workload, pool: &Pool, inst: &Instance, raw: Raw) -> Result<Solved, String> {
    let out = &raw.outcome;
    let ratio = w.check(
        &pool.graphs[inst.graph],
        pool.opt[inst.graph],
        &inst.params,
        out,
    )?;
    let exact = Exact {
        rounds: out.ledger.rounds,
        words: out.ledger.words,
        weight: out.weight.unwrap_or(0),
        floods: raw.floods,
        scalar_floods: raw.scalar_floods,
        phases: out.ledger.phases.len() as u64,
    };
    Ok(Solved {
        ms: raw.ms,
        peak_bytes: raw.peak_bytes,
        ratio,
        exact,
    })
}

/// Solves and checks one instance.
fn solve_checked(w: Workload, pool: &Pool, inst: &Instance) -> Result<Solved, String> {
    solve(w, pool, inst).and_then(|raw| check(w, pool, inst, raw))
}

/// Wall seconds of the three parts of one set-up.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub oracle_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.oracle_s + self.warmup_s
    }
}

/// Generates the pool, computes its oracle weights, and runs one untimed
/// warm-up solve.
fn set_up(w: Workload, family: &Family, seed: u64) -> Result<(Pool, SetupTimes), String> {
    let t = Instant::now();
    let graphs: Vec<Graph> = (0..family.graphs)
        .map(|i| workload::generate(family, seed, i))
        .collect();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let opt = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| w.oracle(g).ok_or(format!("pool graph {i} has no cycle")))
        .collect::<Result<Vec<_>, _>>()?;
    let oracle_s = t.elapsed().as_secs_f64();
    let pool = Pool {
        graphs,
        opt,
        instances: workload::instances(family, seed),
    };
    let t = Instant::now();
    solve_checked(w, &pool, &pool.instances[0]).map_err(|e| format!("warm-up solve: {e}"))?;
    let warmup_s = t.elapsed().as_secs_f64();
    let times = SetupTimes {
        generate_s,
        oracle_s,
        warmup_s,
    };
    Ok((pool, times))
}

/// Nearest-rank percentile of sorted samples; 0 when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// What the timed closed loop observed.
pub struct Timed {
    /// Wall milliseconds of every successful solve, sorted.
    pub ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub peak_bytes: u64,
    /// Per instance, the exact counts of its first solve (`None`: failed).
    pub first: Vec<Option<Exact>>,
    pub max_ratio: f64,
}

/// Solves the pool in order, cycling through it, until `seconds` have
/// passed and every instance was solved once. Every later solve of an
/// instance must repeat the exact counts of its first.
fn timed_loop(w: Workload, pool: &Pool, seconds: f64) -> Timed {
    let mut t = Timed {
        ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        peak_bytes: 0,
        first: Vec::new(),
        max_ratio: 0.0,
    };
    let start = Instant::now();
    let len = pool.instances.len();
    for k in 0.. {
        let i = k % len;
        if k >= len && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        t.attempted += 1;
        let res = solve_checked(w, pool, &pool.instances[i]);
        if k < len {
            t.first.push(res.as_ref().ok().map(|s| s.exact));
        }
        match res {
            Ok(s) if t.first[i] != Some(s.exact) => {
                t.failures.push(format!(
                    "instance {i}: solve {} counts {:?} differ from its first solve",
                    k / len + 1,
                    s.exact
                ));
            }
            Ok(s) => {
                t.ms.push(s.ms);
                t.peak_bytes = t.peak_bytes.max(s.peak_bytes);
                t.max_ratio = t.max_ratio.max(s.ratio);
            }
            Err(e) => t.failures.push(format!("instance {i}: {e}")),
        }
    }
    t.ms.sort_by(f64::total_cmp);
    t
}

/// Reads the checked-out commit from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a of the running executable: the identity under which exact counts
/// are recorded across runs.
fn exe_digest() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    }))
}

/// Compares this run's exact totals with those a previous run of the same
/// binary, workload and seed recorded beside the executable's build
/// directory, recording them on the first run.
fn check_against_previous_run(key: &str, totals: &str) -> Result<(), String> {
    let (Some(digest), Ok(exe)) = (exe_digest(), std::env::current_exe()) else {
        return Ok(());
    };
    let Some(dir) = exe.parent().and_then(|d| d.parent()) else {
        return Ok(());
    };
    let dir = dir.join("mwcbench-exact");
    let path = dir.join(format!("{key}-{digest:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == totals => Ok(()),
        Ok(prev) => Err(format!(
            "exact counts differ from a previous run of this binary and seed: \
             now [{totals}], before [{prev}]"
        )),
        Err(_) => {
            // Best-effort: an unwritable build directory only loses the
            // cross-run check. Written whole, then renamed, so a killed run
            // leaves no truncated record behind.
            let tmp = dir.join(format!("{key}.{}.tmp", std::process::id()));
            let _ = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&tmp, totals))
                .and_then(|_| std::fs::rename(&tmp, &path));
            Ok(())
        }
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                let value = Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]);
                (m.name, value)
            })),
        ),
    ])
    .render()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is set; unset it to time the program"));
    }
    mwc_par::set_jobs(1);
    mwc_par::set_shards(1);
    set_flood_kernel(FloodKernel::Bitset);
    let w = args.workload;
    let family = w.family(args.scale);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp = Json::obj([
        ("git_sha", Json::str(git_sha())),
        ("nproc", Json::U64(nproc as u64)),
        ("flood_kernel", Json::str(format!("{:?}", flood_kernel()))),
        ("workload", Json::str(w.name())),
        ("seed", Json::U64(args.seed)),
        ("n", Json::U64(family.n as u64)),
        (
            "instances",
            Json::U64((family.graphs * family.params_per_graph) as u64),
        ),
    ]);
    println!("mwcbench stamp {}", stamp.render());

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut pool = None;
    for _ in 0..repeats {
        let (p, times) = set_up(w, &family, args.seed)?;
        setups.push(times);
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    let setup_s = median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>());

    let timed = timed_loop(w, &pool, args.seconds);
    let mut failures = timed.failures.clone();
    let mut attempted = timed.attempted;
    let solved: Vec<Exact> = timed.first.iter().flatten().copied().collect();
    let rounds_total: u64 = solved.iter().map(|e| e.rounds).sum();
    let words_total: u64 = solved.iter().map(|e| e.words).sum();
    let floods_total: u64 = solved.iter().map(|e| e.floods).sum();
    let approx_permille = timed.max_ratio * 1e3;
    if solved.len() == pool.instances.len() {
        let key = format!("{}-{:?}-{}", w.name(), args.scale, args.seed);
        let totals = format!("{rounds_total} {words_total} {floods_total} {approx_permille}");
        check_against_previous_run(&key, &totals).unwrap_or_else(|e| failures.push(e));
    }

    let metrics = if args.trace {
        let report = layers::traced_run(w, &family, args.seed, &pool, &timed, &setups);
        attempted += report.attempted;
        failures.extend(report.failures);
        print_table(
            &format!("per-layer metrics · {}", w.name()),
            &report.metrics,
        );
        report.metrics
    } else {
        let solve_s: f64 = timed.ms.iter().sum::<f64>() / 1e3;
        let metrics = vec![
            metric("solve_ms.p50", percentile(&timed.ms, 0.5), "ms"),
            metric("solve_ms.p75", percentile(&timed.ms, 0.75), "ms"),
            metric("instances_per_s", timed.ms.len() as f64 / solve_s, "1/s"),
            metric("setup_s", setup_s, "s"),
            metric(
                "solve_peak_heap_mb",
                timed.peak_bytes as f64 / (1 << 20) as f64,
                "MB",
            ),
            metric("rounds_total", rounds_total as f64, "rounds"),
            metric("words_total", words_total as f64, "words"),
            metric("approx_ratio.max", approx_permille, "permille"),
            metric(
                "solved_frac",
                1.0 - failures.len() as f64 / attempted as f64,
                "ratio",
            ),
        ];
        print_table(
            &format!(
                "end-to-end metrics · {} · {} timed solves",
                w.name(),
                timed.ms.len()
            ),
            &metrics,
        );
        metrics
    };
    for f in &failures {
        eprintln!("mwcbench: FAILED {f}");
    }
    println!(
        "  {:<28} {:>16.4} ratio ({} of {attempted} solves)",
        "failed_frac",
        failures.len() as f64 / attempted as f64,
        failures.len()
    );
    let correct = failures.is_empty();
    println!(
        "{}",
        result_json(correct, attempted, failures.len() as u64, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mwcbench: {e}");
            ExitCode::from(2)
        }
    }
}
