//! `e2e_bench` — one round budget over the real topology.
//!
//! Spawns the shipped release daemons (`alpenhornd`, 3 `mixd`, 4 `cdnd`) on
//! loopback, drives seeded `alpenhorn::Client`s through full add-friend or
//! dialing rounds over TCP, checks what they see, and prints every metric of
//! `BENCHMARK.json` by name with its unit. See `README.md` next to this
//! package for the workloads, the metrics and how to read the tables.
//!
//! ```text
//! e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! e2e_bench [--seed N] [--seconds S] [--out FILE]      every workload, timed + traced
//! e2e_bench --smoke                                    64 clients, 3 rounds, all workloads
//! e2e_bench --compare A.json B.json                    B against A, within the bounds
//! ```

mod driver;
mod fleet;
mod json;
mod probe;
mod report;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use driver::{RunConfig, Samples};
use json::Json;
use report::Metric;
use workload::{Workload, WORKLOADS};

/// Fleets per run. Set-up is timed on each, so `setup_s` is a median of
/// three; and pooling rounds over three fleets averages out what differs
/// from one process start to the next (ports, placement, allocator state).
const INSTANCES: usize = 3;
const DEFAULT_SECONDS: f64 = 16.0;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e_bench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      e2e_bench --smoke\n\
         \x20      e2e_bench --compare A.json B.json",
        names.join("|")
    )
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::by_name(&name);
                options.workload = Some(workload.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if options.seconds.is_nan() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--smoke" => options.smoke = true,
            "--compare" => options.compare = Some((value()?.into(), value()?.into())),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(options)
}

/// One finished run: its metrics and whether everything checked out.
struct Outcome {
    metrics: Vec<Metric>,
    samples: Samples,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.samples.failed == 0
    }

    /// The contract's result object.
    fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.samples.attempted as f64)),
            ("failed", Json::Num(self.samples.failed as f64)),
            ("metrics", report::metrics_json(&self.metrics)),
        ])
    }
}

fn run_one(
    cfg: &RunConfig,
    release_dir: &Path,
    watchdog: &fleet::Watchdog,
) -> Result<Outcome, String> {
    let mode = if cfg.trace { "traced" } else { "timed" };
    println!(
        "== {} ({mode}, seed {}, {} clients, {} instances) ==",
        cfg.workload.name, cfg.seed, cfg.workload.clients, cfg.instances
    );
    let mut samples = driver::run(cfg, release_dir, watchdog)?;
    report::verify(cfg, &mut samples);
    let metrics = if cfg.trace {
        report::per_layer(cfg, &samples)
    } else {
        report::end_to_end(cfg, &samples)
    };
    let rounds = if cfg.trace {
        samples.traced.rounds.len()
    } else {
        samples.rounds.len()
    };
    println!("  {rounds} measured rounds");
    for m in &metrics {
        println!("  {:<44} {:>16.3} {}", m.name, m.value, m.unit);
    }
    if cfg.trace {
        print!("{}", report::Budget::table(&samples, &metrics));
        let scratch = release_dir.parent().expect("release dir has a parent");
        let path = scratch.join(format!("e2e_bench/trace-{}.jsonl", cfg.workload.name));
        report::write_trace(&path, &samples.traced.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    println!(
        "  operations: {} attempted, {} failed",
        samples.attempted, samples.failed
    );
    for failure in &samples.failures {
        println!("  FAILED: {failure}");
    }
    Ok(Outcome { metrics, samples })
}

/// The names `BENCHMARK.json` promises for `list` ("end_to_end" or
/// "per_layer").
fn promised_names(benchmark: &Json, list: &str) -> Vec<String> {
    benchmark
        .get(list)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect()
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_benchmark() -> Result<Json, String> {
    load_json(&fleet::repo_root().join("BENCHMARK.json"))
}

/// Fails unless the run printed exactly the metrics `BENCHMARK.json` lists.
fn check_names(benchmark: &Json, list: &str, metrics: &[Metric]) -> Result<(), String> {
    let mut promised = promised_names(benchmark, list);
    let mut printed: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
    promised.sort();
    printed.sort();
    if promised != printed {
        let missing: Vec<_> = promised.iter().filter(|n| !printed.contains(n)).collect();
        let extra: Vec<_> = printed.iter().filter(|n| !promised.contains(n)).collect();
        return Err(format!(
            "BENCHMARK.json {list} disagrees with the harness: not printed {missing:?}, not listed {extra:?}"
        ));
    }
    Ok(())
}

/// Runs `workloads` timed and/or traced, and returns the result document.
fn run_all(
    options: &Options,
    workloads: &[Workload],
    modes: &[bool],
    release_dir: &Path,
) -> Result<(Json, bool), String> {
    let watchdog = fleet::Watchdog::start();
    let benchmark = options.smoke.then(load_benchmark).transpose()?;
    let mut correct = true;
    let mut environment = Json::Null;
    let mut results = Vec::new();
    let mut last = Json::Null;
    for &workload in workloads {
        let mut fields = Vec::new();
        for &trace in modes {
            let cfg = RunConfig {
                workload: if options.smoke {
                    workload.smoke()
                } else {
                    workload
                },
                seed: options.seed,
                seconds: options.seconds,
                trace,
                // A traced smoke still needs its untraced baseline instance.
                instances: if options.smoke { 2 } else { INSTANCES },
                fixed_rounds: options.smoke.then_some(3),
            };
            let outcome = run_one(&cfg, release_dir, &watchdog)?;
            let list = if trace { "per_layer" } else { "end_to_end" };
            if let Some(benchmark) = &benchmark {
                check_names(benchmark, list, &outcome.metrics)?;
            }
            correct &= outcome.correct();
            let scratch = release_dir.parent().expect("release dir has a parent");
            environment = report::environment(&cfg, scratch, &outcome.samples.flag_lines);
            last = outcome.result_json();
            fields.push((list.to_string(), report::metrics_json(&outcome.metrics)));
            fields.push((
                format!("{list}_operations"),
                Json::obj([
                    ("attempted", Json::Num(outcome.samples.attempted as f64)),
                    ("failed", Json::Num(outcome.samples.failed as f64)),
                ]),
            ));
        }
        results.push((workload.name.to_string(), Json::Obj(fields)));
    }
    println!("environment: {environment}");
    let document = Json::obj([
        ("environment", environment),
        ("workloads", Json::Obj(results)),
    ]);
    if let Some(path) = &options.out {
        std::fs::write(path, format!("{document}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((last, correct))
}

/// `--compare A B`: one row per workload and end-to-end metric, B against A.
/// A metric fails when B is worse than A by more than the metric's bound
/// from `BENCHMARK.json`; byte counts of equal seeds must be equal.
fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load_json(a_path)?, load_json(b_path)?);
    let benchmark = load_benchmark()?;
    let seed_of = |doc: &Json| doc.get("environment")?.get("seed")?.as_f64();
    let same_seed = seed_of(&a).is_some() && seed_of(&a) == seed_of(&b);
    let mut within = true;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse %", "bound %"
    );
    let empty = Json::Obj(Vec::new());
    for (workload, a_result) in a.get("workloads").unwrap_or(&empty).as_obj() {
        let b_metrics = b
            .get("workloads")
            .and_then(|w| w.get(workload)?.get("end_to_end"));
        let (Some(a_metrics), Some(b_metrics)) = (a_result.get("end_to_end"), b_metrics) else {
            continue;
        };
        for spec in benchmark.get("end_to_end").unwrap_or(&empty).as_arr() {
            let field = |key: &str| spec.get(key).and_then(Json::as_str).unwrap_or_default();
            let (name, unit) = (field("name"), field("unit"));
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let value = |m: &Json| m.get(name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(a_metrics), value(b_metrics)) else {
                println!("{workload:<18} {name:<28} missing from one side");
                within = false;
                continue;
            };
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va };
            let worse = if field("better") == "higher" {
                -change
            } else {
                change
            };
            let exact = unit == "bytes" && same_seed;
            let ok = if exact { va == vb } else { worse <= bound };
            within &= ok;
            println!(
                "{workload:<18} {name:<28} {va:>14.3} {vb:>14.3} {:>9.2} {:>7} {}",
                100.0 * worse,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}", 100.0 * bound)
                },
                if ok { " ok" } else { " OUTSIDE" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let outcome = parse_options().and_then(|options| {
        if let Some((a, b)) = &options.compare {
            return compare(a, b);
        }
        let release_dir = fleet::release_dir()?;
        fleet::build_daemons(&release_dir)?;
        let workloads = options.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
        // --smoke is traced only; a bare run does both; --trace picks one.
        let modes: &[bool] = match (options.smoke, options.trace) {
            (true, _) | (false, Some(true)) => &[true],
            (false, Some(false)) => &[false],
            (false, None) => &[false, true],
        };
        let (last, correct) = run_all(&options, &workloads, modes, &release_dir)?;
        // The contract's last line: the result of the (last) run.
        println!("{last}");
        Ok(correct)
    });
    fleet::kill_all();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e_bench: {message}");
            ExitCode::from(2)
        }
    }
}
