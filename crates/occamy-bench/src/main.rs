//! The `occamy-bench` CLI: lists, runs and shards registered scenarios.
//!
//! ```text
//! occamy-bench list [--spec FILE...]
//! occamy-bench run <name...> [--spec FILE...] [--quick|--smoke] [--serial | --threads N]
//! occamy-bench all [--quick|--smoke] [--serial | --threads N]
//! occamy-bench shard plan <name> | --spec FILE  --shards N [--quick|--smoke] [--out-dir DIR]
//! occamy-bench shard run <plan.json> [--serial] [--resume]
//! occamy-bench shard merge <journal.cells.jsonl ...> [--out-dir DIR]
//! occamy-bench watch <dir>
//! ```
//!
//! `run`/`all` execute the selected scenarios' grid cells in parallel
//! across worker threads, print each scenario's tables and shape-check
//! notes, mirror tables to `results/*.csv` and write one machine-readable
//! `BENCH_<name>.json` per scenario. `--spec` loads a declarative
//! TOML/JSON scenario description (see `specs/` and the `occamy-spec`
//! crate) as a first-class scenario next to the static registry.
//!
//! The `shard` subcommands split one scenario's grid into self-contained
//! plan files, execute them independently (any machine with this binary)
//! and merge their journals into the byte-identical report a direct
//! run produces — see `occamy_bench::shard`. They are also the
//! crash-tolerant way to run a long grid on one machine: a `shard run`
//! that dies is restarted with `--resume`, which recomputes only the
//! cells its journal lacks.

use occamy_bench::registry::{find_scenario, registry};
use occamy_bench::runner;
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::shard::{self, ShardSource};
use occamy_bench::spec_scenario::SpecScenario;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: occamy-bench <command> [options]

commands:
  list                 show every registered scenario with its grid-cell
                       counts at full/quick/smoke scale (size --shards
                       from these)
  run <name...>        run the named scenarios (see `list`)
  all                  run every registered scenario
  shard plan <name>    split a scenario's grid into N self-contained
                       shard files (shards/<name>.shard-<i>.json);
                       use --spec FILE instead of a name for spec runs
  shard run <file>     execute one shard plan, journaling each
                       finished cell to <plan>.cells.jsonl next to it;
                       with --resume, skip the cells an interrupted
                       run already journaled
  shard merge <f...>   merge the shards' .cells.jsonl journals into
                       the byte-identical BENCH_<name>.json +
                       results/*.csv of a direct run
  watch <dir>          live terminal dashboard tailing the telemetry
                       streams (results/*_telemetry.jsonl) of a run
                       started with --telemetry; exits when quiet

options:
  --spec FILE          load a declarative scenario spec (.toml/.json);
                       repeatable; runs alongside any named scenarios
  --quick              reduced sweeps and durations
  --smoke              near-trivial grids (seconds; used by the smoke test)
  --serial             execute cells on one thread (baseline / profiling)
  --threads N          cell worker pool size (default: all cores;
                       also: RAYON_NUM_THREADS); not with --serial
  --shards N           shard count for `shard plan`
  --resume             `shard run`: validate <plan>.cells.jsonl and
                       recompute only the cells it lacks
  --out-dir DIR        output directory (`shard plan`: default shards/;
                       `shard merge`: default .)
  --freeze-perf        zero all wall-clock perf fields so reports are
                       byte-reproducible (also: OCCAMY_FREEZE_PERF=1)
  --telemetry          stream live run telemetry to
                       results/<name>_telemetry.jsonl (also:
                       OCCAMY_TELEMETRY=1); snapshot cadence via
                       OCCAMY_TELEMETRY_EVERY or a spec's [telemetry]
                       section. Simulation outputs are byte-identical
                       with or without it
  --live               --telemetry plus an in-terminal dashboard while
                       the run executes (also: OCCAMY_LIVE=1)
";

struct Args {
    command: String,
    names: Vec<String>,
    specs: Vec<&'static SpecScenario>,
    scale: Scale,
    parallel: bool,
    shards: Option<usize>,
    out_dir: Option<String>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut command = None;
    let mut names = Vec::new();
    let mut specs = Vec::new();
    let mut scale = Scale::Full;
    let mut parallel = true;
    let mut shards = None;
    let mut out_dir = None;
    let mut resume = false;
    let mut threads = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--smoke" => scale = Scale::Smoke,
            "--serial" => parallel = false,
            "--freeze-perf" => std::env::set_var("OCCAMY_FREEZE_PERF", "1"),
            "--telemetry" => std::env::set_var("OCCAMY_TELEMETRY", "1"),
            "--live" => {
                std::env::set_var("OCCAMY_TELEMETRY", "1");
                std::env::set_var("OCCAMY_LIVE", "1");
            }
            "--spec" => {
                let path = args.next().ok_or("--spec needs a file path")?;
                specs.push(SpecScenario::load(&path)?);
            }
            "--shards" => {
                shards = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--shards needs a positive integer")?,
                );
            }
            "--out-dir" => {
                out_dir = Some(args.next().ok_or("--out-dir needs a directory path")?);
            }
            "--resume" => resume = true,
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--threads needs a positive integer")?;
                // The cell worker pool sizes itself from this variable.
                std::env::set_var("RAYON_NUM_THREADS", n.to_string());
                threads = true;
            }
            "-h" | "--help" => {
                command = Some("help".to_string());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option '{flag}'"));
            }
            word if command.is_none() => command = Some(word.to_string()),
            word => names.push(word.to_string()),
        }
    }
    if threads && !parallel {
        return Err(
            "--threads and --serial cannot be combined: --threads N sizes \
             the cell worker pool, --serial runs cells on one thread"
                .to_string(),
        );
    }
    Ok(Args {
        command: command.ok_or("missing command")?,
        names,
        specs,
        scale,
        parallel,
        shards,
        out_dir,
        resume,
    })
}

/// One catalog line: name, per-scale grid-cell counts (so operators can
/// size `--shards` without reading figure code) and the description.
fn list_line(s: &dyn Scenario) -> String {
    format!(
        "  {:<22} {:>4} cells (quick {:>3}, smoke {:>2})  {}",
        s.name(),
        s.grid(Scale::Full).len(),
        s.grid(Scale::Quick).len(),
        s.grid(Scale::Smoke).len(),
        s.description()
    )
}

fn list(specs: &[&'static SpecScenario]) {
    println!(
        "registered scenarios ({}; cell counts at full scale):\n",
        registry().len()
    );
    for s in registry() {
        println!("{}", list_line(*s));
    }
    if !specs.is_empty() {
        println!("\nloaded specs ({}):\n", specs.len());
        for s in specs {
            println!("{}", list_line(*s));
        }
    }
    println!(
        "\nrun one with: occamy-bench run <name>   (or `all`, or `run --spec file.toml`);\n\
         split a big grid across machines with: occamy-bench shard plan <name> --shards N"
    );
}

fn run(scenarios: Vec<&'static dyn Scenario>, scale: Scale, parallel: bool) -> ExitCode {
    // Outputs are named by scenario, so a second scenario of one name
    // would overwrite the first's report and share its telemetry stream.
    let mut names = HashSet::new();
    if let Some(name) = scenarios
        .iter()
        .map(|s| s.name())
        .find(|n| !names.insert(*n))
    {
        eprintln!(
            "error: two selected scenarios are named '{name}'; both would write \
             BENCH_{name}.json and the same results/ files"
        );
        return ExitCode::from(2);
    }
    let sink = occamy_bench::telemetry_enabled().then(|| {
        occamy_bench::live::TelemetrySink::start(Path::new("."), occamy_bench::live_mode())
    });
    let (runs, stats) = runner::execute(&scenarios, scale, parallel);
    if let Some(sink) = sink {
        sink.finish();
    }
    for r in &runs {
        if let Err(e) = runner::render(r, scale, stats.wall) {
            eprintln!("failed to write outputs for {}: {e}", r.scenario.name());
            return ExitCode::FAILURE;
        }
    }
    runner::print_stats(&stats);
    ExitCode::SUCCESS
}

fn shard_command(args: &Args) -> Result<(), String> {
    let Some((sub, rest)) = args.names.split_first() else {
        return Err("`shard` needs a subcommand: plan, run or merge".to_string());
    };
    match sub.as_str() {
        "plan" => {
            let source = match (rest, args.specs.as_slice()) {
                ([name], []) => ShardSource::from_name(name)?,
                ([], [spec]) => ShardSource::Spec(spec),
                ([], []) => {
                    return Err("`shard plan` needs a scenario name or one --spec FILE".to_string())
                }
                _ => {
                    return Err(
                        "`shard plan` takes exactly one scenario name or one --spec FILE"
                            .to_string(),
                    )
                }
            };
            let shards = args.shards.ok_or("`shard plan` needs --shards N")?;
            let out_dir = args.out_dir.clone().unwrap_or_else(|| "shards".to_string());
            let paths = shard::plan(&source, args.scale, shards, Path::new(&out_dir))?;
            let cells = source.scenario().grid(args.scale).len();
            println!(
                "planned '{}' ({} scale, {cells} cells) into {shards} shards:",
                source.scenario().name(),
                args.scale
            );
            for p in &paths {
                println!("  {}", p.display());
            }
            println!(
                "\nexecute each with: occamy-bench shard run <file>\n\
                 then merge with:   occamy-bench shard merge {}/{}.shard-*.cells.jsonl",
                out_dir,
                source.scenario().name()
            );
            Ok(())
        }
        "run" => {
            let [file] = rest else {
                return Err("`shard run` takes exactly one plan file".to_string());
            };
            let sink = occamy_bench::telemetry_enabled().then(|| {
                occamy_bench::live::TelemetrySink::start(Path::new("."), occamy_bench::live_mode())
            });
            let result = shard::run_shard(Path::new(file), args.parallel, args.resume);
            if let Some(sink) = sink {
                sink.finish();
            }
            let path = result?;
            println!("wrote {}", path.display());
            Ok(())
        }
        "merge" => {
            if rest.is_empty() {
                return Err("`shard merge` needs at least one journal file".to_string());
            }
            let journals: Vec<PathBuf> = rest.iter().map(PathBuf::from).collect();
            let out_root = args.out_dir.clone().unwrap_or_else(|| ".".to_string());
            let path = shard::merge(&journals, Path::new(&out_root))?;
            println!("merged {} journals -> {}", journals.len(), path.display());
            Ok(())
        }
        other => Err(format!(
            "unknown shard subcommand '{other}' (expected plan, run or merge)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        "list" => {
            list(&args.specs);
            ExitCode::SUCCESS
        }
        "all" => {
            let mut selected: Vec<&'static dyn Scenario> = registry().to_vec();
            selected.extend(args.specs.iter().map(|s| *s as &'static dyn Scenario));
            run(selected, args.scale, args.parallel)
        }
        "run" => {
            if args.names.is_empty() && args.specs.is_empty() {
                eprintln!("error: `run` needs at least one scenario name or --spec\n\n{USAGE}");
                return ExitCode::from(2);
            }
            let mut selected: Vec<&'static dyn Scenario> = args
                .specs
                .iter()
                .map(|s| *s as &'static dyn Scenario)
                .collect();
            for name in &args.names {
                match find_scenario(name) {
                    Some(s) => selected.push(s),
                    None => {
                        eprintln!(
                            "error: unknown scenario '{name}'; known: {}",
                            registry()
                                .iter()
                                .map(|s| s.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            run(selected, args.scale, args.parallel)
        }
        "shard" => match shard_command(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "watch" => {
            let dir = args.names.first().map(String::as_str).unwrap_or(".");
            match occamy_bench::live::watch(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: watch failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
