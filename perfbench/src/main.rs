//! The Occamy simulator's benchmark: one workload per invocation.
//!
//! ```text
//! occamy-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's cells untraced and prints the
//! end-to-end metrics; `--trace 1` runs its first cell with spans around
//! every call into a layer, replays single layers, runs a 2-thread pass,
//! writes the spans and a per-layer self-time table under `.bench_out/`,
//! and prints the per-layer metrics. Either way the last line of stdout
//! is one JSON object, and any failed correctness check makes the exit
//! code non-zero.
//!
//! On the shared host this was tuned on, the simulator's speed moves by
//! up to ~2× with other tenants' load, in phases lasting from a fraction
//! of a second to minutes. So no host-time figure here is a single
//! ms-scale sample: event-loop time is the best of several repetitions
//! spread over the run, slice by slice, and `setup_s` is the median of
//! many set-ups.

mod metrics;
mod replay;
mod trace;
mod workload;

use metrics::{Kind, Outcome};
use occamy_sim::tx_time_ps;
use occamy_stats::Summary;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Cell, CellOutput, CellRun, Workload};

const USAGE: &str =
    "usage: occamy-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed around each cell run; their median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Set-ups timed by the traced run for `topology.build_s` and
/// `traffic.inject_s`.
const TRACED_SETUP_REPS: usize = 9;
/// Least number of runs of the first cell behind the host-time metrics.
const MIN_REPEATS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    print!("{}", outcome.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs a cell and times `SETUP_REPS` extra set-ups next to it, so the
/// set-up samples spread over the whole run.
fn timed_cell(cell: &Cell, setups: &mut Vec<f64>) -> CellRun {
    for _ in 0..SETUP_REPS {
        setups.push(cell.setup(1).1.total_s());
    }
    let run = cell.run();
    setups.push(run.setup.total_s());
    run
}

/// Sum over sim-time slices of each slice's fastest host time across
/// repeated runs of one cell: the host's slow phases last seconds, so a
/// slice that ran slowly in one repetition usually ran at full speed in
/// another.
fn best_slices_s(runs: &[CellRun]) -> f64 {
    let slices = runs[0].slice_s.len();
    (0..slices)
        .map(|i| {
            runs.iter()
                .map(|r| r.slice_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The untraced run. Every cell runs once and the modelled metrics pool
/// their outputs. The first cell also repeats — spread through the batch
/// and then until `--seconds` have passed, at least `MIN_REPEATS` times
/// in all — and the host-time metrics come from its repetitions, each of
/// which must reproduce its digest.
fn untraced(args: &Args) -> Outcome {
    let wl = args.workload;
    let mut o = Outcome::new(wl.name());
    let cells = wl.cells(args.seed);
    let start = Instant::now();

    // The first set-up in a process pays for cold caches and allocator
    // growth; the traced run reports it as `setup.cold_s`.
    drop(cells[0].setup(1));

    let mut setups = Vec::new();
    let mut outputs: Vec<CellOutput> = Vec::new();
    let mut repeats: Vec<CellRun> = Vec::new();
    // Repetitions inside the batch, evenly spaced between its cells.
    let inside: Vec<usize> = (1..MIN_REPEATS - 1)
        .map(|i| i * cells.len() / (MIN_REPEATS - 1))
        .collect();
    let mut first_cell_rss_mb = f64::NAN;
    for (k, cell) in cells.iter().enumerate() {
        let run = timed_cell(cell, &mut setups);
        outputs.push(run.out.clone());
        if k == 0 {
            // Later cells reuse the first one's freed memory, so the peak
            // after it is the footprint of one cell; the process's peak
            // at the end adds heap fragmentation that varies with the
            // cell sequence.
            first_cell_rss_mb = peak_rss_mb();
            repeats.push(run);
        }
        if inside.contains(&(k + 1)) {
            repeats.push(timed_cell(&cells[0], &mut setups));
        }
    }
    while repeats.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < args.seconds {
        repeats.push(timed_cell(&cells[0], &mut setups));
    }
    for r in &repeats {
        o.check(r.out.digest == outputs[0].digest, || {
            "the first cell gave a different digest on repetition".to_string()
        });
    }

    if wl == Workload::LsWebsearchOccamy {
        let dt = Workload::LsWebsearchDt.cells(args.seed)[0].run();
        let (occamy, dt) = (mean(&outputs[0].qct_slowdown), mean(&dt.out.qct_slowdown));
        o.check(occamy < dt, || {
            format!(
                "Occamy's average QCT slowdown {occamy:.4} is not below DT's {dt:.4} on cell seed {}",
                cells[0].sc.seed
            )
        });
    }

    let queries: Vec<f64> = outputs
        .iter()
        .flat_map(|c| c.qct_slowdown.iter().copied())
        .collect();
    let background: Vec<f64> = outputs
        .iter()
        .flat_map(|c| c.bg_slowdown.iter().copied())
        .collect();
    o.attempted = outputs.iter().map(|c| c.flows as u64).sum();
    o.failed = outputs.iter().map(|c| c.unfinished as u64).sum();
    let (attempted, failed) = (o.attempted, o.failed);
    o.check(failed == 0, || {
        format!("{failed} of {attempted} flows unfinished at the horizon")
    });
    o.check(queries.len() >= 100, || {
        format!(
            "only {} queries finished (at least 100 needed)",
            queries.len()
        )
    });

    // Host time of the first cell at its best, scaled to the batch's
    // mean cell size so that one seed's unusually small or large first
    // cell does not move `wall_s`.
    let events = outputs[0].events as f64;
    let run_s = best_slices_s(&repeats);
    let setup_s = median(setups);
    let extract_s = repeats
        .iter()
        .map(|r| r.extract_s)
        .fold(f64::INFINITY, f64::min);
    let mean_events = outputs.iter().map(|c| c.events as f64).sum::<f64>() / outputs.len() as f64;
    let mut qct = Summary::from_samples(queries);
    o.set("events_per_s", events / run_s);
    o.set(
        "wall_s",
        (setup_s + run_s + extract_s) / events * mean_events,
    );
    o.set("setup_s", setup_s);
    o.set("peak_rss_mb", first_cell_rss_mb);
    o.set("qct_slowdown_avg", qct.mean().unwrap_or(f64::NAN));
    let tail = wl.tail_percentile();
    o.set(
        "qct_slowdown_tail",
        qct.percentile(tail).unwrap_or(f64::NAN),
    );
    o.set("bg_slowdown_avg", mean(&background));
    let single: Vec<String> = repeats
        .iter()
        .map(|r| format!("{:.0}", events / r.run_s()))
        .collect();
    println!("events_per_s of single repetitions: {}", single.join(" "));
    println!(
        "cells {} repetitions {} flows {} queries {} (slowdown p50 {:.4}, tail is p{tail}) measured {:.1} s",
        cells.len(),
        repeats.len(),
        attempted,
        qct.len(),
        qct.percentile(50.0).unwrap_or(f64::NAN),
        start.elapsed().as_secs_f64()
    );
    o.check_complete(Kind::EndToEnd);
    o
}

/// One traced pass over a cell: set-up, the event loop in sim-time
/// slices, and result extraction, each under its own span.
struct TracedPass {
    engine_s: f64,
    report_s: f64,
    slice_ns_per_event: Vec<f64>,
    out: CellOutput,
}

fn traced_pass(t: &mut Tracer, cell: &Cell) -> TracedPass {
    t.span("cell", |t| {
        let mut world = t.span("setup", |t| {
            let (world, st) = cell.setup(1);
            t.record("topology.build", st.start, st.built);
            t.record("traffic.inject", st.built, st.injected);
            world
        });
        let mut slice_ns_per_event = Vec::new();
        t.span("engine.run", |t| {
            cell.drive(&mut world, |world, end| {
                let before = world.metrics.events_processed;
                let start = Instant::now();
                t.span("engine.slice", |_| world.run_until(end));
                let events = world.metrics.events_processed - before;
                if end <= cell.sc.duration_ps && events > 0 {
                    slice_ns_per_event.push(start.elapsed().as_nanos() as f64 / events as f64);
                }
            });
        });
        let (out, report_s) = t.span("report", |_| cell.extract(&world));
        TracedPass {
            engine_s: t.last_s("engine.run").expect("engine span recorded"),
            report_s,
            slice_ns_per_event,
            out,
        }
    })
}

/// The traced run over the workload's first cell.
fn traced(args: &Args) -> Outcome {
    let wl = args.workload;
    let mut o = Outcome::new(wl.name());
    let cell = &wl.cells(args.seed)[0];
    let mut t = Tracer::new();

    let (world, cold) = t.span("setup.cold", |_| cell.setup(1));
    let queues: usize = world
        .switches
        .iter()
        .flat_map(|s| &s.partitions)
        .map(|p| p.state.num_queues())
        .sum();
    let flows = world.flow_records();
    let n_flows = flows.records().len();
    let flow_bytes = flows.records().iter().map(|r| r.bytes).sum::<u64>() / n_flows.max(1) as u64;
    let shape = replay::BmShape::of(&world, cell.sc.bm, cell.sc.alpha);
    let consts = world.consts;
    drop(world);

    let (mut builds, mut injects) = (Vec::new(), Vec::new());
    t.span("setup.repeat", |_| {
        for _ in 0..TRACED_SETUP_REPS {
            let st = cell.setup(1).1;
            builds.push(st.build_s());
            injects.push(st.inject_s());
        }
    });

    // Untraced and traced passes alternate so both see the same mix of
    // host phases; each side keeps its best.
    let mut untraced_s = f64::INFINITY;
    let mut best: Option<TracedPass> = None;
    let mut reference = None;
    for _ in 0..2 {
        let run = t.span("reference.untraced", |_| cell.run());
        untraced_s = untraced_s.min(run.run_s());
        let pass = traced_pass(&mut t, cell);
        let digest = *reference.get_or_insert(run.out.digest);
        o.check(run.out.digest == digest, || {
            "the untraced run gave a different digest on repetition".to_string()
        });
        o.check(pass.out.digest == digest, || {
            "the traced pass gave a different digest from the untraced run".to_string()
        });
        if best.as_ref().is_none_or(|b| pass.engine_s < b.engine_s) {
            best = Some(pass);
        }
    }
    let pass = best.expect("two traced passes ran");
    let out = &pass.out;

    let (par_s, par_digest, par_stats) = t.span("par.run_2t", |_| {
        let (mut world, _) = cell.setup(2);
        let start = Instant::now();
        world.run_to_completion(cell.limit_ps());
        let par_s = start.elapsed().as_secs_f64();
        (par_s, cell.extract(&world).0.digest, world.par_stats.take())
    });
    o.check(par_digest == out.digest, || {
        "the 2-thread pass gave a different digest from the serial run".to_string()
    });
    let (windows, imbalance) = par_stats.map_or((0.0, 1.0), |p| {
        let max = p.domain_events.iter().copied().max().unwrap_or(0) as f64;
        let mean = p.domain_events.iter().sum::<u64>() as f64 / p.domain_events.len().max(1) as f64;
        (p.windows as f64, if mean > 0.0 { max / mean } else { 1.0 })
    });

    let bm = t.span("replay.bm", |_| replay::bm(shape));
    // One hop: a full packet's serialization plus one link's propagation.
    let hop = tx_time_ps(shape.pkt, cell.sc.host_rate_bps) + cell.sc.link_prop_ps;
    let eventq_ns = t.span("replay.eventq", |_| {
        replay::eventq_push_pop_ns(n_flows, hop, cell.sc.sim.min_rto)
    });
    let ack_ns = t.span("replay.transport", |_| {
        replay::transport_ack_ns(flow_bytes, cell.sc.ideal().base_rtt_ps, &consts)
    });

    match wl {
        Workload::LsWebsearchOccamy => o.check(out.drops.head_drops > 0, || {
            "Occamy never expelled a packet".to_string()
        }),
        Workload::LsWebsearchDt => o.check(out.drops.head_drops == 0, || {
            format!("DT head-dropped {} packets", out.drops.head_drops)
        }),
        Workload::Ft128Permutation => o.check(out.drops.total_losses() == 0, || {
            format!(
                "the deep-buffer fat-tree lost {} packets",
                out.drops.total_losses()
            )
        }),
    }
    o.attempted = out.flows as u64;
    o.failed = out.unfinished as u64;
    let (attempted, failed) = (o.attempted, o.failed);
    o.check(failed == 0, || {
        format!("{failed} of {attempted} flows unfinished at the horizon")
    });

    let mut slices = Summary::from_samples(pass.slice_ns_per_event.clone());
    o.set("setup.cold_s", cold.total_s());
    o.set("topology.build_s", median(builds));
    o.set("topology.queues", queues as f64);
    o.set("traffic.inject_s", median(injects));
    o.set("traffic.flows", out.flows as f64);
    o.set("engine.run_s", pass.engine_s);
    o.set("engine.events", out.events as f64);
    o.set(
        "engine.ns_per_event",
        pass.engine_s * 1e9 / out.events as f64,
    );
    o.set(
        "engine.slice_ns_per_event_p50",
        slices.percentile(50.0).unwrap_or(f64::NAN),
    );
    o.set(
        "engine.slice_ns_per_event_p90",
        slices.percentile(90.0).unwrap_or(f64::NAN),
    );
    o.set("bm.head_drops", out.drops.head_drops as f64);
    o.set("bm.threshold_drops", out.drops.threshold_drops as f64);
    o.set("bm.full_drops", out.drops.full_drops as f64);
    o.set("bm.pushout_evictions", out.drops.pushout_evictions as f64);
    o.set("bm.select_victim_ns", bm.select_victim_ns);
    o.set("bm.admit_ns", bm.admit_ns);
    o.set("bm.hooks_ns", bm.hooks_ns);
    o.set("eventq.push_pop_ns", eventq_ns);
    o.set("transport.ack_ns", ack_ns);
    o.set("transport.retransmissions", out.retransmissions as f64);
    o.set("transport.rto_fires", out.rto_fires as f64);
    o.set("report.aggregate_s", pass.report_s);
    o.set("par.speedup_2t", untraced_s / par_s);
    o.set("par.windows", windows);
    o.set("par.domain_imbalance", imbalance);
    o.set("trace.overhead_frac", pass.engine_s / untraced_s - 1.0);
    o.check_complete(Kind::PerLayer);

    let table = trace::layer_table_text(&trace::layer_table(t.spans()));
    print!("{table}");
    let stem = format!(".bench_out/{}-seed{}", wl.name(), args.seed);
    let written = trace::spans_json(t.spans())
        .write_to(Path::new(&format!("{stem}.spans.json")))
        .and_then(|_| std::fs::write(format!("{stem}.layers.txt"), &table));
    o.check(written.is_ok(), || format!("writing {stem}.*: {written:?}"));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse_args(&argv(
            "--workload ls_websearch_dt --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::LsWebsearchDt);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload ls_websearch_dt --seed x --seconds 1 --trace 0",
            "--workload ls_websearch_dt --seed 1 --seconds -1 --trace 0",
            "--workload ls_websearch_dt --seed 1 --seconds 1 --trace 2",
            "--workload ls_websearch_dt --seed 1 --seconds 1",
            "--workload ls_websearch_dt --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
