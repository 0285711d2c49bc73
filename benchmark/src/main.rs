//! `perfbench` — the repo's performance ledger.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! perfbench [--seed <n>] [--seconds <s>] [--trace] [--quick]            all four, one process each
//! perfbench --agree [--seed <n>] [--seconds <s>]                        the whole set twice, compared
//! ```
//!
//! With `--workload` the last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed`, `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `benchmark/README.md` for what every name means.

mod campaign;
mod catalog;
mod estimate;
mod host;
mod kernels;
mod report;
mod spans;
mod vehicle;
mod world;

use campaign::Campaign;
use catalog::{MetricDef, Plan, Workload, END_TO_END};
use report::{Failures, Metrics, RunResult};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use world::World;

/// The seed of the committed baseline.
const DEFAULT_SEED: u64 = 469710;

/// Five passes: the ledger's own run length. The driver asks for less.
const DEFAULT_SECONDS: u64 = 50;

/// Frame id of the campaign span tree, clear of every vehicle frame.
const CAMPAIGN_FRAME: u64 = 1_000_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    agree: bool,
    setup_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        agree: false,
        setup_probe: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            "--agree" => out.agree = true,
            "--setup-probe" => out.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.agree && out.quick {
        return Err("--agree refuses --quick: smoke numbers prove nothing".into());
    }
    if out.setup_probe && out.workload.is_none() {
        return Err("--setup-probe needs --workload".into());
    }
    Ok(out)
}

impl Args {
    fn plan(&self) -> Plan {
        if self.quick {
            Plan::quick()
        } else {
            Plan::for_seconds(self.seconds)
        }
    }

    /// The arguments that reproduce this run's inputs in a child.
    fn child_args(&self, workload: Workload, trace: bool) -> Vec<String> {
        let mut v = vec![
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            (trace as u8).to_string(),
        ];
        if self.quick {
            v.push("--quick".to_string());
        }
        v
    }
}

/// Runs this executable again and returns its standard output. The
/// child inherits standard error, so its progress shows live.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(text)
    } else {
        Err(format!(
            "child {args:?} exited with {}:\n{text}",
            out.status
        ))
    }
}

/// Process start to first timed frame, for this process and for fresh
/// child processes. Every sample is a cold start, interference only
/// ever adds time, so `setup_s` is the fastest of them.
fn setup_metric(args: &Args, workload: Workload, own_s: f64, metrics: &mut Metrics) {
    let mut samples = vec![own_s];
    let reps = if args.quick { 1 } else { workload.setup_reps() };
    let mut probe = args.child_args(workload, false);
    probe.push("--setup-probe".to_string());
    while samples.len() < reps {
        match child(&probe).and_then(|s| s.trim().parse::<f64>().map_err(|e| e.to_string())) {
            Ok(s) => samples.push(s),
            Err(e) => {
                metrics.note(format!("setup probe failed: {e}"));
                break;
            }
        }
    }
    metrics.put("setup_s", estimate::min(&samples), samples.len());
    metrics.note(format!("setup_s samples (cold processes): {samples:.3?}"));
}

/// Set-up plus warm-up only; prints the seconds it took.
fn setup_probe(args: &Args, workload: Workload, started: Instant) {
    let world = World::build(workload, args.seed, args.plan());
    match Campaign::of(&world) {
        Some(campaign) => campaign.warm_up(),
        None => drop(vehicle::run_pass(&world, 0, &mut world.vehicle())),
    }
    println!("{}", started.elapsed().as_secs_f64());
}

/// The untraced run: every end-to-end metric.
fn run_untraced(args: &Args, workload: Workload, started: Instant) -> (Metrics, Failures) {
    let plan = args.plan();
    let (mut metrics, mut failures) = (Metrics::default(), Failures::default());
    let world = World::build(workload, args.seed, plan);
    let mut timed_from = None;
    if let Some(campaign) = Campaign::of(&world) {
        let passes: Vec<_> = (0..plan.passes).map(|_| campaign.pass()).collect();
        timed_from = Some(passes[0].timed_from);
        campaign.check(&passes, &mut failures);
        campaign.throughput_metrics(&passes, &mut metrics);
        // Memory is the campaign's; the cross-checks below are ours.
        metrics.put("peak_rss_mib", host::peak_rss_mib(), 1);
        campaign.check_batched_parity(&passes[0], &mut failures);
    }
    // Frame latency is a vehicle's. On `fleet_*` that is one clean
    // supervised cell, alone, over the urban workloads' frame count.
    let runs = vehicle::VehicleRuns::run(&world, plan.vehicle_frames, plan.passes);
    runs.check(&mut failures);
    runs.frame_metrics(&mut metrics);
    if !workload.is_fleet() {
        runs.loop_metrics(&mut metrics);
        metrics.put("peak_rss_mib", host::peak_rss_mib(), 1);
    }
    let own_setup_s = timed_from
        .unwrap_or(runs.passes[0].timed_from)
        .duration_since(started)
        .as_secs_f64();
    setup_metric(args, workload, own_setup_s, &mut metrics);
    (metrics, failures)
}

/// The traced run: every per-layer metric, and the spans behind them.
fn run_traced(args: &Args, workload: Workload) -> (Metrics, Failures, spans::Recorder) {
    let plan = args.plan();
    let (mut metrics, mut failures) = (Metrics::default(), Failures::default());
    let world = World::build(workload, args.seed, plan);
    // A fleet vehicle drives as many frames as a cell does.
    let frames = match &world.fleet {
        Some((_, specs)) => specs[0].frames,
        None => plan.vehicle_frames,
    };
    let mut rec = vehicle::trace(&world, frames, &mut metrics, &mut failures);
    match Campaign::of(&world) {
        Some(campaign) => campaign.trace(
            &world,
            &mut rec,
            CAMPAIGN_FRAME,
            &mut metrics,
            &mut failures,
        ),
        None => {
            let root = rec.open("bench.probes", None, CAMPAIGN_FRAME);
            campaign::cell_setup(&world, &mut rec, root, CAMPAIGN_FRAME, &mut metrics);
            rec.close(root);
        }
    }
    vehicle::region_overhead(&mut metrics);
    kernels::probe(args.seed, &mut metrics);
    metrics.zero_missing(catalog::PER_LAYER);
    if let Err(e) = rec.check() {
        failures.fail(1, || format!("span forest malformed: {e}"));
    }
    (metrics, failures, rec)
}

/// Writes the run's spans, under its provenance, to
/// `benchmark/out/trace_<workload>.json`.
fn write_spans(result: &mut RunResult, rec: &spans::Recorder, host: &host::Host) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{}.json", result.workload.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(&result.provenance(host))));
    match written {
        Ok(()) => result
            .metrics
            .note(format!("{} spans written to {path}", rec.spans().len())),
        Err(e) => result
            .failures
            .fail(1, || format!("cannot write {path}: {e}")),
    }
}

/// One workload in this process. Prints the table, the provenance and,
/// last, the contract line.
fn run_one(args: &Args, workload: Workload, started: Instant) -> ExitCode {
    let load_start = host::loadavg();
    let host = host::Host::detect();
    let (metrics, failures, rec) = if args.trace {
        let (metrics, failures, rec) = run_traced(args, workload);
        (metrics, failures, Some(rec))
    } else {
        let (metrics, failures) = run_untraced(args, workload, started);
        (metrics, failures, None)
    };
    let mut result = RunResult {
        workload,
        seed: args.seed,
        plan: args.plan(),
        traced: args.trace,
        metrics,
        failures,
        load_start,
        load_end: host::loadavg(),
        wall_s: started.elapsed().as_secs_f64(),
    };
    if let Some(rec) = rec {
        write_spans(&mut result, &rec, &host);
    }
    if let Err(e) = result.check_names() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    print!("{}", result.table());
    println!("provenance: {{{}}}", result.provenance(&host).join(", "));
    println!("{}", result.contract_json());
    if result.failures.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads one metric's value back out of a contract line.
fn value_in(contract: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &contract[contract.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs one workload in a fresh process, relays its report and returns
/// its contract line.
fn run_child(args: &Args, workload: Workload, trace: bool) -> Result<String, String> {
    let text = child(&args.child_args(workload, trace))?;
    print!("{text}");
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or("child printed nothing".to_string())
}

/// All four workloads, a cold process each so that set-up time and
/// peak memory mean what they mean under the driver.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            if let Err(e) = run_child(args, workload, trace) {
                eprintln!("perfbench: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The whole set twice, the second time in reverse order, and every
/// end-to-end metric x workload compared against its bound.
fn run_agree(args: &Args) -> ExitCode {
    let mut rounds: Vec<Vec<String>> = Vec::new();
    for round in 0..2 {
        let mut order = Workload::ALL.to_vec();
        if round == 1 {
            order.reverse();
        }
        let mut lines = vec![String::new(); order.len()];
        for workload in order {
            match run_child(args, workload, false) {
                Ok(line) => {
                    let slot = Workload::ALL
                        .iter()
                        .position(|w| *w == workload)
                        .expect("listed");
                    lines[slot] = line;
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        rounds.push(lines);
    }
    println!(
        "== agreement of two run sets (seed {}, {} passes)",
        args.seed,
        args.plan().passes
    );
    println!(
        "  {:<20} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut outside = 0;
    for (slot, workload) in Workload::ALL.iter().enumerate() {
        for def in END_TO_END {
            let MetricDef {
                name,
                better,
                bound: Some(bound),
                ..
            } = *def
            else {
                continue;
            };
            let (Some(a), Some(b)) = (
                value_in(&rounds[0][slot], name),
                value_in(&rounds[1][slot], name),
            ) else {
                println!("  {:<20} {:<18} missing from a run", workload.name(), name);
                outside += 1;
                continue;
            };
            let diff = estimate::worsening(a, b, better == catalog::Better::Higher);
            let verdict = if diff.abs() > bound { "OUTSIDE" } else { "" };
            outside += (diff.abs() > bound) as u32;
            println!(
                "  {:<20} {:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {verdict}",
                workload.name(),
                name,
                a,
                b,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    if outside == 0 {
        println!("  every metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("  {outside} metric x workload pairs outside their bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Injected crashes unwind through `catch_unwind` by design; keep
    // the default hook quiet for them and loud for everything else.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<adsim_faults::InjectedCrash>()
            .is_none()
        {
            default_hook(info);
        }
    }));

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) if args.setup_probe => {
            setup_probe(&args, workload, started);
            ExitCode::SUCCESS
        }
        Some(workload) => run_one(&args, workload, started),
        None if args.agree => run_agree(&args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload fleet_faults --seed 7 --seconds 20 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::FleetFaults));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, false));
        assert_eq!(a.plan().passes, 2);
        assert!(parse("--workload urban_dnn --trace 1").unwrap().trace);
    }

    #[test]
    fn defaults_are_the_ledgers_seed_and_five_passes() {
        let a = parse("").unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (None, DEFAULT_SEED, false));
        assert_eq!(a.plan().passes, 5);
        assert!(
            parse("--trace").unwrap().trace,
            "bare --trace turns tracing on"
        );
        assert!(parse("--trace --quick").unwrap().quick);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope")
            .unwrap_err()
            .contains("known: urban_dnn"));
        assert!(parse("--seed x").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--agree --quick")
            .unwrap_err()
            .contains("refuses --quick"));
        assert!(parse("--setup-probe").is_err());
    }

    #[test]
    fn child_arguments_reproduce_the_run() {
        let a = parse("--seed 9 --seconds 30 --quick").unwrap();
        let argv = a.child_args(Workload::UrbanDnn, true);
        let b = parse_args(&argv).unwrap();
        assert_eq!(b.workload, Some(Workload::UrbanDnn));
        assert_eq!((b.seed, b.seconds, b.trace, b.quick), (9, 30, true, true));
    }

    #[test]
    fn values_read_back_from_a_contract_line() {
        let line = "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 2.5125, \"unit\": \"s\"}, \
                    \"frames_per_s\": {\"value\": 91.25, \"unit\": \"1/s\"}}}";
        assert_eq!(value_in(line, "setup_s"), Some(2.5125));
        assert_eq!(value_in(line, "frames_per_s"), Some(91.25));
        assert_eq!(value_in(line, "frame_ms_p50"), None);
    }
}
