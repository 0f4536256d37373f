//! `dlfm-bench` command line. The driver's form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, whose last
//! stdout line is the JSON result; without `--workload` every workload
//! runs, both ways, and `--aa` does that twice and compares.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dlfm_bench::measure::{end_to_end, per_layer, Effort, Outcome};
use dlfm_bench::report::{listing, result_json, write_trace};
use dlfm_bench::spec::{self, Spec, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: dlfm-bench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--aa] [--print-benchmark-json]
  --workload <name>  one of link_wire, link_inproc, commit_forced_2shard, read_mostly;
                     without it every workload runs, untraced then traced
  --seed <n>         the only input to the op-stream generator (default 1)
  --seconds <s>      measured window (default 12)
  --trace 0|1        0: end-to-end metrics; 1: probes, counters and the traced window
  --quick            1 s windows, one set-up, probes x0.1
  --aa               run the whole set twice, compare against the bounds";

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--print-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(args))
}

/// Where sockets and trace files go: `<target dir>/dlfm-bench-run`, as a
/// path relative to the working directory when the target directory is
/// under it — Unix socket paths are limited to about 100 bytes.
fn run_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let target = exe.parent().and_then(|p| p.parent()).expect("exe sits in <target>/<profile>/");
    let dir = target.join("dlfm-bench-run");
    let dir = match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(dir),
        Err(_) => dir,
    };
    std::fs::create_dir_all(&dir).expect("create run directory");
    dir
}

fn run_one(spec: &'static Spec, args: &Args, trace: bool, run_dir: &Path) -> Outcome {
    let effort = if args.quick { Effort::quick() } else { Effort::full(args.seconds) };
    if !trace {
        return end_to_end(spec, args.seed, &effort, run_dir);
    }
    let (outcome, spans) = per_layer(spec, args.seed, &effort, run_dir);
    let path = run_dir.join(format!("trace-{}.json", spec.name));
    match write_trace(&path, &spans) {
        Ok(()) => eprintln!("trace of the traced window: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    outcome
}

/// Every workload, untraced then traced; returns the outcomes in order.
fn run_set(args: &Args, run_dir: &Path) -> Vec<(Outcome, Outcome)> {
    WORKLOADS
        .iter()
        .map(|spec| {
            let e2e = run_one(spec, args, false, run_dir);
            print!("{}", listing(&e2e));
            let layers = run_one(spec, args, true, run_dir);
            print!("{}", listing(&layers));
            (e2e, layers)
        })
        .collect()
}

/// Compare two sets of the same code: per workload and end-to-end metric
/// the change of B against A in the worse direction, beside its bound.
/// Returns whether every difference stayed inside its bound.
fn compare(a: &[(Outcome, Outcome)], b: &[(Outcome, Outcome)]) -> bool {
    let mut within = true;
    println!("\n# A/A: second set against the first, worse direction positive");
    println!(
        "{:<22} {:<16} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "A", "B", "worse%", "bound%"
    );
    for (spec, (a, b)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        for ((def, va), (_, vb)) in a.0.metrics.iter().zip(b.0.metrics.iter()) {
            let worse = if def.lower_is_better { (vb - va) / va } else { (va - vb) / va };
            let flag = if worse > def.bound { "  EXCEEDS" } else { "" };
            within &= worse <= def.bound;
            println!(
                "{:<22} {:<16} {:>12.2} {:>12.2} {:>8.2} {:>7.1}{flag}",
                spec.name,
                def.name,
                va,
                vb,
                worse * 100.0,
                def.bound * 100.0
            );
        }
    }
    println!("\n# per-transaction counts, A then B");
    for (spec, (a, b)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        for ((def, va), (_, vb)) in a.1.metrics.iter().zip(b.1.metrics.iter()) {
            if def.name.ends_with("_per_txn") {
                let same = if va == vb { "identical" } else { "differs" };
                println!("{:<22} {:<36} {:>14.6} {:>14.6} {same}", spec.name, def.name, va, vb);
            }
        }
    }
    within
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so that all of them inherit it.
    match dlfm_bench::affinity::pin_to_one_cpu() {
        Some(cpu) => eprintln!("all threads confined to CPU {cpu}"),
        None => eprintln!("could not set CPU affinity; running unpinned"),
    }
    let run_dir = run_dir();

    if let Some(spec) = args.workload {
        let outcome = run_one(spec, &args, args.trace, &run_dir);
        print!("{}", listing(&outcome));
        println!("{}", result_json(&outcome));
        return if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let first = run_set(&args, &run_dir);
    let mut ok = first.iter().all(|(a, b)| a.correct() && b.correct());
    if args.aa {
        let second = run_set(&args, &run_dir);
        ok &= second.iter().all(|(a, b)| a.correct() && b.correct());
        ok &= compare(&first, &second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
