//! The repository's benchmark: four workloads driven through the public
//! APIs of `btadt_core::concurrent` and `btadt_registers::tree_consensus`,
//! with output checks, end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs. See README.md next to this package.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark run   [--seed N] [--seconds S] [--runs K] [--out FILE] [--smoke]
//! benchmark trace [--seed N] [--seconds S] [--runs K] [--out FILE] [--smoke]
//! benchmark compare A.json B.json
//! ```
//!
//! A single `--workload` run prints its stamp, its metrics with units and
//! sample counts, and, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; it exits 1 if a check
//! failed. `run` and `trace` run every workload `K` times, each run a child
//! process of its own, alternating the workload order, and report each
//! metric's median and quartiles. `compare` sets two such result files
//! side by side under the bounds in `BENCHMARK.json`.

mod hist;
mod json;
mod layers;
mod spans;
mod workloads;

use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Outcome, Run, Workload};

const DEFAULT_SEED: u64 = 0xB10C;
const DEFAULT_SECONDS: f64 = 25.0;

/// A metric's name, unit, and which direction is better.
pub type Spec = (&'static str, &'static str, &'static str);

/// Every end-to-end metric.
const END_TO_END: &[Spec] = &[
    ("setup_s", "s", "lower"),
    ("commits_per_s", "1/s", "higher"),
    ("commit_p50_us", "us", "lower"),
    ("commit_p99_us", "us", "lower"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        Some(_) => single(&args),
        None => Err("no arguments".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
                 benchmark run|trace [--seed N] [--seconds S] [--runs K] [--out FILE] [--smoke]\n       \
                 benchmark compare A.json B.json",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// Options shared by every mode.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => {
                o.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad())?
            }
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => o.runs = value.parse().ok().filter(|&k| k > 0).ok_or_else(bad)?,
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// The build's target directory: the binary lives in `<target>/<profile>/`.
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locate the running binary");
    exe.parent()
        .and_then(Path::parent)
        .expect("the binary sits two levels below the target directory")
        .to_path_buf()
}

fn output_dir() -> PathBuf {
    target_dir().join("benchmark")
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method).
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Medians over the measured windows: commits per second, and each
/// window's latency quantile (a window without a commit counts as an
/// infinite latency).
fn end_to_end(out: &Outcome, window: f64) -> Vec<(&'static str, f64)> {
    let over_windows = |f: &dyn Fn(&workloads::Window) -> f64| {
        median(&out.windows.iter().map(f).collect::<Vec<_>>())
    };
    let latency_us = |q: f64| {
        over_windows(&|w| {
            if w.latency.count() == 0 {
                f64::INFINITY
            } else {
                w.latency.quantile(q) / 1e3
            }
        })
    };
    let values = [
        median(&out.setup_s),
        over_windows(&|w| w.commits as f64 / window),
        latency_us(0.5),
        latency_us(0.99),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, ..), v)| (name, v))
        .collect()
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What a result was measured on, as one JSON object.
fn stamp(o: &Opts, sizes: &workloads::Sizes, work: &Path) -> String {
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"stamp\":{{\"commit\":{},\"dirty\":{},\"cpus\":{cpus},\"seed\":{},\
         \"seconds\":{},\"profile\":{},\"sizes\":{},\"tmpdir\":{}}}}}",
        json::quote(&commit),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        o.seed,
        json::num(o.seconds),
        json::quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        sizes.to_json(),
        json::quote(&work.display().to_string()),
    )
}

/// One workload, one run: the mode the `BENCHMARK.json` command uses.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args)?;
    let workload = o.workload.ok_or("--workload is required")?;
    let sizes = if o.smoke {
        workloads::SMOKE
    } else {
        workloads::FULL
    };
    let work = output_dir().join(format!("work-{}", std::process::id()));
    let tracer = Tracer::new(o.trace);
    let run = Run {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        sizes,
        work: work.clone(),
        tracer: &tracer,
    };
    let out = workloads::execute(&run);
    println!("{}", stamp(&o, &sizes, &work));
    let (metrics, units): (Vec<(&str, f64)>, &[Spec]) = if o.trace {
        (layers::per_layer(&out), layers::PER_LAYER)
    } else {
        (end_to_end(&out, sizes.window_ms as f64 / 1e3), END_TO_END)
    };
    println!(
        "{} on {}: {} commits in {:.3} s measured; {} calls, {} failed",
        workload.name(),
        if o.trace {
            "a traced run"
        } else {
            "an untraced run"
        },
        out.commits,
        out.measured_s,
        out.attempted,
        out.failed
    );
    let smallest = out
        .windows
        .iter()
        .map(|w| &w.latency)
        .min_by_key(|h| h.count());
    println!(
        "  samples: {} windows of {} ms, the smallest with {} commit latencies ({} beyond its p99); \
         {} commit latencies, {} reads, {} lookups in all; {} set-ups",
        out.windows.len(),
        sizes.window_ms,
        smallest.map_or(0, |h| h.count()),
        smallest.map_or(0, |h| h.beyond(0.99)),
        out.windows.iter().map(|w| w.latency.count()).sum::<u64>(),
        out.read_ns.count(),
        out.lookup_ns.count(),
        out.setup_s.len()
    );
    for (&(name, v), &(_, unit, _)) in metrics.iter().zip(units) {
        println!("  {name:<42} {v:>16.4} {unit}");
    }
    if o.trace {
        let path = output_dir().join(format!("trace-{}.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  {} spans written to {}", tracer.count(), path.display());
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(peak) = status.lines().find_map(|l| l.strip_prefix("VmHWM:")) {
        println!("  peak resident memory {}", peak.trim());
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .zip(units)
        .map(|(&(name, v), &(_, unit, _))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(v),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `run` / `trace`: every workload `runs` times, each run a child process.
fn suite(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let mut o = parse_opts(args)?;
    if o.runs == 0 {
        o.runs = if trace { 1 } else { 5 };
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Per workload, per metric: one value per run.
    type Series = Vec<(String, Vec<f64>)>;
    let mut results: Vec<(Workload, Series)> =
        Workload::ALL.iter().map(|&w| (w, Vec::new())).collect();
    let mut stamp_line = String::new();
    let mut all_correct = true;
    for k in 0..o.runs {
        let mut order = Workload::ALL.to_vec();
        if k % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()])
                .args([
                    "--seconds",
                    &o.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ]);
            if o.smoke {
                cmd.arg("--smoke");
            }
            let child = cmd.output().map_err(|e| format!("run {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            if stamp_line.is_empty() {
                stamp_line = stdout
                    .lines()
                    .find(|l| l.starts_with("{\"stamp\""))
                    .unwrap_or("")
                    .to_string();
            }
            let last = stdout.lines().last().unwrap_or("");
            let parsed =
                json::parse(last).map_err(|e| format!("{} printed no result ({e})", w.name()))?;
            all_correct &=
                child.status.success() && parsed.get("correct") == Some(&json::Json::Bool(true));
            let slot = &mut results
                .iter_mut()
                .find(|(rw, _)| *rw == w)
                .expect("every workload has a slot")
                .1;
            for (name, m) in parsed.get("metrics").map(json::Json::as_obj).unwrap_or(&[]) {
                let v = m
                    .get("value")
                    .and_then(json::Json::as_f64)
                    .unwrap_or(f64::NAN);
                match slot.iter_mut().find(|(n, _)| n == name) {
                    Some((_, vals)) => vals.push(v),
                    None => slot.push((name.clone(), vec![v])),
                }
            }
        }
    }
    println!(
        "\n{} runs per workload, seed {}: median [q1, q3]",
        o.runs, o.seed
    );
    let mut body = Vec::new();
    for (w, metrics) in &results {
        println!("{}", w.name());
        let mut fields = Vec::new();
        for (name, vals) in metrics {
            let (q1, q3) = quartiles(vals);
            println!("  {name:<42} {:>16.4} [{q1:.4}, {q3:.4}]", median(vals));
            let vals: Vec<String> = vals.iter().map(|&v| json::num(v)).collect();
            fields.push(format!("{}: [{}]", json::quote(name), vals.join(", ")));
        }
        body.push(format!(
            "{}: {{{}}}",
            json::quote(w.name()),
            fields.join(", ")
        ));
    }
    let path = o
        .out
        .unwrap_or_else(|| output_dir().join(if trace { "trace.json" } else { "run.json" }));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let stamp = stamp_line
        .strip_prefix("{\"stamp\":")
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or("null");
    std::fs::write(
        &path,
        format!(
            "{{\"stamp\": {stamp}, \"trace\": {trace}, \"runs\": {}, \"correct\": {all_correct}, \"results\": {{{}}}}}\n",
            o.runs,
            body.join(", ")
        ),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The bound and direction of every end-to-end metric in `BENCHMARK.json`.
fn spec_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let local = Path::new("BENCHMARK.json");
    let path = if local.exists() {
        local.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = json::parse(&text)?;
    Ok(spec
        .get("end_to_end")
        .map(json::Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// The verdict on B against A for one metric: `worse` if B's median is
/// worse by more than the bound, `better` if it is better by more than A's
/// own spread, `same` otherwise — and `unresolved` when either side's
/// spread exceeds the bound, unless every run of one side beats every run
/// of the other.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m.abs().max(f64::MIN_POSITIVE)
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let gain = if lower_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    if spread(a, ma) > bound || spread(b, mb) > bound {
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            "better"
        } else if a.iter().all(|&x| b.iter().all(|&y| better(x, y))) {
            "worse"
        } else {
            "unresolved"
        }
    } else if gain < -bound {
        "worse"
    } else if gain > spread(a, ma) {
        "better"
    } else {
        "same"
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |p: &String| -> Result<json::Json, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
    };
    let (ra, rb) = (load(a)?, load(b)?);
    let bounds = spec_bounds()?;
    println!("A = {a}\nB = {b}");
    let mut worse = 0;
    for (w, metrics) in ra.get("results").map(json::Json::as_obj).unwrap_or(&[]) {
        println!("{w}");
        for (name, va) in metrics.as_obj() {
            let Some(vb) = rb
                .get("results")
                .and_then(|r| r.get(w))
                .and_then(|m| m.get(name))
            else {
                continue;
            };
            let nums = |v: &json::Json| {
                v.as_arr()
                    .iter()
                    .filter_map(json::Json::as_f64)
                    .collect::<Vec<_>>()
            };
            let (xa, xb) = (nums(va), nums(vb));
            let (a1, a3) = quartiles(&xa);
            let (b1, b3) = quartiles(&xb);
            let v = match bounds.iter().find(|(n, ..)| n == name) {
                Some(&(_, lower, bound)) => verdict(&xa, &xb, lower, bound),
                None => "-",
            };
            worse += (v == "worse") as usize;
            println!(
                "  {name:<42} A {:>14.4} [{a1:.4}, {a3:.4}]  B {:>14.4} [{b1:.4}, {b3:.4}]  {v}",
                median(&xa),
                median(&xb)
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `section`'s metrics in BENCHMARK.json, checked to carry exactly
    /// the names, units and directions of `listed`; returns the names.
    fn spec_names(section: &str, listed: &[Spec]) -> Vec<&'static str> {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json sits at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |m: &json::Json, k: &str| m.get(k).and_then(json::Json::as_str).map(String::from);
        let entries: Vec<_> = spec
            .get(section)
            .map(json::Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<_> = listed
            .iter()
            .map(|&(n, u, b)| {
                (
                    Some(n.to_string()),
                    Some(u.to_string()),
                    Some(b.to_string()),
                )
            })
            .collect();
        assert_eq!(
            entries, expected,
            "BENCHMARK.json {section} and the code disagree"
        );
        listed.iter().map(|m| m.0).collect()
    }

    fn smoke(workload: Workload, tracer: &Tracer) -> Outcome {
        // The traced run stops each phase after 500 commits.
        let max_commits = if tracer.on() {
            500
        } else {
            workloads::SMOKE.max_commits
        };
        let run = Run {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.1,
            sizes: workloads::Sizes {
                max_commits,
                ..workloads::SMOKE
            },
            work: std::env::current_exe()
                .expect("locate the test binary")
                .with_file_name(format!("smoke-{}-{}", workload.name(), tracer.on())),
            tracer,
        };
        let out = workloads::execute(&run);
        assert!(
            out.errors.is_empty(),
            "{}: {:?}",
            workload.name(),
            out.errors
        );
        assert_eq!(out.failed, 0, "{}", workload.name());
        assert!(out.commits > 0, "{}", workload.name());
        out
    }

    #[test]
    fn every_workload_passes_its_checks_and_emits_the_listed_metrics() {
        let e2e = spec_names("end_to_end", END_TO_END);
        for w in Workload::ALL {
            let out = smoke(w, &Tracer::new(false));
            assert!(!out.windows.is_empty(), "{}: no full window", w.name());
            let metrics = end_to_end(&out, workloads::SMOKE.window_ms as f64 / 1e3);
            assert_eq!(metrics.iter().map(|m| m.0).collect::<Vec<_>>(), e2e);
            for (name, v) in metrics {
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
            }
        }
        let tracer = Tracer::new(true);
        let metrics = layers::per_layer(&smoke(Workload::AppendRead, &tracer));
        assert_eq!(
            metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
            spec_names("per_layer", layers::PER_LAYER)
        );
        assert!(tracer.count() > 0, "the traced run records spans");
        for rung in [
            "ladder.blocktree_ns",
            "ladder.durable_ns",
            "store.mint_ns",
            "chain.read_ns_quiescent",
        ] {
            let v = metrics.iter().find(|m| m.0 == rung).expect("listed").1;
            assert!(v > 0.0, "{rung} = {v}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&a, &[100.2, 100.1, 99.9, 100.0, 100.3], false, 0.05),
            "same"
        );
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 90.5, 89.5], false, 0.05),
            "worse"
        );
        assert_eq!(
            verdict(&a, &[110.0, 111.0, 109.0, 110.5, 109.5], false, 0.05),
            "better"
        );
        let wide = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&a, &wide, true, 0.05), "unresolved");
    }
}
