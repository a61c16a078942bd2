//! `glbench`: the repository's benchmark. See `README.md` next to
//! `Cargo.toml` for the workloads, the metrics and how they interact.
//!
//! ```text
//! glbench --workload W --seed N --seconds S --trace 0|1    one run, as the driver calls it
//! glbench run --workload W [--seed N] [--seconds S]        the same, untraced
//! glbench trace --workload W [--seed N] [--seconds S]      the traced run (per-layer metrics)
//! glbench all [--seed N] [--seconds S] [--out FILE]        every workload, one process each
//! glbench compare A.json B.json                            two result sets against the bounds
//! glbench list                                             workload and metric names
//! ```

mod affinity;
mod compare;
mod json;
mod layers;
mod probe;
mod problem;
mod result;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use graphlab_core::EngineKind;

use probe::Probe;
use problem::{run_checked, AlsProblem, PageRankProblem, Problem, Tally, Variant};
use result::{Metric, RunResult};
use spec::{Input, Scale, Spec};

/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: u64 = 3;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        out: None,
        files: Vec::new(),
    };
    let mut traced = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => traced = value()? == "1",
            "--out" => args.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_empty() => args.command = word.to_string(),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    // The driver's form has no subcommand: `--trace` picks the run.
    if args.command.is_empty() {
        args.command = if traced { "trace" } else { "run" }.to_string();
    }
    Ok(args)
}

/// Directory for the files a run leaves behind (result sets, traces):
/// inside the build directory, which is inside the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("glbench")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One warm-up rep, then checked rounds over `graphs` for `seconds`, every
/// rep's slowdown taken by a probe on the run's CPU. Returns the reps and
/// the process's peak RSS after the warm-up.
fn measure<P: Problem>(graphs: &[P], spec: &Spec, seconds: f64) -> Result<(Tally, f64), String> {
    let mut tally = Tally::new(
        graphs.len(),
        spec.engine == EngineKind::Chromatic && !spec.tcp,
    );
    let probe = Probe::start();
    // Faults in the page cache, allocator arenas and lazily built tables;
    // its result is judged by the reps that follow.
    let _ = run_checked(&graphs[0], spec, Variant::Plain);
    // Taken here, after exactly one complete `try_run`, because the peak
    // keeps growing with the rep count (every rep's machine threads may
    // open new allocator arenas), and the rep count with the box's speed.
    let peak_rss_mb = peak_rss_mb()?;
    let t0 = Instant::now();
    // Time is looked at between rounds only: a round cut short is no sample.
    while tally.next_graph() != 0
        || tally.rounds() < MIN_ROUNDS
        || t0.elapsed().as_secs_f64() < seconds
    {
        tally.record(run_checked(
            &graphs[tally.next_graph()],
            spec,
            Variant::Plain,
        ));
    }
    let passes = probe.stop();
    println!("{} probe_undisturbed_s {}", spec.name, passes.undisturbed_s);
    for (_, rep) in &mut tally.reps {
        let ended = rep.started + Duration::from_secs_f64(rep.wall_s);
        rep.slowdown = passes.slowdown(rep.started, ended);
    }
    Ok((tally, peak_rss_mb))
}

/// The untraced run: every end-to-end metric of one workload.
fn run_workload(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let seeds = (0..spec.graphs).map(|g| spec::graph_seed(seed, g));
    let (tally, peak_rss_mb) = match spec.input {
        Input::Web { vertices, epsilon } => {
            let mut graphs: Vec<_> = seeds
                .map(|seed| PageRankProblem::generate(vertices, epsilon, seed))
                .collect();
            graphs.iter_mut().for_each(PageRankProblem::solve_oracle);
            measure(&graphs, spec, seconds)?
        }
        Input::Ratings { .. } => {
            let mut graphs: Vec<_> = seeds
                .map(|seed| AlsProblem::generate(spec.input, seed))
                .collect();
            for p in &mut graphs {
                p.solve_oracle(spec)?;
            }
            measure(&graphs, spec, seconds)?
        }
    };
    let unit = |name: &str| spec::end_to_end(name).expect("registered metric").unit;
    let metric = |name: &str, samples: Vec<f64>| Metric::new(name, unit(name), samples);
    // Timings at undisturbed speed: what the rep would have taken had every
    // pass of the probe's kernel during it been an undisturbed one.
    Ok(RunResult {
        workload: spec.name.to_string(),
        seed,
        attempted: tally.attempted(),
        updates: tally.samples(|r| r.metrics.updates as f64),
        oracle_distance: tally.samples(|r| r.oracle_distance),
        host_slowdown: tally.samples(|r| r.slowdown),
        metrics: vec![
            metric(
                "time_to_fixpoint_s",
                tally.samples(|r| r.time_to_fixpoint_s / r.slowdown),
            ),
            metric(
                "updates_per_s",
                tally.samples(|r| r.updates_per_s() * r.slowdown),
            ),
            metric("setup_s", tally.samples(|r| r.setup_s() / r.slowdown)),
            metric(
                "wire_bytes_per_update",
                tally.samples(|r| r.wire_bytes_per_update()),
            ),
            metric("peak_rss_mb", vec![peak_rss_mb]),
        ],
        failures: tally.failures,
    })
}

fn spec_of(args: &Args) -> Result<Spec, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    spec::spec_named(name, Scale::Frozen).ok_or_else(|| {
        let names: Vec<_> = spec::specs(Scale::Frozen).iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })
}

/// Prints a run and reports whether it may count: a run with no
/// successful rep has no timing to print.
fn finish(result: &RunResult) -> Result<(), String> {
    if result.metrics.iter().any(|m| m.samples.is_empty()) {
        return Err(format!(
            "{}: no successful rep out of {}: {:?}",
            result.workload, result.attempted, result.failures
        ));
    }
    result.print_table();
    println!("{}", result.to_json());
    println!("{}", result.summary_line());
    Ok(())
}

/// Every workload in a process of its own, so that `peak_rss_mb` belongs
/// to one workload.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for spec in spec::specs(Scale::Frozen) {
        let out = std::process::Command::new(&exe)
            .args(["run", "--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        // The child's last two lines are its full result and the summary.
        let (table, tail) = lines.split_at(lines.len().saturating_sub(2));
        for line in table {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!("{} failed ({})", spec.name, out.status));
        }
        let full = tail
            .first()
            .ok_or_else(|| format!("{}: no result line", spec.name))?;
        runs.push(RunResult::from_json(&json::Json::parse(full)?)?);
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", args.seed)));
    write_file(
        &path,
        &format!("{}\n", result::set_to_json(args.seed, args.seconds, &runs)),
    )?;
    println!("result set: {}", path.display());
    match runs.iter().find(|r| !r.correct()) {
        Some(r) => Err(format!(
            "{}: {} of {} reps failed",
            r.workload,
            r.failed(),
            r.attempted
        )),
        None => Ok(()),
    }
}

fn dispatch(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        command @ ("run" | "trace") => {
            let spec = spec_of(args)?;
            println!(
                "{} pinned_to_cpu {}",
                spec.name,
                affinity::pin_to_one_cpu()?
            );
            if command == "run" {
                return finish(&run_workload(&spec, args.seed, args.seconds)?);
            }
            let (result, trace) = layers::trace_workload(&spec, args.seed, args.seconds);
            let path = out_dir().join(format!("trace-{}.json", spec.name));
            write_file(&path, &format!("{trace}\n"))?;
            println!("trace: {}", path.display());
            finish(&result)
        }
        "all" => run_all(args),
        "compare" => match args.files.as_slice() {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two result sets: glbench compare A.json B.json".into()),
        },
        "list" => {
            for s in spec::specs(Scale::Frozen) {
                println!("workload {}: {}", s.name, s.why);
            }
            for m in &spec::END_TO_END {
                let (better, bound) = (m.better.as_str(), m.bound * 100.0);
                println!(
                    "end_to_end {} [{}] {better} is better, bound {bound}%",
                    m.name, m.unit
                );
            }
            for m in &spec::PER_LAYER {
                println!(
                    "per_layer {} [{}] {} is better",
                    m.name,
                    m.unit,
                    m.better.as_str()
                );
            }
            Ok(())
        }
        other => Err(format!(
            "unknown command {other:?}; one of run, trace, all, compare, list"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| dispatch(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("glbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::problem::{judge, run_unchecked, Rep};
    use crate::spec::{Better, END_TO_END, PER_LAYER};

    /// Seed of the smoke runs; neither the default nor the held-out one.
    const SMOKE_SEED: u64 = 7;

    #[test]
    fn zeroed_ranks_count_as_a_failed_rep_and_leave_the_timings() {
        let spec = spec::spec_named("pr-chromatic", Scale::Smoke).unwrap();
        let Input::Web { vertices, epsilon } = spec.input else {
            panic!("a web input")
        };
        let mut p = PageRankProblem::generate(vertices, epsilon, SMOKE_SEED);
        p.solve_oracle();

        let mut tally = Tally::new(1, true);
        tally.record(run_checked(&p, &spec, Variant::Plain));
        assert_eq!((tally.attempted(), tally.failures.len()), (1, 0));

        // The same rep again, but its result thrown away before the oracle
        // sees it: every rank zero.
        let (rep, mut after) = run_unchecked(&p, &spec, Variant::Plain).unwrap();
        for v in after.vertices().collect::<Vec<_>>() {
            *after.vertex_data_mut(v) = 0.0;
        }
        let verdict = judge(&p, &spec, &rep, &after);
        assert!(
            verdict.as_ref().is_err_and(|why| why.contains("L1 error")),
            "{verdict:?}"
        );
        tally.record(verdict.map(|_| rep));
        assert_eq!((tally.attempted(), tally.failures.len()), (2, 1));
        assert_eq!(tally.samples(|r| r.time_to_fixpoint_s).len(), 1);
    }

    #[test]
    fn a_chromatic_rep_with_another_update_count_fails() {
        let spec = spec::spec_named("pr-chromatic", Scale::Smoke).unwrap();
        let Input::Web { vertices, epsilon } = spec.input else {
            panic!("a web input")
        };
        let p = PageRankProblem::generate(vertices, epsilon, SMOKE_SEED);
        let rep = || run_unchecked(&p, &spec, Variant::Plain).map(|(rep, _)| rep);
        let mut tally = Tally::new(1, true);
        tally.record(rep());
        tally.record(rep());
        assert_eq!(
            tally.failures.len(),
            0,
            "exact counts are exact: {:?}",
            tally.failures
        );
        let mut off = rep().unwrap();
        off.metrics.updates += 1;
        tally.record(Ok(off));
        assert_eq!((tally.attempted(), tally.failures.len()), (3, 1));
    }

    #[test]
    fn a_sample_is_the_mean_over_a_round_and_a_failed_rep_voids_its_round() {
        let spec = spec::spec_named("pr-locking", Scale::Smoke).unwrap();
        let Input::Web { vertices, epsilon } = spec.input else {
            panic!("a web input")
        };
        let p = PageRankProblem::generate(vertices, epsilon, SMOKE_SEED);
        let rep = |slowdown: f64| {
            run_unchecked(&p, &spec, Variant::Plain).map(|(rep, _)| Rep { slowdown, ..rep })
        };
        let mut tally = Tally::new(2, false);
        assert_eq!(tally.next_graph(), 0);
        tally.record(rep(1.0));
        assert_eq!(tally.next_graph(), 1);
        tally.record(Err("refused".into()));
        tally.record(rep(2.0));
        tally.record(rep(4.0));
        assert_eq!((tally.attempted(), tally.rounds()), (4, 2));
        assert_eq!(tally.samples(|r| r.slowdown), [3.0]);
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = spec::specs(Scale::Frozen).iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("é"));
    }

    /// `BENCHMARK.json` and the registries in `spec` say the same thing.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            file.get("paths").unwrap().items(),
            [Json::Str("glbench".into())]
        );
        assert_eq!(
            file.get("run_seconds").unwrap().as_f64(),
            Some(spec::DEFAULT_SECONDS)
        );

        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = file
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = spec::specs(Scale::Frozen)
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let row = |m: &Json| (text(m, "name"), text(m, "unit"), text(m, "better"));
        let ours = |name: &str, unit: &str, better: Better| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_string(),
            )
        };
        let e2e = file.get("end_to_end").unwrap().items();
        assert_eq!(
            e2e.iter().map(row).collect::<Vec<_>>(),
            END_TO_END
                .iter()
                .map(|m| ours(m.name, m.unit, m.better))
                .collect::<Vec<_>>()
        );
        for (listed, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                listed.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        assert_eq!(
            file.get("per_layer")
                .unwrap()
                .items()
                .iter()
                .map(row)
                .collect::<Vec<_>>(),
            PER_LAYER
                .iter()
                .map(|m| ours(m.name, m.unit, m.better))
                .collect::<Vec<_>>()
        );
    }

    /// All five workloads end to end at a few hundred vertices, untraced
    /// and traced. One test, so that the loopback meshes (four and more in
    /// this one process) never compete for a port with another test.
    #[test]
    fn smoke_of_all_five_workloads() {
        let mut measured: Vec<&str> = Vec::new();
        for spec in spec::specs(Scale::Smoke) {
            let run = run_workload(&spec, SMOKE_SEED, 0.01).unwrap();
            assert_eq!(
                (run.attempted, run.failed()),
                (MIN_ROUNDS * spec.graphs as u64, 0),
                "{}: {:?}",
                spec.name,
                run.failures
            );
            let emitted: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, END_TO_END.map(|m| m.name), "{}", spec.name);
            for m in &run.metrics {
                assert!(
                    m.median() > 0.0,
                    "{} {} = {}",
                    spec.name,
                    m.name,
                    m.median()
                );
            }

            let (t, runs) = layers::trace_spans(&spec, SMOKE_SEED, 0.3);
            assert!(
                runs.failures.is_empty(),
                "{}: {:?}",
                spec.name,
                runs.failures
            );
            measured.extend(
                PER_LAYER
                    .iter()
                    .map(|m| m.name)
                    .filter(|m| t.value(m).is_some()),
            );
        }
        // Every per-layer name is measured by some workload's trace, not
        // just listed.
        for m in &PER_LAYER {
            assert!(
                measured.contains(&m.name),
                "no traced run measures {}",
                m.name
            );
        }
    }
}
