//! `graphlab-node` — one GraphLab machine per OS process over real TCP
//! (worker), plus the spawn-N-processes harness (spawn). See the crate
//! docs ([`graphlab_node`]) and the repository README's "Running on real
//! sockets" section.
//!
//! ```text
//! graphlab-node spawn  --machines 4 --engine both [--vertices N] [--edges-per K]
//!                      [--seed S] [--epsilon E] [--check] [--bench FILE]
//! graphlab-node worker --machine M --peers HOST:PORT,... --run-id R
//!                      --engine chromatic|locking --out FILE [workload flags]
//!                      [--adopt] [--lease-ms T] [--die-after-ms T]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use graphlab_node::{
    parse_engine, run_worker, signal, spawn_cluster, EngineSel, SpawnOpts, WorkerOpts, Workload,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => cmd_worker(&args[1..]),
        Some("spawn") => cmd_spawn(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("graphlab-node: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  graphlab-node spawn  --machines N --engine chromatic|locking|both
                       [--vertices N] [--edges-per K] [--seed S] [--epsilon E]
                       [--check] [--bench FILE]
  graphlab-node worker --machine M --peers HOST:PORT,... --run-id R
                       --engine chromatic|locking --out FILE
                       [--vertices N] [--edges-per K] [--seed S] [--epsilon E]
                       [--adopt] [--lease-ms T] [--die-after-ms T]";

/// Pulls `--flag value` pairs out of `args`; unknown flags error.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !known.contains(&flag) {
                return Err(format!("unknown flag {flag:?}\n{USAGE}"));
            }
            if flag == "--check" || flag == "--adopt" {
                pairs.push((flag, "true"));
                i += 1;
                continue;
            }
            let value =
                args.get(i + 1).ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            pairs.push((flag, value.as_str()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.pairs.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    fn require(&self, flag: &str) -> Result<&'a str, String> {
        self.get(flag).ok_or_else(|| format!("missing required flag {flag}\n{USAGE}"))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(flag) {
            Some(v) => v.parse().map_err(|e| format!("{flag} {v:?}: {e}")),
            None => Ok(default),
        }
    }
}

fn workload_from(flags: &Flags<'_>) -> Result<Workload, String> {
    let d = Workload::default();
    Ok(Workload {
        vertices: flags.num("--vertices", d.vertices)?,
        edges_per: flags.num("--edges-per", d.edges_per)?,
        seed: flags.num("--seed", d.seed)?,
        alpha: d.alpha,
        epsilon: flags.num("--epsilon", d.epsilon)?,
    })
}

fn cmd_worker(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "--machine", "--peers", "--run-id", "--engine", "--out", "--vertices", "--edges-per",
            "--seed", "--epsilon", "--adopt", "--lease-ms", "--die-after-ms",
        ],
    )?;
    let machine: u16 = flags.require("--machine")?.parse().map_err(|e| format!("--machine: {e}"))?;
    let peers: Vec<String> =
        flags.require("--peers")?.split(',').map(str::to_string).collect();
    let opt_ms = |flag: &str| -> Result<Option<std::time::Duration>, String> {
        Ok(match flags.get(flag) {
            Some(v) => Some(std::time::Duration::from_millis(
                v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))?,
            )),
            None => None,
        })
    };
    let opts = WorkerOpts {
        machine,
        peers,
        run_id: flags.require("--run-id")?.parse().map_err(|e| format!("--run-id: {e}"))?,
        engine: parse_engine(flags.require("--engine")?)?,
        workload: workload_from(&flags)?,
        out: PathBuf::from(flags.require("--out")?),
        adopt: flags.get("--adopt").is_some(),
        lease: opt_ms("--lease-ms")?,
        die_after: opt_ms("--die-after-ms")?,
    };
    // From here the worker may block in mesh setup or the engine loop for
    // a while — SIGTERM/Ctrl-C must still tear it down cleanly.
    signal::install_watcher(format!("graphlab-node[m={machine}]"));
    let summary = run_worker(&opts)?;
    eprintln!("{summary}");
    Ok(())
}

fn cmd_spawn(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "--machines", "--engine", "--vertices", "--edges-per", "--seed", "--epsilon",
            "--check", "--bench",
        ],
    )?;
    let d = SpawnOpts::default();
    let opts = SpawnOpts {
        machines: flags.num("--machines", d.machines)?,
        engines: match flags.get("--engine") {
            Some(s) => EngineSel::parse(s)?,
            None => d.engines,
        },
        workload: workload_from(&flags)?,
        check_l1: if flags.get("--check").is_some() { Some(1e-9) } else { None },
        bench_out: flags.get("--bench").map(PathBuf::from),
    };
    spawn_cluster(&opts)?;
    Ok(())
}
