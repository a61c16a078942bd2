//! What a run reports: the samples of every metric, the failure count,
//! and the one-line summary the driver reads.

use crate::json::Json;
use crate::stats;

/// One metric's samples: one per successful rep for a timing, a single one
/// for a per-process or per-trace number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit: unit.into(),
            samples,
        }
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.samples)
    }
}

/// One workload's run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    /// Why each failed rep failed; their number is the run's `failed`.
    pub failures: Vec<String>,
    /// Update count of every successful rep (exact on chromatic workloads).
    pub updates: Vec<f64>,
    /// Every successful rep's distance from the oracle (PageRank: L1;
    /// ALS: relative train-RMSE gap).
    pub oracle_distance: Vec<f64>,
    /// Every sample's slowdown (`probe`): what its timings were divided by.
    pub host_slowdown: Vec<f64>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("updates", Json::nums(&self.updates)),
            ("oracle_distance", Json::nums(&self.oracle_distance)),
            ("host_slowdown", Json::nums(&self.host_slowdown)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let fields = Json::obj([
                                ("unit", Json::Str(m.unit.clone())),
                                ("median", Json::Num(m.median())),
                                ("min", Json::Num(stats::min(&m.samples))),
                                ("max", Json::Num(stats::max(&m.samples))),
                                ("n", Json::Num(m.samples.len() as f64)),
                                ("samples", Json::nums(&m.samples)),
                            ]);
                            (m.name.clone(), fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result: no number {key:?}"))
        };
        let nums = |v: Option<&Json>| -> Vec<f64> {
            v.map(|a| a.items().iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default()
        };
        let metrics = v
            .get("metrics")
            .ok_or("result: no \"metrics\"")?
            .fields()
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                Metric::new(name, unit, nums(m.get("samples")))
            })
            .collect();
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result: no \"workload\"")?
                .to_string(),
            seed: num("seed")? as u64,
            attempted: num("attempted")? as u64,
            failures: v
                .get("failures")
                .map(|a| {
                    a.items()
                        .iter()
                        .filter_map(Json::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            updates: nums(v.get("updates")),
            oracle_distance: nums(v.get("oracle_distance")),
            host_slowdown: nums(v.get("host_slowdown")),
            metrics,
        })
    }

    /// The last line of a run's standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, each metric at its median.
    pub fn summary_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let fields = Json::obj([
                                ("value", Json::Num(m.median())),
                                ("unit", Json::Str(m.unit.clone())),
                            ]);
                            (m.name.clone(), fields)
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print_table(&self) {
        for m in &self.metrics {
            print!("{} {} {} {}", self.workload, m.name, m.median(), m.unit);
            if m.samples.len() > 1 {
                print!(
                    "  (min {} max {} n={})",
                    stats::min(&m.samples),
                    stats::max(&m.samples),
                    m.samples.len()
                );
            }
            println!();
        }
        if !self.host_slowdown.is_empty() {
            println!(
                "{} host_slowdown {}  (min {} max {}; timings above are wall clock divided by it)",
                self.workload,
                stats::median(&self.host_slowdown),
                stats::min(&self.host_slowdown),
                stats::max(&self.host_slowdown)
            );
        }
        println!(
            "{} oracle_distance_max {}",
            self.workload,
            stats::max(&self.oracle_distance)
        );
        println!(
            "{} runs_failed/runs_attempted {}/{}",
            self.workload,
            self.failed(),
            self.attempted
        );
        for why in &self.failures {
            println!("{} failure: {why}", self.workload);
        }
    }
}

/// A set of runs (`glbench all`): what `compare` reads.
pub fn set_to_json(seed: u64, seconds: f64, runs: &[RunResult]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("machines", Json::Num(crate::spec::MACHINES as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "runs",
            Json::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}

pub fn set_from_json(v: &Json) -> Result<Vec<RunResult>, String> {
    v.get("runs")
        .ok_or("result set: no \"runs\"")?
        .items()
        .iter()
        .map(RunResult::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "pr-locking".into(),
            seed: 42,
            attempted: 6,
            failures: vec!["PageRank L1 error 1.000e0 exceeds 1.0e-4".into()],
            updates: vec![60123.0, 60007.0],
            oracle_distance: vec![0.000005, 0.000006],
            host_slowdown: vec![1.04, 1.31],
            metrics: vec![
                Metric::new("time_to_fixpoint_s", "s", vec![0.81234567, 0.79, 0.85]),
                Metric::new("peak_rss_mb", "MB", vec![153.25]),
            ],
        }
    }

    #[test]
    fn result_json_round_trips() {
        let set = set_to_json(42, 12.0, &[sample()]);
        let back = set_from_json(&Json::parse(&set.to_string()).unwrap()).unwrap();
        assert_eq!(back, vec![sample()]);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let line = Json::parse(&sample().summary_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let t = line
            .get("metrics")
            .unwrap()
            .get("time_to_fixpoint_s")
            .unwrap();
        assert_eq!(t.get("value").and_then(Json::as_f64), Some(0.81234567));
        assert_eq!(t.get("unit").and_then(Json::as_str), Some("s"));
    }
}
