//! `glbench compare A.json B.json`: every workload × end-to-end metric of
//! two result sets against the benchmark's own bounds. A is the parent,
//! B the change.

use std::path::Path;

use crate::json::Json;
use crate::result::{set_from_json, RunResult};
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The medians agree within the bound, but a set's own reps spread
    /// wider than it: the sets cannot tell "unchanged" from "changed".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, signed as measured (not by which direction is worse).
    pub delta: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// By how much of A's median B is worse (negative when better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worsening(m, stats::median(a), stats::median(b));
    // A set without samples has a NaN median: a regression.
    if worse.is_nan() || worse > m.bound {
        Verdict::Regressed
    } else if stats::spread(a) > m.bound || stats::spread(b) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub fn compare(a: &[RunResult], b: &[RunResult]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for ra in a {
        let rb = b
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or_else(|| format!("{} is missing from the second set", ra.workload))?;
        for m in &END_TO_END {
            let samples = |r: &RunResult| {
                r.metric(m.name)
                    .map(|x| x.samples.clone())
                    .ok_or_else(|| format!("{}: no metric {}", r.workload, m.name))
            };
            let (sa, sb) = (samples(ra)?, samples(rb)?);
            let (ma, mb) = (stats::median(&sa), stats::median(&sb));
            let mut verdict = judge(m, &sa, &sb);
            if rb.failed() > ra.failed() {
                // A gain or a tie does not count when more reps fail.
                verdict = Verdict::Regressed;
            }
            rows.push(Row {
                workload: ra.workload.clone(),
                metric: m.name,
                a: ma,
                b: mb,
                delta: (mb - ma) / ma,
                bound: m.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

fn read_set(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    set_from_json(&Json::parse(&text)?).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare_files(a: &Path, b: &Path) -> Result<(), String> {
    let rows = compare(&read_set(a)?, &read_set(b)?)?;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<22} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.delta * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} regressed",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    match count(Verdict::Regressed) {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) regressed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let time = &EndToEnd {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
        };
        let rate = &EndToEnd {
            name: "r",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        let tight = [1.00, 1.01, 0.99, 1.00, 1.02];
        let scaled = |k: f64| tight.map(|x| x * k);
        assert_eq!(judge(time, &tight, &scaled(1.05)), Verdict::Ok);
        assert_eq!(judge(time, &tight, &scaled(1.15)), Verdict::Regressed);
        assert_eq!(judge(time, &tight, &scaled(0.50)), Verdict::Ok);
        assert_eq!(judge(rate, &tight, &scaled(0.85)), Verdict::Regressed);
        assert_eq!(judge(rate, &tight, &scaled(1.50)), Verdict::Ok);
        // Two of five reps +40 %: the median absorbs it, the range does not.
        let noisy = [1.00, 1.01, 0.99, 1.40, 1.41];
        assert_eq!(judge(time, &tight, &noisy), Verdict::Unresolved);
        assert_eq!(judge(time, &tight, &[]), Verdict::Regressed);
    }
}
