//! `cleanm-e2e compare A.json B.json`: B against the base A, per workload
//! and end-to-end metric, with the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{END_TO_END, EXACT_COUNTS};

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub other: f64,
    /// Why the pair is out of bounds, if it is.
    pub violation: Option<String>,
}

impl Finding {
    pub fn render(&self) -> String {
        let verdict = match &self.violation {
            Some(why) => format!("FAIL {why}"),
            None => "ok".to_string(),
        };
        // Every ratio with its base; a count of 0 on both sides has none.
        let ratio = if self.base == 0.0 {
            "      -".to_string()
        } else {
            format!("{:>7.4}", self.other / self.base)
        };
        format!(
            "{:<22} {:<28} A {:>14.6}  B {:>14.6}  B/A {ratio} (base A)  {verdict}",
            self.workload, self.metric, self.base, self.other
        )
    }
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn find_run<'a>(file: &'a Json, workload: &str, traced: bool) -> Option<&'a Json> {
    file.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced") == Some(&Json::Bool(traced))
    })
}

/// Compare every run of `a` with the same run in `b`. All end-to-end
/// metrics are lower-is-better: B fails when it exceeds A by more than the
/// metric's bound. `failed_share` must be 0 on both sides, and the exact
/// counts of the traced runs must be equal.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Finding>, String> {
    let runs = a
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("base file has no `runs` array")?;
    let mut findings = Vec::new();
    for base in runs {
        let workload = base
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload name")?;
        let traced = base.get("traced") == Some(&Json::Bool(true));
        let other = find_run(b, workload, traced)
            .ok_or_else(|| format!("{workload}: run missing from the second file"))?;
        let mut push = |name: &str, violation: &dyn Fn(f64, f64) -> Option<String>| {
            if let (Some(x), Some(y)) = (metric(base, name), metric(other, name)) {
                findings.push(Finding {
                    workload: workload.to_string(),
                    metric: name.to_string(),
                    base: x,
                    other: y,
                    violation: violation(x, y),
                });
            }
        };
        if traced {
            for name in EXACT_COUNTS {
                push(name, &|x, y| {
                    (x != y).then(|| "count must repeat exactly".to_string())
                });
            }
        } else {
            for m in END_TO_END {
                push(m.name, &|x, y| {
                    (y > x * (1.0 + m.bound))
                        .then(|| format!("worse by more than {:.0} %", m.bound * 100.0))
                });
            }
            push("failed_share", &|x, y| {
                (x != 0.0 || y != 0.0).then(|| "must be 0".to_string())
            });
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(p50: f64, peak: f64, setup: f64, failed: f64, shuffled: f64) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([(
            "runs",
            Json::Arr(vec![
                Json::obj([
                    ("workload", Json::str("fd.lineitem")),
                    ("traced", Json::Bool(false)),
                    (
                        "metrics",
                        Json::obj([
                            ("query_ms_floor", value(p50)),
                            ("peak_live_mb", value(peak)),
                            ("setup_s", value(setup)),
                            ("failed_share", value(failed)),
                        ]),
                    ),
                ]),
                Json::obj([
                    ("workload", Json::str("fd.lineitem")),
                    ("traced", Json::Bool(true)),
                    (
                        "metrics",
                        Json::obj([("exec.records_shuffled", value(shuffled))]),
                    ),
                ]),
            ]),
        )])
    }

    fn violations(a: &Json, b: &Json) -> Vec<String> {
        compare(a, b)
            .unwrap()
            .into_iter()
            .filter(|f| f.violation.is_some())
            .map(|f| f.metric)
            .collect()
    }

    #[test]
    fn bounds_are_per_metric_and_one_sided() {
        let base = file(100.0, 50.0, 1.0, 0.0, 4635.0);
        assert!(violations(&base, &base).is_empty());
        // 24 % slower, 14 % more memory, 24 % longer set-up: inside 25 %,
        // 15 % and 25 %.
        assert!(violations(&base, &file(124.0, 57.0, 1.24, 0.0, 4635.0)).is_empty());
        // Faster is never a violation.
        assert!(violations(&base, &file(50.0, 10.0, 0.1, 0.0, 4635.0)).is_empty());
        assert_eq!(
            violations(&base, &file(126.0, 58.0, 1.26, 0.0, 4635.0)),
            ["query_ms_floor", "peak_live_mb", "setup_s"]
        );
    }

    #[test]
    fn failures_and_count_drift_fail() {
        let base = file(100.0, 50.0, 1.0, 0.0, 4635.0);
        assert_eq!(
            violations(&base, &file(100.0, 50.0, 1.0, 0.01, 4636.0)),
            ["failed_share", "exec.records_shuffled"]
        );
        let missing = Json::obj([("runs", Json::Arr(vec![]))]);
        assert!(compare(&base, &missing).is_err());
    }
}
