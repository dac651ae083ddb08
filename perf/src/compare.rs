//! `perf diff` and `perf noise`: the per-metric bounds applied to two
//! result documents, or to two interleaved sets of runs of one build.

use crate::json::Json;
use crate::spec::{Better, END_TO_END};
use crate::stats::median;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// How much worse `new` is than `old`, as a share of `old` (negative when
/// it is better).
fn worsening(old: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

fn metric_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.num("value")
}

fn failed_share(workload: &Json) -> Option<f64> {
    Some(workload.num("failed")? / workload.num("attempted")?.max(1.0))
}

/// One line per finding; empty when `new` is no worse than `old` by more
/// than each metric's bound and fails no larger share of its ops.
pub fn regressions(old: &BTreeMap<String, Json>, new: &BTreeMap<String, Json>) -> Vec<String> {
    let mut findings = Vec::new();
    for (name, old_w) in old {
        let Some(new_w) = new.get(name) else {
            findings.push(format!("{name}: missing from the new results"));
            continue;
        };
        for metric in END_TO_END {
            match (
                metric_value(old_w, metric.name),
                metric_value(new_w, metric.name),
            ) {
                (Some(a), Some(b)) => {
                    let worse = worsening(a, b, metric.better);
                    if worse > metric.bound {
                        findings.push(format!(
                            "{name} {}: {a} -> {b} {} is {:.1}% worse (bound {:.0}%)",
                            metric.name,
                            metric.unit,
                            worse * 100.0,
                            metric.bound * 100.0
                        ));
                    }
                }
                _ => findings.push(format!("{name} {}: not in both results", metric.name)),
            }
        }
        match (failed_share(old_w), failed_share(new_w)) {
            (Some(a), Some(b)) if b > a => {
                findings.push(format!("{name}: failed share of ops rose from {a} to {b}"))
            }
            (Some(_), Some(_)) => {}
            _ => findings.push(format!("{name}: attempted/failed not in both results")),
        }
    }
    findings
}

fn print_table(old: &BTreeMap<String, Json>, new: &BTreeMap<String, Json>, labels: (&str, &str)) {
    println!(
        "{:<13} {:<14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", labels.0, labels.1, "worse", "bound"
    );
    for (name, old_w) in old {
        for metric in END_TO_END {
            let a = metric_value(old_w, metric.name);
            let b = new.get(name).and_then(|w| metric_value(w, metric.name));
            if let (Some(a), Some(b)) = (a, b) {
                println!(
                    "{:<13} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%",
                    name,
                    metric.name,
                    a,
                    b,
                    worsening(a, b, metric.better) * 100.0,
                    metric.bound * 100.0
                );
            }
        }
    }
}

/// The `workloads` object of a document `perf run` printed.
fn load(path: &str) -> Result<BTreeMap<String, Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
    doc.get("workloads")
        .and_then(Json::as_obj)
        .cloned()
        .ok_or_else(|| {
            format!(
                "{path}: no \"workloads\" object; save the output of `perf run` without --workload"
            )
        })
}

pub fn diff_main(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("usage: perf diff OLD.json NEW.json".to_string());
    };
    let (old, new) = (load(old)?, load(new)?);
    print_table(&old, &new, ("old", "new"));
    let findings = regressions(&old, &new);
    for finding in &findings {
        println!("REGRESSION {finding}");
    }
    Ok(if findings.is_empty() {
        println!("no regression");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The per-workload, per-metric median of a set of runs, in the shape of
/// one run's `workloads` object.
fn medians(set: &[BTreeMap<String, Json>]) -> BTreeMap<String, Json> {
    let mut out = BTreeMap::new();
    for name in set[0].keys() {
        let of = |get: &dyn Fn(&Json) -> Option<f64>| -> Vec<f64> {
            set.iter().filter_map(|run| get(run.get(name)?)).collect()
        };
        let metrics = END_TO_END.iter().filter_map(|m| {
            let values = of(&|w| metric_value(w, m.name));
            (!values.is_empty()).then(|| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(median(&values))),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
        });
        let workload = Json::obj([
            ("metrics", Json::obj(metrics)),
            (
                "attempted",
                Json::Num(of(&|w| w.num("attempted")).iter().sum()),
            ),
            ("failed", Json::Num(of(&|w| w.num("failed")).iter().sum())),
        ]);
        out.insert(name.clone(), workload);
    }
    out
}

/// Runs `run_all` `2 · runs` times, alternating between set A and set B of
/// the same build, and fails when the two sets' medians differ by more
/// than a metric's bound in either direction.
pub fn noise_main(
    runs: usize,
    mut run_all: impl FnMut() -> Result<BTreeMap<String, Json>, String>,
) -> Result<ExitCode, String> {
    let runs = runs.max(3);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..runs {
        eprintln!("perf: noise pair {} of {runs}", i + 1);
        a.push(run_all()?);
        b.push(run_all()?);
    }
    let (a, b) = (medians(&a), medians(&b));
    print_table(&a, &b, ("median A", "median B"));
    let mut findings = regressions(&a, &b);
    findings.extend(regressions(&b, &a));
    for finding in &findings {
        println!("NOISY {finding}");
    }
    Ok(if findings.is_empty() {
        println!("A and B agree within every bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(ops_per_s: f64, p50: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        Json::obj([
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj(END_TO_END.iter().map(|m| {
                    (
                        m.name,
                        metric(match m.name {
                            "ops_per_s" => ops_per_s,
                            "op_ms_p50" => p50,
                            _ => 1.0,
                        }),
                    )
                })),
            ),
        ])
    }

    fn results(w: Json) -> BTreeMap<String, Json> {
        BTreeMap::from([("serve_scan".to_string(), w)])
    }

    #[test]
    fn bounds_are_applied_in_the_direction_that_is_worse() {
        let bound = |name: &str| crate::spec::end_to_end(name).unwrap().bound;
        let (within, beyond) = (|b: f64| b - 0.01, |b: f64| b + 0.01);
        let base = results(workload(1000.0, 1.0, 0.0));
        let count = |ops_per_s: f64, p50: f64| {
            regressions(&base, &results(workload(ops_per_s, p50, 0.0))).len()
        };
        assert_eq!(count(1000.0, 1.0), 0);
        // Higher is better: fewer ops/s fails beyond the bound, more never does.
        let b = bound("ops_per_s");
        assert_eq!(count(1000.0 * (1.0 - within(b)), 1.0), 0);
        assert_eq!(count(1000.0 * (1.0 - beyond(b)), 1.0), 1);
        assert_eq!(count(5000.0, 1.0), 0);
        // Lower is better.
        let b = bound("op_ms_p50");
        assert_eq!(count(1000.0, 1.0 + within(b)), 0);
        assert_eq!(count(1000.0, 1.0 + beyond(b)), 1);
        assert_eq!(count(1000.0, 0.2), 0);
    }

    #[test]
    fn a_higher_failed_share_or_a_missing_workload_is_a_regression() {
        let base = results(workload(1000.0, 1.0, 0.0));
        assert_eq!(
            regressions(&base, &results(workload(1000.0, 1.0, 1.0))).len(),
            1
        );
        assert_eq!(regressions(&base, &BTreeMap::new()).len(), 1);
    }

    #[test]
    fn set_medians_take_the_middle_run() {
        let set = [
            results(workload(900.0, 1.0, 0.0)),
            results(workload(1000.0, 3.0, 1.0)),
            results(workload(1100.0, 2.0, 0.0)),
        ];
        let m = medians(&set);
        let w = &m["serve_scan"];
        assert_eq!(metric_value(w, "ops_per_s"), Some(1000.0));
        assert_eq!(metric_value(w, "op_ms_p50"), Some(2.0));
        assert_eq!(w.num("attempted"), Some(3000.0));
        assert_eq!(w.num("failed"), Some(1.0));
    }
}
