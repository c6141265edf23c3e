//! `perfladder compare`: two sets of result files, one row per
//! (workload, end-to-end metric), judged by the benchmark's own bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::report::ResultsFile;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, and
    /// the second set is not better on every run: the data cannot say.
    Unresolved,
}

/// Judge the second sample (`b`) against the first (`a`) for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of the first set's median.
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse_by > metric.bound {
        return Verdict::Worse;
    }
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    if spread(a).max(spread(b)) <= metric.bound {
        return Verdict::Ok;
    }
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// workload → metric → one value per untraced result.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for p in paths {
        let file = ResultsFile::read(Path::new(p))?;
        for r in file.results.iter().filter(|r| !r.trace && !r.smoke) {
            for (name, m) in &r.end_to_end {
                out.entry(r.workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(m.value);
            }
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> ExitCode {
    // `A.json B.json`, or `A1 A2 … -- B1 B2 …`.
    let (a, b) = match args.iter().position(|s| s == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => (&args[..0], &args[..0]),
    };
    if a.is_empty() || b.is_empty() {
        eprintln!(
            "usage: perfladder compare A.json B.json | A1.json A2.json … -- B1.json B2.json …"
        );
        return ExitCode::from(2);
    }
    let (sa, sb) = match (load(a), load(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfladder compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<18} {:<20} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    let mut worse = 0;
    for (workload, metrics) in &sa {
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics.get(metric.name),
                sb.get(workload).and_then(|m| m.get(metric.name)),
            ) else {
                continue;
            };
            let verdict = judge(metric, va, vb);
            worse += usize::from(verdict == Verdict::Worse);
            let (qa, qb) = (quartiles(va), quartiles(vb));
            println!(
                "{:<18} {:<20} {:>13.4} {:>27} {:>13.4} {:>27} {:>+7.1}% {:>5.0}%  {}",
                workload,
                metric.name,
                median(va),
                format!("[{:.4}, {:.4}]", qa.0, qa.1),
                median(vb),
                format!("[{:.4}, {:.4}]", qb.0, qb.1),
                100.0 * (median(vb) - median(va)) / median(va),
                100.0 * metric.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if worse > 0 {
        println!("{worse} (workload, metric) pair(s) worse than the bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = metric(Better::Lower, 0.10);
        let tight = [100.0, 101.0, 99.0];
        assert_eq!(judge(&lower, &tight, &[104.0, 105.0, 103.0]), Verdict::Ok);
        assert_eq!(
            judge(&lower, &tight, &[112.0, 113.0, 111.0]),
            Verdict::Worse
        );
        // A big improvement is never "worse", whatever the direction.
        assert_eq!(judge(&lower, &tight, &[50.0, 51.0, 49.0]), Verdict::Ok);
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(judge(&higher, &tight, &[88.0, 89.0, 87.0]), Verdict::Worse);
        assert_eq!(judge(&higher, &tight, &[150.0, 151.0, 149.0]), Verdict::Ok);
        // Spread wider than the bound and overlapping samples: no verdict.
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(&lower, &noisy, &[85.0, 100.0, 120.0]),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(judge(&lower, &noisy, &[60.0, 70.0, 79.0]), Verdict::Ok);
    }
}
