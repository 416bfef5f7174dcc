//! Repeat mode: run one workload in N fresh processes, each on its
//! own seed, and report every metric's median, quartiles and spread
//! (interquartile distance as a share of the median) against the
//! metric's bound in `BENCHMARK.json`, so steadiness can be shown
//! again on any commit.

use crate::json::{self, Json};
use crate::stats::quartiles;
use crate::Config;
use std::collections::BTreeMap;
use std::process::Command;

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory when it is there.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect()
}

/// Run the repeats; returns the exit code (0 when every run was
/// correct, the failed share identical in all, and every spread but
/// `setup_s`'s within its bound).
pub fn run(cfg: &Config, n: usize) -> i32 {
    let exe = std::env::current_exe().expect("own executable");
    let bounds = bounds();
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for i in 0..n as u64 {
        let seed = cfg.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &cfg.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .output()
            .expect("run the workload");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let Ok(result) = json::parse(line) else {
            eprintln!(
                "seed {seed}: no result line (exit {:?})",
                output.status.code()
            );
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct = false;
            continue;
        };
        let correct = result.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct && output.status.success();
        let attempted = result.get("attempted").and_then(Json::num).unwrap_or(0.0);
        let failed = result.get("failed").and_then(Json::num).unwrap_or(0.0);
        shares.push((failed, attempted));
        let metrics = result
            .get("metrics")
            .and_then(Json::obj)
            .cloned()
            .unwrap_or_default();
        let mut row = Vec::new();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
            row.push(format!("{name}={value:.6}"));
            values
                .entry(name)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
        eprintln!(
            "seed {seed}: correct={correct} attempted={attempted} failed={failed} {}",
            row.join(" ")
        );
    }

    // The failed share must be exactly the same in every run.
    let same_share = shares
        .windows(2)
        .all(|w| w[0].0 * w[1].1 == w[1].0 * w[0].1);
    let mut steady = true;
    let mut summary = Vec::new();
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "unit", "median", "q1", "q3", "spread", "bound"
    );
    for (name, (unit, vals)) in &values {
        let (q1, med, q3) = quartiles(vals);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let bound = bounds.get(name).copied();
        let verdict = match bound {
            None => "-",
            Some(b) if spread <= b / 3.0 => "steady",
            Some(b) if spread <= b => "within bound",
            Some(_) => "OVER BOUND",
        };
        if bound.is_some_and(|b| spread > b) && name != "setup_s" {
            steady = false;
        }
        println!(
            "{name:<34} {unit:>6} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>6}  {verdict}",
            bound.map_or("-".to_string(), |b| b.to_string())
        );
        summary.push(format!(
            "\"{name}\":{{\"median\":{med},\"q1\":{q1},\"q3\":{q3},\"spread\":{spread},\"bound\":{}}}",
            bound.map_or("null".to_string(), |b| b.to_string())
        ));
    }
    println!(
        "{{\"workload\":\"{}\",\"runs\":{n},\"correct\":{all_correct},\"failed_share_identical\":{same_share},\"metrics\":{{{}}}}}",
        cfg.workload,
        summary.join(",")
    );
    i32::from(!(all_correct && same_share && steady))
}
