//! perfbench — one command that runs a named workload of the serve or
//! research path in a single process, checks the program's outputs,
//! and prints every metric with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --repeat <N>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones (from a run that records spans around
//! every call into the program). `--repeat N` runs the workload in N
//! fresh processes on seeds n, n+1, … and prints each metric's median,
//! quartiles and spread against its bound in `BENCHMARK.json`.
//! A run whose outputs are wrong exits with code 1.

mod churn;
mod evolution;
mod json;
mod loopback;
mod repeat;
mod stats;
mod table2;
mod trace;
mod traffic;

use std::collections::BTreeMap;

/// Workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve-loopback", "serve-churn", "table2", "evolve"];

/// End-to-end metrics: measured by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("svc.bridge.poll_ns_per_frame", "ns"),
    ("svc.core.pump_ns_per_frame", "ns"),
    ("svc.bridge.syscalls_per_frame", "count"),
    ("svc.bridge.frames_per_recv_batch", "count"),
    ("svc.bridge.backpressure_events", "count"),
    ("svc.core.publish_ns", "ns"),
    ("svc.core.publishes_per_frame", "count"),
    ("svc.control.vet_ms", "ms"),
    ("svc.control.apply_ms", "ms"),
    ("svc.latency_p99_us", "us"),
    ("gen.kernel_ns_per_frame", "ns"),
    ("packet.parse_ns", "ns"),
    ("packet.serialize_ns", "ns"),
    ("deploy.pick_ns_per_flow", "ns"),
    ("dplane.flow.touch_hit_ns", "ns"),
    ("dplane.flow.create_ns", "ns"),
    ("dplane.flow_setup_ns", "ns"),
    ("dplane.cache.lookup_ns", "ns"),
    ("dplane.cache.hit_ratio", "ratio"),
    ("dplane.cache.lookups", "count"),
    ("dplane.program.apply_ns", "ns"),
    ("dplane.emitted_per_frame", "count"),
    ("dplane.flows_created", "count"),
    ("dplane.evicted_lru", "count"),
    ("dplane.flows_live", "count"),
    ("churn.stage_sum_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trial.ns_per_trial", "ns"),
    ("trial.trials", "count"),
    ("trial.packets_per_trial", "count"),
    ("trial.censor_events_per_trial", "count"),
    ("evolve.evaluations", "count"),
    ("evolve.memo_hit_ratio", "ratio"),
    ("evolve.misses", "count"),
    ("evolve.static_reject_ratio", "ratio"),
    ("evolve.censor_reject_ratio", "ratio"),
    ("evolve.trials_spent", "count"),
    ("strata.genomes", "count"),
    ("strata.canonicalize_ns", "ns"),
    ("strata.lint_ns", "ns"),
    ("strata.censor_check_ns", "ns"),
    ("pool.speedup_2v1", "ratio"),
];

/// One run's settings.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (1u64, 10.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--repeat" => repeat = Some(value.parse::<usize>().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        usage()
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
    };
    if let Some(n) = repeat {
        std::process::exit(repeat::run(&cfg, n));
    }
    let outcome = match cfg.workload.as_str() {
        "serve-loopback" => loopback::run(&cfg),
        "serve-churn" => churn::run(&cfg),
        "table2" => table2::run(&cfg),
        _ => evolution::run(&cfg),
    };
    std::process::exit(print(&cfg, outcome));
}

/// Print the result line; returns the exit code.
fn print(cfg: &Config, mut outcome: Outcome) -> i32 {
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    outcome.check(outcome.attempted > 0, || {
        "no operation was attempted".into()
    });
    if !cfg.trace {
        for (name, _) in END_TO_END {
            let measured = outcome
                .values
                .get(name)
                .is_some_and(|v| v.is_finite() && *v > 0.0);
            outcome.check(measured, || {
                format!("end-to-end metric {name} was not measured")
            });
        }
    }
    for e in &outcome.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        0
    } else {
        1
    }
}
