//! `table2`: the paper's headline table, `harness::experiments::table2`
//! at a fixed trial count and base seed, on a one-worker pool.
//!
//! Per-trial simulation (`netsim`, `censor`, `endpoint`,
//! `geneva::Engine`) does nearly all the work here; no GA, static
//! analysis or serving code runs. Every call is checked against the
//! paper's published percentages: India, Iran and Kazakhstan cells
//! exactly (their censors are deterministic), China's cells within
//! [`BAND`] of the published value.
//!
//! The traced run replays every trial of the table one by one through
//! `harness::trial::run_trial_scratch` and checks that the replay's
//! success counts equal the table's, cell for cell.

use crate::stats::{sustained_rate, sustained_time, SetupTimer};
use crate::trace::{Spans, Tracer};
use crate::{Config, Outcome};
use appproto::AppProtocol;
use censor::Country;
use harness::experiments::table2::{table2, Table2};
use harness::seed::{cell_tag, derive_trial_seed};
use harness::trial::{run_trial_scratch, TrialConfig, TrialScratch};
use netsim::TraceEvent;
use std::time::Instant;

/// Trials per cell.
pub const TRIALS: u32 = 100;
/// Set-ups timed after every call.
const SETUP_BURST: usize = 50;
/// Base seed of every table (the Table 2 example's own seed).
pub const BASE_SEED: u64 = 2020;
/// Largest distance, in percentage points, between a China cell and
/// the paper's value: three binomial standard deviations at 100 trials
/// (at most 15 points) cover the sampling error of a calibrated model.
pub const BAND: f64 = 15.0;

/// The paper's Table 2 for China (percent), by strategy 0..=8, in the
/// column order DNS, FTP, HTTP, HTTPS, SMTP.
const PAPER_CHINA: [[f64; 5]; 9] = [
    [2.0, 3.0, 3.0, 3.0, 26.0],
    [89.0, 52.0, 54.0, 14.0, 70.0],
    [83.0, 36.0, 54.0, 55.0, 59.0],
    [26.0, 65.0, 4.0, 4.0, 23.0],
    [7.0, 33.0, 5.0, 5.0, 22.0],
    [15.0, 97.0, 4.0, 3.0, 25.0],
    [82.0, 55.0, 52.0, 54.0, 55.0],
    [83.0, 85.0, 54.0, 4.0, 66.0],
    [3.0, 47.0, 2.0, 3.0, 100.0],
];

/// The strategies the paper reports per country (0 = no evasion).
fn strategies_for(country: Country) -> &'static [u32] {
    match country {
        Country::China => &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        Country::India | Country::Iran => &[0, 8],
        Country::Kazakhstan => &[0, 8, 9, 10, 11],
    }
}

/// What the paper publishes for a measured cell, and how close the
/// reproduction must come: `(expected percent, allowed distance)`.
fn paper_cell(country: Country, id: u32, proto: AppProtocol) -> (f64, f64) {
    match country {
        Country::China => {
            let col = AppProtocol::all()
                .iter()
                .position(|&p| p == proto)
                .expect("known protocol");
            (PAPER_CHINA[id as usize][col], BAND)
        }
        // Every listed strategy evades these deterministic censors
        // always and no evasion never does. (The paper prints 2% for
        // India without evasion, a measurement artefact of its vantage
        // point; a deterministic Airtel model censors every attempt.)
        _ if id == 0 => (0.0, 0.0),
        _ => (100.0, 0.0),
    }
}

/// Every measured cell of the table: (country, strategy, protocol,
/// the cell's trial configuration, its seed tag), as the table lays
/// them out.
fn cells() -> Vec<(Country, u32, AppProtocol, TrialConfig, u64)> {
    let mut out = Vec::new();
    for country in Country::all() {
        let censored = country.censored_protocols();
        for &id in strategies_for(country) {
            let strategy = geneva::library::by_id(id).expect("library strategy");
            let strategy = std::sync::Arc::new(strategy);
            for proto in AppProtocol::all() {
                if censored.contains(&proto) {
                    let cfg = TrialConfig::new(country, proto, strategy.clone(), 0);
                    let tag = cell_tag(&format!("table2/{}/{id}/{proto}", country.name()));
                    out.push((country, id, proto, cfg, tag));
                }
            }
        }
    }
    out
}

/// Check one table against the paper; returns the cells checked.
fn check_table(out: &mut Outcome, table: &Table2) -> usize {
    out.check(table.truncated_trials() == 0, || {
        format!("{} trials hit the event cap", table.truncated_trials())
    });
    let mut checked = 0;
    for row in &table.rows {
        for &(proto, estimate) in &row.rates {
            let Some(estimate) = estimate else { continue };
            let (want, band) = paper_cell(row.country, row.strategy_id, proto);
            let got = estimate.rate() * 100.0;
            checked += 1;
            out.check((got - want).abs() <= band, || {
                format!(
                    "{} strategy {} {proto}: {got:.0}% against the paper's {want:.0}% (band {band})",
                    row.country.name(),
                    row.strategy_id
                )
            });
        }
    }
    checked
}

const NAMES: &[&str] = &["trial.run_trial_scratch"];
const TRIAL: usize = 0;

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    harness::pool::set_jobs(1);
    // Set-up: lay out every cell's trial configuration from the
    // strategy library, and the scratch the trials run in.
    let (mut setups, (layout, _)) = SetupTimer::start(|| (cells(), TrialScratch::new()));
    let expected_cells = layout.len();
    let trials_per_table = expected_cells as u64 * u64::from(TRIALS);

    let mut durations = Vec::new();
    let mut tables = 0u64;
    let mut tracer = cfg.trace.then(|| Tracer::new(NAMES));
    let (mut replayed, mut packets, mut censor_events) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    while tables == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let table = table2(TRIALS, BASE_SEED);
        durations.push(t.elapsed().as_secs_f64());
        tables += 1;
        setups.burst(SETUP_BURST);
        let checked = check_table(&mut out, &table);
        out.check(checked == expected_cells, || {
            format!("table has {checked} measured cells, expected {expected_cells}")
        });
        if let Some(tracer) = tracer.as_mut() {
            let mut scratch = TrialScratch::new();
            for (country, id, proto, cell, tag) in &layout {
                let mut successes = 0;
                for i in 0..TRIALS {
                    let mut c = cell.clone();
                    c.seed = derive_trial_seed(BASE_SEED, *tag, i);
                    tracer.trace_id = replayed;
                    let verdict = tracer.span(TRIAL, |_| run_trial_scratch(&c, &mut scratch));
                    successes += u32::from(verdict.evaded());
                    censor_events += verdict.censor_events;
                    packets += scratch
                        .trace()
                        .count(|e| matches!(e, TraceEvent::Sent { .. }))
                        as u64;
                    replayed += 1;
                }
                let row = table
                    .rows
                    .iter()
                    .find(|r| r.country == *country && r.strategy_id == *id)
                    .expect("row");
                let in_table = row
                    .rates
                    .iter()
                    .find(|(p, _)| p == proto)
                    .and_then(|(_, e)| *e)
                    .map(|e| e.successes);
                out.check(in_table == Some(successes), || {
                    format!(
                        "replay of {} strategy {id} {proto}: {successes} successes, table {in_table:?}",
                        country.name()
                    )
                });
            }
        }
    }
    out.attempted = tables * trials_per_table;
    out.failed = 0;
    // Each call is one window.
    let rates: Vec<f64> = durations
        .iter()
        .map(|d| trials_per_table as f64 / d)
        .collect();
    out.set("setup_s", setups.setup_s());
    out.set("ops_per_s", sustained_rate(&rates));
    out.set("latency_p50_us", sustained_time(&durations) * 1e6);
    out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    if let Some(tracer) = tracer {
        let n = replayed.max(1) as f64;
        out.set("trial.ns_per_trial", tracer.stat(TRIAL).mean_ns());
        out.set("trial.trials", replayed as f64);
        out.set("trial.packets_per_trial", packets as f64 / n);
        out.set("trial.censor_events_per_trial", censor_events as f64 / n);
        match tracer.write(&format!("table2-seed{}", cfg.seed)) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    out
}
