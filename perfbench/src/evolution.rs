//! `evolve`: the genetic algorithm at the `cay evolve` configuration
//! (China/HTTP, population 120, 25 generations, seed 2020), with the
//! trial pool at one worker per core.
//!
//! It exercises the fitness memo, the `strata` lint and censor-model
//! prefilters, and work stealing over very uneven trial costs: a few
//! genomes' trials dominate the run. Each result is checked by the
//! method's counter identities, and its best strategy is re-evaluated
//! on fresh seeds.

use crate::stats::{median, sustained_rate, sustained_time, SetupTimer};
use crate::trace::{Spans, Tracer};
use crate::{Config, Outcome};
use appproto::AppProtocol;
use censor::Country;
use evolve::{EvolutionResult, FitnessCache, GaConfig, Genome};
use harness::trial::TrialConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use strata::censor_model::{check, CensorId};
use strata::LintContext;

/// The GA's master seed (the `cay evolve` default).
const GA_SEED: u64 = 2020;
/// Trials for re-evaluating the best strategy.
const RECHECK_TRIALS: u32 = 200;
/// A strategy "still evades" when it beats the 1-3% no-evasion
/// baseline of China/HTTP by a wide margin.
const RECHECK_MIN_RATE: f64 = 0.25;
/// Set-ups timed after every call.
const SETUP_BURST: usize = 100;
/// Seeded random genomes for the per-genome `strata` timings.
const GENOMES: usize = 2000;

const NAMES: &[&str] = &[
    "evolve.evolve_1_worker",
    "strata.canonicalize_strategy",
    "strata.lint_with_context",
    "strata.censor_model.check",
];
const EVOLVE_1: usize = 0;
const CANON: usize = 1;
const LINT: usize = 2;
const CHECK: usize = 3;

fn ga_config(jobs: usize) -> GaConfig {
    let mut config = GaConfig::new(Country::China, AppProtocol::Http, GA_SEED);
    config.population = 120;
    config.generations = 25;
    config.jobs = Some(jobs);
    config
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The method's own accounting, checked from outside.
fn check_result(out: &mut Outcome, config: &GaConfig, r: &EvolutionResult) -> u64 {
    let evaluations = (config.population * r.history.len()) as u64;
    out.check(r.cache_hits + r.cache_misses == evaluations, || {
        format!(
            "memo hits {} + misses {} != {evaluations} evaluations",
            r.cache_hits, r.cache_misses
        )
    });
    let simulated = r.cache_misses - r.static_rejects - r.censor_static_rejects;
    out.check(
        r.trials_spent == u64::from(config.trials_per_eval) * simulated,
        || {
            format!(
                "trials_spent {} != {} trials x {simulated} simulated misses",
                r.trials_spent, config.trials_per_eval
            )
        },
    );
    evaluations
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let jobs = cores();
    let config = ga_config(jobs);
    // Set-up: the GA's evaluator and its seeded first generation.
    let (mut setups, _) = SetupTimer::start(|| {
        let cache = FitnessCache::new(
            config.country,
            config.protocol,
            config.trials_per_eval,
            GA_SEED ^ 0xF17,
        )
        .with_jobs(jobs);
        let mut rng = StdRng::seed_from_u64(GA_SEED);
        let population: Vec<Genome> = (0..config.population)
            .map(|_| Genome::random(&mut rng))
            .collect();
        (cache, population)
    });

    let mut durations = Vec::new();
    let mut evaluations = 0u64;
    let mut first: Option<EvolutionResult> = None;
    let started = Instant::now();
    while durations.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let result = evolve::evolve(&config);
        durations.push(t.elapsed().as_secs_f64());
        evaluations += check_result(&mut out, &config, &result);
        setups.burst(SETUP_BURST);
        if first.is_none() {
            first = Some(result);
        }
    }
    let first = first.expect("ran once");

    // The best strategy, on seeds the GA never used, still evades.
    harness::pool::set_jobs(jobs);
    let recheck_seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    let trial = TrialConfig::new(
        config.country,
        config.protocol,
        first.best.strategy.clone(),
        0,
    );
    let rate = harness::success_rate(&trial, RECHECK_TRIALS, recheck_seed).rate();
    out.check(rate >= RECHECK_MIN_RATE, || {
        format!(
            "best strategy {} evades only {:.0}% on fresh seeds",
            first.best.strategy,
            rate * 100.0
        )
    });

    out.attempted = evaluations;
    out.failed = 0;
    // Each call is one window; every call makes the same evaluations.
    let per_call = evaluations as f64 / durations.len() as f64;
    let rates: Vec<f64> = durations.iter().map(|d| per_call / d).collect();
    out.set("setup_s", setups.setup_s());
    out.set("ops_per_s", sustained_rate(&rates));
    out.set("latency_p50_us", sustained_time(&durations) * 1e6);
    out.set("peak_rss_mb", crate::stats::peak_rss_mb());

    if cfg.trace {
        let misses = first.cache_misses.max(1) as f64;
        let evals = (first.cache_hits + first.cache_misses) as f64;
        out.set("evolve.evaluations", evals);
        out.set("evolve.memo_hit_ratio", first.cache_hits as f64 / evals);
        out.set("evolve.misses", first.cache_misses as f64);
        out.set(
            "evolve.static_reject_ratio",
            first.static_rejects as f64 / misses,
        );
        out.set(
            "evolve.censor_reject_ratio",
            first.censor_static_rejects as f64 / misses,
        );
        out.set("evolve.trials_spent", first.trials_spent as f64);

        // The pool: the same GA at one worker must give the same
        // result, bit for bit; its wall time per simulated trial is the
        // trial cost the GA pays.
        let mut tracer = Tracer::new(NAMES);
        let serial = tracer.span(EVOLVE_1, |_| evolve::evolve(&ga_config(1)));
        let one = tracer.stat(EVOLVE_1).total_ns / 1e9;
        out.check(
            serial.best.strategy.to_string() == first.best.strategy.to_string()
                && serial.history == first.history
                && serial.trials_spent == first.trials_spent
                && serial.cache_hits == first.cache_hits,
            || "evolve at 1 worker differs from evolve at the core count".into(),
        );
        out.set("pool.speedup_2v1", one / median(&durations));
        out.set(
            "trial.ns_per_trial",
            one * 1e9 / first.trials_spent.max(1) as f64,
        );
        out.set("trial.trials", first.trials_spent as f64);

        // Per-genome static analysis over seeded random genomes.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let genomes: Vec<Genome> = (0..GENOMES).map(|_| Genome::random(&mut rng)).collect();
        let ctx = LintContext {
            tcp_exchange: true,
            ..LintContext::default()
        };
        for (i, genome) in genomes.iter().enumerate() {
            tracer.trace_id = i as u64;
            let canon = tracer.span(CANON, |_| strata::canonicalize_strategy(&genome.strategy));
            std::hint::black_box(tracer.span(LINT, |_| strata::lint_with_context(&canon, &ctx)));
            std::hint::black_box(
                tracer.span(CHECK, |_| check(&strata::summarize(&canon), CensorId::Gfw)),
            );
        }
        out.set("strata.canonicalize_ns", tracer.stat(CANON).mean_ns());
        out.set("strata.lint_ns", tracer.stat(LINT).mean_ns());
        out.set("strata.censor_check_ns", tracer.stat(CHECK).mean_ns());
        out.set("strata.genomes", GENOMES as f64);
        match tracer.write(&format!("evolve-seed{}", cfg.seed)) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    out
}
