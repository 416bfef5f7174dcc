//! `serve-churn`: the service core in-process, under flow churn and
//! hot reloads.
//!
//! Frames enter and leave `svc::Core::pump` as bytes through an
//! in-memory `PacketIo`, so the packet codec stays on the path. The
//! traffic is a stream of short five-frame flows from many distinct
//! clients, far more than the flow table holds, so every new flow
//! evicts the least recently used one. Every [`RELOAD_EVERY`] frames an
//! `svc::apply_config` hot reload swaps between rollout tables A and B.
//!
//! Input is generated in bounded chunks, each checked before the next
//! is made: every emission against the `geneva` interpreter under the
//! arm this file computes itself, and the flow counters against a
//! small LRU model run over the same arrival order.

use crate::stats::{median, percentile, sustained_rate, sustained_time, SetupTimer};
use crate::trace::{NoSpans, Spans, Tracer};
use crate::traffic::{self, ArmModel, FRAMES_PER_FLOW, SERVER, TABLE_A, TABLE_B};
use crate::{Config, Outcome};
use dplane::{DplaneConfig, FlowConfig, FlowTable, PacketIo, ProgramCache, SeedMode};
use geneva::Strategy;
use harness::deploy::{demo_geo_entries, RolloutTable};
use packet::{FlowKey, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use svc::{apply_config, vet_config, Core, CoreConfig};

/// Flows open at once; each step advances a random one by a frame.
const ACTIVE: usize = 256;
/// Frames per `Core::pump` call (the socket bridge's batch size).
const BATCH: usize = 64;
/// Frames per generated chunk.
const CHUNK: usize = BATCH * 64;
/// Frames between hot reloads.
const RELOAD_EVERY: u64 = 131_072;
/// Set-ups timed at every window boundary.
const SETUP_BURST: usize = 5;
/// Frames pumped before timing starts: enough five-frame flows to fill
/// the 65 536-flow table and put LRU eviction in steady state.
const WARMUP: u64 = 524_288;

struct Flow {
    client: [u8; 4],
    port: u16,
    isn: u32,
    sisn: u32,
    next: usize,
}

/// Seeded arrival order of frames from many overlapping short flows.
struct Arrivals {
    rng: StdRng,
    active: Vec<Flow>,
}

impl Arrivals {
    fn new(seed: u64) -> Arrivals {
        let mut rng = StdRng::seed_from_u64(seed);
        let active = (0..ACTIVE).map(|_| new_flow(&mut rng)).collect();
        Arrivals { rng, active }
    }

    fn next_frame(&mut self) -> Packet {
        let slot = self.rng.gen_range(0..ACTIVE);
        let flow = &mut self.active[slot];
        let pkt = traffic::flow_frame(flow.client, flow.port, flow.isn, flow.sisn, flow.next);
        flow.next += 1;
        if flow.next == FRAMES_PER_FLOW {
            self.active[slot] = new_flow(&mut self.rng);
        }
        pkt
    }
}

fn new_flow(rng: &mut StdRng) -> Flow {
    let prefix = traffic::CLIENT_PREFIXES[rng.gen_range(0..traffic::CLIENT_PREFIXES.len())];
    Flow {
        client: traffic::client_addr(prefix, rng.gen()),
        port: rng.gen_range(1024..65535),
        isn: rng.gen(),
        sisn: rng.gen(),
        next: 0,
    }
}

/// The benchmark's own model of the flow table: capacity-bounded LRU
/// over the canonical flow key, with exact idle expiry, recording the
/// arm each flow was classified into when it was (re)created.
struct LruModel {
    cap: usize,
    idle_timeout: u64,
    tick: u64,
    flows: HashMap<FlowKey, (u64, u64, Option<Arc<Strategy>>)>,
    by_tick: BTreeMap<u64, FlowKey>,
    created: u64,
    evicted_lru: u64,
    evicted_idle: u64,
}

impl LruModel {
    fn new(cfg: FlowConfig) -> LruModel {
        LruModel {
            cap: cfg.capacity,
            idle_timeout: cfg.idle_timeout,
            tick: 0,
            flows: HashMap::new(),
            by_tick: BTreeMap::new(),
            created: 0,
            evicted_lru: 0,
            evicted_idle: 0,
        }
    }

    /// The strategy the flow of `pkt` runs under after this frame.
    fn touch(&mut self, pkt: &Packet, now: u64, arms: &ArmModel) -> Option<Arc<Strategy>> {
        self.tick += 1;
        let key = pkt.flow_key();
        if let Some((tick, last_seen, strategy)) = self.flows.get_mut(&key) {
            if now - *last_seen <= self.idle_timeout {
                self.by_tick.remove(tick);
                *tick = self.tick;
                *last_seen = now;
                self.by_tick.insert(self.tick, key);
                return strategy.clone();
            }
            let (old, _, _) = self.flows.remove(&key).expect("present");
            self.by_tick.remove(&old);
            self.evicted_idle += 1;
        }
        if self.flows.len() >= self.cap {
            let (_, victim) = self.by_tick.pop_first().expect("table is full");
            self.flows.remove(&victim);
            self.evicted_lru += 1;
        }
        let client = if pkt.ip.src == SERVER {
            pkt.ip.dst
        } else {
            pkt.ip.src
        };
        let strategy = arms.arm(client);
        self.flows.insert(key, (self.tick, now, strategy.clone()));
        self.by_tick.insert(self.tick, key);
        self.created += 1;
        strategy
    }
}

/// One generated chunk: input frames as bytes and the expected
/// emissions as bytes, both flat with offsets.
#[derive(Default)]
struct Chunk {
    first_time: u64,
    input: Vec<u8>,
    input_at: Vec<(usize, usize)>,
    expected: Vec<u8>,
    expected_at: Vec<(usize, usize)>,
}

impl Chunk {
    fn fill(&mut self, arrivals: &mut Arrivals, model: &mut LruModel, arms: &ArmModel, now: u64) {
        self.first_time = now;
        self.input.clear();
        self.input_at.clear();
        self.expected.clear();
        self.expected_at.clear();
        for i in 0..CHUNK {
            let pkt = arrivals.next_frame();
            let strategy = model.touch(&pkt, now + i as u64, arms);
            let start = self.input.len();
            pkt.serialize_raw_into(&mut self.input);
            self.input_at.push((start, self.input.len()));
            for bytes in traffic::expected_emissions(strategy.as_ref(), &pkt) {
                let start = self.expected.len();
                self.expected.extend_from_slice(&bytes);
                self.expected_at.push((start, self.expected.len()));
            }
        }
    }

    fn frame(&self, i: usize) -> &[u8] {
        let (a, b) = self.input_at[i];
        &self.input[a..b]
    }
}

/// Frames as bytes in, emissions as bytes out: the packet codec runs
/// on both sides of the plane, as it does behind a socket.
#[derive(Default)]
struct ByteIo {
    next: usize,
    end: usize,
    first_time: u64,
    parse_errors: u64,
    out: Vec<u8>,
    out_at: Vec<(usize, usize)>,
}

struct BoundIo<'a> {
    chunk: &'a Chunk,
    io: &'a mut ByteIo,
}

impl PacketIo for BoundIo<'_> {
    fn recv(&mut self) -> Option<(u64, Packet)> {
        while self.io.next < self.io.end {
            let i = self.io.next;
            self.io.next += 1;
            match Packet::parse(self.chunk.frame(i)) {
                Ok(pkt) => return Some((self.io.first_time + i as u64, pkt)),
                Err(_) => self.io.parse_errors += 1,
            }
        }
        None
    }

    fn emit(&mut self, _now: u64, pkt: Packet) {
        let start = self.io.out.len();
        pkt.serialize_raw_into(&mut self.io.out);
        self.io.out_at.push((start, self.io.out.len()));
    }
}

fn core_config(rollout: RolloutTable) -> CoreConfig {
    CoreConfig {
        dplane: DplaneConfig {
            seed: SeedMode::PerFlow(0x0D1A),
            ..DplaneConfig::default()
        },
        server_addr: SERVER,
        protocol: appproto::AppProtocol::Http,
        geo: demo_geo_entries(),
        rollout,
    }
}

/// The program's set-up for serving: vet table A, build the core on
/// it, and install A's programs through the hot-reload path.
pub fn set_up() -> Core {
    let vetted = vet_config(
        TABLE_A,
        &harness::deploy::demo_geo_table(),
        appproto::AppProtocol::Http,
    );
    let (table, _) = vetted.table.expect("table A passes vetting");
    let core = Core::new(core_config(table));
    assert!(
        apply_config(&core.shared, TABLE_A).applied,
        "table A applies"
    );
    core
}

/// Compare a chunk's emissions with the interpreter's; returns the
/// number of mismatched emissions and notes the first few.
fn check_emissions(chunk: &Chunk, io: &ByteIo, errors: &mut Vec<String>) -> u64 {
    if io.out_at.len() != chunk.expected_at.len() {
        errors.push(format!(
            "chunk at frame {}: {} emissions, interpreter expects {}",
            chunk.first_time,
            io.out_at.len(),
            chunk.expected_at.len()
        ));
        return io.out_at.len().abs_diff(chunk.expected_at.len()) as u64;
    }
    let mut bad = 0;
    for (k, (&(a, b), &(c, d))) in io.out_at.iter().zip(&chunk.expected_at).enumerate() {
        if io.out[a..b] != chunk.expected[c..d] {
            bad += 1;
            if errors.len() < 5 {
                errors.push(format!(
                    "chunk at frame {}: emission {k} differs from the interpreter's",
                    chunk.first_time
                ));
            }
        }
    }
    bad
}

/// Span names of the staged replay.
const NAMES: &[&str] = &[
    "packet.parse",
    "dplane.flow.touch_hit",
    "dplane.flow.touch_create",
    "deploy.pick",
    "dplane.cache.get_or_verify",
    "dplane.program.apply",
    "packet.serialize",
    "svc.core.publish",
];
const PARSE: usize = 0;
const TOUCH_HIT: usize = 1;
const TOUCH_CREATE: usize = 2;
const PICK: usize = 3;
const CACHE: usize = 4;
const APPLY: usize = 5;
const SERIALIZE: usize = 6;
const PUBLISH: usize = 7;

/// The serving path taken apart: the same frames through the public
/// stage functions `Core::pump` composes — parse, flow-table touch
/// (rollout pick and program-cache lookup on creation), program apply,
/// serialize — and the per-batch snapshot publish.
struct Stages {
    flows: FlowTable,
    cache: ProgramCache,
    out_pkts: Vec<Packet>,
    scratch: Vec<Packet>,
    out: Vec<u8>,
    out_at: Vec<(usize, usize)>,
}

impl Stages {
    fn new() -> Stages {
        Stages {
            flows: FlowTable::new(FlowConfig::default()),
            cache: ProgramCache::new(),
            out_pkts: Vec::new(),
            scratch: Vec::new(),
            out: Vec::new(),
            out_at: Vec::new(),
        }
    }

    /// Mirror an accepted reload: pre-seed the cache with the table's
    /// vetted programs, as `apply_config` does for the core.
    fn reload(&mut self, text: &str) {
        let vetted = vet_config(
            text,
            &harness::deploy::demo_geo_table(),
            appproto::AppProtocol::Http,
        );
        for program in vetted.table.expect("vetted").1 {
            self.cache.insert(program);
        }
    }

    fn frame<S: Spans>(&mut self, sp: &mut S, core: &Core, bytes: &[u8], now: u64) {
        let pkt = sp
            .span(PARSE, |_| Packet::parse(bytes))
            .expect("generated frames parse");
        let outbound = pkt.ip.src == SERVER;
        let client = if outbound { pkt.ip.dst } else { pkt.ip.src };
        let Stages {
            flows,
            cache,
            out_pkts,
            scratch,
            ..
        } = self;
        let touch = sp.span_named(
            |sp| {
                flows.touch(pkt.flow_key(), now, || {
                    let strategy = sp.span(PICK, |_| {
                        core.shared
                            .rollout
                            .read()
                            .expect("rollout lock")
                            .pick(client)
                    });
                    let program =
                        strategy.and_then(|s| sp.span(CACHE, |_| cache.get_or_verify(&s).ok()));
                    (program, 0)
                })
            },
            |t| if t.created { TOUCH_CREATE } else { TOUCH_HIT },
        );
        match &touch.program {
            Some(program) => {
                flows.note_apply(touch.shard, program.key);
                sp.span(APPLY, |_| {
                    if outbound {
                        program.apply_outbound(&pkt, touch.seed, out_pkts, scratch);
                    } else {
                        program.apply_inbound(&pkt, touch.seed, out_pkts, scratch);
                    }
                });
            }
            None => {
                flows.note_pass(touch.shard);
                out_pkts.push(pkt);
            }
        }
        for emitted in self.out_pkts.drain(..) {
            let start = self.out.len();
            sp.span(SERIALIZE, |_| emitted.serialize_raw_into(&mut self.out));
            self.out_at.push((start, self.out.len()));
        }
    }

    fn chunk<S: Spans>(&mut self, sp: &mut S, core: &mut Core, chunk: &Chunk) {
        self.out.clear();
        self.out_at.clear();
        for i in 0..chunk.input_at.len() {
            self.frame(sp, core, chunk.frame(i), chunk.first_time + i as u64);
            if (i + 1) % BATCH == 0 {
                sp.span(PUBLISH, |_| core.publish());
            }
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, mut core) = SetupTimer::start(set_up);

    let arms_a = ArmModel::new(TABLE_A);
    let arms_b = ArmModel::new(TABLE_B);
    let mut on_a = true;
    let mut arrivals = Arrivals::new(cfg.seed);
    let mut model = LruModel::new(FlowConfig::default());
    let mut chunk = Chunk::default();
    let mut io = ByteIo::default();
    let mut errors = Vec::new();

    // Traced runs also replay each chunk stage by stage, with and
    // without spans.
    let mut traced = cfg
        .trace
        .then(|| (Stages::new(), Stages::new(), Tracer::new(NAMES)));
    if let Some((a, b, _)) = traced.as_mut() {
        a.reload(TABLE_A);
        b.reload(TABLE_A);
    }
    let (mut staged_traced_ns, mut staged_plain_ns, mut staged_frames) = (0.0, 0.0, 0u64);

    let mut pump_ns = Vec::new();
    let mut reload_ms = Vec::new();
    let mut vet_ms = Vec::new();
    let mut reloads_applied = 0u64;
    let (mut fed, mut pumped, mut emitted, mut mismatched) = (0u64, 0u64, 0u64, 0u64);
    // `Core::pump` publishes a snapshot on every call that moved a
    // frame.
    let mut publishes = 0u64;
    let (mut timed_frames, mut timed_ns) = (0u64, 0.0);
    let mut measure_from: Option<Instant> = None;
    // One window per reload period (131 072 frames, two flow-table
    // journal compactions), starting at this index of `pump_ns`.
    let mut window_from = 0usize;
    let (mut window_rates, mut window_medians) = (Vec::new(), Vec::new());

    loop {
        if fed >= WARMUP && measure_from.is_none() {
            measure_from = Some(Instant::now());
        }
        if let Some(t) = measure_from {
            if t.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }
        if fed > 0 && fed % RELOAD_EVERY == 0 {
            on_a = !on_a;
            let text = if on_a { TABLE_A } else { TABLE_B };
            let t = Instant::now();
            let vetted = vet_config(text, &core.shared.geo, core.shared.protocol);
            vet_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(vetted.applied, || "a rollout table failed vetting".into());
            let t = Instant::now();
            let applied = apply_config(&core.shared, text).applied;
            reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            reloads_applied += u64::from(applied);
            if let Some((a, b, _)) = traced.as_mut() {
                a.reload(text);
                b.reload(text);
            }
        }
        let arms = if on_a { &arms_a } else { &arms_b };
        chunk.fill(&mut arrivals, &mut model, arms, fed);

        io.out.clear();
        io.out_at.clear();
        io.next = 0;
        io.first_time = chunk.first_time;
        let timing = measure_from.is_some();
        for b in 0..CHUNK / BATCH {
            io.end = (b + 1) * BATCH;
            let mut bound = BoundIo {
                chunk: &chunk,
                io: &mut io,
            };
            let t = Instant::now();
            let n = core.pump(&mut bound);
            let ns = t.elapsed().as_nanos() as f64;
            pumped += n;
            publishes += u64::from(n > 0);
            if timing {
                pump_ns.push(ns);
                timed_ns += ns;
                timed_frames += n;
            }
        }
        fed += CHUNK as u64;
        if timing && fed % RELOAD_EVERY == 0 {
            let window = &pump_ns[window_from..];
            window_rates
                .push(window.len() as f64 * BATCH as f64 / window.iter().sum::<f64>() * 1e9);
            window_medians.push(median(window));
            window_from = pump_ns.len();
            setups.burst(SETUP_BURST);
        }
        emitted += io.out_at.len() as u64;
        mismatched += check_emissions(&chunk, &io, &mut errors);

        if let Some((plain, staged, tracer)) = traced.as_mut() {
            let t = Instant::now();
            plain.chunk(&mut NoSpans, &mut core, &chunk);
            staged_plain_ns += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            staged.chunk(tracer, &mut core, &chunk);
            staged_traced_ns += t.elapsed().as_nanos() as f64;
            staged_frames += CHUNK as u64;
            out.check(staged.out_at.len() == io.out_at.len(), || {
                "staged replay emitted a different number of frames than Core::pump".into()
            });
            let same = staged
                .out_at
                .iter()
                .zip(&io.out_at)
                .all(|(&(a, b), &(c, d))| staged.out[a..b] == io.out[c..d]);
            out.check(same, || {
                "staged replay differs from Core::pump byte for byte".into()
            });
        }
    }

    // Correctness: nothing lost, every emission as the interpreter
    // says, flow counters as the LRU model says, every reload applied.
    let report = core.offline_report();
    let totals = report.totals();
    out.check(pumped == fed, || {
        format!("fed {fed} frames, pump took {pumped}")
    });
    out.check(io.parse_errors == 0, || {
        format!("{} frames failed to parse", io.parse_errors)
    });
    out.check(mismatched == 0, || {
        format!("{mismatched} emissions differ from the interpreter: {errors:?}")
    });
    out.check(totals.flows_created == model.created, || {
        format!(
            "flows_created {} but the LRU model created {}",
            totals.flows_created, model.created
        )
    });
    out.check(totals.evicted_lru == model.evicted_lru, || {
        format!(
            "evicted_lru {} but the LRU model evicted {}",
            totals.evicted_lru, model.evicted_lru
        )
    });
    out.check(totals.evicted_idle == model.evicted_idle, || {
        format!(
            "evicted_idle {} but the LRU model expired {}",
            totals.evicted_idle, model.evicted_idle
        )
    });
    out.check(report.flows_live == model.flows.len(), || {
        format!(
            "flows_live {} but the LRU model holds {}",
            report.flows_live,
            model.flows.len()
        )
    });
    out.check(model.evicted_lru > 0, || {
        "the run never reached LRU eviction".into()
    });
    let reloads = reload_ms.len() as u64;
    out.check(reloads > 0 && reloads_applied == reloads, || {
        format!("{reloads_applied} of {reloads} reloads applied")
    });

    out.attempted = fed;
    out.failed = fed - pumped;
    out.set("setup_s", setups.setup_s());
    // Runs too short for a whole window report the whole phase.
    if window_rates.is_empty() {
        out.set("ops_per_s", timed_frames as f64 / timed_ns * 1e9);
        out.set("latency_p50_us", median(&pump_ns) / 1e3);
    } else {
        out.set("ops_per_s", sustained_rate(&window_rates));
        out.set("latency_p50_us", sustained_time(&window_medians) / 1e3);
    }
    out.set("svc.latency_p99_us", percentile(&pump_ns, 99.0) / 1e3);
    out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    out.set("svc.control.apply_ms", median(&reload_ms));
    out.set("svc.control.vet_ms", median(&vet_ms));

    if let Some((_, _, tracer)) = traced {
        let frames = staged_frames as f64;
        let pump_per_frame = timed_ns / timed_frames as f64;
        let stat = |n| tracer.stat(n);
        let create = stat(TOUCH_CREATE);
        let lookups = report.cache_hits + report.cache_misses;
        out.set("svc.core.pump_ns_per_frame", pump_per_frame);
        out.set("svc.core.publish_ns", stat(PUBLISH).mean_ns());
        out.set(
            "svc.core.publishes_per_frame",
            publishes as f64 / pumped as f64,
        );
        out.set("packet.parse_ns", stat(PARSE).mean_ns());
        out.set("packet.serialize_ns", stat(SERIALIZE).mean_ns());
        out.set("deploy.pick_ns_per_flow", stat(PICK).mean_ns());
        out.set("dplane.flow.touch_hit_ns", stat(TOUCH_HIT).mean_ns());
        out.set("dplane.flow.create_ns", create.mean_self_ns());
        out.set("dplane.flow_setup_ns", create.mean_ns());
        out.set("dplane.cache.lookup_ns", stat(CACHE).mean_ns());
        out.set("dplane.cache.lookups", lookups as f64);
        out.set(
            "dplane.cache.hit_ratio",
            report.cache_hits as f64 / lookups.max(1) as f64,
        );
        out.set("dplane.program.apply_ns", stat(APPLY).mean_ns());
        out.set("dplane.emitted_per_frame", emitted as f64 / pumped as f64);
        out.set("dplane.flows_created", totals.flows_created as f64);
        out.set("dplane.evicted_lru", totals.evicted_lru as f64);
        out.set("dplane.flows_live", report.flows_live as f64);
        out.set(
            "churn.stage_sum_ratio",
            tracer.covered_ns() / frames / pump_per_frame,
        );
        out.set(
            "trace.overhead_pct",
            (staged_traced_ns / staged_plain_ns - 1.0) * 100.0,
        );
        match tracer.write(&format!("serve-churn-seed{}", cfg.seed)) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    out
}
