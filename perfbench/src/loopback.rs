//! `serve-loopback`: the live path over the host's loopback interface.
//!
//! Raw IPv4 frames travel in UDP datagrams over 127.0.0.1 through
//! `svc::Bridge` (epoll, `recvmmsg`/`sendmmsg`) and `svc::Core`. One
//! thread drives everything in lockstep — the load generator sends a
//! window of frames with one `sendmmsg`, the bridge is polled and the
//! core pumped, and the generator reads back every emission before the
//! next window — so batching does not depend on thread timing. The
//! window stays below the kernel's loss point (at the default receive
//! buffer, 192 or more frames in flight are dropped).
//!
//! A fixed set of long-lived flows spreads over the rollout's
//! prefixes, including the unlisted one and China's pass-through
//! control arm. Each flow opens with SYN, SYN+ACK and request, then
//! carries server data frames.

use crate::stats::{sustained_rate, sustained_time, weighted_percentile, SetupTimer};
use crate::trace::{NoSpans, Spans, Tracer};
use crate::traffic::{self, ArmModel, TABLE_A};
use crate::{Config, Outcome};
use dplane::{DplaneConfig, SeedMode};
use harness::deploy::demo_geo_entries;
use packet::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use svc::sys::{self, RecvArena, SendScratch, SyscallCounter};
use svc::{apply_config, vet_config, BackendChoice, Bridge, BridgeConfig, Core, CoreConfig};

/// Long-lived flows.
const FLOWS: usize = 256;
/// Frames in flight per lockstep round (one `sendmmsg`).
const WINDOW: usize = 64;
/// Distinct data segments per flow; the data phase cycles over them.
const SEGMENTS: u32 = 8;
/// Rounds per measurement window; the first window after the opening
/// phase is warm-up.
const WINDOW_ROUNDS: u64 = 512;
/// Set-ups timed at every window boundary (enough that the first, on
/// caches the traffic left cold, does not set the burst's median).
const SETUP_BURST: usize = 20;
/// A round that gets nothing back for this long has lost frames.
const STALL: Duration = Duration::from_millis(200);

/// A frame the generator sends, with the datagrams it must get back.
struct Frame {
    bytes: Vec<u8>,
    expect: Vec<Vec<u8>>,
    /// The benchmark's arm computation says this flow passes through.
    pass: bool,
}

/// The service side and the generator's socket, set up together.
pub struct Rig {
    core: Core,
    bridge: Bridge,
    gen: UdpSocket,
    bridge_addr: SocketAddrV4,
}

/// The program's set-up for serving on loopback: bind the bridge and
/// the generator socket, vet table A, build the core on it and install
/// A's programs through the hot-reload path.
pub fn set_up() -> Rig {
    let gen = UdpSocket::bind("127.0.0.1:0").expect("bind generator socket");
    gen.set_nonblocking(true).expect("nonblocking");
    let mut bridge = Bridge::bind(&BridgeConfig {
        udp: "127.0.0.1:0".parse().expect("addr"),
        tcp: None,
        upstream: gen.local_addr().expect("generator addr"),
        backend: BackendChoice::Epoll,
    })
    .expect("bind bridge");
    let vetted = vet_config(
        TABLE_A,
        &harness::deploy::demo_geo_table(),
        appproto::AppProtocol::Http,
    );
    let (table, _) = vetted.table.expect("table A passes vetting");
    let core = Core::new(CoreConfig {
        dplane: DplaneConfig {
            seed: SeedMode::PerFlow(0x0D1A),
            ..DplaneConfig::default()
        },
        server_addr: traffic::SERVER,
        protocol: appproto::AppProtocol::Http,
        geo: demo_geo_entries(),
        rollout: table,
    });
    assert!(
        apply_config(&core.shared, TABLE_A).applied,
        "table A applies"
    );
    bridge
        .attach_waker(core.shared.data_waker.clone())
        .expect("attach waker");
    let bridge_addr = match bridge.udp_addr().expect("bridge addr") {
        SocketAddr::V4(v4) => v4,
        SocketAddr::V6(_) => unreachable!("bound to 127.0.0.1"),
    };
    Rig {
        core,
        bridge,
        gen,
        bridge_addr,
    }
}

/// Every frame the run sends, in order of first use: the opening
/// phase (SYN, SYN+ACK, request per flow), then `SEGMENTS` server data
/// frames per flow, cycled. Emissions come from the interpreter under
/// the arm the benchmark computes from the rollout text.
fn frames(seed: u64) -> (Vec<Frame>, Vec<Frame>) {
    let arms = ArmModel::new(TABLE_A);
    let mut rng = StdRng::seed_from_u64(seed);
    let flows: Vec<([u8; 4], u16, u32, u32)> = (0..FLOWS)
        .map(|i| {
            // Round-robin over the prefixes so every arm is present.
            let prefix = traffic::CLIENT_PREFIXES[i % traffic::CLIENT_PREFIXES.len()];
            (
                traffic::client_addr(prefix, rng.gen()),
                rng.gen_range(1024..65535),
                rng.gen(),
                rng.gen(),
            )
        })
        .collect();
    let frame = |client: [u8; 4], pkt: Packet| {
        let arm = arms.arm(client);
        Frame {
            bytes: pkt.serialize_raw(),
            expect: traffic::expected_emissions(arm.as_ref(), &pkt),
            pass: arm.is_none(),
        }
    };
    let opening = flows
        .iter()
        .flat_map(|&(c, p, isn, sisn)| {
            (0..3).map(move |k| (c, traffic::flow_frame(c, p, isn, sisn, k)))
        })
        .map(|(c, pkt)| frame(c, pkt))
        .collect();
    let data = (0..SEGMENTS)
        .flat_map(|s| flows.iter().map(move |&f| (f, s)))
        .map(|((c, p, isn, sisn), s)| frame(c, traffic::server_segment(c, p, isn, sisn, s)))
        .collect();
    (opening, data)
}

const NAMES: &[&str] = &["gen.send", "svc.bridge.poll", "svc.core.pump", "gen.recv"];
const SEND: usize = 0;
const POLL: usize = 1;
const PUMP: usize = 2;
const RECV: usize = 3;

/// What a run of lockstep rounds saw.
#[derive(Default)]
struct Rounds {
    sent: u64,
    received: u64,
    lost: u64,
    mismatched: u64,
    refused: u64,
    pump_calls: u64,
    pass_frames: u64,
    pass_ok: u64,
    /// (microseconds since the window was handed to the kernel, frames
    /// whose last emission arrived then).
    latencies: Vec<(f64, u64)>,
    /// Per measured window: frames per second, and the median frame
    /// latency in microseconds.
    window_rates: Vec<f64>,
    window_medians: Vec<f64>,
}

/// Lockstep rounds until the opening phase is done and `seconds` are
/// up, with spans (traced run) or without.
fn rounds<S: Spans>(
    sp: &mut S,
    rig: &mut Rig,
    setups: &mut SetupTimer<impl FnMut() -> Rig>,
    opening: &[Frame],
    data: &[Frame],
    seconds: f64,
) -> Rounds {
    let Rig {
        core,
        bridge,
        gen,
        bridge_addr,
    } = rig;
    let gen_fd = gen.as_raw_fd();
    let ctr = SyscallCounter::new();
    let mut arena = RecvArena::new(WINDOW, 2048);
    let mut scratch = SendScratch::new();
    let mut r = Rounds::default();
    let mut next = 0usize;
    let started = Instant::now();
    let mut round = 0u64;
    // Start of the current window: time, frames sent, latency samples.
    let mut window_from: Option<(Instant, u64, usize)> = None;
    while next < opening.len() || started.elapsed().as_secs_f64() < seconds {
        let window: Vec<&Frame> = (next..next + WINDOW)
            .map(|i| {
                if i < opening.len() {
                    &opening[i]
                } else {
                    &data[(i - opening.len()) % data.len()]
                }
            })
            .collect();
        next += WINDOW;
        if round.is_multiple_of(WINDOW_ROUNDS) && next > opening.len() {
            if let Some((t, sent, lat)) = window_from {
                let elapsed = t.elapsed().as_secs_f64();
                r.window_rates.push((r.sent - sent) as f64 / elapsed);
                r.window_medians
                    .push(weighted_percentile(&mut r.latencies[lat..].to_vec(), 50.0));
                setups.burst(SETUP_BURST);
            }
            window_from = Some((Instant::now(), r.sent, r.latencies.len()));
        }
        round += 1;

        let t0 = Instant::now();
        let msgs: Vec<(SocketAddrV4, &[u8])> = window
            .iter()
            .map(|f| (*bridge_addr, f.bytes.as_slice()))
            .collect();
        let mut off = 0;
        while off < msgs.len() && t0.elapsed() < STALL {
            let n = sp.span(SEND, |_| {
                sys::send_batch(gen_fd, &mut scratch, &msgs[off..], &ctr)
            });
            off += n.unwrap_or(0);
        }
        r.refused += (msgs.len() - off) as u64;
        r.sent += WINDOW as u64;

        // Expected datagrams of this round, in order, each with the
        // frame that caused it; `last[k]` counts the datagrams up to
        // and including frame k's last one.
        let expect: Vec<(&Vec<u8>, &Frame)> = window
            .iter()
            .flat_map(|f| f.expect.iter().map(move |e| (e, *f)))
            .collect();
        let mut last = Vec::with_capacity(WINDOW);
        let mut acc = 0;
        for f in &window {
            acc += f.expect.len();
            last.push(acc);
        }
        let mut got = 0usize;
        let mut done_frames = 0usize;
        let mut idle_since = Instant::now();
        while got < expect.len() {
            if bridge.stats.frames_in < r.sent || bridge.pending_out() > 0 {
                sp.span(POLL, |_| bridge.poll());
                let n = sp.span(PUMP, |_| core.pump(bridge));
                r.pump_calls += u64::from(n > 0);
            }
            let n = sp
                .span(RECV, |_| sys::recv_batch(gen_fd, &mut arena, &ctr))
                .unwrap_or(0);
            if n == 0 {
                if idle_since.elapsed() > STALL {
                    break;
                }
                continue;
            }
            idle_since = Instant::now();
            let now_us = t0.elapsed().as_nanos() as f64 / 1e3;
            for (bytes, _) in arena.frames() {
                match expect.get(got) {
                    Some((want, _)) if bytes == want.as_slice() => {}
                    _ => r.mismatched += 1,
                }
                if let Some((_, frame)) = expect.get(got).filter(|(_, f)| f.pass) {
                    r.pass_frames += 1;
                    r.pass_ok += u64::from(bytes == frame.bytes.as_slice());
                }
                got += 1;
            }
            let before = done_frames;
            while done_frames < last.len() && last[done_frames] <= got {
                done_frames += 1;
            }
            if done_frames > before {
                r.latencies.push((now_us, (done_frames - before) as u64));
            }
        }
        r.received += got.min(expect.len()) as u64;
        r.lost += (WINDOW - done_frames) as u64;
    }
    if r.window_rates.is_empty() {
        // Too short for a whole window: the whole run is the window.
        let rate = r.sent as f64 / started.elapsed().as_secs_f64();
        r.window_rates.push(rate);
        r.window_medians
            .push(weighted_percentile(&mut r.latencies.clone(), 50.0));
    }
    r
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (opening, data) = frames(cfg.seed);
    let (mut setups, mut rig) = SetupTimer::start(set_up);
    let mut tracer = cfg.trace.then(|| Tracer::new(NAMES));
    let (o, d, secs) = (&opening, &data, cfg.seconds);
    let mut r = match tracer.as_mut() {
        Some(tracer) => rounds(tracer, &mut rig, &mut setups, o, d, secs),
        None => rounds(&mut NoSpans, &mut rig, &mut setups, o, d, secs),
    };
    out.set("setup_s", setups.setup_s());
    let Rig {
        mut core, bridge, ..
    } = rig;
    let stats = bridge.stats;
    let sent = r.sent;

    out.check(r.refused == 0, || {
        format!("the generator's socket refused {} frames", r.refused)
    });
    out.check(r.mismatched == 0, || {
        format!(
            "{} datagrams differ from the interpreter's emissions",
            r.mismatched
        )
    });
    out.check(r.lost == 0, || {
        format!("{} frames lost their emissions", r.lost)
    });
    out.check(stats.frames_in == sent, || {
        format!(
            "bridge took {} frames, generator sent {sent}",
            stats.frames_in
        )
    });
    out.check(stats.parse_errors == 0 && stats.unroutable == 0, || {
        format!(
            "parse_errors {} unroutable {}",
            stats.parse_errors, stats.unroutable
        )
    });
    out.check(r.pass_frames > 0 && r.pass_ok == r.pass_frames, || {
        format!(
            "{} of {} pass-through frames came back changed",
            r.pass_frames - r.pass_ok,
            r.pass_frames
        )
    });
    let report = core.offline_report();
    out.check(report.totals().flows_created == FLOWS as u64, || {
        format!(
            "{} flows created for {FLOWS} long-lived flows",
            report.totals().flows_created
        )
    });
    out.check(
        report.flows_live == FLOWS && report.totals().evicted_lru == 0,
        || "long-lived flows were evicted".into(),
    );

    out.attempted = sent;
    out.failed = r.lost;
    out.set("ops_per_s", sustained_rate(&r.window_rates));
    out.set("latency_p50_us", sustained_time(&r.window_medians));
    out.set(
        "svc.latency_p99_us",
        weighted_percentile(&mut r.latencies, 99.0),
    );
    out.set("peak_rss_mb", crate::stats::peak_rss_mb());

    if let Some(tracer) = tracer {
        let frames = sent as f64;
        let batches = stats.recv_batches.max(1) as f64;
        out.set(
            "svc.bridge.poll_ns_per_frame",
            tracer.stat(POLL).total_ns / frames,
        );
        out.set(
            "svc.core.pump_ns_per_frame",
            tracer.stat(PUMP).total_ns / frames,
        );
        out.set(
            "svc.bridge.syscalls_per_frame",
            stats.syscalls as f64 / frames,
        );
        out.set(
            "svc.bridge.frames_per_recv_batch",
            stats.frames_in as f64 / batches,
        );
        out.set(
            "svc.bridge.backpressure_events",
            stats.egress_backpressure_events as f64,
        );
        out.set("svc.core.publishes_per_frame", r.pump_calls as f64 / frames);
        let gen_ns = tracer.stat(SEND).total_ns + tracer.stat(RECV).total_ns;
        out.set("gen.kernel_ns_per_frame", gen_ns / frames);
        out.set("dplane.emitted_per_frame", r.received as f64 / frames);
        out.set("dplane.flows_created", report.totals().flows_created as f64);
        out.set("dplane.flows_live", report.flows_live as f64);

        // The publish and codec costs on this run's own state.
        let t = Instant::now();
        for _ in 0..1000 {
            core.publish();
        }
        out.set(
            "svc.core.publish_ns",
            t.elapsed().as_nanos() as f64 / 1000.0,
        );
        let all: Vec<&Frame> = opening.iter().chain(&data).collect();
        let t = Instant::now();
        let parsed: Vec<Packet> = all
            .iter()
            .map(|f| Packet::parse(&f.bytes).expect("generated frames parse"))
            .collect();
        out.set(
            "packet.parse_ns",
            t.elapsed().as_nanos() as f64 / all.len() as f64,
        );
        let mut buf = Vec::new();
        let t = Instant::now();
        for pkt in &parsed {
            buf.clear();
            pkt.serialize_raw_into(&mut buf);
            std::hint::black_box(&buf);
        }
        out.set(
            "packet.serialize_ns",
            t.elapsed().as_nanos() as f64 / parsed.len() as f64,
        );
        match tracer.write(&format!("serve-loopback-seed{}", cfg.seed)) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    out
}
