//! The serve workloads' shared inputs and their reference answers.
//!
//! Everything here is computed apart from the serving path: the arm a
//! client lands on comes from this file's own reading of the rollout
//! text (its own longest-prefix match and its own copy of the
//! documented A/B bucket hash), and the frames a flow should emit come
//! from the `geneva::Engine` interpreter, not from the compiled data
//! plane under test.

use geneva::{Engine, Strategy};
use packet::{Packet, TcpFlags};
use std::sync::Arc;

/// The protected origin server (outbound = frames from this address).
pub const SERVER: [u8; 4] = [93, 184, 216, 34];
pub const SERVER_PORT: u16 = 80;

/// Rollout table A. Every arm's strategy rewrites with `replace` only,
/// so its emissions do not depend on the per-flow corrupt seed and the
/// interpreter with any seed is an exact reference. China is an A/B
/// split with a 20% pass-through control arm; the second China arm
/// also rewrites the window of server data frames.
pub const TABLE_A: &str = "\
10.7.0.0/16 45 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/
10.7.0.0/16 35 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| [TCP:flags:PA]-tamper{TCP:window:replace:512}-| \\/
10.77.0.0/16 100 [TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| \\/
10.91.0.0/16 100 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/
10.98.0.0/16 100 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/
";

/// Rollout table B, the other side of the hot-reload alternation:
/// China's split reversed, Kazakhstan on null flags, Iran at 50%.
pub const TABLE_B: &str = "\
10.7.0.0/16 35 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| [TCP:flags:PA]-tamper{TCP:window:replace:512}-| \\/
10.7.0.0/16 45 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/
10.77.0.0/16 100 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/
10.91.0.0/16 100 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/
10.98.0.0/16 50 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/
";

/// Client /16s the workloads draw addresses from: the four listed
/// countries plus 10.200/16, which no rollout row covers.
pub const CLIENT_PREFIXES: [[u8; 2]; 5] = [[10, 7], [10, 77], [10, 91], [10, 98], [10, 200]];

const REQUEST: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n";
const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 96\r\n\r\n\
<html><body>come as you are: this page reached the client unmodified.</body></html>\n";

/// One rule row of the benchmark's own reading of a rollout table.
struct Row {
    net: u32,
    len: u8,
    /// (percent, strategy) in file order.
    arms: Vec<(u32, Arc<Strategy>)>,
}

/// The benchmark's independent model of a rollout table: which
/// strategy (or pass-through) each client gets.
pub struct ArmModel {
    rows: Vec<Row>,
}

impl ArmModel {
    /// Read a rollout text: `<a.b.c.d>/<len> <percent> <dsl>` rows,
    /// arms of one prefix in file order.
    pub fn new(text: &str) -> ArmModel {
        let mut rows: Vec<Row> = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (prefix, rest) = line.split_once(' ').expect("rollout row has a prefix");
            let (percent, dsl) = rest.split_once(' ').expect("rollout row has a percent");
            let (addr, len) = prefix.split_once('/').expect("prefix has a length");
            let octets: Vec<u8> = addr.split('.').map(|o| o.parse().expect("octet")).collect();
            let len: u8 = len.parse().expect("prefix length");
            let mask = if len == 0 {
                0
            } else {
                u32::MAX << (32 - u32::from(len))
            };
            let net = u32::from_be_bytes([octets[0], octets[1], octets[2], octets[3]]) & mask;
            let strategy = Arc::new(geneva::parse_strategy(dsl.trim()).expect("rollout DSL"));
            let percent: u32 = percent.parse().expect("percent");
            match rows.iter_mut().find(|r| r.net == net && r.len == len) {
                Some(row) => row.arms.push((percent, strategy)),
                None => rows.push(Row {
                    net,
                    len,
                    arms: vec![(percent, strategy)],
                }),
            }
        }
        ArmModel { rows }
    }

    /// The strategy a client address gets, `None` for pass-through
    /// (unlisted prefix or the control arm).
    pub fn arm(&self, client: [u8; 4]) -> Option<Arc<Strategy>> {
        let addr = u32::from_be_bytes(client);
        let row = self
            .rows
            .iter()
            .filter(|r| {
                let mask = if r.len == 0 {
                    0
                } else {
                    u32::MAX << (32 - u32::from(r.len))
                };
                addr & mask == r.net
            })
            .max_by_key(|r| r.len)?;
        let bucket = ab_bucket(client);
        let mut cumulative = 0;
        for (percent, strategy) in &row.arms {
            cumulative += percent;
            if bucket < cumulative {
                return Some(Arc::clone(strategy));
            }
        }
        None
    }
}

/// The A/B bucket of a client, as the rollout documentation defines
/// it: FNV-1a over the four address bytes, the splitmix64 finalizer,
/// then modulo 100.
fn ab_bucket(addr: [u8; 4]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % 100) as u32
}

/// Frames of one flow, in the order a client and server exchange
/// them: SYN, SYN+ACK, request, response, client ACK.
pub const FRAMES_PER_FLOW: usize = 5;

/// Build frame `index` (0..FRAMES_PER_FLOW) of the flow from
/// `client:port`; `isn`/`sisn` are the two sides' initial sequence
/// numbers.
pub fn flow_frame(client: [u8; 4], port: u16, isn: u32, sisn: u32, index: usize) -> Packet {
    let req = REQUEST.len() as u32;
    let resp = RESPONSE.len() as u32;
    let (out, flags, seq, ack, payload): (bool, TcpFlags, u32, u32, &[u8]) = match index {
        0 => (false, TcpFlags::SYN, isn, 0, b""),
        1 => (true, TcpFlags::SYN_ACK, sisn, isn + 1, b""),
        2 => (false, TcpFlags::PSH_ACK, isn + 1, sisn + 1, REQUEST),
        3 => (true, TcpFlags::PSH_ACK, sisn + 1, isn + 1 + req, RESPONSE),
        _ => (false, TcpFlags::ACK, isn + 1 + req, sisn + 1 + resp, b""),
    };
    data_frame(client, port, out, flags, seq, ack, payload)
}

/// A server data frame of a long-lived flow (`segment` picks the
/// sequence offset).
pub fn server_segment(client: [u8; 4], port: u16, isn: u32, sisn: u32, segment: u32) -> Packet {
    let req = REQUEST.len() as u32;
    let seq = sisn + 1 + segment * RESPONSE.len() as u32;
    data_frame(
        client,
        port,
        true,
        TcpFlags::PSH_ACK,
        seq,
        isn + 1 + req,
        RESPONSE,
    )
}

fn data_frame(
    client: [u8; 4],
    port: u16,
    outbound: bool,
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    payload: &[u8],
) -> Packet {
    let mut pkt = if outbound {
        Packet::tcp(
            SERVER,
            SERVER_PORT,
            client,
            port,
            flags,
            seq,
            ack,
            payload.to_vec(),
        )
    } else {
        Packet::tcp(
            client,
            port,
            SERVER,
            SERVER_PORT,
            flags,
            seq,
            ack,
            payload.to_vec(),
        )
    };
    pkt.finalize();
    pkt
}

/// The frames the serving path must emit for `pkt`, serialized as the
/// wire carries them: the interpreter's output under `strategy`, or
/// the frame itself when the flow passes through.
pub fn expected_emissions(strategy: Option<&Arc<Strategy>>, pkt: &Packet) -> Vec<Vec<u8>> {
    match strategy {
        None => vec![pkt.serialize_raw()],
        Some(strategy) => {
            let mut engine = Engine::new(Arc::clone(strategy), 0);
            let out = if pkt.ip.src == SERVER {
                engine.apply_outbound(pkt)
            } else {
                engine.apply_inbound(pkt)
            };
            out.iter().map(Packet::serialize_raw).collect()
        }
    }
}

/// A client address drawn from one of [`CLIENT_PREFIXES`].
pub fn client_addr(prefix: [u8; 2], host: u16) -> [u8; 4] {
    let [hi, lo] = host.to_be_bytes();
    [prefix[0], prefix[1], hi, lo]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_bucket_hash_agrees_with_the_rollout_table() {
        for host in 0..2000u16 {
            let addr = client_addr([10, 7], host);
            assert_eq!(ab_bucket(addr), u32::from(harness::deploy::ab_bucket(addr)));
        }
    }

    #[test]
    fn emissions_do_not_depend_on_the_corrupt_seed() {
        for text in [TABLE_A, TABLE_B] {
            let model = ArmModel::new(text);
            for host in 0..200u16 {
                for prefix in CLIENT_PREFIXES {
                    let client = client_addr(prefix, host);
                    let Some(strategy) = model.arm(client) else {
                        continue;
                    };
                    for index in 0..FRAMES_PER_FLOW {
                        let pkt = flow_frame(client, 40_000, 7, 9, index);
                        let mut engine = Engine::new(Arc::clone(&strategy), 0xdead_beef);
                        let other = if pkt.ip.src == SERVER {
                            engine.apply_outbound(&pkt)
                        } else {
                            engine.apply_inbound(&pkt)
                        };
                        let other: Vec<Vec<u8>> = other.iter().map(Packet::serialize_raw).collect();
                        assert_eq!(expected_emissions(Some(&strategy), &pkt), other);
                    }
                }
            }
        }
    }
}
