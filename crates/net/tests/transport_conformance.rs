//! Transport-conformance suite: the contract both fabric backends must
//! satisfy, run against each of them through one generic harness.
//!
//! The [`Endpoint`] promises the engines identical observable semantics
//! regardless of backend:
//!
//! - **per-channel FIFO**: messages from A to B arrive in send order,
//!   whatever their sizes and whatever other channels are doing;
//! - **receive semantics**: `recv_timeout` returns `Timeout` on an empty
//!   inbox (after roughly the requested wait), `try_recv` returns
//!   `Timeout` immediately;
//! - **self-sends** deliver through the local inbox and are charged zero
//!   network traffic;
//! - **graceful shutdown drains**: everything sent before a clean
//!   shutdown is still received afterwards;
//! - **stats charging**: sends are charged to the sender's row at the
//!   send point, receives to the receiver's row at actual delivery, both
//!   at `HEADER_BYTES + payload` per envelope.
//!
//! Every test body is written once against the endpoint and executed per
//! backend: SimNet at zero latency, SimNet under a jittery latency model
//! (delivery thread + clamp paths), and TcpNet over real localhost
//! sockets spanning genuinely concurrent mesh setup.

#![allow(
    clippy::disallowed_methods,
    reason = "the suite exercises the raw endpoint contract itself: sends, broadcasts and timed waits below the Batcher"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use graphlab_graph::MachineId;
use graphlab_net::cluster::HEADER_BYTES;
use graphlab_net::{Endpoint, LatencyModel, RecvError, SimNet, TcpConfig, TcpNet};

#[derive(Clone, Copy, Debug)]
enum Backend {
    SimZero,
    SimLatency,
    Tcp,
}

const BACKENDS: [Backend; 3] = [Backend::SimZero, Backend::SimLatency, Backend::Tcp];

/// Distinguishes clusters within one test process so a straggling socket
/// from an earlier cluster can never pass a later cluster's handshake.
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

/// Reserves `n` distinct localhost ports by binding ephemeral listeners,
/// then releasing them for the workers to re-bind (the parent/worker
/// port-allocation dance the spawn harness uses).
fn alloc_ports(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> =
        (0..n).map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0")).collect();
    listeners
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().expect("local addr").port()))
        .collect()
}

/// Builds an `n`-machine cluster on the given backend: its owner handles
/// (kept only to be dropped) and its endpoints. Callers must drop the
/// endpoints before the owners (the sim fabric's delivery thread only
/// exits once every endpoint is gone) — which `run_on` guarantees.
fn cluster(backend: Backend, n: usize) -> (Box<dyn std::any::Any>, Vec<Endpoint>) {
    match backend {
        Backend::SimZero => {
            let (net, eps) = SimNet::new(n, LatencyModel::ZERO);
            (Box::new(net), eps)
        }
        Backend::SimLatency => {
            let model = LatencyModel {
                fixed: Duration::from_micros(150),
                per_kib: Duration::from_micros(2),
                jitter: Duration::from_micros(80),
            };
            let (net, eps) = SimNet::with_seed(n, model, 0xC0FFEE);
            (Box::new(net), eps)
        }
        Backend::Tcp => {
            let peers = alloc_ports(n);
            let run_id = std::process::id() as u64 ^ (NEXT_RUN.fetch_add(1, Ordering::Relaxed) << 32);
            let handles: Vec<_> = (0..n)
                .map(|m| {
                    let cfg = TcpConfig::new(MachineId(m as u16), peers.clone(), run_id);
                    std::thread::spawn(move || TcpNet::connect(&cfg).expect("tcp mesh"))
                })
                .collect();
            let (nets, eps): (Vec<TcpNet>, Vec<Endpoint>) =
                handles.into_iter().map(|h| h.join().expect("mesh thread")).unzip();
            (Box::new(nets), eps)
        }
    }
}

/// Runs `body` once per backend with a fresh `n`-machine cluster,
/// tearing down endpoints before owners.
fn run_on(n: usize, body: impl Fn(Backend, &mut Vec<Endpoint>)) {
    for backend in BACKENDS {
        let (nets, mut eps) = cluster(backend, n);
        body(backend, &mut eps);
        drop(eps);
        drop(nets);
    }
}

/// Payload whose content encodes its sequence number, at a size that
/// cycles through empty / small / multi-KiB frames.
fn seq_payload(i: u32) -> Bytes {
    let len = match i % 4 {
        0 => 0,
        1 => 11,
        2 => 700,
        _ => 5000,
    };
    let mut v = i.to_le_bytes().to_vec();
    v.resize(4 + len, (i % 251) as u8);
    Bytes::from(v)
}

fn seq_of(env: &graphlab_net::Envelope) -> u32 {
    u32::from_le_bytes(env.payload[..4].try_into().expect("seq prefix"))
}

#[test]
fn per_channel_fifo_with_mixed_sizes() {
    run_on(2, |backend, eps| {
        const N: u32 = 200;
        for i in 0..N {
            eps[0].send(MachineId(1), (i % 7) as u16, seq_payload(i));
        }
        for want in 0..N {
            let env = eps[1]
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{backend:?}: lost message {want}: {e:?}"));
            assert_eq!(env.src, MachineId(0), "{backend:?}");
            assert_eq!(seq_of(&env), want, "{backend:?}: reordered");
            assert_eq!(env.kind, (want % 7) as u16, "{backend:?}: kind survived");
        }
    });
}

#[test]
fn concurrent_senders_preserve_each_channel() {
    run_on(3, |backend, eps| {
        const PER: u32 = 150;
        let e2 = eps.pop().expect("ep2");
        let e1 = eps.pop().expect("ep1");
        let senders: Vec<_> = [e1, e2]
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    for i in 0..PER {
                        ep.send(MachineId(0), 9, seq_payload(i));
                    }
                    ep // keep alive until both have sent
                })
            })
            .collect();
        let mut next = [0u32; 3];
        for _ in 0..2 * PER {
            let env = eps[0].recv_timeout(Duration::from_secs(10)).expect("all arrive");
            let src = env.src.index();
            assert_eq!(seq_of(&env), next[src], "{backend:?}: channel {src} reordered");
            next[src] += 1;
        }
        for s in senders {
            drop(s.join().expect("sender thread"));
        }
        assert_eq!(next[1], PER, "{backend:?}");
        assert_eq!(next[2], PER, "{backend:?}");
    });
}

#[test]
fn recv_timeout_and_try_recv_semantics() {
    run_on(2, |backend, eps| {
        // Empty inbox: try_recv is an immediate Timeout.
        assert!(
            matches!(eps[1].try_recv(), Err(RecvError::Timeout)),
            "{backend:?}: try_recv on empty inbox"
        );
        // recv_timeout waits roughly the requested time, then Timeout.
        let t0 = Instant::now();
        let r = eps[1].recv_timeout(Duration::from_millis(30));
        assert!(matches!(r, Err(RecvError::Timeout)), "{backend:?}: {r:?}");
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "{backend:?}: returned early ({waited:?})");
        assert!(waited < Duration::from_secs(5), "{backend:?}: overslept ({waited:?})");
        // A message that then arrives is delivered, not swallowed.
        eps[0].send(MachineId(1), 3, seq_payload(0));
        let env = eps[1].recv_timeout(Duration::from_secs(10)).expect("delivered");
        assert_eq!(env.kind, 3, "{backend:?}");
    });
}

#[test]
fn only_blocking_waits_are_charged_as_net_wait() {
    run_on(2, |backend, eps| {
        let wait = eps[1].net_wait_counter();
        let charged = || Duration::from_nanos(wait.load(Ordering::Relaxed));
        // A poll is not a wait, on an empty inbox or a full one.
        assert!(matches!(eps[1].try_recv(), Err(RecvError::Timeout)), "{backend:?}");
        eps[1].send(MachineId(1), 1, Bytes::new());
        eps[1].try_recv().expect("self-sends are in the inbox when send returns");
        assert_eq!(charged(), Duration::ZERO, "{backend:?}: try_recv charged as net-wait");
        // A receive that times out spent its whole timeout waiting.
        let r = eps[1].recv_timeout(Duration::from_millis(30));
        assert!(matches!(r, Err(RecvError::Timeout)), "{backend:?}: {r:?}");
        assert!(charged() >= Duration::from_millis(25), "{backend:?}: net-wait uncharged");
    });
}

#[test]
fn self_sends_deliver_locally_and_are_free() {
    run_on(2, |backend, eps| {
        eps[0].send(MachineId(0), 42, Bytes::from_static(b"loopback"));
        let env = eps[0].recv_timeout(Duration::from_secs(5)).expect("self-send delivers");
        assert_eq!(env.src, MachineId(0), "{backend:?}");
        assert_eq!(env.kind, 42, "{backend:?}");
        assert_eq!(&env.payload[..], b"loopback", "{backend:?}");
        let row = eps[0].stats().machine(MachineId(0));
        assert_eq!(row.bytes_sent, 0, "{backend:?}: self-send charged send bytes");
        assert_eq!(row.msgs_sent, 0, "{backend:?}");
        assert_eq!(row.bytes_received, 0, "{backend:?}: self-send charged delivery");
        assert_eq!(row.msgs_received, 0, "{backend:?}");
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_messages() {
    run_on(2, |backend, eps| {
        const N: u32 = 50;
        for i in 0..N {
            eps[0].send(MachineId(1), 5, seq_payload(i));
        }
        // Sender goes away cleanly right after its last send...
        let sender = eps.remove(0);
        drop(sender);
        // ...and the receiver still drains every message, in order.
        for want in 0..N {
            let env = eps[0]
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{backend:?}: dropped message {want} on shutdown: {e:?}"));
            assert_eq!(seq_of(&env), want, "{backend:?}");
        }
        // Nothing further arrives.
        assert!(
            matches!(eps[0].recv_timeout(Duration::from_millis(50)), Err(RecvError::Timeout)),
            "{backend:?}: phantom message after drain"
        );
    });
}

#[test]
fn stats_charge_sends_at_send_and_receives_at_delivery() {
    run_on(2, |backend, eps| {
        let payloads: [usize; 4] = [0, 13, 1024, 4096];
        let wire: u64 = payloads.iter().map(|&p| (HEADER_BYTES + p) as u64).sum();
        for &len in &payloads {
            eps[0].send(MachineId(1), 7, Bytes::from(vec![0xAB; len]));
        }
        // Send-side rows are charged at the send point, visible at once
        // from the sender's stats handle.
        let sent = eps[0].stats().machine(MachineId(0));
        assert_eq!(sent.msgs_sent, payloads.len() as u64, "{backend:?}");
        assert_eq!(sent.bytes_sent, wire, "{backend:?}: HEADER_BYTES + payload per envelope");
        // Receive-side rows are charged at actual delivery: after the
        // receiver has drained them, its stats handle shows them all.
        for _ in &payloads {
            eps[1].recv_timeout(Duration::from_secs(10)).expect("delivered");
        }
        let recvd = eps[1].stats().machine(MachineId(1));
        assert_eq!(recvd.msgs_received, payloads.len() as u64, "{backend:?}");
        assert_eq!(recvd.bytes_received, wire, "{backend:?}");
    });
}

#[test]
fn broadcast_reaches_every_other_machine() {
    run_on(4, |backend, eps| {
        eps[2].broadcast(11, &Bytes::from_static(b"to-all"));
        for (i, ep) in eps.iter().enumerate() {
            if i == 2 {
                assert!(
                    matches!(ep.try_recv(), Err(RecvError::Timeout)),
                    "{backend:?}: broadcast echoed to sender"
                );
                continue;
            }
            let env = ep.recv_timeout(Duration::from_secs(10)).expect("broadcast arrives");
            assert_eq!(env.src, MachineId(2), "{backend:?}");
            assert_eq!(env.kind, 11, "{backend:?}");
        }
    });
}
