//! A hung peer must not stall the healthy links of the poll fabric's
//! single driver thread, nor its shutdown. The tests have a binary of
//! their own and run one at a time, so nothing competes with the
//! ping-pong for the CPU.

use selsync_comm::{Payload, Transport};
use selsync_net::{
    decode_handshake, encode_handshake, PollTcpEndpoint, TcpFabricConfig, HANDSHAKE_BYTES,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Held for the whole of each test: the ping-pong's RTT bound must not
/// share the CPU with the other test's bulk sends.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Answer the SelSync preamble on a raw test-controlled socket, the
/// way a real acceptor would.
fn raw_handshake(conn: &mut TcpStream) {
    let mut preamble = [0u8; HANDSHAKE_BYTES];
    conn.read_exact(&mut preamble).unwrap();
    decode_handshake(&preamble).unwrap();
    conn.write_all(&encode_handshake()).unwrap();
}

/// A hung peer — its listener accepts into the backlog but nothing
/// ever echoes the handshake — with frames owed to it must not slow
/// the healthy links: the redial runs beside them, not in front.
#[test]
fn hung_peer_does_not_stall_healthy_links() {
    let _serial = one_at_a_time();
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let hung = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers: Vec<String> = [&l0, &l1, &hung]
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    // rank 2 answers the set-up dials of ranks 0 and 1, then hangs
    let answer = thread::spawn(move || {
        let conns: Vec<TcpStream> = (0..2)
            .map(|_| {
                let (mut s, _) = hung.accept().unwrap();
                raw_handshake(&mut s);
                s
            })
            .collect();
        (conns, hung)
    });
    let ranks: Vec<_> = [l0, l1]
        .into_iter()
        .enumerate()
        .map(|(rank, l)| {
            let mut config = TcpFabricConfig::new(rank, peers.clone());
            config.recv_timeout = Duration::from_secs(20);
            thread::spawn(move || PollTcpEndpoint::connect_with_listener(config, l).unwrap())
        })
        .collect();
    let mut eps: Vec<_> = ranks.into_iter().map(|h| h.join().unwrap()).collect();
    let (conns, _hung) = answer.join().unwrap();
    drop(conns); // rank 2 dies; its listener stays bound and silent

    let mut b = eps.pop().unwrap();
    let mut a = eps.pop().unwrap();
    let rounds = 200u64;
    let echo = thread::spawn(move || {
        for tag in 0..rounds {
            let m = b.recv_tagged(Some(0), tag).unwrap();
            b.send(0, tag, m.payload).unwrap();
        }
        b
    });
    let mut max_rtt = Duration::ZERO;
    for tag in 0..rounds {
        // frames owed to the hung peer keep its redial going
        a.send(2, tag, Payload::Control(tag)).unwrap();
        let t = Instant::now();
        a.send(1, tag, Payload::Flags(vec![1])).unwrap();
        a.recv_tagged(Some(1), tag).unwrap();
        max_rtt = max_rtt.max(t.elapsed());
        thread::sleep(Duration::from_millis(2));
    }
    let b = echo.join().unwrap();
    assert!(
        max_rtt < Duration::from_millis(20),
        "healthy-link max RTT {max_rtt:?} with a hung peer"
    );
    a.close();
    b.close();
}

/// A peer that is up but has stopped reading, owed more than the
/// loopback socket buffers hold, must not hold `close()` forever: the
/// shutdown flush gives up after `reconnect_timeout`, drops the frames
/// and FINs the link.
#[test]
fn close_is_bounded_when_a_peer_stops_reading() {
    let _serial = one_at_a_time();
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = vec![
        l0.local_addr().unwrap().to_string(),
        stalled.local_addr().unwrap().to_string(),
    ];
    let mut config = TcpFabricConfig::new(0, peers);
    let bound = Duration::from_secs(1);
    config.reconnect_timeout = bound;
    let answer = thread::spawn(move || {
        let (mut s, _) = stalled.accept().unwrap();
        raw_handshake(&mut s);
        s
    });
    let mut ep = PollTcpEndpoint::connect_with_listener(config, l0).unwrap();
    let conn = answer.join().unwrap(); // never read from again

    // 16 frames of 1 MiB: far more than the send and receive buffers of
    // a loopback connection whose reader is asleep
    for tag in 0..16 {
        ep.send(1, tag, Payload::Grads(vec![0.5; 1 << 18])).unwrap();
    }
    let start = Instant::now();
    ep.close();
    let took = start.elapsed();
    assert!(
        took >= bound - Duration::from_millis(100),
        "close returned in {took:?}: the socket buffers took the whole queue"
    );
    assert!(took < bound + Duration::from_secs(2), "close took {took:?}");
    drop(conn);
}
