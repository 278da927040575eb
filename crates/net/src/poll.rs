//! The TCP fabric: a fully-connected mesh of processes (or threads)
//! speaking the [`codec`](crate::codec) wire format, with one driver
//! thread per rank.
//!
//! Topology: rank `i` listens on `peers[i]` and dials one outbound
//! connection to every other rank, so each ordered pair owns a
//! unidirectional frame stream. Every new connection opens with the
//! 8-byte protocol preamble ([`crate::codec::encode_handshake`]): each
//! side sends its own and validates the peer's, so a mixed-version
//! fleet (or a stranger speaking another protocol entirely) fails fast
//! instead of mis-parsing frames.
//!
//! [`PollTcpEndpoint`]'s single driver thread multiplexes every
//! connection:
//!
//! * every socket runs nonblocking. Between sweeps the driver sleeps in
//!   one `poll(2)` call over the listener, the inbound sockets, the
//!   outbound sockets with bytes queued, the dials in flight and a wake
//!   socket that [`Transport::send`] and teardown write to — off-CPU
//!   while the fabric is idle, awake within a syscall of any event;
//! * each outbound peer owns a **write backpressure queue**: frames a
//!   kernel send buffer will not take (`WouldBlock`) park in the queue
//!   with a byte offset into the partially-written front frame, and the
//!   driver resumes mid-frame once the socket turns writable —
//!   [`Transport::send`] never blocks the caller, exactly like the
//!   channel fabric;
//! * inbound connections parse incrementally: bytes accumulate in a
//!   per-connection buffer and complete handshakes/frames peel off as
//!   they arrive, so one slow peer trickling a large frame never stalls
//!   the others;
//! * dialing is a nonblocking state machine — connect (`EINPROGRESS`,
//!   then writable, then `SO_ERROR`), write our preamble, read the
//!   peer's echo — with a deadline per attempt and capped backoff
//!   between attempts, so a dead or hung peer never stalls a healthy
//!   link. Set-up and the redial of a broken link run the same machine:
//!   set-up waits for every link within `connect_timeout`, a broken
//!   link gets `reconnect_timeout`.
//!
//! Byte-level damage on an inbound connection — a torn frame, a CRC
//! mismatch, a hostile length prefix, a rejected handshake — is
//! surfaced as a typed [`LinkFault`] (peer address, stream byte offset
//! and a [`TransportError::Protocol`] error) and tallied in
//! [`CommStats::corrupt_messages`], then the connection is torn down: a
//! stream that has lost framing cannot be resynchronized, so the peer's
//! driver redials and the protocol retry layers absorb the loss.
//! Blocking receives never return these faults as errors — a damaged
//! frame behaves like a lost one (`RecvTimeout` + resend), so clean-link
//! behavior is unchanged.
//!
//! Only an exhausted budget, a version-mismatch handshake (which a
//! retry cannot fix) or shutdown gives a broken link up; sends to that
//! peer then surface as [`TransportError::PeerUnreachable`]. Shutdown
//! flushes what is queued to links that are up, for at most
//! `reconnect_timeout`: a peer that stopped reading then loses its
//! unsent frames and gets its FIN, so `close()` always returns.

use crate::codec::{
    decode_after_len, decode_handshake, encode_frame, encode_handshake, HANDSHAKE_BYTES,
};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use selsync_comm::{CommStats, Msg, Payload, Transport, TransportError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default ceiling on a single frame's declared size; a corrupted
/// length prefix fails fast instead of attempting a huge allocation.
/// Configurable per fabric via [`TcpFabricConfig::max_frame_bytes`].
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 30;

/// Cap on bytes read from one inbound connection per wake-up, so a
/// firehose peer cannot starve its neighbours.
const READ_CHUNK: usize = 256 * 1024;

/// Deadline for one dial attempt (connect, preamble, echo). A slower
/// attempt is dropped and retried after the backoff; nothing waits on
/// it meanwhile.
const DIAL_ATTEMPT: Duration = Duration::from_secs(1);

/// Backoff between dial attempts: doubles from the first value up to
/// the second.
const BACKOFF_MIN: Duration = Duration::from_millis(20);
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Configuration for one rank of a TCP fabric.
#[derive(Debug, Clone)]
pub struct TcpFabricConfig {
    /// This process's rank (index into `peers`).
    pub rank: usize,
    /// `host:port` of every rank, in rank order. `peers.len()` is the
    /// fabric size. Resolved once, at set-up.
    pub peers: Vec<String>,
    /// Budget for bringing up every outbound link at set-up (dial
    /// attempts retry with backoff inside it).
    pub connect_timeout: Duration,
    /// Watchdog for blocking receives: a `recv_*` that sees no matching
    /// message for this long returns [`TransportError::RecvTimeout`]
    /// (deadlock/peer-death detector).
    pub recv_timeout: Duration,
    /// Budget for re-establishing a *broken* established link (peer
    /// crashed and restarted, transient network fault). The driver
    /// redials with capped exponential backoff for this long before the
    /// peer is declared unreachable; failover protocols need this to
    /// survive a parameter-server restart without tearing the fabric
    /// down. It also bounds the flush at shutdown: frames a peer has
    /// not taken by then are dropped.
    pub reconnect_timeout: Duration,
    /// Ceiling on a single inbound frame's declared size. A length
    /// prefix above this — hostile or corrupt — is rejected as a
    /// [`LinkFault`] before any allocation is attempted.
    pub max_frame_bytes: usize,
}

impl TcpFabricConfig {
    /// Config with production-lenient timeouts.
    pub fn new(rank: usize, peers: Vec<String>) -> Self {
        TcpFabricConfig {
            rank,
            peers,
            connect_timeout: Duration::from_secs(30),
            recv_timeout: Duration::from_secs(300),
            reconnect_timeout: Duration::from_secs(15),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// A byte-level fault the driver detected on one inbound connection: a
/// frame torn mid-read, a CRC mismatch, a hostile length prefix, or a
/// rejected handshake. Distinguishes in-flight damage from a peer crash
/// (which shows up as a clean EOF or `PeerUnreachable` instead) in soak
/// and chaos logs.
#[derive(Debug, Clone)]
pub struct LinkFault {
    /// Remote address of the damaged connection.
    pub peer: SocketAddr,
    /// Bytes successfully consumed from this connection's stream
    /// before the fault (handshake included) — where in the stream the
    /// damage was detected.
    pub offset: u64,
    /// The typed error, always [`TransportError::Protocol`].
    pub error: TransportError,
}

fn link_fault(peer: SocketAddr, offset: u64, detail: &str) -> LinkFault {
    LinkFault {
        peer,
        offset,
        error: TransportError::Protocol(format!(
            "{detail} (peer {peer}, stream byte offset {offset})"
        )),
    }
}

/// What the driver feeds the endpoint's inbox: decoded messages, plus
/// typed fault reports the endpoint collects off to the side.
enum InboxEvent {
    Msg(Msg),
    Fault(LinkFault),
}

/// Bind `n` ephemeral loopback ports and connect a full mesh of
/// endpoints over them, one set-up thread per rank. `tune` adjusts each
/// rank's config (timeouts, frame cap) before it connects. Endpoints
/// come back in rank order.
///
/// # Errors
/// Bind failures, and the first rank's set-up failure.
pub fn loopback_mesh(
    n: usize,
    tune: impl Fn(&mut TcpFabricConfig),
) -> io::Result<Vec<PollTcpEndpoint>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let peers = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()?;
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let mut config = TcpFabricConfig::new(rank, peers.clone());
            tune(&mut config);
            thread::spawn(move || PollTcpEndpoint::connect_with_listener(config, listener))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .map_err(|_| io::Error::other("mesh set-up thread panicked"))?
        })
        .collect()
}

/// One rank's handle on the TCP fabric. Implements [`Transport`], so
/// the PS, collectives and trainer run over it unchanged.
pub struct PollTcpEndpoint {
    id: usize,
    n: usize,
    /// Frame queues into the driver; `None` at `id` (self-sends loop
    /// back through `inbox_tx`). The driver drops a peer's receiver
    /// when it gives the peer up, which surfaces here as
    /// `PeerUnreachable` on the next send.
    outbound: Vec<Option<Sender<Bytes>>>,
    inbox_tx: Sender<InboxEvent>,
    inbox: Receiver<InboxEvent>,
    pending: VecDeque<Msg>,
    faults: Vec<LinkFault>,
    stats: Arc<CommStats>,
    recv_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    /// Our end of the driver's wake socket: a byte written here ends
    /// the driver's readiness wait.
    waker: UnixStream,
    driver: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl PollTcpEndpoint {
    /// Bind `peers[rank]` and connect the mesh: dial every peer (with
    /// retry/backoff, so ranks may start in any order) while accepting
    /// theirs, and return once every outbound link is handshaken.
    ///
    /// The bind itself also retries within `connect_timeout`: the
    /// assigned port may be transiently occupied — typically as the
    /// ephemeral *source* port of someone else's outbound connection —
    /// and giving up immediately would strand the whole fabric waiting
    /// on this rank.
    ///
    /// # Errors
    /// Propagates bind/dial/handshake failures.
    pub fn connect(config: TcpFabricConfig) -> io::Result<PollTcpEndpoint> {
        let addr = config.peers[config.rank].as_str();
        let deadline = Instant::now() + config.connect_timeout;
        let listener = loop {
            match sys::bind_reuse(addr) {
                Ok(l) => break l,
                Err(e) if e.kind() == io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        };
        Self::connect_with_listener(config, listener)
    }

    /// Like [`connect`](Self::connect) but over a pre-bound listener —
    /// lets tests bind port 0 and exchange the real addresses first.
    ///
    /// # Errors
    /// Peer addresses that do not resolve, and dial/handshake failures:
    /// a peer still unreachable after `connect_timeout`, or one that
    /// speaks another protocol version (an `InvalidData` error wrapping
    /// [`crate::codec::FrameError`], recoverable via
    /// [`io::Error::get_ref`]).
    pub fn connect_with_listener(
        config: TcpFabricConfig,
        listener: TcpListener,
    ) -> io::Result<PollTcpEndpoint> {
        let n = config.peers.len();
        assert!(config.rank < n, "rank {} out of range 0..{n}", config.rank);
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let now = Instant::now();
        let mut outbound = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(n.saturating_sub(1));
        for (peer, name) in config.peers.iter().enumerate() {
            if peer == config.rank {
                outbound.push(None);
                continue;
            }
            let addr = name.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("peer {name} resolves to no address"),
                )
            })?;
            let (tx, rx) = unbounded::<Bytes>();
            outbound.push(Some(tx));
            links.push(OutboundConn::new(
                name.clone(),
                addr,
                rx,
                now,
                config.connect_timeout,
            ));
        }
        let (waker, wake) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let (inbox_tx, inbox) = unbounded::<InboxEvent>();
        let (setup_tx, setup_rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(CommStats::default());
        let driver = Driver {
            listener: (n > 1).then_some(listener),
            wake,
            wake_ready: true,
            listener_ready: true,
            inbound: Vec::new(),
            outbound: links,
            inbox: inbox_tx.clone(),
            shutdown: Arc::clone(&shutdown),
            stats: Arc::clone(&stats),
            max_frame: config.max_frame_bytes,
            reconnect_timeout: config.reconnect_timeout,
            flush_deadline: None,
            setup: Some(setup_tx),
        };
        let endpoint = PollTcpEndpoint {
            id: config.rank,
            n,
            outbound,
            inbox_tx,
            inbox,
            pending: VecDeque::new(),
            faults: Vec::new(),
            stats,
            recv_timeout: config.recv_timeout,
            shutdown,
            waker,
            driver: Some(thread::spawn(move || driver_loop(driver))),
            local_addr,
        };
        // on failure, dropping the endpoint tears the driver down
        match setup_rx.recv() {
            Ok(Ok(())) => Ok(endpoint),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(io::Error::other("fabric driver exited during set-up")),
        }
    }

    /// The address this rank's listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Byte-level faults the driver has reported so far (torn frames,
    /// CRC mismatches, hostile lengths, rejected handshakes), in arrival
    /// order. Drains freshly reported faults first, so a caller polling
    /// after an injected corruption sees it without an intervening
    /// receive.
    pub fn link_faults(&mut self) -> &[LinkFault] {
        while let Ok(ev) = self.inbox.try_recv() {
            match ev {
                InboxEvent::Msg(m) => {
                    self.stats.record_recv(m.payload.wire_bytes());
                    self.pending.push_back(m);
                }
                InboxEvent::Fault(f) => self.faults.push(f),
            }
        }
        &self.faults
    }

    /// Flush queued frames to every peer, close the outbound streams,
    /// and join the driver. The flush gets at most `reconnect_timeout`;
    /// frames a peer has not taken by then are dropped. Called
    /// implicitly on drop; explicit calls make shutdown ordering visible
    /// in launcher code.
    pub fn close(mut self) {
        self.teardown();
    }

    /// End the driver's readiness wait. A full wake socket already
    /// holds a pending wake-up, so `WouldBlock` is success.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }

    fn teardown(&mut self) {
        // Dropping the queues tells the driver to drain whatever is in
        // flight, then FIN each peer and exit; the shutdown flag stops
        // inbound reading and abandons links that are down.
        self.outbound.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake();
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }

    fn blocking_recv(
        &mut self,
        timeout: Duration,
        mut matches: impl FnMut(&Msg) -> bool,
    ) -> Result<Msg, TransportError> {
        if let Some(pos) = self.pending.iter().position(&mut matches) {
            if let Some(m) = self.pending.remove(pos) {
                return Ok(m);
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = match deadline.checked_duration_since(Instant::now()) {
                Some(d) => d,
                None => {
                    return Err(TransportError::RecvTimeout {
                        rank: self.id,
                        waited: timeout,
                        buffered: self.pending.len(),
                    })
                }
            };
            match self.inbox.recv_timeout(remaining) {
                Ok(InboxEvent::Msg(m)) => {
                    self.stats.record_recv(m.payload.wire_bytes());
                    if matches(&m) {
                        return Ok(m);
                    }
                    self.pending.push_back(m);
                }
                // a damaged frame behaves like a lost one: collect the
                // typed report and keep waiting — the caller's timeout
                // and resend layers handle the loss
                Ok(InboxEvent::Fault(f)) => self.faults.push(f),
                Err(RecvTimeoutError::Timeout) => continue, // errors above
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }
}

impl Transport for PollTcpEndpoint {
    fn id(&self) -> usize {
        self.id
    }

    fn fabric_size(&self) -> usize {
        self.n
    }

    fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        assert!(to < self.n, "destination {to} out of range");
        let bytes = payload.wire_bytes();
        if to == self.id {
            // loop back without touching a socket, like the channel
            // fabric's self-send
            self.inbox_tx
                .send(InboxEvent::Msg(Msg {
                    from: self.id,
                    tag,
                    payload,
                }))
                .map_err(|_| TransportError::Closed)?;
            self.stats.record(bytes);
            return Ok(());
        }
        let frame = encode_frame(self.id, tag, &payload);
        match self.outbound.get(to).and_then(|s| s.as_ref()) {
            None => return Err(TransportError::Closed),
            Some(tx) => tx
                .send(frame)
                .map_err(|_| TransportError::PeerUnreachable { peer: to })?,
        }
        self.wake();
        self.stats.record(bytes);
        Ok(())
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        self.blocking_recv(self.recv_timeout, |_| true)
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        self.blocking_recv(self.recv_timeout, |m| {
            m.tag == tag && from.is_none_or(|f| m.from == f)
        })
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        self.blocking_recv(timeout, |m| m.matches(from, tag))
    }

    fn try_recv(&mut self) -> Option<Msg> {
        if let Some(m) = self.pending.pop_front() {
            return Some(m);
        }
        loop {
            match self.inbox.try_recv().ok()? {
                InboxEvent::Msg(m) => {
                    self.stats.record_recv(m.payload.wire_bytes());
                    return Some(m);
                }
                InboxEvent::Fault(f) => self.faults.push(f),
            }
        }
    }
}

impl Drop for PollTcpEndpoint {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// One accepted inbound connection: its socket, an accumulation buffer
/// the incremental parser peels handshakes/frames off of, and the
/// not-yet-written tail of our handshake echo.
struct InboundConn {
    stream: TcpStream,
    peer: SocketAddr,
    /// Unparsed inbound bytes (at most a partial frame once parsing
    /// catches up).
    buf: Vec<u8>,
    /// Stream bytes fully parsed so far — the frame-boundary offset
    /// fault reports anchor to.
    offset: u64,
    handshaken: bool,
    /// The driver's last wait reported this socket ready (or it is new).
    ready: bool,
    /// Index of the socket in the driver's last wait set.
    poll_slot: Option<usize>,
    /// Bytes of our handshake echo written so far (opportunistically:
    /// the peer's dial waits on it, we must not block sending it).
    echo_off: usize,
}

/// State of one outbound link.
enum Link {
    /// Handshaken and carrying frames.
    Up(TcpStream),
    /// A dial attempt in flight.
    Dialing(Dial),
    /// Down; the next dial attempt starts at `retry_at`.
    Down { retry_at: Instant },
    /// FIN sent, or the peer given up on.
    Finished,
}

/// One nonblocking dial attempt: connect, write our preamble, read the
/// peer's echo.
struct Dial {
    stream: TcpStream,
    /// The driver's last wait reported this socket ready.
    ready: bool,
    /// The connect settled without a socket error.
    connected: bool,
    /// Bytes of our preamble written.
    sent: usize,
    echo: [u8; HANDSHAKE_BYTES],
    /// Bytes of the peer's echo read.
    got: usize,
    deadline: Instant,
}

impl Dial {
    /// The readiness that moves this attempt forward.
    fn interest(&self) -> i16 {
        if self.connected && self.sent == HANDSHAKE_BYTES {
            POLLIN
        } else {
            POLLOUT
        }
    }

    /// Advance the attempt as far as the socket allows without
    /// blocking: `Ok(true)` once the peer's echo checks out. A
    /// version-mismatched echo is an `InvalidData` error wrapping the
    /// [`crate::codec::FrameError`].
    fn advance(&mut self, now: Instant) -> io::Result<bool> {
        if !self.connected {
            if !self.ready {
                return self.pending(now);
            }
            if let Some(e) = self.stream.take_error()? {
                return Err(e);
            }
            self.connected = true;
        }
        let preamble = encode_handshake();
        while self.sent < HANDSHAKE_BYTES {
            match self.stream.write(&preamble[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.sent += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return self.pending(now),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while self.got < HANDSHAKE_BYTES {
            match self.stream.read(&mut self.echo[self.got..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed before echoing the handshake",
                    ))
                }
                Ok(k) => self.got += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return self.pending(now),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        decode_handshake(&self.echo)
            .map(|_| true)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Not done yet: fine until the attempt's deadline.
    fn pending(&self, now: Instant) -> io::Result<bool> {
        if now >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no handshake echo before the dial attempt's deadline",
            ));
        }
        Ok(false)
    }
}

/// One outbound peer: its link, the frames the endpoint queued, and the
/// redial budget for a link that is down.
struct OutboundConn {
    /// The peer as configured, for reports.
    name: String,
    /// The peer as resolved at set-up.
    addr: SocketAddr,
    link: Link,
    /// Frame source from the endpoint; dropped to signal
    /// `PeerUnreachable` once the peer is given up on.
    rx: Option<Receiver<Bytes>>,
    /// Backpressure queue: frames the socket would not take yet.
    queue: VecDeque<Bytes>,
    /// Bytes of the front frame already written (mid-frame resume).
    front_off: usize,
    /// The link has been up at least once (set-up is done for it).
    ever_up: bool,
    /// The current outage's budget and when it runs out.
    budget: Duration,
    give_up_at: Instant,
    backoff: Duration,
    /// Why the latest dial attempt failed, for the give-up report.
    last_error: Option<io::Error>,
    /// Index of the dial socket in the driver's last wait set.
    poll_slot: Option<usize>,
}

impl OutboundConn {
    /// A link that has never been up: dial at once, within `budget`.
    fn new(
        name: String,
        addr: SocketAddr,
        rx: Receiver<Bytes>,
        now: Instant,
        budget: Duration,
    ) -> OutboundConn {
        OutboundConn {
            name,
            addr,
            link: Link::Down { retry_at: now },
            rx: Some(rx),
            queue: VecDeque::new(),
            front_off: 0,
            ever_up: false,
            budget,
            give_up_at: now + budget,
            backoff: BACKOFF_MIN,
            last_error: None,
            poll_slot: None,
        }
    }

    /// Move every frame the endpoint has queued into the write queue;
    /// drop the receiver once the endpoint has hung up.
    fn drain_endpoint(&mut self) {
        let Some(rx) = &self.rx else { return };
        loop {
            match rx.try_recv() {
                Ok(frame) => self.queue.push_back(frame),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.rx = None;
                    return;
                }
            }
        }
    }

    /// Advance the link as far as its socket allows without blocking.
    /// `Err` carries why the peer must be given up on.
    fn step(&mut self, now: Instant, reconnect_timeout: Duration) -> io::Result<()> {
        self.link = match std::mem::replace(&mut self.link, Link::Finished) {
            Link::Up(mut stream) => {
                match flush(&mut stream, &mut self.queue, &mut self.front_off) {
                    Ok(()) => Link::Up(stream),
                    Err(_) => self.mark_broken(now, reconnect_timeout),
                }
            }
            Link::Dialing(mut dial) => match dial.advance(now) {
                Ok(true) => {
                    self.ever_up = true;
                    Link::Up(dial.stream)
                }
                Ok(false) => Link::Dialing(dial),
                // a version mismatch: retrying cannot help
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(e) => self.retry_later(now, e),
            },
            Link::Down { .. } if now >= self.give_up_at => {
                let last = self.last_error.take();
                return Err(io::Error::new(
                    last.as_ref()
                        .map_or(io::ErrorKind::TimedOut, io::Error::kind),
                    format!(
                        "dialing {} failed after {:?}: {}",
                        self.name,
                        self.budget,
                        last.map_or_else(|| "no attempt finished".to_string(), |e| e.to_string())
                    ),
                ));
            }
            Link::Down { retry_at } if now >= retry_at => {
                match sys::connect_nonblocking(&self.addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        Link::Dialing(Dial {
                            stream,
                            ready: false,
                            connected: false,
                            sent: 0,
                            echo: [0; HANDSHAKE_BYTES],
                            got: 0,
                            deadline: (now + DIAL_ATTEMPT).min(self.give_up_at),
                        })
                    }
                    Err(e) => self.retry_later(now, e),
                }
            }
            idle => idle,
        };
        Ok(())
    }

    /// The link just broke: rewind the partly written front frame so the
    /// next connection resends it whole, and arm the redial budget.
    /// Frames the dead kernel socket had already accepted are lost,
    /// which the protocol retry layers absorb.
    fn mark_broken(&mut self, now: Instant, budget: Duration) -> Link {
        self.front_off = 0;
        self.budget = budget;
        self.give_up_at = now + budget;
        self.backoff = BACKOFF_MIN;
        Link::Down { retry_at: now }
    }

    /// A dial attempt failed: back off before the next one.
    fn retry_later(&mut self, now: Instant, why: io::Error) -> Link {
        self.last_error = Some(why);
        let retry_at = now + self.backoff;
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
        Link::Down { retry_at }
    }

    /// When the driver must next look at this link without being woken
    /// by a socket: a dial deadline, a retry, or the end of the budget.
    fn timer(&self) -> Option<Instant> {
        match &self.link {
            Link::Dialing(dial) => Some(dial.deadline),
            Link::Down { retry_at } => Some((*retry_at).min(self.give_up_at)),
            Link::Up(_) | Link::Finished => None,
        }
    }
}

/// Write queued frames until the socket would block. `Err`: the link
/// broke.
fn flush(
    stream: &mut TcpStream,
    queue: &mut VecDeque<Bytes>,
    front_off: &mut usize,
) -> io::Result<()> {
    while let Some(front) = queue.front() {
        match stream.write(&front[*front_off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => {
                *front_off += k;
                if *front_off == front.len() {
                    queue.pop_front();
                    *front_off = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Everything the driver thread owns.
struct Driver {
    listener: Option<TcpListener>,
    /// The driver's end of the wake socket.
    wake: UnixStream,
    /// Readiness of the wake socket and the listener in the last wait.
    wake_ready: bool,
    listener_ready: bool,
    inbound: Vec<InboundConn>,
    outbound: Vec<OutboundConn>,
    inbox: Sender<InboxEvent>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<CommStats>,
    max_frame: usize,
    reconnect_timeout: Duration,
    /// Set when shutdown begins: frames still queued at this instant
    /// are dropped rather than waiting on a peer that stopped reading.
    flush_deadline: Option<Instant>,
    /// Tells `connect_with_listener` how set-up ended: `Ok` once every
    /// outbound link has come up, or the first link's failure. `None`
    /// once reported.
    setup: Option<Sender<io::Result<()>>>,
}

/// The driver thread: sweep every socket as far as it goes without
/// blocking — accept, read and parse inbound, drain the endpoint's
/// queues into the sockets, step the dial state machines — then sleep
/// in one readiness wait until a socket, the wake socket or the next
/// dial timer needs attention.
fn driver_loop(mut d: Driver) {
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let shutting = d.shutdown.load(Ordering::SeqCst);
        if d.wake_ready {
            let mut sink = [0u8; 64];
            while matches!((&d.wake).read(&mut sink), Ok(64)) {}
        }

        if !shutting {
            if d.listener_ready {
                d.accept();
            }
            let mut i = 0;
            while i < d.inbound.len() {
                if !d.inbound[i].ready {
                    i += 1;
                    continue;
                }
                let open = pump_inbound(
                    &mut d.inbound[i],
                    &mut chunk,
                    &d.inbox,
                    &d.stats,
                    d.max_frame,
                    &d.shutdown,
                );
                if open {
                    i += 1;
                } else {
                    d.inbound.swap_remove(i);
                }
            }
        }

        let now = Instant::now();
        if shutting && d.flush_deadline.is_none() {
            d.flush_deadline = Some(now + d.reconnect_timeout);
        }
        for i in 0..d.outbound.len() {
            d.pump_outbound(i, now, shutting);
        }
        if d.setup.is_some() && d.outbound.iter().all(|c| c.ever_up) {
            if let Some(setup) = d.setup.take() {
                let _ = setup.send(Ok(()));
            }
        }
        if shutting && d.outbound.iter().all(|c| matches!(c.link, Link::Finished)) {
            return;
        }

        let timeout = d.wait_set(&mut fds, shutting);
        if let Err(e) = sys::wait_ready(&mut fds, timeout) {
            eprintln!("selsync-net: readiness wait failed, fabric driver exiting: {e}");
            return;
        }
        d.note_ready(&fds);
    }
}

impl Driver {
    /// Take every pending inbound connection off the listener.
    fn accept(&mut self) {
        let Some(l) = &self.listener else { return };
        while let Ok((stream, peer)) = l.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.inbound.push(InboundConn {
                stream,
                peer,
                buf: Vec::new(),
                offset: 0,
                handshaken: false,
                ready: true,
                poll_slot: None,
                echo_off: 0,
            });
        }
    }

    /// Move outbound link `i` forward: queue the endpoint's frames, step
    /// the link, and FIN it once the endpoint is gone and everything is
    /// flushed. Once shutting down, a link that is not up is abandoned
    /// rather than redialed, and one still owed frames at the flush
    /// deadline has them dropped.
    fn pump_outbound(&mut self, i: usize, now: Instant, shutting: bool) {
        let conn = &mut self.outbound[i];
        if matches!(conn.link, Link::Finished) {
            return;
        }
        conn.drain_endpoint();
        if self.flush_deadline.is_some_and(|t| now >= t) {
            conn.queue.clear();
            conn.front_off = 0;
        }
        let stepped = if shutting && !matches!(conn.link, Link::Up(_)) {
            Err(io::Error::other("fabric shut down"))
        } else {
            conn.step(now, self.reconnect_timeout)
        };
        if let Err(why) = stepped {
            conn.link = Link::Finished;
            conn.rx = None;
            conn.queue.clear();
            conn.front_off = 0;
            if let Some(setup) = self.setup.take() {
                let _ = setup.send(Err(why));
            } else if !shutting {
                eprintln!("selsync-net: giving up on {}: {why}", conn.name);
            }
            return;
        }
        if conn.rx.is_none() && conn.queue.is_empty() {
            if let Link::Up(s) = &conn.link {
                let _ = s.shutdown(Shutdown::Write);
            }
            conn.link = Link::Finished;
        }
    }

    /// Fill `fds` with every socket that has work pending, and return
    /// how long the wait may last before a dial timer is due (`None`:
    /// indefinitely).
    fn wait_set(&mut self, fds: &mut Vec<PollFd>, shutting: bool) -> Option<Duration> {
        fds.clear();
        fds.push(PollFd::new(&self.wake, POLLIN));
        if !shutting {
            if let Some(l) = &self.listener {
                fds.push(PollFd::new(l, POLLIN));
            }
            for c in &mut self.inbound {
                let echo_owed = c.echo_off < HANDSHAKE_BYTES;
                c.poll_slot = Some(fds.len());
                fds.push(PollFd::new(
                    &c.stream,
                    if echo_owed { POLLIN | POLLOUT } else { POLLIN },
                ));
            }
        }
        for c in &mut self.outbound {
            c.poll_slot = None;
            match &c.link {
                Link::Up(s) if !c.queue.is_empty() => fds.push(PollFd::new(s, POLLOUT)),
                Link::Dialing(dial) => {
                    c.poll_slot = Some(fds.len());
                    fds.push(PollFd::new(&dial.stream, dial.interest()));
                }
                _ => {}
            }
        }
        let due = self
            .outbound
            .iter()
            .filter_map(OutboundConn::timer)
            .chain(self.flush_deadline)
            .min();
        due.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// Record what the wait on `fds` (built by [`Driver::wait_set`])
    /// reported, so the next sweep touches only sockets with news.
    fn note_ready(&mut self, fds: &[PollFd]) {
        let ready = |slot: Option<usize>| slot.is_some_and(|k| fds[k].ready());
        self.wake_ready = fds[0].ready();
        // the listener, when watched, sits right after the wake socket
        self.listener_ready = self.listener.is_some() && fds.get(1).is_some_and(PollFd::ready);
        for c in &mut self.inbound {
            c.ready = ready(c.poll_slot.take());
        }
        for c in &mut self.outbound {
            let slot = c.poll_slot.take();
            if let Link::Dialing(dial) = &mut c.link {
                dial.ready = ready(slot);
            }
        }
    }
}

/// Service one inbound connection: push our handshake echo, read
/// whatever the socket has (up to [`READ_CHUNK`]), and peel completed
/// handshakes/frames off the buffer. `false`: the connection is done
/// (clean EOF, fault, or the endpoint is gone).
fn pump_inbound(
    conn: &mut InboundConn,
    chunk: &mut [u8],
    inbox: &Sender<InboxEvent>,
    stats: &CommStats,
    max_frame: usize,
    shutdown: &AtomicBool,
) -> bool {
    // write our half of the preamble (opportunistically, never blocking)
    let echo = encode_handshake();
    while conn.echo_off < HANDSHAKE_BYTES {
        match conn.stream.write(&echo[conn.echo_off..]) {
            Ok(0) => return false,
            Ok(k) => conn.echo_off += k,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }

    // one read per wake-up: a socket holding more stays readable and
    // wakes the driver again, after the other connections had a turn
    let mut eof = false;
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => eof = true,
            Ok(k) => conn.buf.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => eof = true, // connection reset mid-stream
        }
        break;
    }

    let report = |offset: u64, detail: &str| {
        if !shutdown.load(Ordering::SeqCst) {
            let _ = inbox.send(InboxEvent::Fault(link_fault(conn.peer, offset, detail)));
        }
    };

    // parse: handshake first, then complete frames
    let mut consumed = 0usize;
    loop {
        let avail = conn.buf.len() - consumed;
        if !conn.handshaken {
            if avail < HANDSHAKE_BYTES {
                break;
            }
            let mut preamble = [0u8; HANDSHAKE_BYTES];
            preamble.copy_from_slice(&conn.buf[consumed..consumed + HANDSHAKE_BYTES]);
            if let Err(e) = decode_handshake(&preamble) {
                report(0, &format!("handshake rejected: {e}"));
                return false;
            }
            conn.handshaken = true;
            consumed += HANDSHAKE_BYTES;
            conn.offset += HANDSHAKE_BYTES as u64;
            continue;
        }
        if avail < 4 {
            break;
        }
        let len = u32::from_be_bytes(
            conn.buf[consumed..consumed + 4]
                .try_into()
                .unwrap_or([0; 4]),
        ) as usize;
        if len > max_frame {
            stats.record_corrupt(4);
            report(
                conn.offset,
                &format!("hostile frame length {len} exceeds the {max_frame}-byte cap"),
            );
            return false;
        }
        if avail < 4 + len {
            break; // partial frame: wait for more bytes
        }
        match decode_after_len(&conn.buf[consumed + 4..consumed + 4 + len]) {
            Ok(msg) => {
                if inbox.send(InboxEvent::Msg(msg)).is_err() {
                    return false; // endpoint gone
                }
                consumed += 4 + len;
                conn.offset += 4 + len as u64;
            }
            Err(e) => {
                // CRC mismatch or structural damage: the whole frame
                // (prefix included) is lost, and a stream that produced
                // it cannot be trusted to still be frame-aligned — tear
                // the connection down and let the peer redial
                stats.record_corrupt(4 + len as u64);
                report(conn.offset, &format!("frame rejected: {e}"));
                return false;
            }
        }
    }
    if consumed > 0 {
        conn.buf.drain(..consumed);
    }

    if !eof {
        return true;
    }
    if conn.buf.is_empty() {
        return false; // clean EOF at a frame boundary
    }
    // torn frame: the peer died mid-frame (or mid-handshake)
    let filled = conn.buf.len();
    let detail = if !conn.handshaken {
        format!("connection died {filled} bytes into the {HANDSHAKE_BYTES}-byte handshake")
    } else if filled < 4 {
        format!("torn frame: {filled} of 4 length-prefix bytes, then EOF")
    } else {
        let len = u32::from_be_bytes(conn.buf[..4].try_into().unwrap_or([0; 4]));
        format!("torn frame: {} of {len} body bytes, then EOF", filled - 4)
    };
    stats.record_corrupt(filled as u64);
    report(conn.offset + filled as u64, &detail);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{FrameError, PROTOCOL_VERSION};

    fn mesh(n: usize) -> Vec<PollTcpEndpoint> {
        loopback_mesh(n, |c| c.recv_timeout = Duration::from_secs(20)).unwrap()
    }

    fn pair() -> (PollTcpEndpoint, PollTcpEndpoint) {
        let mut eps = mesh(2);
        let b = eps.pop().unwrap();
        (eps.pop().unwrap(), b)
    }

    #[test]
    fn point_to_point_and_self_send() {
        let (mut a, mut b) = pair();
        b.send(0, 1, Payload::Params(vec![1.0, -2.0])).unwrap();
        let m = a.recv_tagged(Some(1), 1).unwrap();
        assert_eq!(m.from, 1);
        assert_eq!(m.payload, Payload::Params(vec![1.0, -2.0]));
        a.send(0, 2, Payload::Control(9)).unwrap(); // self-send loops back
        assert_eq!(
            a.recv_tagged(Some(0), 2).unwrap().payload,
            Payload::Control(9)
        );
        a.close();
        b.close();
    }

    #[test]
    fn tagged_receive_buffers_out_of_order() {
        let (mut a, mut b) = pair();
        b.send(0, 2, Payload::Control(2)).unwrap();
        b.send(0, 1, Payload::Control(1)).unwrap();
        assert_eq!(a.recv_tagged(None, 1).unwrap().payload, Payload::Control(1));
        assert_eq!(
            a.recv_tagged(Some(1), 2).unwrap().payload,
            Payload::Control(2)
        );
        a.close();
        b.close();
    }

    #[test]
    fn byte_accounting_matches_encoded_frames() {
        let (mut a, mut b) = pair();
        let payloads = [
            Payload::Params(vec![0.5; 33]),
            Payload::Flags(vec![1; 5]),
            Payload::Samples {
                data: vec![1.0; 12],
                targets: vec![0, 1, 2],
                dims: vec![2, 2, 3],
            },
            Payload::Bucket {
                bucket: 1,
                n_buckets: 3,
                values: vec![2.0; 9],
            },
            Payload::SparseGrad {
                len: 16,
                indices: vec![3, 9],
                values: vec![1.5, -0.5],
            },
            Payload::Control(7),
        ];
        let mut expected = 0u64;
        for (i, p) in payloads.iter().enumerate() {
            expected += encode_frame(1, i as u64, p).len() as u64;
            b.send(0, i as u64, p.clone()).unwrap();
        }
        for i in 0..payloads.len() {
            let _ = a.recv_tagged(Some(1), i as u64).unwrap();
        }
        assert_eq!(b.stats().total_bytes(), expected);
        assert_eq!(b.stats().total_messages(), payloads.len() as u64);
        a.close();
        b.close();
    }

    /// One driver thread multiplexes all peers: a 4-rank mesh exchanges
    /// ring traffic with every endpoint on its own thread.
    #[test]
    fn mesh_ring_traffic_across_threads() {
        let n = 4;
        let handles: Vec<_> = mesh(n)
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let me = ep.id();
                    let next = (me + 1) % n;
                    let prev = (me + n - 1) % n;
                    for step in 0..50u64 {
                        ep.send(next, step, Payload::Params(vec![me as f32, step as f32]))
                            .unwrap();
                        let m = ep.recv_tagged(Some(prev), step).unwrap();
                        assert_eq!(m.payload, Payload::Params(vec![prev as f32, step as f32]));
                    }
                    ep.close();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The write backpressure queue: a burst of large frames far beyond
    /// any kernel send buffer parks in the driver's per-peer queue and
    /// drains completely while the receiver slowly catches up.
    #[test]
    fn write_backpressure_queue_drains_a_large_burst() {
        let (mut a, mut b) = pair();
        let big = vec![1.5f32; 128 * 1024]; // 512 KiB per frame
        let frames = 32u64; // ~16 MiB total, far beyond SO_SNDBUF
        for i in 0..frames {
            b.send(0, i, Payload::Params(big.clone())).unwrap(); // never blocks
        }
        for i in 0..frames {
            let m = a.recv_tagged(Some(1), i).unwrap();
            assert!(matches!(m.payload, Payload::Params(v) if v.len() == big.len()));
        }
        a.close();
        b.close();
    }

    #[test]
    fn recv_watchdog_is_an_error_not_a_panic() {
        let (mut a, b) = pair();
        let err = a
            .recv_deadline(None, Some(42), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, TransportError::RecvTimeout { rank: 0, .. }));
        a.close();
        b.close();
    }

    #[test]
    fn send_after_close_is_an_error_not_a_panic() {
        let (mut a, b) = pair();
        a.teardown();
        let err = a.send(1, 0, Payload::Control(1)).unwrap_err();
        assert_eq!(err, TransportError::Closed);
        b.close();
    }

    /// Answer the SelSync preamble on a raw test-controlled socket, the
    /// way a real acceptor would.
    fn raw_handshake(conn: &mut TcpStream) {
        let mut preamble = [0u8; HANDSHAKE_BYTES];
        conn.read_exact(&mut preamble).unwrap();
        decode_handshake(&preamble).unwrap();
        conn.write_all(&encode_handshake()).unwrap();
    }

    /// Read one wire frame (length prefix + body) off a raw socket.
    fn read_raw_frame(stream: &mut TcpStream) -> io::Result<Msg> {
        let mut len_bytes = [0u8; 4];
        stream.read_exact(&mut len_bytes)?;
        let mut body = vec![0u8; u32::from_be_bytes(len_bytes) as usize];
        stream.read_exact(&mut body)?;
        decode_after_len(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Rank 0 as a real endpoint whose only peer, rank 1, is a raw
    /// listener the test controls. Returns the endpoint, rank 1's
    /// accepted set-up connection (handshake answered) and its listener.
    fn endpoint_with_raw_peer(
        tune: impl FnOnce(&mut TcpFabricConfig),
    ) -> (PollTcpEndpoint, TcpStream, TcpListener) {
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            raw.local_addr().unwrap().to_string(),
        ];
        let mut config = TcpFabricConfig::new(0, peers);
        tune(&mut config);
        let answer = thread::spawn(move || {
            let (mut s, _) = raw.accept().unwrap();
            raw_handshake(&mut s);
            (s, raw)
        });
        let ep = PollTcpEndpoint::connect_with_listener(config, l0).unwrap();
        let (conn, raw) = answer.join().unwrap();
        (ep, conn, raw)
    }

    /// A write failure must not lose the frame: the link goes down with
    /// the failed frame rewound to its start, still at the queue front,
    /// so the next connection resends it whole.
    #[test]
    fn broken_link_keeps_the_frame_whose_write_failed() {
        let (_tx, rx) = unbounded();
        let now = Instant::now();
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut conn = OutboundConn::new("peer".into(), addr, rx, now, Duration::ZERO);
        let first = Bytes::copy_from_slice(b"first frame");
        conn.queue.push_back(first.clone());
        conn.queue.push_back(Bytes::copy_from_slice(b"second"));
        conn.front_off = 3; // the socket died three bytes into `first`
        let later = now + Duration::from_millis(5);
        let link = conn.mark_broken(later, Duration::from_secs(15));
        assert!(matches!(link, Link::Down { retry_at } if retry_at == later));
        assert_eq!(conn.queue.len(), 2);
        assert_eq!(conn.queue.front(), Some(&first));
        assert_eq!(conn.front_off, 0);
        assert_eq!(conn.give_up_at, later + Duration::from_secs(15));
    }

    /// A broken established link is redialed by the driver: drop the
    /// first accepted connection mid-run and frames keep arriving on a
    /// second one — sends never surface `PeerUnreachable`.
    #[test]
    fn writer_reconnects_after_peer_restart() {
        let (mut ep, mut conn1, raw) =
            endpoint_with_raw_peer(|c| c.reconnect_timeout = Duration::from_secs(10));
        ep.send(1, 7, Payload::Control(7)).unwrap();
        assert_eq!(read_raw_frame(&mut conn1).unwrap().tag, 7);

        // "crash" the peer: kill the established connection
        conn1.shutdown(Shutdown::Both).unwrap();
        drop(conn1);

        // keep sending until the driver notices the dead link and
        // redials; the listener is still bound, so the redial lands here
        let (tx, rx) = std::sync::mpsc::channel();
        let accept_second = thread::spawn(move || {
            let conn = raw.accept().map(|(mut s, _)| {
                raw_handshake(&mut s);
                s
            });
            tx.send(()).ok();
            conn
        });
        let mut probes = 0u64;
        while rx.try_recv().is_err() {
            probes += 1;
            assert!(probes < 200, "driver never redialed the restarted peer");
            ep.send(1, 100 + probes, Payload::Control(probes)).unwrap();
            thread::sleep(Duration::from_millis(25));
        }
        let mut conn2 = accept_second.join().unwrap().unwrap();

        // everything sent after the reconnect arrives on the new link
        ep.send(1, 999, Payload::Params(vec![1.0, 2.0])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = read_raw_frame(&mut conn2).unwrap();
            if m.tag == 999 {
                assert_eq!(m.payload, Payload::Params(vec![1.0, 2.0]));
                break;
            }
            assert!(Instant::now() < deadline, "tag 999 never arrived");
        }
        ep.close();
    }

    /// `close()` on an endpoint owing frames to a dead peer abandons the
    /// redial instead of waiting out `reconnect_timeout` (15 s here).
    #[test]
    fn close_abandons_redials_to_a_dead_peer() {
        let (mut ep, conn, raw) = endpoint_with_raw_peer(|_| {});
        drop(raw); // nobody will answer a redial
        conn.shutdown(Shutdown::Both).unwrap();
        drop(conn);
        for tag in 0..20 {
            let _ = ep.send(1, tag, Payload::Control(tag));
            thread::sleep(Duration::from_millis(5));
        }
        let start = Instant::now();
        ep.close();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "close took {took:?}");
    }

    /// Mixed protocol versions must fail the connect, fast and typed:
    /// the dialer gets an `InvalidData` error wrapping
    /// `FrameError::VersionMismatch`, not a hang or a garbled fabric.
    #[test]
    fn mixed_versions_fail_the_connect_handshake() {
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![
            l0.local_addr().unwrap().to_string(),
            raw.local_addr().unwrap().to_string(),
        ];
        let mut config = TcpFabricConfig::new(0, peers);
        config.connect_timeout = Duration::from_secs(5);
        let future_peer = thread::spawn(move || {
            let (mut s, _) = raw.accept().unwrap();
            let mut preamble = [0u8; HANDSHAKE_BYTES];
            s.read_exact(&mut preamble).unwrap();
            // echo a preamble from one protocol version ahead
            let mut echo = encode_handshake();
            echo[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_be_bytes());
            s.write_all(&echo).unwrap();
            s
        });
        let start = Instant::now();
        let err = match PollTcpEndpoint::connect_with_listener(config, l0) {
            Err(e) => e,
            Ok(_) => panic!("connect accepted a mismatched protocol version"),
        };
        assert!(start.elapsed() < Duration::from_secs(5), "not fast");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameError>())
            .expect("typed FrameError inside the io::Error");
        assert_eq!(
            *inner,
            FrameError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: PROTOCOL_VERSION + 1,
            }
        );
        drop(future_peer.join().unwrap());
    }

    #[test]
    fn dial_gives_up_after_timeout() {
        // a bound-then-dropped port is very likely unreachable
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut config = TcpFabricConfig::new(0, vec![l0.local_addr().unwrap().to_string(), dead]);
        config.connect_timeout = Duration::from_millis(300);
        let start = Instant::now();
        let err = match PollTcpEndpoint::connect_with_listener(config, l0) {
            Err(e) => e,
            Ok(_) => panic!("connected to a dead port"),
        };
        assert!(err.to_string().contains("failed after"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
