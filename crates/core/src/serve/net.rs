//! The serving tier's connection layer: everything between a TCP socket
//! and one protocol line, written once for every endpoint — the daemon's
//! and the router's client connections, the router's replica links, and
//! every one-shot round trip (router probes, the supervisor's reload
//! pushes and health pings, `serve-client`).
//!
//! # Framing contract
//!
//! * **Newline-delimited.** One [`wire`] message per `\n`-terminated
//!   line. Blank lines are skipped. Bytes that are not UTF-8 are decoded
//!   lossily, so they reach the protocol layer and come back as a typed
//!   [`wire::CODE_BAD_REQUEST`] reply instead of a dropped socket.
//! * **[`MAX_LINE`].** A line longer than `MAX_LINE` bytes ends the
//!   connection with [`ReadEnd::Oversize`], whether or not its newline
//!   has arrived yet, so how a stream is split into reads never changes
//!   which lines are answered. The endpoint decides what to send last:
//!   the daemon and the router reply `request line too long`
//!   ([`wire::Response::line_too_long`]); a replica link just drops.
//! * **Drain deadline.** A reader blocks for at most [`POLL`] on a quiet
//!   socket, so it notices shutdown. Once the shutdown flag is up it keeps
//!   answering bytes already on the socket for `4 × POLL`, and leaves at
//!   the first quiet read ([`ReadEnd::Drained`]): "drain what was
//!   accepted" includes requests not yet parsed, but a client streaming
//!   through shutdown cannot pin the process open.
//! * **One flush per drained batch.** Each connection has one writer
//!   thread fed by a channel. It writes every [`Frame`] already queued,
//!   then flushes once, so replies completed together (a coalesced batch,
//!   a pipelining client, a router fan-out) leave in one syscall.
//!
//! [`serve_connection`] runs one connection under this contract (socket
//! setup, writer thread, framed reader), [`accept_loop`] feeds it, and
//! [`round_trip`] is the one-shot client side. The framing itself is
//! [`Framer`], which needs no socket.
//!
//! # Listener binding and backoff
//!
//! A SIGKILLed daemon leaves its accepted connections in `TIME_WAIT`,
//! and a plain [`std::net::TcpListener::bind`] on the same port then
//! fails with `EADDRINUSE` for up to a minute — exactly the window in
//! which a supervisor (or the chaos drill in `ci/chaos_e2e.sh`) wants to
//! start the replacement replica *on the same address*, because the
//! router's replica list is fixed at startup. [`bind_reuseaddr`] sets
//! `SO_REUSEADDR`, which waives the `TIME_WAIT` conflict for listening
//! sockets; it does **not** allow hijacking a port another live process
//! is actually listening on.
//!
//! std offers no way to set socket options before `bind`, and the
//! workspace builds without the `socket2`/`libc` crates, so on Unix this
//! talks to the C library directly — the same symbols std itself links.
//! Non-IPv4 addresses and non-Unix targets fall back to the std path.
//! [`jittered_backoff`] spaces out every reconnect and respawn loop.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use super::wire;

/// How often an accept loop re-checks the shutdown flag and runs its
/// per-tick hook. Short, because it is also the worst-case wait before a
/// new connection is picked up — accept latency lands on the client's
/// first request.
pub const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How long a connection reader blocks on a quiet socket before
/// re-checking the shutdown flag (pure shutdown responsiveness: arriving
/// data wakes the read immediately).
pub const POLL: Duration = Duration::from_millis(25);

/// The longest protocol line a reader accepts, in bytes, newline
/// excluded. Past it the stream is more likely desynchronized garbage
/// than a request.
pub const MAX_LINE: usize = 1 << 20;

/// How a connection's reader ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadEnd {
    /// The peer closed its side.
    Eof,
    /// A line outgrew [`MAX_LINE`].
    Oversize,
    /// The per-line handler asked to close the connection.
    Closed,
    /// A read failed with something other than a timeout.
    Io,
    /// Shutdown was raised and the drain pass finished.
    Drained,
}

/// Newline framing over a byte stream that arrives in arbitrary pieces.
#[derive(Debug, Default)]
pub struct Framer {
    /// The partial line received so far (never holds a newline between
    /// calls to [`Framer::feed`]).
    pending: Vec<u8>,
}

impl Framer {
    /// Append `bytes` and hand each complete, non-blank line to `on_line`
    /// in order, newline stripped and decoded lossily. Returns `Some`
    /// when the stream must end: `on_line` returned `false`
    /// ([`ReadEnd::Closed`]) or a line outgrew [`MAX_LINE`]
    /// ([`ReadEnd::Oversize`]). The framer is spent after either.
    pub fn feed(&mut self, bytes: &[u8], mut on_line: impl FnMut(&str) -> bool) -> Option<ReadEnd> {
        // The search starts at the new bytes: the partial line before
        // them is known to hold no newline.
        let mut from = self.pending.len();
        self.pending.extend_from_slice(bytes);
        let mut start = 0;
        let mut end = None;
        while let Some(off) = self.pending[from..].iter().position(|&b| b == b'\n') {
            let line = &self.pending[start..from + off];
            start = from + off + 1;
            from = start;
            if line.len() > MAX_LINE {
                end = Some(ReadEnd::Oversize);
                break;
            }
            // Borrowed, not copied, whenever the line is valid UTF-8.
            let line = String::from_utf8_lossy(line);
            if !line.trim().is_empty() && !on_line(&line) {
                end = Some(ReadEnd::Closed);
                break;
            }
        }
        self.pending.drain(..start);
        if end.is_none() && self.pending.len() > MAX_LINE {
            end = Some(ReadEnd::Oversize);
        }
        end
    }
}

/// What a connection's writer puts on the wire. Client replies are
/// [`wire::Response`]s, encoded on the writer thread; the router's
/// scatter buffers are lines already.
pub trait Frame: Send + 'static {
    /// Write this frame, newline-terminated, to `out`.
    fn write_to(&self, out: &mut impl Write) -> io::Result<()>;
}

impl Frame for wire::Response {
    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "{}", wire::encode(self))
    }
}

impl Frame for String {
    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(self.as_bytes())
    }
}

/// The drain-then-flush writer: frames leave in completion order, every
/// frame already queued goes out before the one flush, and a dead socket
/// stops the writer.
fn write_frames<T: Frame>(stream: TcpStream, rx: mpsc::Receiver<T>) {
    let mut out = io::BufWriter::new(stream);
    while let Ok(first) = rx.recv() {
        let sent = std::iter::once(first)
            .chain(rx.try_iter())
            .try_for_each(|frame| frame.write_to(&mut out))
            .and_then(|()| out.flush());
        if sent.is_err() {
            break;
        }
    }
}

/// Serve one connection under the framing contract: the calling thread
/// reads, one writer thread drains `channel`.
///
/// `on_line` answers one line and returns `false` to close the
/// connection; `on_chunk` runs once after each read's lines; `on_end`
/// always learns how the reader ended, while the writer is still up, so
/// it can queue a last frame. Returns once the writer has delivered every
/// frame sent on the channel — including through sender clones other
/// threads still hold — or found the socket dead.
pub fn serve_connection<T: Frame>(
    stream: TcpStream,
    shutdown: &AtomicBool,
    (tx, rx): (mpsc::Sender<T>, mpsc::Receiver<T>),
    mut on_line: impl FnMut(&str, &mpsc::Sender<T>) -> bool,
    mut on_chunk: impl FnMut(&mpsc::Sender<T>),
    on_end: impl FnOnce(ReadEnd, &mpsc::Sender<T>),
) {
    stream.set_nodelay(true).ok();
    // Whether an accepted socket inherits the listener's nonblocking mode
    // is platform-dependent (BSD inherits it, Linux does not). The reader
    // relies on the read *timeout* to notice shutdown — an inherited
    // O_NONBLOCK would turn it into a busy-spin — so clear it explicitly.
    let setup = stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(POLL)))
        .and_then(|()| stream.try_clone());
    let Ok(write_half) = setup else {
        return on_end(ReadEnd::Io, &tx);
    };
    // The writer owns its half outright, so a plain thread works; joining
    // it below keeps the caller's scope join honest about undelivered
    // replies.
    let writer = std::thread::spawn(move || write_frames(write_half, rx));
    let (mut reader, mut framer) = (&stream, Framer::default());
    let mut chunk = [0u8; 4096];
    let mut drain_deadline: Option<Instant> = None;
    let end = loop {
        if shutdown.load(Ordering::Relaxed) {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + 4 * POLL);
            if Instant::now() >= deadline {
                break ReadEnd::Drained;
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => break ReadEnd::Eof,
            Ok(n) => {
                let end = framer.feed(&chunk[..n], |line| on_line(line, &tx));
                on_chunk(&tx);
                if let Some(end) = end {
                    break end;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // A quiet socket during the drain pass means nothing is
                // left to pick up.
                if drain_deadline.is_some() {
                    break ReadEnd::Drained;
                }
            }
            Err(_) => break ReadEnd::Io,
        }
    };
    on_end(end, &tx);
    drop(tx);
    let _ = writer.join();
}

/// Accept connections on `listener` until `shutdown` is raised, handing
/// each to `on_conn`; `on_tick` runs after every poll. A failed accept
/// (other than would-block or an interrupt) raises `shutdown` and is
/// returned.
pub fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut on_conn: impl FnMut(TcpStream),
    mut on_tick: impl FnMut(),
) -> io::Result<()> {
    let fail = |e: io::Error| {
        shutdown.store(true, Ordering::Relaxed);
        Err(e)
    };
    if let Err(e) = listener.set_nonblocking(true) {
        return fail(e);
    }
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => on_conn(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return fail(e),
        }
        on_tick();
    }
    Ok(())
}

/// Why a [`round_trip`] failed.
#[derive(Debug)]
pub enum RoundTripError {
    /// No connection could be made, so nothing was sent.
    Connect(io::Error),
    /// Connected, but no reply came back: an I/O error or timeout, the
    /// peer hung up, or the reply did not decode.
    Exchange(String),
}

impl fmt::Display for RoundTripError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundTripError::Connect(e) => write!(f, "cannot connect: {e}"),
            RoundTripError::Exchange(msg) => f.write_str(msg),
        }
    }
}

/// One request and its reply on a fresh connection. `timeout` bounds the
/// connect, the write and the read separately, so an address that
/// swallows SYNs or a peer that never answers costs at most that long
/// per stage.
pub fn round_trip(
    addr: &str,
    req: &wire::Request,
    timeout: Duration,
) -> Result<wire::Response, RoundTripError> {
    let stream = connect(addr, timeout).map_err(RoundTripError::Connect)?;
    let exchange = || -> io::Result<String> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        (&stream).write_all(format!("{}\n", wire::encode(req)).as_bytes())?;
        let mut line = String::new();
        BufReader::new((&stream).take(MAX_LINE as u64 + 1)).read_line(&mut line)?;
        Ok(line)
    };
    let line = exchange().map_err(|e| RoundTripError::Exchange(e.to_string()))?;
    if line.is_empty() {
        return Err(RoundTripError::Exchange(
            "the server closed the connection without replying".to_string(),
        ));
    }
    wire::decode_response(&line).map_err(RoundTripError::Exchange)
}

/// Connect to the first address `addr` resolves to that accepts within
/// `timeout`: the one connect of the tier (round trips and the router's
/// replica links), so an address that swallows SYNs costs `timeout`, not
/// the kernel's minutes of retries.
pub fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last_err = None;
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    }))
}

/// Seeded equal-jitter exponential backoff: the delay before retry
/// `attempt` (0-based) of something that keeps failing.
///
/// The exponential envelope is `base << attempt`, capped at `max`; the
/// returned delay is drawn uniformly from `[envelope/2, envelope)` by a
/// splitmix64 hash of `(seed, attempt)`. Deterministic per `(seed,
/// attempt)` — a drill replays identically — while distinct seeds (one
/// per link/replica) desynchronize, so a fleet-wide event does not turn
/// into a thundering-herd reconnect at `base`, `2·base`, `4·base`, …
///
/// Every reconnect/retry loop in the tier routes through here: router
/// shard links, `serve-client` connect retries, supervisor respawns.
pub fn jittered_backoff(attempt: u32, base: Duration, max: Duration, seed: u64) -> Duration {
    let base = base.max(Duration::from_micros(1));
    let envelope = base
        .checked_mul(1u32 << attempt.min(20))
        .map_or(max, |d| d.min(max))
        .max(base);
    // splitmix64 finalizer over (seed, attempt): cheap, seedable, and
    // uncorrelated across attempts.
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    envelope.div_f64(2.0) + envelope.div_f64(2.0).mul_f64(unit)
}

/// Bind a listener with `SO_REUSEADDR` set, so a crashed replica's
/// address can be reclaimed immediately instead of after `TIME_WAIT`.
pub fn bind_reuseaddr<A: ToSocketAddrs + Copy>(addr: A) -> io::Result<TcpListener> {
    let mut last_err = None;
    for sock_addr in addr.to_socket_addrs()? {
        match bind_one(sock_addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        Some(e) => Err(e),
        None => TcpListener::bind(addr),
    }
}

#[cfg(unix)]
fn bind_one(addr: SocketAddr) -> io::Result<TcpListener> {
    let SocketAddr::V4(v4) = addr else {
        // The serving tier binds loopback/IPv4 everywhere; anything else
        // takes the std path and simply lacks the fast-rebind guarantee.
        return TcpListener::bind(addr);
    };

    use std::os::unix::io::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    /// `struct sockaddr_in` as the kernel expects it.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    // SAFETY: plain C socket calls; the fd is closed on every error path
    // and otherwise handed to `TcpListener`, which owns it from then on.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let yes: i32 = 1;
        let sa = SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        };
        if setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            &yes,
            std::mem::size_of::<i32>() as u32,
        ) != 0
            || bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) != 0
            || listen(fd, 128) != 0
        {
            let err = io::Error::last_os_error();
            close(fd);
            return Err(err);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

#[cfg(not(unix))]
fn bind_one(addr: SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// What the server side of a [`Loopback`] connection saw.
    struct Served {
        end: ReadEnd,
        lines: Vec<String>,
        chunks: usize,
    }

    /// One loopback connection served the way the daemon serves one:
    /// every line goes through [`wire::admit`] and gets exactly one reply
    /// (an ack echoing its id, or the typed refusal), and an oversize line
    /// ends with `request line too long`. The server reports each read on
    /// `chunk_read`, and a `hold` command parks the reader — after it has
    /// consumed the line, before it acks — until `release` fires, so tests
    /// order their writes against the reader with channels, not sleeps.
    struct Loopback {
        client: TcpStream,
        replies: BufReader<TcpStream>,
        server: JoinHandle<Served>,
        shutdown: Arc<AtomicBool>,
        chunk_read: mpsc::Receiver<()>,
        holding: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    impl Loopback {
        fn new() -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let shutdown = Arc::new(AtomicBool::new(false));
            let (chunk_tx, chunk_read) = mpsc::channel();
            let (holding_tx, holding) = mpsc::channel();
            let (release, released) = mpsc::channel();
            let flag = Arc::clone(&shutdown);
            let server = std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                let (mut lines, mut chunks, mut end) = (Vec::new(), 0, None);
                serve_connection(
                    stream,
                    &flag,
                    mpsc::channel(),
                    |line, tx| {
                        lines.push(line.to_string());
                        let reply = match wire::admit(line, wire::ROLE_DAEMON) {
                            Ok(req) => {
                                if req.cmd == "hold" {
                                    holding_tx.send(()).expect("test listens");
                                    released.recv().expect("test releases");
                                }
                                wire::Response::ack(req.id)
                            }
                            Err(refusal) => refusal,
                        };
                        tx.send(reply).is_ok()
                    },
                    |_| {
                        chunks += 1;
                        let _ = chunk_tx.send(());
                    },
                    |e, tx| {
                        if e == ReadEnd::Oversize {
                            let _ = tx.send(wire::Response::line_too_long());
                        }
                        end = Some(e);
                    },
                );
                Served {
                    end: end.expect("on_end ran"),
                    lines,
                    chunks,
                }
            });
            let client = TcpStream::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let replies = BufReader::new(client.try_clone().expect("clone"));
            Loopback {
                client,
                replies,
                server,
                shutdown,
                chunk_read,
                holding,
                release,
            }
        }

        fn send(&mut self, bytes: &[u8]) {
            self.client.write_all(bytes).expect("send");
        }

        fn recv(&mut self) -> wire::Response {
            let mut line = String::new();
            self.replies.read_line(&mut line).expect("reply");
            wire::decode_response(&line).expect("reply decodes")
        }

        /// Wait for the server, check it sent nothing more, and return what
        /// it saw. Half-closes the client first unless `hang_up` is false.
        fn finish(mut self, hang_up: bool) -> Served {
            if hang_up {
                self.client
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close");
            }
            let served = self.server.join().expect("server thread");
            let mut rest = String::new();
            let n = self.replies.read_line(&mut rest).expect("eof");
            assert_eq!(n, 0, "unexpected trailing reply {rest:?}");
            served
        }
    }

    #[test]
    fn a_request_split_across_two_writes_is_one_line() {
        let mut conn = Loopback::new();
        conn.send(b"{\"id\":7,");
        conn.chunk_read.recv().expect("first half read");
        conn.send(b"\"cmd\":\"ping\"}\n");
        assert_eq!(conn.recv(), wire::Response::ack(7));
        let served = conn.finish(true);
        assert_eq!(served.lines, ["{\"id\":7,\"cmd\":\"ping\"}"]);
        assert_eq!(served.chunks, 2);
        assert_eq!(served.end, ReadEnd::Eof);
    }

    #[test]
    fn pipelined_lines_in_one_write_fire_the_chunk_hook_once() {
        let mut conn = Loopback::new();
        conn.send(b"{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n");
        for id in 1..=3 {
            assert_eq!(conn.recv().id, id);
        }
        let served = conn.finish(true);
        assert_eq!(served.lines.len(), 3);
        assert_eq!(served.chunks, 1, "one read, one per-chunk call");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut conn = Loopback::new();
        conn.send(b"\n  \r\n{\"id\":4}\n\n\t\n");
        assert_eq!(conn.recv().id, 4);
        assert_eq!(conn.finish(true).lines, ["{\"id\":4}"]);
    }

    #[test]
    fn invalid_utf8_is_decoded_lossily_into_a_typed_bad_request() {
        let mut conn = Loopback::new();
        conn.send(b"{\"id\":\xff\xfe}\n");
        let reply = conn.recv();
        assert_eq!(reply.code.as_deref(), Some(wire::CODE_BAD_REQUEST));
        assert!(reply.error.unwrap().starts_with("malformed request"));
        // The connection survives it.
        conn.send(b"{\"id\":5}\n");
        assert_eq!(conn.recv().id, 5);
        let served = conn.finish(true);
        assert_eq!(served.lines[0], "{\"id\":\u{FFFD}\u{FFFD}}");
    }

    #[test]
    fn an_oversize_line_ends_the_connection_after_one_reply() {
        let mut conn = Loopback::new();
        conn.send(&vec![b'x'; MAX_LINE + 1]);
        assert_eq!(conn.recv(), wire::Response::line_too_long());
        // The server closes on its own: no hang-up needed, nothing follows.
        let served = conn.finish(false);
        assert_eq!(served.end, ReadEnd::Oversize);
        assert!(served.lines.is_empty());
    }

    #[test]
    fn shutdown_answers_bytes_already_sent_then_leaves_a_quiet_socket() {
        let mut conn = Loopback::new();
        // Park the reader inside a line, raise shutdown, and land a second
        // line while it is parked: the drain pass must still answer it.
        conn.send(b"{\"id\":1,\"cmd\":\"hold\"}\n");
        conn.holding.recv().expect("reader parked");
        conn.shutdown.store(true, Ordering::Relaxed);
        let flipped = Instant::now();
        conn.send(b"{\"id\":2}\n");
        conn.release.send(()).expect("release");
        assert_eq!(conn.recv().id, 1);
        assert_eq!(conn.recv().id, 2);
        // The client stays connected but goes quiet: the reader leaves on
        // its own, inside the drain deadline.
        let served = conn.finish(false);
        let took = flipped.elapsed();
        assert_eq!(served.end, ReadEnd::Drained);
        assert_eq!(served.lines.len(), 2);
        assert!(took < 4 * POLL + Duration::from_millis(250), "{took:?}");
    }

    #[test]
    fn round_trip_gives_up_on_a_silent_peer_within_its_timeout() {
        // Accepts and reads, never answers: a wedged replica under probe.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let (release, released) = mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let _ = released.recv();
            drop(conn);
        });
        let timeout = Duration::from_millis(200);
        let t0 = Instant::now();
        let got = round_trip(&addr, &wire::Request::command(wire::CMD_PING), timeout);
        let took = t0.elapsed();
        assert!(matches!(got, Err(RoundTripError::Exchange(_))), "{got:?}");
        assert!(took < timeout + Duration::from_millis(500), "{took:?}");
        release.send(()).expect("release");
        silent.join().expect("silent peer");
    }

    #[test]
    fn round_trip_types_connect_failures_apart_from_exchange_failures() {
        let ping = wire::Request::command(wire::CMD_PING);
        let patience = Duration::from_secs(5);
        // Nothing listens on a port whose listener was just dropped.
        let closed = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("local addr").to_string()
        };
        match round_trip(&closed, &ping, patience) {
            Err(RoundTripError::Connect(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused)
            }
            other => panic!("expected a connect failure, got {other:?}"),
        }
        // A peer that hangs up without replying, then one that answers.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let peer = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(&conn).read_line(&mut line).expect("request");
            drop(conn);
            let (mut conn, _) = listener.accept().expect("accept");
            BufReader::new(&conn).read_line(&mut line).expect("request");
            conn.write_all(b"{\"v\":1,\"id\":9}\n").expect("reply");
        });
        assert!(matches!(
            round_trip(&addr, &ping, patience),
            Err(RoundTripError::Exchange(_))
        ));
        let reply = round_trip(&addr, &ping, patience).expect("answered");
        assert_eq!((reply.v, reply.id, reply.error), (1, 9, None));
        peer.join().expect("peer");
    }

    #[test]
    fn jittered_backoff_stays_inside_the_exponential_envelope() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(2);
        for attempt in 0..12 {
            let envelope = base
                .checked_mul(1u32 << attempt.min(20))
                .map_or(max, |d| d.min(max));
            for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
                let d = jittered_backoff(attempt, base, max, seed);
                assert!(
                    d >= envelope.div_f64(2.0),
                    "attempt {attempt} seed {seed}: {d:?}"
                );
                assert!(d <= envelope, "attempt {attempt} seed {seed}: {d:?}");
            }
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_but_desynchronized_across_seeds() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(2);
        assert_eq!(
            jittered_backoff(3, base, max, 11),
            jittered_backoff(3, base, max, 11)
        );
        // Two links with different seeds should (at some attempt) pick
        // different delays — that is the whole anti-herd point.
        assert!((0..8)
            .any(|a| { jittered_backoff(a, base, max, 1) != jittered_backoff(a, base, max, 2) }));
    }

    #[test]
    fn binds_and_accepts_like_a_std_listener() {
        let listener = bind_reuseaddr("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let join = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4];
            conn.read_exact(&mut buf).expect("read");
            conn.write_all(&buf).expect("write");
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"ping").expect("send");
        let mut echo = [0u8; 4];
        client.read_exact(&mut echo).expect("echo");
        assert_eq!(&echo, b"ping");
        join.join().expect("server thread");
    }

    #[test]
    fn rebinds_an_address_with_residual_connection_state() {
        // Close a connection through the listener's port and immediately
        // rebind the same port: with SO_REUSEADDR this must not hit
        // EADDRINUSE even while the old connection drains.
        let listener = bind_reuseaddr("127.0.0.1:0").expect("first bind");
        let addr = listener.local_addr().expect("local addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        drop(conn);
        drop(client);
        drop(listener);
        let again = bind_reuseaddr(addr).expect("rebind after close");
        assert_eq!(again.local_addr().expect("addr").port(), addr.port());
    }
}
