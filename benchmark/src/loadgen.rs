//! The load generator: line-framed connections, the open-loop schedule and
//! the closed-loop pipeline, with every reply checked against the oracle as
//! it arrives.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bpmf::serve::{wire, ServeRequest};
use bpmf_stats::Xoshiro256pp;

use crate::host;
use crate::spec::{LATE_MS, WARMUP_REQUESTS};
use crate::stats::{slice_of, SLICES};
use crate::trace::{Span, Tracer};

/// One distinct request of the pool. `resolved` is the request as the daemon
/// resolves it, for the offline oracle; `None` marks a fold-in.
pub struct PoolEntry {
    pub req: wire::Request,
    pub resolved: Option<ServeRequest>,
}

/// One correct answer, as bit patterns: the ranked `(item, score)` list and,
/// for a fold-in, the folded user's factors.
#[derive(Clone, Default)]
pub struct Answer {
    pub items: Vec<(u32, u64)>,
    pub factors: Vec<u64>,
}

/// The answers a reply may carry: one per model version it may have been
/// scored under.
pub struct Expected {
    pub variants: Vec<Answer>,
}

impl Expected {
    /// Bit-for-bit equal to exactly one variant.
    pub fn matches(&self, resp: &wire::Response) -> bool {
        self.variants.iter().any(|want| {
            resp.items.len() == want.items.len()
                && resp
                    .items
                    .iter()
                    .zip(&want.items)
                    .all(|(got, want)| got.item == want.0 && got.score.to_bits() == want.1)
                && resp.factors.len() == want.factors.len()
                && resp
                    .factors
                    .iter()
                    .zip(&want.factors)
                    .all(|(got, want)| got.to_bits() == *want)
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Requests are due on a fixed schedule whatever the replies do; latency
    /// counts from the due time.
    Open { rps: f64 },
    /// Each connection keeps this many requests in flight.
    Closed { inflight: usize },
}

/// One request's fate. Times are offsets from the start of the window.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    pub done_ns: u64,
    /// Reply time minus due time (open loop) or send time (closed loop).
    pub lat_ns: u64,
    /// How late the generator sent it (open loop; 0 in a closed loop).
    pub late_ns: u64,
    /// Why the request failed; empty for a correct, timely reply.
    pub why: &'static str,
}

impl Rec {
    pub fn ok(&self) -> bool {
        self.why.is_empty()
    }

    fn lost(done_ns: u64, why: &'static str) -> Rec {
        Rec {
            done_ns,
            lat_ns: 0,
            late_ns: 0,
            why,
        }
    }
}

/// One `reload` command's fate.
#[derive(Clone, Copy, Debug)]
pub struct Reload {
    pub lat_ns: u64,
    /// Why the reload failed; empty when it swapped the expected epoch in.
    pub why: &'static str,
}

impl Reload {
    pub fn ok(&self) -> bool {
        self.why.is_empty()
    }
}

pub struct Load<'a> {
    pub addr: SocketAddr,
    pub mode: Mode,
    pub window: Duration,
    pub connections: usize,
    pub seed: u64,
    pub pool: &'a [PoolEntry],
    pub expected: &'a [Expected],
    /// Checkpoints (with the epoch each carries) to reload alternately, once
    /// per slice.
    pub reload_paths: Option<[(&'a Path, u64); 2]>,
    pub tracer: &'a Tracer,
}

pub struct LoadRun {
    pub recs: Vec<Rec>,
    pub reloads: Vec<Reload>,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// CPU seconds of the generator's own threads over the window.
    pub gen_cpu_s: f64,
    /// The fleet's `stats` reply as the window opens and as it closes.
    pub before: Option<wire::StatsReport>,
    pub after: Option<wire::StatsReport>,
}

/// A TCP connection framed into lines, readable against a deadline without
/// ever losing a partial line.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl LineConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineConn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn buffered_line(&mut self) -> Option<String> {
        let rel = self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[self.start..self.start + rel]).into_owned();
        self.start += rel + 1;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Some(line)
    }

    /// The next complete line, or `None` if `deadline` passes first. A closed
    /// connection is an error.
    pub fn next_line(&mut self, deadline: Instant) -> std::io::Result<Option<String>> {
        let mut chunk = [0u8; 1 << 14];
        loop {
            if let Some(line) = self.buffered_line() {
                return Ok(Some(line));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // A zero timeout would mean "block for ever".
            let patience = (deadline - now).max(Duration::from_micros(1));
            self.stream.set_read_timeout(Some(patience))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One blocking request/reply on a fresh control connection.
pub fn round_trip(
    addr: SocketAddr,
    req: &wire::Request,
    patience: Duration,
) -> Option<wire::Response> {
    let mut conn = LineConn::connect(addr).ok()?;
    conn.send(format!("{}\n", wire::encode(req)).as_bytes())
        .ok()?;
    let line = conn.next_line(Instant::now() + patience).ok()??;
    wire::decode_response(&line).ok()
}

pub fn command(cmd: &str) -> wire::Request {
    wire::Request {
        v: wire::WIRE_VERSION,
        cmd: cmd.to_string(),
        ..wire::Request::default()
    }
}

fn stats_of(addr: SocketAddr) -> Option<wire::StatsReport> {
    round_trip(addr, &command(wire::CMD_STATS), Duration::from_secs(5))?.stats
}

/// When request `k` of an open loop at `rps` is due, as an offset from the
/// start of the window.
pub fn due_offset(k: u64, rps: f64) -> Duration {
    Duration::from_secs_f64(k as f64 / rps)
}

/// Latency and lateness of an open-loop request: both count from the due
/// time, so a stalled generator cannot hide the queue it caused.
pub fn open_loop_times(due: Duration, sent: Duration, done: Duration) -> (Duration, Duration) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

struct InFlight {
    entry: usize,
    /// When the request was due (its send time, in a closed loop) and when it
    /// was actually sent, as offsets from the start of the window.
    due: Duration,
    sent: Duration,
    /// Request span, when this request is traced.
    span: Option<(u64, u64)>,
}

/// One connection's generator state.
struct Client<'a> {
    load: &'a Load<'a>,
    conn: LineConn,
    conn_idx: u64,
    seq: u64,
    rng: Xoshiro256pp,
    inflight: HashMap<u64, InFlight>,
    out: Vec<u8>,
    recs: Vec<Rec>,
    spans: Vec<Span>,
    t0: Instant,
}

impl<'a> Client<'a> {
    fn new(load: &'a Load<'a>, conn_idx: usize) -> std::io::Result<Self> {
        Ok(Client {
            load,
            conn: LineConn::connect(load.addr)?,
            conn_idx: conn_idx as u64,
            seq: 0,
            rng: Xoshiro256pp::seed_from_u64(load.seed ^ (0xC11E << 8) ^ conn_idx as u64),
            inflight: HashMap::new(),
            out: Vec::with_capacity(1 << 14),
            recs: Vec::new(),
            spans: Vec::new(),
            t0: Instant::now(),
        })
    }

    fn window_ns(&self) -> u64 {
        self.load.window.as_nanos() as u64
    }

    /// In the traced pass even slices record spans and odd slices do not, so
    /// one run yields the tracing overhead.
    fn traced_at(&self, offset: Duration) -> bool {
        self.load.tracer.enabled()
            && slice_of(offset.as_nanos() as u64, self.window_ns(), SLICES)
                .is_some_and(|s| s % 2 == 0)
    }

    /// Encode the next pool request into the outgoing buffer.
    fn enqueue(&mut self, due: Duration, sent: Duration) {
        let entry = self.rng.next_index(self.load.pool.len());
        let id = (self.conn_idx + 1) << 40 | self.seq;
        self.seq += 1;
        let mut req = self.load.pool[entry].req.clone();
        req.id = id;
        let tracer = self.load.tracer;
        let span = self
            .traced_at(sent)
            .then(|| (tracer.alloc_id(), tracer.now_ns()));
        let line = match span {
            Some((parent, _)) => {
                let start_ns = tracer.now_ns();
                let line = wire::encode(&req);
                self.spans.push(Span {
                    name: "wire.encode",
                    start_ns,
                    end_ns: tracer.now_ns(),
                    id: tracer.alloc_id(),
                    parent,
                    n: 1,
                });
                line
            }
            None => wire::encode(&req),
        };
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.inflight.insert(
            id,
            InFlight {
                entry,
                due,
                sent,
                span,
            },
        );
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let res = self.conn.send(&self.out);
        self.out.clear();
        res
    }

    /// Decode one reply line, check it against the oracle, record it.
    fn settle(&mut self, line: &str) {
        let tracer = self.load.tracer;
        let decode_start = tracer.now_ns();
        let resp = wire::decode_response(line);
        let decode_end = tracer.now_ns();
        let done = self.t0.elapsed();
        let Ok(resp) = resp else {
            self.recs
                .push(Rec::lost(done.as_nanos() as u64, "reply does not parse"));
            return;
        };
        let Some(sent) = self.inflight.remove(&resp.id) else {
            self.recs.push(Rec::lost(
                done.as_nanos() as u64,
                "reply to a request that is not in flight",
            ));
            return;
        };
        let (lat, late) = open_loop_times(sent.due, sent.sent, done);
        let why = if resp.error.is_some() {
            "error reply"
        } else if lat.as_secs_f64() * 1e3 > LATE_MS {
            "reply later than the limit"
        } else if !self.load.expected[sent.entry].matches(&resp) {
            "reply differs from the oracle"
        } else {
            ""
        };
        if let Some((id, start_ns)) = sent.span {
            self.spans.push(Span {
                name: "wire.decode_response",
                start_ns: decode_start,
                end_ns: decode_end,
                id: tracer.alloc_id(),
                parent: id,
                n: 1,
            });
            self.spans.push(Span {
                name: "client.request",
                start_ns,
                end_ns: decode_end,
                id,
                parent: 0,
                n: 1,
            });
        }
        self.recs.push(Rec {
            done_ns: done.as_nanos() as u64,
            lat_ns: lat.as_nanos() as u64,
            late_ns: late.as_nanos() as u64,
            why,
        });
    }

    /// Everything still in flight is lost.
    fn abandon(&mut self, why: &'static str) {
        let done_ns = self.t0.elapsed().as_nanos() as u64;
        for _ in self.inflight.drain() {
            self.recs.push(Rec::lost(done_ns, why));
        }
    }

    /// Read replies until `until` or until nothing is in flight.
    fn read_until(&mut self, until: Instant) -> bool {
        while !self.inflight.is_empty() {
            match self.conn.next_line(until) {
                Ok(Some(line)) => self.settle(&line),
                Ok(None) => return true,
                Err(_) => {
                    self.abandon("connection lost");
                    return false;
                }
            }
        }
        true
    }

    /// Closed loop with a small pipeline, outside the timed window: fills
    /// caches and lazy state on both sides.
    fn warm_up(&mut self, requests: usize) {
        let mut sent = 0;
        while sent < requests || !self.inflight.is_empty() {
            while sent < requests && self.inflight.len() < 8 {
                let now = self.t0.elapsed();
                self.enqueue(now, now);
                sent += 1;
            }
            if self.flush().is_err() || !self.read_until(Instant::now() + Duration::from_secs(5)) {
                self.abandon("connection lost in warm-up");
                return;
            }
            if !self.inflight.is_empty() {
                self.abandon("no reply in warm-up");
                return;
            }
        }
    }

    fn closed_loop(&mut self, inflight: usize) {
        let grace = Duration::from_secs(2);
        loop {
            let now = self.t0.elapsed();
            if now < self.load.window {
                while self.inflight.len() < inflight {
                    self.enqueue(now, now);
                }
            } else if self.inflight.is_empty() {
                return;
            }
            if self.flush().is_err() {
                return self.abandon("connection lost");
            }
            // One blocking read, then everything already buffered.
            match self.conn.next_line(Instant::now() + grace) {
                Ok(Some(line)) => {
                    self.settle(&line);
                    while let Some(line) = self.conn.buffered_line() {
                        self.settle(&line);
                    }
                }
                Ok(None) => return self.abandon("no reply within the grace period"),
                Err(_) => return self.abandon("connection lost"),
            }
        }
    }

    fn open_loop(&mut self, rps: f64) {
        let grace = Duration::from_secs(2);
        let mut k = 0u64;
        loop {
            let due = due_offset(k, rps);
            let sending = due < self.load.window;
            let now = self.t0.elapsed();
            if sending && now >= due {
                self.enqueue(due, now);
                if self.flush().is_err() {
                    return self.abandon("connection lost");
                }
                k += 1;
                continue;
            }
            if !sending && self.inflight.is_empty() {
                return;
            }
            let until = if sending {
                self.t0 + due
            } else {
                Instant::now() + grace
            };
            if self.inflight.is_empty() {
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
                continue;
            }
            match self.conn.next_line(until) {
                Ok(Some(line)) => self.settle(&line),
                Ok(None) if sending => {}
                Ok(None) => return self.abandon("no reply within the grace period"),
                Err(_) => return self.abandon("connection lost"),
            }
        }
    }
}

/// `reload` once per slice, at its midpoint, alternating the two checkpoints.
fn reload_loop(load: &Load<'_>, paths: [(&Path, u64); 2], t0: Instant) -> Vec<Reload> {
    let mut out = Vec::new();
    let Ok(mut conn) = LineConn::connect(load.addr) else {
        return vec![Reload {
            lat_ns: 0,
            why: "control connection refused",
        }];
    };
    let slice = load.window / SLICES as u32;
    for i in 0..SLICES {
        let at = t0 + slice * i as u32 + slice / 2;
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        let (path, epoch) = paths[i % 2];
        let req = wire::Request {
            v: wire::WIRE_VERSION,
            id: i as u64 + 1,
            cmd: wire::CMD_RELOAD.to_string(),
            path: path.to_string_lossy().into_owned(),
            ..wire::Request::default()
        };
        let sent = Instant::now();
        let reply = load.tracer.span("daemon.reload", 0, |_| {
            conn.send(format!("{}\n", wire::encode(&req)).as_bytes())
                .and_then(|()| conn.next_line(Instant::now() + Duration::from_secs(10)))
        });
        let why = match reply {
            Ok(Some(line)) => match wire::decode_response(&line) {
                Ok(resp) if resp.error.is_some() => "reload refused",
                Ok(resp) if resp.model_epoch != Some(epoch) => "reload reports the wrong epoch",
                Ok(_) => "",
                Err(_) => "reload reply does not parse",
            },
            Ok(None) => "reload timed out",
            Err(_) => "control connection lost",
        };
        out.push(Reload {
            lat_ns: sent.elapsed().as_nanos() as u64,
            why,
        });
    }
    out
}

/// Warm up, then drive the window on every connection at once.
pub fn run(load: &Load<'_>) -> LoadRun {
    let start = Barrier::new(load.connections + 1);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..load.connections)
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    let mut client = match Client::new(load, c) {
                        Ok(client) => client,
                        Err(_) => {
                            start.wait();
                            let lost = Rec::lost(u64::MAX, "connection refused");
                            return (vec![lost], Vec::new(), 0.0);
                        }
                    };
                    client.warm_up(WARMUP_REQUESTS.div_ceil(load.connections));
                    let warm = std::mem::take(&mut client.recs);
                    client.spans.clear();
                    start.wait();
                    client.t0 = Instant::now();
                    let cpu0 = host::thread_cpu_seconds();
                    match load.mode {
                        Mode::Open { rps } => client.open_loop(rps),
                        Mode::Closed { inflight } => client.closed_loop(inflight),
                    }
                    let cpu = host::thread_cpu_seconds() - cpu0;
                    // Warm-up replies are checked too, but sit outside the
                    // window: only their failures are kept.
                    let mut recs = client.recs;
                    recs.extend(warm.into_iter().filter(|r| !r.ok()).map(|r| Rec {
                        done_ns: u64::MAX,
                        ..r
                    }));
                    (recs, client.spans, cpu)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let cpu0 = host::process_cpu_seconds();
        let before = stats_of(load.addr);
        let reloader = load
            .reload_paths
            .map(|paths| s.spawn(move || reload_loop(load, paths, t0)));
        std::thread::sleep(load.window.saturating_sub(t0.elapsed()));
        let cpu_s = host::process_cpu_seconds() - cpu0;
        let after = stats_of(load.addr);
        let mut run = LoadRun {
            recs: Vec::new(),
            reloads: Vec::new(),
            cpu_s,
            gen_cpu_s: 0.0,
            before,
            after,
        };
        for client in clients {
            let (recs, spans, cpu) = client.join().expect("generator thread");
            run.recs.extend(recs);
            run.gen_cpu_s += cpu;
            load.tracer.extend(spans);
        }
        if let Some(reloader) = reloader {
            run.reloads = reloader.join().expect("reload thread");
        }
        run
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader};
    use std::net::TcpListener;

    #[test]
    fn open_loop_schedule_is_even_and_counts_from_the_due_time() {
        assert_eq!(due_offset(0, 200.0), Duration::ZERO);
        assert_eq!(due_offset(1, 200.0), Duration::from_millis(5));
        assert_eq!(due_offset(200, 200.0), Duration::from_secs(1));
        // Due at 10 ms, sent 3 ms late, answered at 15 ms: the request
        // waited 5 ms as far as its user is concerned, not 2 ms.
        let ms = Duration::from_millis;
        assert_eq!(open_loop_times(ms(10), ms(13), ms(15)), (ms(5), ms(3)));
        // A generator running early never reports negative lateness.
        assert_eq!(open_loop_times(ms(10), ms(9), ms(12)), (ms(2), ms(0)));
    }

    #[test]
    fn expected_matches_exactly_one_variant_bit_for_bit() {
        let item = |item, score: f64| wire::RankedItem { item, score };
        let answer = |items: &[(u32, f64)]| Answer {
            items: items.iter().map(|&(i, s)| (i, s.to_bits())).collect(),
            factors: Vec::new(),
        };
        let old = answer(&[(3, 1.5), (1, 0.5)]);
        let new = answer(&[(1, 2.5), (3, 0.25)]);
        let expected = Expected {
            variants: vec![old, new],
        };
        let reply = |items| wire::Response {
            items,
            ..wire::Response::default()
        };
        assert!(expected.matches(&reply(vec![item(3, 1.5), item(1, 0.5)])));
        assert!(expected.matches(&reply(vec![item(1, 2.5), item(3, 0.25)])));
        // A blend of the two versions is neither.
        assert!(!expected.matches(&reply(vec![item(3, 1.5), item(3, 0.25)])));
        assert!(!expected.matches(&reply(vec![item(3, 1.5 + f64::EPSILON), item(1, 0.5)])));
        assert!(!expected.matches(&reply(vec![item(3, 1.5)])));
    }

    #[test]
    fn line_conn_keeps_partial_lines_across_deadlines() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "go\n");
            stream.write_all(b"first\nsec").unwrap();
            reader.read_line(&mut line).unwrap();
            stream.write_all(b"ond\n").unwrap();
        });
        let mut conn = LineConn::connect(addr).unwrap();
        conn.send(b"go\n").unwrap();
        let far = || Instant::now() + Duration::from_secs(5);
        assert_eq!(conn.next_line(far()).unwrap().as_deref(), Some("first"));
        // Only half of the second line has arrived: the deadline passes and
        // the half is kept.
        let soon = Instant::now() + Duration::from_millis(30);
        assert_eq!(conn.next_line(soon).unwrap(), None);
        conn.send(b"more\n").unwrap();
        assert_eq!(conn.next_line(far()).unwrap().as_deref(), Some("second"));
        server.join().unwrap();
        assert!(
            conn.next_line(far()).is_err(),
            "closed connection is an error"
        );
    }
}
