//! `wire_open`: an open loop over TCP against `ambipla_net`, and its
//! in-process replay through `ambipla_serve`.
//!
//! Two connections, one per tenant, carry Poisson arrivals at [`RATE`]
//! to two registrations on two batcher shards: `max46` (9 inputs, which
//! the tier layer materialises into a truth table) and `t2` (17 inputs,
//! which stays batched). A pacer thread sends each request when it is
//! due, sleeping in between, and hot-swaps `max46` between its GNOR PLA
//! and its cover every [`SWAP_PERIOD_NS`]. A receiver thread polls both
//! sockets, checks every reply and times it from its due time, so a
//! stall is charged to every request it delays.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ambipla_core::{EpochOracle, GnorPla, SharedSimulator, TruthTable};
use ambipla_net::{encode_frame, Frame, FrameReader, NetConfig, NetServer, TenantId};
use ambipla_serve::{reply_channel, shard_for_key, ServeConfig, SimId, SimKey, SimService};
use logic::espresso_with_dc;

use crate::gen::{wire_schedule, WireReq};
use crate::layers::ServeView;
use crate::stats::{Clock, Reservoir, Windows, RESERVOIR};
use crate::trace::Tracer;

/// Offered aggregate arrival rate, requests per second.
pub const RATE: f64 = 100_000.0;
/// Schedule time between two hot swaps of `max46`.
pub const SWAP_PERIOD_NS: u64 = 100_000_000;
/// How long an idle receiver sleeps before polling again.
pub const RECV_POLL: Duration = Duration::from_micros(20);
/// How long the receiver waits for stragglers after the last send.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);
/// Width of the windows throughput is counted in.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Inputs of the two registrations, `max46` and `t2`.
pub const INPUTS: [usize; 2] = [9, 17];

/// Queue bounds of the service and the front end: over a second of
/// traffic, so a stalled host shows as latency rather than refusals.
const QUEUE_BOUND: usize = 1 << 17;

/// The service configuration `wire_open` runs against.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        block_words: 4,
        max_wait: Duration::from_micros(100),
        queue_depth: QUEUE_BOUND,
        ..ServeConfig::default()
    }
}

/// A key that [`shard_for_key`] pins to `shard` of 2.
pub fn key_on_shard(shard: usize, salt: u64) -> SimKey {
    (0..1024u64)
        .map(|k| SimKey::new(salt << 16 | k))
        .find(|&k| shard_for_key(k, 2) == shard)
        .expect("some key lands on each of two shards")
}

/// The served designs and the truth their replies are checked against.
pub struct Designs {
    /// `max46` backends by epoch parity: its GNOR PLA, then its cover.
    pub max46: [SharedSimulator; 2],
    /// `t2`'s GNOR PLA.
    pub t2: Arc<GnorPla>,
    /// Truth of `max46` by epoch parity, then of `t2`.
    pub truth: [TruthTable; 3],
    /// Whether every backend's truth equals its specification's.
    pub agree: bool,
}

impl Designs {
    pub fn build() -> Designs {
        let b46 = mcnc::max46();
        let (min46, _) = espresso_with_dc(&b46.on, &b46.dc);
        let bt2 = mcnc::t2();
        let (mint2, _) = espresso_with_dc(&bt2.on, &bt2.dc);
        let g46 = GnorPla::from_cover(&min46);
        let t2 = Arc::new(GnorPla::from_cover(&mint2));
        let truth = [
            TruthTable::from_simulator(&g46),
            TruthTable::from_simulator(&min46),
            TruthTable::from_simulator(&*t2),
        ];
        let agree = truth[0] == TruthTable::from_simulator(&b46.on)
            && truth[1] == truth[0]
            && truth[2] == TruthTable::from_simulator(&bt2.on);
        Designs {
            max46: [Arc::new(g46), Arc::new(min46)],
            t2,
            truth,
            agree,
        }
    }
}

/// What one serving phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each measured, correct reply, ns.
    pub latency_ns: Vec<u64>,
    /// Completions per window of the measured interval.
    pub windows: Windows,
    /// Duration of each hot swap, ns.
    pub swap_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed requests by reason.
    pub reasons: BTreeMap<String, u64>,
    /// How late the pacer sent each measured request, ns (open loop only).
    pub lag_ns: Vec<u64>,
    /// Requests sent but unanswered, sampled at each swap (open loop only).
    pub backlog: Vec<u64>,
    /// The batching layer's counters when the phase ended.
    pub serve: Option<ServeView>,
    pub tracer: Tracer,
}

/// Checks replies against the epoch's truth and times them from due.
struct Checker<'a> {
    sched: &'a [WireReq],
    designs: &'a Designs,
    oracle: &'a EpochOracle,
    warmup_ns: u64,
    seen: Vec<bool>,
    answered: u64,
    failed: u64,
    latency_ns: Reservoir,
    windows: Windows,
    scratch: Vec<bool>,
    reasons: BTreeMap<String, u64>,
}

impl<'a> Checker<'a> {
    fn new(
        sched: &'a [WireReq],
        designs: &'a Designs,
        oracle: &'a EpochOracle,
        warmup_ns: u64,
    ) -> Checker<'a> {
        Checker {
            sched,
            designs,
            oracle,
            warmup_ns,
            seen: vec![false; sched.len()],
            answered: 0,
            failed: 0,
            latency_ns: Reservoir::new(RESERVOIR, 0x1a7e),
            windows: Windows::new(
                warmup_ns,
                sched.last().map_or(warmup_ns, |r| r.due_ns),
                WINDOW,
            ),
            scratch: Vec::new(),
            reasons: BTreeMap::new(),
        }
    }

    fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        *self.reasons.entry(reason.into()).or_default() += 1;
    }

    /// Mark request `idx` answered; `None` if it is unknown or repeated.
    fn claim(&mut self, idx: u64) -> Option<WireReq> {
        let req = *self.sched.get(idx as usize)?;
        if std::mem::replace(&mut self.seen[idx as usize], true) {
            return None;
        }
        self.answered += 1;
        Some(req)
    }

    fn reply(&mut self, idx: u64, epoch: u64, outputs: &[bool], now: u64, tracer: &mut Tracer) {
        let Some(req) = self.claim(idx) else {
            self.fail("unknown or repeated reply");
            return;
        };
        let table = match req.reg {
            0 if (epoch as usize) < self.oracle.len() => &self.designs.truth[(epoch % 2) as usize],
            1 if epoch == 0 => &self.designs.truth[2],
            _ => {
                self.fail("unknown epoch");
                return;
            }
        };
        table.lookup_into(req.bits, &mut self.scratch);
        if self.scratch != outputs {
            self.fail("wrong outputs");
            return;
        }
        tracer.record("wire.request", None, idx, req.due_ns, now);
        if req.due_ns >= self.warmup_ns {
            self.latency_ns.push(now.saturating_sub(req.due_ns));
            self.windows.add(now);
        }
    }

    fn error(&mut self, idx: u64, reason: impl Into<String>) {
        self.claim(idx);
        self.fail(reason);
    }

    fn complete(&self) -> bool {
        self.answered as usize == self.sched.len()
    }

    /// Failures including the requests never answered, by reason.
    fn failures(mut self) -> (u64, BTreeMap<String, u64>) {
        let missing = self.sched.len() as u64 - self.answered;
        if missing > 0 {
            self.reasons.insert("never answered".into(), missing);
        }
        (self.failed + missing, self.reasons)
    }
}

/// Where the pacer sends requests: the wire, or the service in process.
trait Target {
    fn send(&mut self, idx: usize, req: &WireReq, clock: Clock, tracer: &mut Tracer);
    fn flush(&mut self) -> std::io::Result<()>;
}

/// Open-loop pacer state shared by the wire run and its replay.
struct Pacer<'a> {
    sched: &'a [WireReq],
    clock: Clock,
    warmup_ns: u64,
    service: &'a SimService,
    swap_id: SimId,
    designs: &'a Designs,
    oracle: &'a EpochOracle,
    received: &'a AtomicU64,
    done: &'a AtomicBool,
}

impl Pacer<'_> {
    /// Send every request when due; swap `max46` every period. Returns
    /// measured lags, backlog samples and swap durations.
    fn run(&self, target: &mut impl Target, tracer: &mut Tracer) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut lags = Reservoir::new(RESERVOIR, 0x1a6);
        let mut backlog = Vec::new();
        let mut swaps = Vec::new();
        let last_due = self.sched.last().map_or(0, |r| r.due_ns);
        let mut next_swap = SWAP_PERIOD_NS;
        let mut i = 0;
        while i < self.sched.len() {
            let now = self.clock.now_ns();
            if now >= next_swap && next_swap <= last_due {
                let next = self.oracle.len();
                let backend = Arc::clone(&self.designs.max46[next % 2]);
                self.oracle.push(Arc::clone(&backend));
                let t = Instant::now();
                self.service.swap_sim(self.swap_id, backend);
                if now >= self.warmup_ns {
                    swaps.push(t.elapsed().as_nanos() as u64);
                    // Relaxed: `received` is a count sampled as a statistic
                    // and publishes no other data.
                    let answered = self.received.load(Ordering::Relaxed);
                    backlog.push((i as u64).saturating_sub(answered));
                }
                next_swap += SWAP_PERIOD_NS;
                continue;
            }
            let due = self.sched[i].due_ns;
            if due > now {
                let wake = if next_swap <= last_due {
                    due.min(next_swap)
                } else {
                    due
                };
                std::thread::sleep(Duration::from_nanos(wake - now));
                continue;
            }
            while i < self.sched.len() && self.sched[i].due_ns <= now {
                let req = &self.sched[i];
                if req.due_ns >= self.warmup_ns {
                    lags.push(now - req.due_ns);
                }
                target.send(i, req, self.clock, tracer);
                i += 1;
            }
            if target.flush().is_err() {
                break;
            }
        }
        // Release pairs with the receivers' Acquire loads: a receiver that
        // sees `done` also sees every send made before it.
        self.done.store(true, Ordering::Release);
        (lags.into_vec(), backlog, swaps)
    }
}

/// Write all of `buf` to a nonblocking socket.
fn write_all_nb(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(RECV_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct WireTarget {
    writers: [TcpStream; 2],
    bufs: [Vec<u8>; 2],
    keys: [SimKey; 2],
}

impl Target for WireTarget {
    fn send(&mut self, idx: usize, req: &WireReq, clock: Clock, tracer: &mut Tracer) {
        let frame = Frame::Request {
            req_id: idx as u64,
            sim: self.keys[req.reg as usize],
            bits: req.bits,
        };
        let buf = &mut self.bufs[req.conn as usize];
        if tracer.enabled() {
            let t = clock.now_ns();
            encode_frame(&frame, buf);
            tracer.record(
                "net.protocol.encode",
                Some("wire.request"),
                idx as u64,
                t,
                clock.now_ns(),
            );
        } else {
            encode_frame(&frame, buf);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        for (w, buf) in self.writers.iter_mut().zip(&mut self.bufs) {
            if !buf.is_empty() {
                write_all_nb(w, buf)?;
                buf.clear();
            }
        }
        Ok(())
    }
}

/// A connected, authenticated, nonblocking client socket.
fn connect(addr: std::net::SocketAddr, tenant: u64) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = Vec::new();
    encode_frame(
        &Frame::Hello {
            tenant: TenantId::new(tenant),
        },
        &mut hello,
    );
    stream.write_all(&hello)?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 64];
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::HelloOk)) => break,
            Ok(None) => {}
            _ => return Err(std::io::Error::other("handshake refused")),
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        reader.extend(&buf[..n]);
    }
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Everything one `wire_open` phase needs, built before timing starts.
pub struct Rig {
    designs: Designs,
    schedule: Vec<WireReq>,
    service: Arc<SimService>,
    server: Option<NetServer>,
    ids: [SimId; 2],
    keys: [SimKey; 2],
    conns: Vec<TcpStream>,
}

impl Rig {
    /// Build the designs and schedule, start the service, and (for the
    /// wire) bind the server and connect both tenants.
    pub fn setup(seed: u64, seconds: f64, config: ServeConfig, wire: bool) -> std::io::Result<Rig> {
        let designs = Designs::build();
        let schedule = wire_schedule(seed, RATE, seconds, INPUTS);
        let service = Arc::new(SimService::start(config).map_err(std::io::Error::other)?);
        let keys = [key_on_shard(0, 0x46), key_on_shard(1, 0x72)];
        let backends: [SharedSimulator; 2] = [
            Arc::clone(&designs.max46[0]),
            Arc::clone(&designs.t2) as SharedSimulator,
        ];
        let (server, ids, conns) = if wire {
            let server = NetServer::bind(
                "127.0.0.1:0",
                Arc::clone(&service),
                NetConfig {
                    tenant_pending: QUEUE_BOUND,
                    ..NetConfig::default()
                },
            )?;
            let ids = [0, 1].map(|r| server.register_sim(Arc::clone(&backends[r]), keys[r]));
            let addr = server.local_addr();
            let conns = vec![connect(addr, 1)?, connect(addr, 2)?];
            (Some(server), ids, conns)
        } else {
            let ids = [0, 1].map(|r| service.register_sim(Arc::clone(&backends[r]), keys[r]));
            (None, ids, Vec::new())
        };
        Ok(Rig {
            designs,
            schedule,
            service,
            server,
            ids,
            keys,
            conns,
        })
    }

    /// Run the schedule, measuring requests due after `warmup_ns`.
    pub fn run(mut self, warmup_ns: u64, traced: bool) -> Phase {
        let oracle = EpochOracle::new(Arc::clone(&self.designs.max46[0]));
        let received = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let clock = Clock::start();
        let pacer = Pacer {
            sched: &self.schedule,
            clock,
            warmup_ns,
            service: &self.service,
            swap_id: self.ids[0],
            designs: &self.designs,
            oracle: &oracle,
            received: &received,
            done: &done,
        };
        let mut checker = Checker::new(&self.schedule, &self.designs, &oracle, warmup_ns);
        let mut rx_tracer = Tracer::new(traced);
        let mut tx_tracer = Tracer::new(traced);
        let (lags, backlog, swaps) = if self.server.is_some() {
            let mut readers = std::mem::take(&mut self.conns);
            let mut target = WireTarget {
                writers: [
                    readers[0].try_clone().expect("clone socket"),
                    readers[1].try_clone().expect("clone socket"),
                ],
                bufs: [Vec::new(), Vec::new()],
                keys: self.keys,
            };
            std::thread::scope(|s| {
                let tx = s.spawn(|| pacer.run(&mut target, &mut tx_tracer));
                receive_wire(
                    &mut readers,
                    &mut checker,
                    clock,
                    &received,
                    &done,
                    &mut rx_tracer,
                );
                tx.join().expect("pacer thread")
            })
        } else {
            let (sink, stream) = reply_channel();
            let refused_n = AtomicU64::new(0);
            let mut target = ServeTarget {
                service: &self.service,
                ids: self.ids,
                sink,
                refused: Vec::new(),
                refused_n: &refused_n,
            };
            let (out, refused) = std::thread::scope(|s| {
                let tx = s.spawn(|| {
                    let out = pacer.run(&mut target, &mut tx_tracer);
                    (out, std::mem::take(&mut target.refused))
                });
                receive_serve(&stream, &mut checker, clock, &received, &done, &refused_n);
                tx.join().expect("pacer thread")
            });
            for idx in refused {
                checker.error(idx, "queue full");
            }
            out
        };
        rx_tracer.merge(tx_tracer);
        let serve = ServeView::of(&self.service);
        let latency_ns =
            std::mem::replace(&mut checker.latency_ns, Reservoir::new(0, 0)).into_vec();
        let windows = std::mem::take(&mut checker.windows);
        if !self.designs.agree {
            checker.fail("backend truth differs from the specification");
        }
        let (failed, reasons) = checker.failures();
        let phase = Phase {
            attempted: self.schedule.len() as u64,
            failed,
            reasons,
            latency_ns,
            windows,
            swap_ns: swaps,
            lag_ns: lags,
            backlog,
            serve: Some(serve),
            tracer: rx_tracer,
        };
        self.teardown();
        phase
    }

    /// Close the connections, stop the server and the service.
    fn teardown(mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// Poll both sockets until every request is answered, or the pacer has
/// finished and [`DRAIN_TIMEOUT`] has passed.
fn receive_wire(
    conns: &mut [TcpStream],
    checker: &mut Checker<'_>,
    clock: Clock,
    received: &AtomicU64,
    done: &AtomicBool,
    tracer: &mut Tracer,
) {
    let mut readers = [FrameReader::new(), FrameReader::new()];
    let mut open = [true, true];
    let mut buf = vec![0u8; 64 * 1024];
    let mut drain_start: Option<Instant> = None;
    while !checker.complete() {
        let mut got = false;
        for c in 0..conns.len() {
            while open[c] {
                match conns[c].read(&mut buf) {
                    Ok(0) => open[c] = false,
                    Ok(n) => {
                        got = true;
                        let now = clock.now_ns();
                        readers[c].extend(&buf[..n]);
                        loop {
                            let t = if tracer.enabled() { clock.now_ns() } else { 0 };
                            match readers[c].next_frame() {
                                Ok(Some(Frame::Reply {
                                    req_id,
                                    epoch,
                                    outputs,
                                })) => {
                                    if tracer.enabled() {
                                        let e = clock.now_ns();
                                        tracer.record(
                                            "net.protocol.decode",
                                            Some("wire.request"),
                                            req_id,
                                            t,
                                            e,
                                        );
                                    }
                                    checker.reply(req_id, epoch, &outputs, now, tracer);
                                }
                                Ok(Some(Frame::Error { req_id, code })) => {
                                    checker.error(req_id, format!("error frame {code:?}"))
                                }
                                Ok(None) => break,
                                Ok(Some(_)) | Err(_) => {
                                    checker.fail("bad frame");
                                    open[c] = false;
                                    break;
                                }
                            }
                        }
                        // Relaxed: a count the pacer samples as a statistic.
                        received.store(checker.answered, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => open[c] = false,
                }
            }
        }
        if got {
            continue;
        }
        // Acquire pairs with the pacer's Release store of `done`.
        if done.load(Ordering::Acquire) {
            let start = *drain_start.get_or_insert_with(Instant::now);
            if start.elapsed() > DRAIN_TIMEOUT || !open.iter().any(|&o| o) {
                return;
            }
        }
        std::thread::sleep(RECV_POLL);
    }
}

struct ServeTarget<'a> {
    service: &'a SimService,
    ids: [SimId; 2],
    sink: ambipla_serve::ReplySink,
    refused: Vec<u64>,
    refused_n: &'a AtomicU64,
}

impl Target for ServeTarget<'_> {
    fn send(&mut self, idx: usize, req: &WireReq, clock: Clock, tracer: &mut Tracer) {
        let id = self.ids[req.reg as usize];
        let t = if tracer.enabled() { clock.now_ns() } else { 0 };
        let res = self
            .service
            .try_submit_tagged(id, req.bits, idx as u64, &self.sink);
        if tracer.enabled() {
            tracer.record(
                "serve.submit",
                Some("wire.request"),
                idx as u64,
                t,
                clock.now_ns(),
            );
        }
        if res.is_err() {
            self.refused.push(idx as u64);
            // Relaxed: a count that only bounds the receiver's wait; the
            // refused ids reach it through the thread join.
            self.refused_n.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The in-process twin of [`receive_wire`]: poll the reply stream the
/// same way, so client-side polling costs the same in both.
fn receive_serve(
    stream: &ambipla_serve::ReplyStream,
    checker: &mut Checker<'_>,
    clock: Clock,
    received: &AtomicU64,
    done: &AtomicBool,
    refused: &AtomicU64,
) {
    let mut off = Tracer::new(false);
    let mut drain_start: Option<Instant> = None;
    let total = checker.sched.len() as u64;
    // Relaxed: the refusal count only bounds the wait (see ServeTarget).
    while checker.answered + refused.load(Ordering::Relaxed) < total {
        let mut got = false;
        let mut now = 0;
        while let Some(reply) = stream.try_recv() {
            if !got {
                now = clock.now_ns();
                got = true;
            }
            checker.reply(reply.tag, reply.epoch, &reply.outputs, now, &mut off);
        }
        if got {
            // Relaxed: a count the pacer samples as a statistic.
            received.store(checker.answered, Ordering::Relaxed);
            continue;
        }
        // Acquire pairs with the pacer's Release store of `done`.
        if done.load(Ordering::Acquire) {
            let start = *drain_start.get_or_insert_with(Instant::now);
            if start.elapsed() > DRAIN_TIMEOUT {
                return;
            }
        }
        std::thread::sleep(RECV_POLL);
    }
}
