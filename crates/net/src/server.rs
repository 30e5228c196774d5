//! The TCP front end: accept loop, a reader and a writer thread per
//! connection, and the deficit-round-robin dispatcher feeding the
//! sharded [`SimService`].
//!
//! ```text
//!  TCP clients      ┌────────────────────────── NetServer ─────────────────────────┐
//!  Hello{tenant} ───┤ reader threads       DRR scheduler          dispatcher       │
//!  Request ─────────┼▶ decode → route      [tenant 1  ████░]      try_submit_tagged│
//!  Request ─────────┤  → arity → quota  ─▶ [tenant 2  █░░░░] ──▶  → SimService     │
//!   └─ Error ◀──────┤  (token bucket)      quantum per turn        shards          │
//!  Reply ◀──────────┴── writer ◀── per-conn outbox ◀── deliver ◀── batcher flush ──┘
//! ```
//!
//! Each connection authenticates one [`TenantId`] in its hello frame,
//! then streams requests; admission control (unknown sim, arity, quota)
//! happens on the connection's reader thread, fair scheduling across
//! tenants happens in the internal scheduler (deficit round robin, one
//! queue per tenant), and a single dispatcher thread drains scheduled
//! batches into the sharded service. Replies are streamed out of order,
//! correlated by `req_id`.
//!
//! Everything is plain blocking `std::net` — no async runtime exists in
//! the offline build environment — and every thread blocks until work
//! arrives: the accept thread in `accept`, each reader in `read`, the
//! dispatcher on the scheduler's condvar, and each writer on its
//! connection's outbox. The outbox is a mutex-and-condvar queue of
//! encoded frames that the reader (error frames), the dispatcher
//! (`QueueFull` refusals) and the batcher threads (replies, through its
//! [`ReplyTarget`] impl) append to; the writer is the only thread that
//! writes the socket. Shutdown wakes the accept thread with one loopback
//! connect and every reader by shutting its socket down.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

use ambipla_obs::{monotonic_ns, Event, EventKind, MetricFamily, MetricKind, Recorder, Sample};
use ambipla_serve::{ReplySink, ReplyTarget, SharedSim, SimId, SimKey, SimReply, SimService};

use crate::protocol::{encode_frame, ErrorCode, Frame, FrameReader};
use crate::tenant::{QuotaConfig, TenantId, TenantRegistry, TenantSnapshot, TenantState};

/// Front-end configuration (the service itself is configured by
/// `ambipla_serve::ServeConfig`).
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Quota handed to tenants on first hello (default: unlimited).
    pub default_quota: QuotaConfig,
    /// Per-tenant cap on requests waiting in the scheduler; admissions
    /// beyond it are rejected as `QueueFull` before reaching the
    /// service.
    pub tenant_pending: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            default_quota: QuotaConfig::unlimited(),
            tenant_pending: 4096,
        }
    }
}

/// Deficit-round-robin quantum: how many requests one tenant may
/// dispatch per scheduling turn before the next tenant runs.
const DRR_QUANTUM: usize = 64;

/// An exposed registration: service id plus its input mask.
#[derive(Debug, Clone, Copy)]
struct Route {
    id: SimId,
    /// Bits a request may legally set: `(1 << n_inputs) - 1`.
    mask: u64,
}

/// A connection's encoded outbound frames, waiting for its writer
/// thread: replies delivered by batcher threads, the reader's error
/// frames, and the dispatcher's `QueueFull` refusals. The writer blocks
/// on `ready` until one lands.
struct Outbox {
    frames: Mutex<OutboxFrames>,
    ready: Condvar,
    /// The connection's tenant, billed for every reply queued here.
    tenant: Arc<TenantState>,
}

#[derive(Default)]
struct OutboxFrames {
    bytes: Vec<u8>,
    /// Set when the connection ends; frames pushed after it are dropped.
    closed: bool,
}

impl Outbox {
    fn new(tenant: Arc<TenantState>) -> Outbox {
        Outbox {
            frames: Mutex::new(OutboxFrames::default()),
            ready: Condvar::new(),
            tenant,
        }
    }

    /// Queue `frame` for the writer; dropped once the connection closed.
    ///
    /// Lock poisoning is recovered as in the scheduler: every critical
    /// section leaves whole frames and a valid flag behind.
    fn push(&self, frame: &Frame) {
        let mut out = self
            .frames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if out.closed {
            return;
        }
        if matches!(frame, Frame::Reply { .. }) {
            // Counted before the writer can send it, so a client that
            // has read a reply finds it in the tenant's counters.
            self.tenant.record_reply();
        }
        let was_empty = out.bytes.is_empty();
        encode_frame(frame, &mut out.bytes);
        drop(out);
        // The writer only waits on an empty outbox, so only the first
        // frame after it drained has to wake it.
        if was_empty {
            self.ready.notify_one();
        }
    }

    /// Block until frames are queued, then swap them into `buf` (empty
    /// on entry, so the two buffers trade places without allocating).
    /// `false` once the connection is closed.
    fn wait_bytes(&self, buf: &mut Vec<u8>) -> bool {
        let mut out = self
            .frames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while out.bytes.is_empty() && !out.closed {
            out = self
                .ready
                .wait(out)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if out.closed {
            return false;
        }
        std::mem::swap(&mut out.bytes, buf);
        true
    }

    /// End the connection from either of its threads: drop queued
    /// frames, refuse later ones, wake the writer, and unblock whichever
    /// thread sits in the socket.
    fn hang_up(&self, stream: &TcpStream) {
        let mut out = self
            .frames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.closed = true;
        out.bytes = Vec::new();
        drop(out);
        self.ready.notify_all();
        let _ = stream.shutdown(Shutdown::Both);
    }
}

impl ReplyTarget for Outbox {
    fn deliver(&self, reply: SimReply) {
        self.push(&Frame::Reply {
            req_id: reply.tag,
            epoch: reply.epoch,
            outputs: reply.outputs,
        });
    }
}

/// One admitted request waiting for dispatch.
struct Pending {
    route: Route,
    bits: u64,
    req_id: u64,
    sink: ReplySink,
    outbox: Arc<Outbox>,
}

impl Pending {
    /// Refuse the request as `QueueFull` on its connection.
    fn refuse(&self) {
        self.outbox.tenant.record_queue_full();
        self.outbox.push(&Frame::Error {
            req_id: self.req_id,
            code: ErrorCode::QueueFull,
        });
    }
}

/// One tenant's scheduler queue.
struct TenantQueue {
    deficit: usize,
    q: VecDeque<Pending>,
    /// Whether this queue currently sits in the active rotation.
    active: bool,
}

struct SchedInner {
    queues: Vec<TenantQueue>,
    /// Tenant raw id → index into `queues`.
    slot_of: HashMap<u64, usize>,
    /// Round-robin rotation of queues with work.
    rotation: VecDeque<usize>,
    stopping: bool,
}

/// Deficit-round-robin scheduler: per-tenant FIFO queues, each granted
/// `quantum` dispatch credits per rotation turn, so a firehose tenant
/// cannot starve a trickle tenant however deep its backlog.
struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
    quantum: usize,
    tenant_pending: usize,
}

impl Scheduler {
    fn new(quantum: usize, tenant_pending: usize) -> Scheduler {
        Scheduler {
            inner: Mutex::new(SchedInner {
                queues: Vec::new(),
                slot_of: HashMap::new(),
                rotation: VecDeque::new(),
                stopping: false,
            }),
            cv: Condvar::new(),
            quantum: quantum.max(1),
            tenant_pending: tenant_pending.max(1),
        }
    }

    /// The queue slot for a tenant, created on first use.
    ///
    /// Lock poisoning throughout the scheduler is recovered with
    /// `PoisonError::into_inner`: queue state is a set of independent
    /// FIFOs plus counters, every mutation leaves it consistent, and a
    /// panicking dispatcher must not take the whole listener down.
    fn tenant_slot(&self, raw: u64) -> usize {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&slot) = inner.slot_of.get(&raw) {
            return slot;
        }
        let slot = inner.queues.len();
        inner.queues.push(TenantQueue {
            deficit: 0,
            q: VecDeque::new(),
            active: false,
        });
        inner.slot_of.insert(raw, slot);
        slot
    }

    /// Queue a batch of admitted requests for `slot`; returns the ones
    /// rejected by the per-tenant pending cap.
    fn enqueue(&self, slot: usize, batch: Vec<Pending>) -> Vec<Pending> {
        let mut rejected = Vec::new();
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for p in batch {
            let tq = &mut inner.queues[slot];
            if tq.q.len() >= self.tenant_pending {
                rejected.push(p);
            } else {
                tq.q.push_back(p);
            }
        }
        let tq = &mut inner.queues[slot];
        if !tq.q.is_empty() && !tq.active {
            tq.active = true;
            inner.rotation.push_back(slot);
        }
        drop(inner);
        self.cv.notify_one();
        rejected
    }

    /// Block for the next DRR batch; `None` only after [`stop`] once
    /// every queue has drained, so shutdown never drops admitted work.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(slot) = inner.rotation.pop_front() {
                let quantum = self.quantum;
                let tq = &mut inner.queues[slot];
                tq.deficit += quantum;
                let take = tq.deficit.min(tq.q.len());
                let batch: Vec<Pending> = tq.q.drain(..take).collect();
                tq.deficit -= take;
                if tq.q.is_empty() {
                    tq.active = false;
                    tq.deficit = 0;
                } else {
                    inner.rotation.push_back(slot);
                }
                if !batch.is_empty() {
                    return Some(batch);
                }
                continue;
            }
            if inner.stopping {
                return None;
            }
            inner = self
                .cv
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn stop(&self) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stopping = true;
        self.cv.notify_all();
    }
}

/// An accepted connection: the server's own handle on its socket, so
/// shutdown can unblock the reader, and the reader thread.
struct Accepted {
    stream: TcpStream,
    reader: JoinHandle<()>,
}

/// Shared state between accept loop, connection threads and dispatcher.
struct ServerCtx {
    service: Arc<SimService>,
    /// Raw `SimKey` → route, for the request hot path.
    routes: RwLock<HashMap<u64, Route>>,
    tenants: TenantRegistry,
    sched: Scheduler,
    recorder: Option<Arc<dyn Recorder>>,
    stop: AtomicBool,
    conns: Mutex<Vec<Accepted>>,
    conn_seq: AtomicU32,
}

impl ServerCtx {
    fn record(&self, kind: EventKind) {
        if let Some(r) = &self.recorder {
            r.record(Event::now(kind));
        }
    }

    /// Every tracked connection, leaving none behind.
    fn take_conns(&self) -> Vec<Accepted> {
        std::mem::take(
            &mut *self
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// The multi-tenant TCP front end over a (typically sharded)
/// [`SimService`].
///
/// ```no_run
/// use ambipla_net::{NetClient, NetConfig, NetServer, TenantId};
/// use ambipla_serve::{SimKey, SimService};
/// use logic::Cover;
/// use std::sync::Arc;
///
/// let service = Arc::new(SimService::with_defaults());
/// let server =
///     NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
/// let xor = Cover::parse("10 1\n01 1", 2, 1).unwrap();
/// let key = SimKey::of_cover(&xor);
/// server.register_sim(Arc::new(xor), key);
///
/// let mut client = NetClient::connect(server.local_addr(), TenantId::new(1)).unwrap();
/// match client.call(key, 7, 0b01).unwrap() {
///     ambipla_net::Frame::Reply { req_id, outputs, .. } => {
///         assert_eq!((req_id, outputs), (7, vec![true]));
///     }
///     other => panic!("unexpected frame {other:?}"),
/// }
/// ```
pub struct NetServer {
    ctx: Arc<ServerCtx>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept loop and dispatcher over `service`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<SimService>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_inner(addr, service, config, None)
    }

    /// [`bind`](NetServer::bind), with connection-lifecycle and
    /// quota-reject events flowing to `recorder`.
    pub fn bind_with_recorder<A: ToSocketAddrs>(
        addr: A,
        service: Arc<SimService>,
        config: NetConfig,
        recorder: Arc<dyn Recorder>,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_inner(addr, service, config, Some(recorder))
    }

    fn bind_inner<A: ToSocketAddrs>(
        addr: A,
        service: Arc<SimService>,
        config: NetConfig,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(ServerCtx {
            service,
            routes: RwLock::new(HashMap::new()),
            tenants: TenantRegistry::new(config.default_quota),
            sched: Scheduler::new(DRR_QUANTUM, config.tenant_pending),
            recorder,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            conn_seq: AtomicU32::new(0),
        });
        let accept_ctx = Arc::clone(&ctx);
        // Thread spawning can fail under resource exhaustion; bind
        // already returns io::Result, so surface it instead of panicking.
        let accept = std::thread::Builder::new()
            .name("ambipla-net-accept".into())
            .spawn(move || accept_loop(listener, accept_ctx))?;
        let mut server = NetServer {
            ctx,
            accept: Some(accept),
            dispatcher: None,
            addr,
        };
        let disp_ctx = Arc::clone(&server.ctx);
        // If this spawn fails, dropping `server` stops and reaps the
        // accept loop before the error is reported.
        server.dispatcher = Some(
            std::thread::Builder::new()
                .name("ambipla-net-dispatch".into())
                .spawn(move || dispatch_loop(disp_ctx))?,
        );
        Ok(server)
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Expose an already-registered service id under `key` so network
    /// requests can reach it.
    pub fn expose(&self, key: SimKey, id: SimId) {
        let (n_inputs, _) = self.ctx.service.arity(id);
        let mask = if n_inputs >= 64 {
            !0
        } else {
            (1u64 << n_inputs) - 1
        };
        self.ctx
            .routes
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key.raw(), Route { id, mask });
    }

    /// Register `sim` on the service under `key` and expose it in one
    /// step.
    pub fn register_sim(&self, sim: SharedSim, key: SimKey) -> SimId {
        let id = self.ctx.service.register_sim(sim, key);
        self.expose(key, id);
        id
    }

    /// Set (or reset) `tenant`'s quota; the new token bucket starts
    /// full.
    pub fn set_quota(&self, tenant: TenantId, quota: QuotaConfig) {
        self.ctx.tenants.set_quota(tenant, quota, monotonic_ns());
    }

    /// Per-tenant counter snapshots, sorted by tenant id.
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.ctx.tenants.snapshots()
    }

    /// Front-end metric families, every sample labeled by `tenant`.
    ///
    /// Seven families: requests, quota rejects, queue-full rejects, bad
    /// requests (labeled by `kind`), replies, live connections (gauge)
    /// and lifetime accepts. Service-side families come from
    /// `SimService::metric_families` — concatenate for a full scrape.
    pub fn metric_families(&self) -> Vec<MetricFamily> {
        let snaps = self.ctx.tenants.snapshots();
        let tl = |s: &TenantSnapshot| vec![("tenant".to_string(), s.id.raw().to_string())];
        let counter = |name: &'static str, help: &'static str, pick: fn(&TenantSnapshot) -> u64| {
            MetricFamily::new(
                name,
                help,
                MetricKind::Counter,
                snaps
                    .iter()
                    .map(|s| Sample::new(tl(s), pick(s) as f64))
                    .collect(),
            )
        };
        let mut bad = Vec::new();
        for s in &snaps {
            let mut labels = tl(s);
            labels.push(("kind".to_string(), "unknown_sim".to_string()));
            bad.push(Sample::new(labels, s.unknown_sim as f64));
            let mut labels = tl(s);
            labels.push(("kind".to_string(), "bad_arity".to_string()));
            bad.push(Sample::new(labels, s.bad_arity as f64));
        }
        vec![
            counter(
                "ambipla_net_requests_total",
                "Requests admitted past quota into the scheduler",
                |s| s.accepted,
            ),
            counter(
                "ambipla_net_quota_rejects_total",
                "Requests rejected by the tenant token bucket",
                |s| s.quota_rejected,
            ),
            counter(
                "ambipla_net_queue_full_total",
                "Requests rejected by scheduler or service backpressure",
                |s| s.queue_full,
            ),
            MetricFamily::new(
                "ambipla_net_bad_requests_total",
                "Malformed requests (unknown sim key or out-of-arity bits)",
                MetricKind::Counter,
                bad,
            ),
            counter(
                "ambipla_net_replies_total",
                "Replies streamed back to clients",
                |s| s.replies,
            ),
            MetricFamily::new(
                "ambipla_net_connections",
                "Currently open authenticated connections",
                MetricKind::Gauge,
                snaps
                    .iter()
                    .map(|s| Sample::new(tl(s), s.connections as f64))
                    .collect(),
            ),
            counter(
                "ambipla_net_accepts_total",
                "Lifetime authenticated connections",
                |s| s.accepts,
            ),
        ]
    }

    fn stop_threads(&mut self) {
        // Relaxed store/load on the stop flag: it is a standalone
        // cooperative-shutdown bit guarding no other data, and the
        // thread joins below provide the synchronization for everything
        // the loops touched. SeqCst would buy nothing here.
        self.ctx.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            // Wake the blocked `accept` with a connection of our own; if
            // even that fails, leave the thread detached rather than hang.
            if TcpStream::connect(loopback(self.addr)).is_ok() {
                let _ = h.join();
            }
        }
        // The accept loop is gone, so these are all the connections
        // there will be. Shutting a socket down wakes its reader, which
        // then hangs up and joins its writer.
        let conns = self.ctx.take_conns();
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for c in conns {
            let _ = c.reader.join();
        }
        // Connections are gone; drain whatever they admitted, then stop.
        self.ctx.sched.stop();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, close every connection, drain the scheduler and
    /// join all threads. The underlying service keeps running.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// `addr` with an unspecified IP (`0.0.0.0`, `::`) replaced by the
/// loopback address of the same family, so the server can reach its
/// own listener.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    addr
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    for stream in listener.incoming() {
        // Relaxed load: cooperative stop flag, synchronized by join (see
        // stop_threads). The connection that woke us is not served.
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else {
            break;
        };
        // Without its own handle the server could not unblock this
        // connection's reader at shutdown: refuse the connection.
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        // Relaxed: monotonic connection-id allocator; ids only need
        // uniqueness, not ordering against other data.
        let slot = ctx.conn_seq.fetch_add(1, Ordering::Relaxed);
        let conn_ctx = Arc::clone(&ctx);
        // Spawn failure (fd/thread exhaustion) drops the stream, refusing
        // this connection, and keeps serving the ones we have.
        if let Ok(reader) = std::thread::Builder::new()
            .name(format!("ambipla-net-conn-{slot}"))
            .spawn(move || conn_loop(stream, slot, conn_ctx))
        {
            let mut conns = ctx
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Forget connections that have ended, closing their sockets.
            conns.retain(|c| !c.reader.is_finished());
            conns.push(Accepted {
                stream: handle,
                reader,
            });
        }
    }
}

fn dispatch_loop(ctx: Arc<ServerCtx>) {
    while let Some(batch) = ctx.sched.next_batch() {
        for p in batch {
            if ctx
                .service
                .try_submit_tagged(p.route.id, p.bits, p.req_id, &p.sink)
                .is_err()
            {
                p.refuse();
            }
        }
    }
}

/// Block until more bytes arrive and hand them to `frames`; `false` on
/// EOF, a socket error, or server shutdown.
fn fill(mut stream: &TcpStream, frames: &mut FrameReader, buf: &mut [u8], ctx: &ServerCtx) -> bool {
    loop {
        match stream.read(buf) {
            Ok(0) => return false,
            Ok(n) => {
                frames.extend(&buf[..n]);
                // Relaxed: cooperative stop flag, synchronized by join.
                return !ctx.stop.load(Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Block until the client's `Hello`. `None` if the stream ended, errored
/// or sent garbage, opened with any other frame, or the server stopped.
fn read_hello(
    stream: &TcpStream,
    frames: &mut FrameReader,
    buf: &mut [u8],
    ctx: &ServerCtx,
) -> Option<TenantId> {
    loop {
        match frames.next_frame() {
            Ok(Some(Frame::Hello { tenant })) => return Some(tenant),
            Ok(Some(_)) | Err(_) => return None,
            Ok(None) => {}
        }
        if !fill(stream, frames, buf, ctx) {
            return None;
        }
    }
}

/// A connection's reader thread: the hello, then [`read_loop`] with a
/// writer thread draining the connection's outbox beside it.
fn conn_loop(stream: TcpStream, conn_slot: u32, ctx: Arc<ServerCtx>) {
    let mut frames = FrameReader::new();
    let mut buf = vec![0u8; 16 * 1024];
    let hello = match stream.set_nodelay(true) {
        Ok(()) => read_hello(&stream, &mut frames, &mut buf, &ctx),
        Err(_) => None,
    };
    let Some(tenant_id) = hello else {
        // The server's own handle keeps the socket open: end it here.
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let tenant = ctx.tenants.get_or_create(tenant_id, monotonic_ns());
    tenant.record_connect();
    ctx.record(EventKind::Accept {
        tenant: tenant_id.raw(),
        slot: conn_slot,
    });
    let outbox = Arc::new(Outbox::new(Arc::clone(&tenant)));
    outbox.push(&Frame::HelloOk);
    let writer = stream.try_clone().and_then(|s| {
        let outbox = Arc::clone(&outbox);
        std::thread::Builder::new()
            .name(format!("ambipla-net-write-{conn_slot}"))
            .spawn(move || write_loop(s, &outbox))
    });
    if writer.is_ok() {
        read_loop(&stream, &mut frames, &mut buf, &outbox, &ctx);
    }
    outbox.hang_up(&stream);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
    tenant.record_disconnect();
    ctx.record(EventKind::Disconnect {
        tenant: tenant_id.raw(),
        slot: conn_slot,
    });
}

/// Decode, route and admit requests until EOF, a protocol violation, a
/// socket error or server shutdown.
fn read_loop(
    stream: &TcpStream,
    frames: &mut FrameReader,
    buf: &mut [u8],
    outbox: &Arc<Outbox>,
    ctx: &ServerCtx,
) {
    let tenant = &outbox.tenant;
    let slot = ctx.sched.tenant_slot(tenant.id.raw());
    let sink = ReplySink::new(Arc::clone(outbox) as Arc<dyn ReplyTarget>);
    let mut admitted: Vec<Pending> = Vec::new();
    let mut open = true;
    while open && fill(stream, frames, buf, ctx) {
        loop {
            match frames.next_frame() {
                Ok(Some(Frame::Request { req_id, sim, bits })) => {
                    let route = ctx
                        .routes
                        .read()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .get(&sim.raw())
                        .copied();
                    match route {
                        None => {
                            tenant.record_unknown_sim();
                            outbox.push(&Frame::Error {
                                req_id,
                                code: ErrorCode::UnknownSim,
                            });
                        }
                        Some(route) if bits & !route.mask != 0 => {
                            tenant.record_bad_arity();
                            outbox.push(&Frame::Error {
                                req_id,
                                code: ErrorCode::BadArity,
                            });
                        }
                        Some(route) => {
                            if tenant.try_take_token(monotonic_ns()) {
                                tenant.record_accepted();
                                admitted.push(Pending {
                                    route,
                                    bits,
                                    req_id,
                                    sink: sink.clone(),
                                    outbox: Arc::clone(outbox),
                                });
                            } else {
                                tenant.record_quota_reject();
                                ctx.record(EventKind::QuotaReject {
                                    tenant: tenant.id.raw(),
                                    slot: route.id.slot_index(),
                                });
                                outbox.push(&Frame::Error {
                                    req_id,
                                    code: ErrorCode::QuotaExceeded,
                                });
                            }
                        }
                    }
                }
                Ok(None) => break,
                // Anything else post-hello is a protocol violation.
                Ok(Some(_)) | Err(_) => {
                    open = false;
                    break;
                }
            }
        }
        // Hand admitted requests to the fair scheduler; over-cap
        // spillback is refused right here.
        if !admitted.is_empty() {
            for p in ctx.sched.enqueue(slot, std::mem::take(&mut admitted)) {
                p.refuse();
            }
        }
    }
}

/// A connection's writer thread: write whatever the outbox collects
/// until the connection ends, then hang up so a blocked reader wakes.
fn write_loop(mut stream: TcpStream, outbox: &Outbox) {
    let mut bytes = Vec::new();
    while outbox.wait_bytes(&mut bytes) {
        if stream.write_all(&bytes).is_err() {
            break;
        }
        bytes.clear();
    }
    outbox.hang_up(&stream);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetClient;
    use ambipla_serve::{reply_channel, ServeConfig, TierPolicy};
    use logic::Cover;
    use std::time::{Duration, Instant};

    fn xor() -> Cover {
        Cover::parse("10 1\n01 1", 2, 1).expect("xor cover")
    }

    /// A batched service: these tests drive the wire, the scheduler and
    /// the service's queue bound, not the truth-table tier.
    fn service(shards: usize) -> Arc<SimService> {
        Arc::new(
            SimService::start(ServeConfig {
                shards,
                max_wait: Duration::from_micros(100),
                tier_policy: TierPolicy::Disabled,
                ..ServeConfig::default()
            })
            .expect("valid config"),
        )
    }

    #[test]
    fn drr_scheduler_is_fair_across_tenants() {
        let sched = Scheduler::new(4, 1024);
        let (sink, _stream) = reply_channel();
        let service = service(1);
        let id = service.register_sim(Arc::new(xor()), SimKey::new(1));
        let route = Route { id, mask: 0b11 };
        let tenants = TenantRegistry::new(QuotaConfig::unlimited());
        let mk = |tenant: u64, n: usize| -> Vec<Pending> {
            let state = tenants.get_or_create(TenantId::new(tenant), 0);
            let outbox = Arc::new(Outbox::new(state));
            (0..n)
                .map(|i| Pending {
                    route,
                    bits: 0,
                    req_id: tenant * 1000 + i as u64,
                    sink: sink.clone(),
                    outbox: Arc::clone(&outbox),
                })
                .collect()
        };
        // Tenant 1 floods 40 requests, tenant 2 queues 4.
        let s1 = sched.tenant_slot(1);
        let s2 = sched.tenant_slot(2);
        assert!(sched.enqueue(s1, mk(1, 40)).is_empty());
        assert!(sched.enqueue(s2, mk(2, 4)).is_empty());
        sched.stop();
        // With quantum 4, tenant 2's requests must all dispatch within
        // the first two turns — fairness despite tenant 1's backlog.
        let mut order = Vec::new();
        while let Some(batch) = sched.next_batch() {
            for p in batch {
                order.push(p.req_id);
            }
        }
        assert_eq!(order.len(), 44);
        let t2_last = order
            .iter()
            .rposition(|&id| id / 1000 == 2)
            .expect("tenant 2 dispatched");
        assert!(
            t2_last < 12,
            "tenant 2 finished at position {t2_last}, starved by tenant 1"
        );
    }

    #[test]
    fn scheduler_enforces_tenant_pending_cap() {
        let sched = Scheduler::new(4, 2);
        let (sink, _stream) = reply_channel();
        let service = service(1);
        let id = service.register_sim(Arc::new(xor()), SimKey::new(1));
        let route = Route { id, mask: 0b11 };
        let tenants = TenantRegistry::new(QuotaConfig::unlimited());
        let outbox = Arc::new(Outbox::new(tenants.get_or_create(TenantId::new(1), 0)));
        let slot = sched.tenant_slot(1);
        let batch: Vec<Pending> = (0..5)
            .map(|i| Pending {
                route,
                bits: 0,
                req_id: i,
                sink: sink.clone(),
                outbox: Arc::clone(&outbox),
            })
            .collect();
        let rejected = sched.enqueue(slot, batch);
        assert_eq!(
            rejected.iter().map(|p| p.req_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn loopback_round_trip_and_counters() {
        let service = service(2);
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(77);
        server.register_sim(Arc::new(xor()), key);

        let mut client =
            NetClient::connect(server.local_addr(), TenantId::new(5)).expect("connect");
        for (bits, want) in [(0b00u64, false), (0b01, true), (0b10, true), (0b11, false)] {
            let reply = client.call(key, bits, bits).expect("call");
            match reply {
                Frame::Reply {
                    req_id, outputs, ..
                } => {
                    assert_eq!(req_id, bits);
                    assert_eq!(outputs, vec![want]);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }

        // Unknown sim and out-of-arity bits come back as typed errors.
        let err = client.call(SimKey::new(999), 50, 0).expect("call");
        assert_eq!(
            err,
            Frame::Error {
                req_id: 50,
                code: ErrorCode::UnknownSim
            }
        );
        let err = client.call(key, 51, 0b100).expect("call");
        assert_eq!(
            err,
            Frame::Error {
                req_id: 51,
                code: ErrorCode::BadArity
            }
        );

        let stats = server.tenant_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].id, TenantId::new(5));
        assert_eq!(stats[0].accepted, 4);
        assert_eq!(stats[0].replies, 4);
        assert_eq!(stats[0].unknown_sim, 1);
        assert_eq!(stats[0].bad_arity, 1);
        assert_eq!(stats[0].connections, 1);

        let families = server.metric_families();
        assert_eq!(families.len(), 7);
        server.shutdown();
    }

    #[test]
    fn quota_rejects_surface_as_typed_errors() {
        let service = service(1);
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(8);
        server.register_sim(Arc::new(xor()), key);
        // Burst of 3, no refill: the 4th request must be rejected.
        server.set_quota(
            TenantId::new(2),
            QuotaConfig {
                rate_per_sec: 0,
                burst: 3,
            },
        );
        let mut client =
            NetClient::connect(server.local_addr(), TenantId::new(2)).expect("connect");
        let mut ok = 0;
        let mut rejected = 0;
        for i in 0..5u64 {
            match client.call(key, i, 0b01).expect("call") {
                Frame::Reply { outputs, .. } => {
                    assert_eq!(outputs, vec![true]);
                    ok += 1;
                }
                Frame::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::QuotaExceeded);
                    rejected += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!((ok, rejected), (3, 2));
        let stats = server.tenant_stats();
        assert_eq!(stats[0].quota_rejected, 2);
        server.shutdown();
    }

    /// A `QueueFull` the service raises after the scheduler admitted the
    /// request reaches a client that sends nothing more: the dispatcher's
    /// refusal alone wakes the connection's writer.
    #[test]
    fn dispatcher_queue_full_reaches_an_idle_client() {
        let service = Arc::new(
            SimService::start(ServeConfig {
                queue_depth: 1,
                // The first request holds the only queue slot throughout:
                // batched, it waits out the deadline instead of being
                // answered from a table.
                max_wait: Duration::from_secs(10),
                tier_policy: TierPolicy::Disabled,
                ..ServeConfig::default()
            })
            .expect("valid config"),
        );
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(3);
        server.register_sim(Arc::new(xor()), key);
        let mut client =
            NetClient::connect(server.local_addr(), TenantId::new(1)).expect("connect");
        client.queue_request(key, 1, 0b01);
        client.queue_request(key, 2, 0b10);
        client.flush().expect("flush");
        let started = Instant::now();
        assert_eq!(
            client.recv().expect("recv"),
            Frame::Error {
                req_id: 2,
                code: ErrorCode::QueueFull
            }
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "refusal took {:?}",
            started.elapsed()
        );
        assert_eq!(server.tenant_stats()[0].queue_full, 1);
        server.shutdown();
    }

    /// Shutdown wakes every blocked thread: the accept loop, an idle
    /// authenticated connection's reader and writer, and a reader still
    /// waiting for a `Hello` that never comes.
    #[test]
    fn shutdown_returns_promptly_with_idle_and_silent_clients() {
        let service = service(1);
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        // Accepted first: once the second client's handshake completes,
        // the accept loop has already given this one its reader thread.
        let silent = TcpStream::connect(server.local_addr()).expect("connect silent client");
        let mut idle = NetClient::connect(server.local_addr(), TenantId::new(4)).expect("connect");
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
        // Both clients see their connection end.
        assert!(idle.recv().is_err());
        let mut byte = [0u8; 1];
        assert_eq!((&silent).read(&mut byte).expect("orderly close"), 0);
    }

    /// A tenant that pipelines a burst and drops its connection without
    /// reading a single reply leaves another tenant's service intact.
    #[test]
    fn abandoned_pipeline_does_not_disturb_another_tenant() {
        let service = service(2);
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(21);
        server.register_sim(Arc::new(xor()), key);
        let mut rude = NetClient::connect(server.local_addr(), TenantId::new(1)).expect("connect");
        for i in 0..1000u64 {
            rude.queue_request(key, i, i & 0b11);
        }
        rude.flush().expect("flush burst");
        drop(rude);

        let mut polite =
            NetClient::connect(server.local_addr(), TenantId::new(2)).expect("connect");
        for i in 0..200u64 {
            let bits = i & 0b11;
            match polite.call(key, i, bits).expect("call") {
                Frame::Reply {
                    req_id, outputs, ..
                } => {
                    assert_eq!(req_id, i);
                    assert_eq!(outputs, vec![bits.count_ones() == 1]);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        let polite_stats = server.tenant_stats()[1];
        assert_eq!(polite_stats.id, TenantId::new(2));
        assert_eq!((polite_stats.accepted, polite_stats.replies), (200, 200));
        server.shutdown();
    }
}
