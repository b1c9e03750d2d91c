//! `serve_tcp`: the clock a `tt-serve` tenant sees — an in-process
//! `Server` on loopback over a TreeToaster `Daemon`, driven by two
//! closed-loop `Client` connections, one session each.

use crate::harness::{pct_or_zero, Pass, Workload};
use crate::trace::{self, Layer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use treetoaster_core::FleetConfig;
use tt_jitd::StrategyKind;
use tt_service::{Client, Daemon, Request, Response, Server, ServiceError};
use tt_ycsb::{Op, Workload as Ycsb, WorkloadSpec};

const CONNECTIONS: usize = 2;
const SESSION_RECORDS: u64 = 20_000;
/// Round trips per connection per pass.
const OPS_PER_CONNECTION: usize = 100;
/// Set-ups per pass (all but the last are torn down unused).
const SETUPS_PER_PASS: usize = 4;

pub struct ServeTcp {
    /// Per connection: the session's preload seed and its op script.
    scripts: Vec<(u64, Vec<Request>)>,
}

/// Explicit fleet shape: default workers, one session per connection.
fn fleet() -> FleetConfig {
    FleetConfig::default().sessions(CONNECTIONS)
}

impl ServeTcp {
    pub fn new(seed: u64) -> ServeTcp {
        let scripts = (0..CONNECTIONS as u64)
            .map(|c| {
                let open_seed = seed.wrapping_mul(31).wrapping_add(c);
                let mut gen = Ycsb::new(WorkloadSpec::standard('A'), SESSION_RECORDS, open_seed);
                // The session id is patched in once `open` returns it.
                let script = gen
                    .take_ops(OPS_PER_CONNECTION)
                    .into_iter()
                    .map(|op| match op {
                        Op::Read { key } => Request::Find { session: 0, key },
                        Op::Update { key, value } => Request::Replace {
                            session: 0,
                            key,
                            value,
                        },
                        _ => unreachable!("YCSB-A issues only reads and updates"),
                    })
                    .collect();
                (open_seed, script)
            })
            .collect();
        ServeTcp { scripts }
    }
}

/// A started server with both sessions open.
struct Running {
    daemon: Arc<Daemon>,
    accept: std::thread::JoinHandle<std::io::Result<tt_service::DrainReport>>,
    stop: Arc<AtomicBool>,
    conns: Vec<(Client, Option<u32>)>,
}

impl Running {
    /// Closes the connections, stops the accept loop, and waits for the
    /// server's drain and the daemon's threads.
    fn shutdown(self) {
        drop(self.conns);
        self.stop.store(true, Ordering::Release);
        self.accept
            .join()
            .expect("server thread panicked")
            .expect("server drained cleanly");
        drop(self.daemon);
    }
}

impl ServeTcp {
    /// Daemon start, bind, and both `open`s over TCP; returns the set-up
    /// time (s).
    fn start(&self) -> (Running, f64) {
        let t0 = Instant::now();
        let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, fleet()));
        let server = Server::bind("127.0.0.1:0", daemon.clone()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let stop = server.stop_flag();
        let accept = std::thread::spawn(move || server.run());
        let conns = self
            .scripts
            .iter()
            .map(|(open_seed, _)| {
                let mut client = Client::connect(addr).expect("connect to loopback server");
                let session = client.open(SESSION_RECORDS, *open_seed).ok();
                (client, session)
            })
            .collect();
        let setup_s = t0.elapsed().as_secs_f64();
        (
            Running {
                daemon,
                accept,
                stop,
                conns,
            },
            setup_s,
        )
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    open_seed: u64,
    /// Every round trip's latency (ns), in script order.
    all: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    failed: u64,
    /// The requests sent (with the real session id) and their responses.
    log: Vec<(Request, Option<Response>)>,
    spans: Vec<trace::Span>,
}

fn with_session(req: &Request, session: u32) -> Request {
    match *req {
        Request::Find { key, .. } => Request::Find { session, key },
        Request::Replace { key, value, .. } => Request::Replace {
            session,
            key,
            value,
        },
        other => other,
    }
}

/// The connection's model of its own session: preload values plus its
/// own writes.
struct Model {
    seed: u64,
    written: HashMap<i64, i64>,
}

impl Model {
    fn get(&self, key: i64) -> Option<i64> {
        if let Some(v) = self.written.get(&key) {
            return Some(*v);
        }
        (0..SESSION_RECORDS as i64)
            .contains(&key)
            .then(|| key.wrapping_mul(7) ^ self.seed as i64)
    }
}

fn run_connection(
    client: &mut Client,
    session: u32,
    open_seed: u64,
    script: &[Request],
    traced: bool,
) -> ConnResult {
    let mut out = ConnResult {
        open_seed,
        ..ConnResult::default()
    };
    let mut model = Model {
        seed: open_seed,
        written: HashMap::new(),
    };
    for (i, req) in script.iter().enumerate() {
        let req = with_session(req, session);
        let t = Instant::now();
        let resp: Result<Response, ServiceError> = if traced {
            trace::set_op(i as u32);
            let root = trace::enter(Layer::Bench, "op.round_trip");
            let resp = trace::span(Layer::Service, "service.call", || client.call(&req));
            trace::exit_as(root, None);
            resp
        } else {
            match req {
                Request::Find { session, key } => client
                    .find(session, key)
                    .map(|value| Response::Found { value }),
                Request::Replace {
                    session,
                    key,
                    value,
                } => client
                    .replace(session, key, value)
                    .map(|()| Response::Replaced),
                _ => unreachable!("scripts hold finds and replaces"),
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        out.all.push(ns);
        let ok = match (&req, &resp) {
            (Request::Find { key, .. }, Ok(Response::Found { value })) => {
                out.reads.push(ns);
                *value == model.get(*key)
            }
            (Request::Replace { key, value, .. }, Ok(Response::Replaced)) => {
                out.writes.push(ns);
                model.written.insert(*key, *value);
                true
            }
            _ => false,
        };
        if !ok {
            out.failed += 1;
        }
        out.log.push((req, resp.ok()));
    }
    if traced {
        out.spans = trace::take();
    }
    out
}

impl Workload for ServeTcp {
    fn concurrency(&self) -> usize {
        CONNECTIONS
    }

    fn headline(&self) -> &'static str {
        "round_trip"
    }

    fn deterministic(&self) -> bool {
        // Pool steals, commit timing and epoch cancellation depend on
        // thread scheduling: reported, not asserted.
        false
    }

    fn pass(&mut self, script: usize, traced: bool) -> Pass {
        // Set-up is milliseconds of thread starts and loopback
        // handshakes: repeat it and keep the fastest.
        let mut setup_s = f64::INFINITY;
        for _ in 1..SETUPS_PER_PASS {
            let (running, s) = self.start();
            setup_s = setup_s.min(s);
            running.shutdown();
        }
        let (mut running, s) = self.start();
        let setup_s = setup_s.min(s);

        let start = Instant::now();
        let results: Vec<ConnResult> = std::thread::scope(|s| {
            let handles: Vec<_> = running
                .conns
                .iter_mut()
                .zip(&self.scripts)
                .map(|((client, session), (open_seed, script))| {
                    let session = *session;
                    s.spawn(move || match session {
                        Some(session) => {
                            run_connection(client, session, *open_seed, script, traced)
                        }
                        // A refused open fails the whole script.
                        None => ConnResult {
                            open_seed: *open_seed,
                            failed: script.len() as u64,
                            ..ConnResult::default()
                        },
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass {
            script,
            setup_s,
            wall_s,
            attempted: (CONNECTIONS * OPS_PER_CONNECTION + CONNECTIONS) as u64,
            ..Pass::default()
        };
        pass.failed = running.conns.iter().filter(|(_, s)| s.is_none()).count() as u64;
        let (mut staged, mut canceled, mut rewrites, mut memory) = (0, 0, 0, 0);
        for (client, session) in &mut running.conns {
            if let Some(session) = session {
                match client.snapshot(*session) {
                    Ok(snap) => {
                        staged += snap.staged;
                        canceled += snap.canceled;
                        rewrites += snap.rewrites;
                        memory += snap.memory_bytes;
                    }
                    Err(_) => pass.failed += 1,
                }
            }
        }
        let pool = running.daemon.pool();
        let steal = pool.steal_stats();
        let mut gauges = BTreeMap::new();
        gauges.insert("view_mib", memory as f64 / (1024.0 * 1024.0));
        gauges.insert("tt_service.session.staged", staged as f64);
        gauges.insert("tt_service.session.canceled", canceled as f64);
        gauges.insert("tt_service.session.rewrites", rewrites as f64);
        gauges.insert("tt_core.view_bytes", memory as f64);
        gauges.insert("tt_jitd.pool.steals", steal.steal_count as f64);
        gauges.insert("tt_jitd.pool.contended", steal.contended_count as f64);
        gauges.insert("tt_jitd.pool.parked", steal.parked_count as f64);
        gauges.insert("tt_jitd.pool.woken", steal.woken_count as f64);
        gauges.insert(
            "tt_jitd.pool.commits_applied",
            pool.commits_applied() as f64,
        );
        gauges.insert("tt_jitd.pool.reorg_backlog", pool.reorg_backlog() as f64);
        pass.gauges = gauges;

        running.shutdown();

        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut spans = Vec::new();
        for r in &results {
            pass.failed += r.failed;
            pass.op_ns.extend_from_slice(&r.all);
            reads.extend_from_slice(&r.reads);
            writes.extend_from_slice(&r.writes);
        }
        pass.lat.insert("read", reads);
        pass.lat.insert("write", writes);
        pass.lat.insert("round_trip", pass.op_ns.clone());
        if traced {
            let (replay, replay_failed) = replay(&results);
            pass.failed += replay_failed;
            for r in results {
                trace::append(&mut spans, r.spans);
            }
            pass.layers = layers(&spans, &replay, &pass);
            pass.spans = spans;
        }
        pass
    }
}

/// Per-request times from the in-process replay.
struct Replay {
    handle_ns: Vec<u64>,
    codec_ns: Vec<u64>,
}

/// Replays the recorded request scripts in-process through
/// `Daemon::handle` on a twin daemon (no socket), one thread per
/// connection as on the wire, timing the codec separately. Returns the
/// times and how many replayed `find`s disagreed with the TCP answer.
fn replay(results: &[ConnResult]) -> (Replay, u64) {
    let twin = Daemon::new(StrategyKind::TreeToaster, fleet());
    let per_conn: Vec<(Vec<u64>, Vec<u64>, u64)> = std::thread::scope(|s| {
        let twin = &twin;
        let handles: Vec<_> = results
            .iter()
            .map(|r| {
                s.spawn(move || {
                    let mut handle_ns = Vec::new();
                    let mut codec_ns = Vec::new();
                    let mut failed = 0u64;
                    if r.log.is_empty() {
                        return (handle_ns, codec_ns, failed);
                    }
                    // Each twin session is opened like its TCP original.
                    let open = twin.handle(&Request::Open {
                        records: SESSION_RECORDS,
                        seed: r.open_seed,
                    });
                    let Response::Opened { session } = open else {
                        return (handle_ns, codec_ns, r.log.len() as u64);
                    };
                    for (req, recorded) in &r.log {
                        let req = with_session(req, session);
                        let t = Instant::now();
                        let decoded = Request::decode(&req.encode()).expect("request round-trips");
                        let c0 = t.elapsed().as_nanos() as u64;
                        let h = Instant::now();
                        let resp = twin.handle(&decoded);
                        handle_ns.push(h.elapsed().as_nanos() as u64);
                        let t = Instant::now();
                        let back = Response::decode(&resp.encode()).expect("response round-trips");
                        codec_ns.push(c0 + t.elapsed().as_nanos() as u64);
                        if let (Request::Find { .. }, Some(recorded)) = (&req, recorded) {
                            if *recorded != back {
                                failed += 1;
                            }
                        }
                    }
                    (handle_ns, codec_ns, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    twin.drain();
    let mut out = Replay {
        handle_ns: Vec::new(),
        codec_ns: Vec::new(),
    };
    let mut failed = 0;
    for (h, c, f) in per_conn {
        out.handle_ns.extend(h);
        out.codec_ns.extend(c);
        failed += f;
    }
    (out, failed)
}

fn layers(spans: &[trace::Span], replay: &Replay, pass: &Pass) -> BTreeMap<String, f64> {
    let p50 = |v: &[u64]| pct_or_zero(v, 50.0) / 1e3;
    let call = p50(&trace::durations(spans, "service.call"));
    let handle = p50(&replay.handle_ns);
    let codec = p50(&replay.codec_ns);
    let mut m = BTreeMap::new();
    m.insert("tt_service.call_us".into(), call);
    m.insert("tt_service.handle_us".into(), handle);
    m.insert("tt_service.codec_us".into(), codec);
    m.insert("tt_service.transport_us".into(), call - handle - codec);
    for (k, v) in &pass.gauges {
        if k.starts_with("tt_") {
            m.insert((*k).to_string(), *v);
        }
    }
    m
}
