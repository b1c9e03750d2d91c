//! Daemon and server smoke tests.
//!
//! The headline test is structural independence: N sessions driven by N
//! concurrent threads with identical op sequences must end in identical
//! states — each session is one shard with its own tree, strategy, and
//! epochs, so tenants cannot observe each other. The daemon runs its
//! pool *cold* here (`heat_threshold = u64::MAX` parks the stealing
//! workers), so reorganization fires only at the deterministic `tick`
//! points every thread issues identically; crack pivots depend on tick
//! counts, which makes a hot pool's extra rounds nondeterministic.

use std::sync::Arc;
use treetoaster_core::{EngineConfig, FleetConfig};
use tt_jitd::StrategyKind;
use tt_service::protocol::{ErrorCode, Request, Response, SessionSnapshot};
use tt_service::{Client, Daemon, Server, ServiceError};

/// A cold-pool daemon config: deterministic reorganization.
fn cold_fleet(sessions: usize) -> FleetConfig {
    FleetConfig::default()
        .engine(EngineConfig::default().crack_threshold(16))
        .sessions(sessions)
        .workers(1)
        .heat_threshold(u64::MAX)
}

/// Drives one session through a fixed op script and returns its final
/// observable state: every key's value plus the session's counters.
fn drive_session(daemon: &Daemon, session: u32) -> (Vec<Option<i64>>, SessionSnapshot) {
    for j in 0..40i64 {
        let r = daemon.handle(&Request::Replace {
            session,
            key: j % 48,
            value: j * 11,
        });
        assert_eq!(r, Response::Replaced);
        if j % 8 == 7 {
            let r = daemon.handle(&Request::Tick { session, rounds: 3 });
            assert!(matches!(r, Response::Ticked { .. }));
        }
    }
    let values: Vec<Option<i64>> = (0..48i64)
        .map(|key| match daemon.handle(&Request::Find { session, key }) {
            Response::Found { value } => value,
            other => panic!("find answered {other:?}"),
        })
        .collect();
    match daemon.handle(&Request::Snapshot { session }) {
        Response::Snapshotted(snap) => (values, snap),
        other => panic!("snapshot answered {other:?}"),
    }
}

#[test]
fn n_concurrent_sessions_equal_n_independent_engines() {
    const N: usize = 8;
    let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, cold_fleet(N)));

    // Open N sessions with identical preloads…
    let sessions: Vec<u32> = (0..N)
        .map(|_| {
            match daemon.handle(&Request::Open {
                records: 48,
                seed: 7,
            }) {
                Response::Opened { session } => session,
                other => panic!("open answered {other:?}"),
            }
        })
        .collect();

    // …drive them from N threads at once with the same script…
    let results: Vec<(Vec<Option<i64>>, SessionSnapshot)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|&s| {
                let daemon = daemon.clone();
                scope.spawn(move || drive_session(&daemon, s))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // …and every session must be structurally identical to the others:
    // same lookups, same rewrite count, same strategy memory, same
    // match backlog. Concurrency must not leak between shards.
    let (values0, snap0) = &results[0];
    assert!(values0.iter().all(Option::is_some), "preloaded keys found");
    assert!(snap0.rewrites > 0, "ticks must have reorganized");
    for (i, (values, snap)) in results.iter().enumerate() {
        assert_eq!(values, values0, "session {i} lookups diverged");
        assert_same_state(snap, snap0, &format!("session {i}"));
    }

    // A serially driven fresh daemon agrees too: concurrency changed
    // nothing against the single-tenant baseline.
    let solo = Daemon::new(StrategyKind::TreeToaster, cold_fleet(1));
    let s = match solo.handle(&Request::Open {
        records: 48,
        seed: 7,
    }) {
        Response::Opened { session } => session,
        other => panic!("open answered {other:?}"),
    };
    let (solo_values, solo_snap) = drive_session(&solo, s);
    assert_eq!(&solo_values, values0);
    assert_same_state(&solo_snap, snap0, "solo daemon");
}

/// Compares the schedule-invariant part of two session snapshots.
/// `staged`/`canceled` describe the shard's latest epoch, and which
/// epoch that is depends on when the background committer landed the
/// previous seal — telemetry, not state — so they only have to be
/// self-consistent.
fn assert_same_state(snap: &SessionSnapshot, want: &SessionSnapshot, who: &str) {
    assert_eq!(snap.rewrites, want.rewrites, "{who}: rewrites diverged");
    assert_eq!(
        snap.memory_bytes, want.memory_bytes,
        "{who}: strategy memory diverged"
    );
    assert_eq!(
        snap.pending_matches, want.pending_matches,
        "{who}: match backlog diverged"
    );
    assert!(snap.staged > 0, "{who}: the epoch staged nothing: {snap:?}");
    assert!(
        snap.canceled <= snap.staged,
        "{who}: canceled more deltas than staged: {snap:?}"
    );
}

#[test]
fn admission_control_refuses_then_recycles() {
    let daemon = Daemon::new(StrategyKind::TreeToaster, cold_fleet(2));
    let a = daemon.handle(&Request::Open {
        records: 8,
        seed: 1,
    });
    let b = daemon.handle(&Request::Open {
        records: 8,
        seed: 1,
    });
    let (a, b) = match (a, b) {
        (Response::Opened { session: a }, Response::Opened { session: b }) => (a, b),
        other => panic!("opens answered {other:?}"),
    };
    assert_eq!(daemon.open_sessions(), 2);

    // Full: the third tenant is refused, not degraded.
    match daemon.handle(&Request::Open {
        records: 8,
        seed: 1,
    }) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("over-admission answered {other:?}"),
    }

    // Close drains and recycles: the slot serves a fresh empty tree.
    assert!(matches!(
        daemon.handle(&Request::Close { session: a }),
        Response::Closed { .. }
    ));
    let c = match daemon.handle(&Request::Open {
        records: 4,
        seed: 2,
    }) {
        Response::Opened { session } => session,
        other => panic!("reopen answered {other:?}"),
    };
    assert_eq!(c, a, "freed slot is reused");
    match daemon.handle(&Request::Find { session: c, key: 7 }) {
        Response::Found { value } => assert_eq!(value, None, "recycled tree is fresh"),
        other => panic!("find answered {other:?}"),
    }

    // Requests against closed or never-opened sessions are rejected.
    assert!(matches!(
        daemon.handle(&Request::Find {
            session: 99,
            key: 0
        }),
        Response::Error {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));
    let _ = b;
}

#[test]
fn backpressure_seals_epochs_and_close_lands_everything() {
    // Hot path: enough writes to cross the per-epoch bound several
    // times, so seals reach the background committer while the op
    // stream keeps running.
    let daemon = Daemon::new(StrategyKind::TreeToaster, cold_fleet(1));
    let s = match daemon.handle(&Request::Open {
        records: 32,
        seed: 3,
    }) {
        Response::Opened { session } => session,
        other => panic!("open answered {other:?}"),
    };
    let writes = Daemon::MAX_EPOCH_OPS * 3 + 5;
    for j in 0..writes as i64 {
        assert_eq!(
            daemon.handle(&Request::Replace {
                session: s,
                key: j % 32,
                value: j,
            }),
            Response::Replaced
        );
    }
    // The last value written to key 0 wins (largest j ≡ 0 mod 32),
    // wherever the epoch seals fell.
    let expected = (writes as i64 - 1) / 32 * 32;
    match daemon.handle(&Request::Find { session: s, key: 0 }) {
        Response::Found { value } => assert_eq!(value, Some(expected)),
        other => panic!("find answered {other:?}"),
    }
    match daemon.handle(&Request::Close { session: s }) {
        Response::Closed { .. } => {}
        other => panic!("close answered {other:?}"),
    }
    assert!(
        !daemon.pool().commits_pending(),
        "close must land every sealed epoch"
    );
    assert_eq!(daemon.open_sessions(), 0);
}

#[test]
fn tcp_server_serves_concurrent_clients_and_drains_on_stop() {
    let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, cold_fleet(8)));
    let server = Server::bind("127.0.0.1:0", daemon).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run().unwrap());

    // Four clients work their own sessions concurrently.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // 48 > crack_threshold, so ticks produce real rewrites
                // and the strategy holds supplemental view memory.
                let s = client.open(48, i as u64).unwrap();
                for j in 0..20i64 {
                    client.replace(s, j % 16, j * 3).unwrap();
                }
                client.tick(s, 4).unwrap();
                // Key 3 was last written at j = 19 with value j * 3.
                assert_eq!(client.find(s, 3).unwrap(), Some(57));
                let snap = client.snapshot(s).unwrap();
                assert!(snap.memory_bytes > 0);
                s
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // One left-open session plus a stop: the drain closes it cleanly.
    let mut closer = Client::connect(addr).unwrap();
    let extra = closer.open(4, 9).unwrap();
    assert!(closer.find(extra, 1).unwrap().is_some());
    closer.stop().unwrap();
    let report = running.join().unwrap();
    assert!(
        report.sessions_closed >= 1,
        "drain must close the sessions left open"
    );
}

#[test]
fn sexpr_debug_mode_over_tcp() {
    use std::io::{BufRead, BufReader, Write};
    let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, cold_fleet(2)));
    let server = Server::bind("127.0.0.1:0", daemon).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run().unwrap());

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(writer, "(open records=4 seed=1)").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "(opened session=0)");

    line.clear();
    writeln!(writer, "(replace session=0 key=2 value=5)").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "(replaced)");

    line.clear();
    writeln!(writer, "(find session=0 key=2)").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "(found value=5)");

    line.clear();
    writeln!(writer, "(oops)").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("error"),
        "bad verb must answer an error: {line}"
    );

    line.clear();
    writeln!(writer, "(stop)").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "(stopping)");
    running.join().unwrap();
}

#[test]
fn client_surfaces_server_errors() {
    let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, cold_fleet(1)));
    let server = Server::bind("127.0.0.1:0", daemon).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    match client.find(42, 1) {
        Err(ServiceError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected a server error, got {other:?}"),
    }
    client.stop().unwrap();
    running.join().unwrap();
}

/// A frame cut by the server's 100 ms read timeout — inside the length
/// prefix, then inside a payload — must resume where it stopped: the
/// bytes read before the timeout are kept, not dropped and the rest
/// misread as a new length prefix.
#[test]
fn frames_split_across_read_timeouts_stay_in_sync() {
    use std::io::Write;
    use tt_service::{read_frame, write_frame};
    let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, cold_fleet(1)));
    let server = Server::bind("127.0.0.1:0", daemon).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run().unwrap());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let pause = std::time::Duration::from_millis(250);
    let mut send_split = |req: &Request, cut: usize| {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        stream.write_all(&wire[..cut]).unwrap();
        std::thread::sleep(pause);
        stream.write_all(&wire[cut..]).unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("a response frame");
        Response::decode(&payload).unwrap()
    };
    // Two bytes of the four-byte length prefix, then the rest.
    let opened = send_split(
        &Request::Open {
            records: 8,
            seed: 1,
        },
        2,
    );
    let Response::Opened { session } = opened else {
        panic!("open answered {opened:?}");
    };
    // The prefix and two payload bytes, then the rest.
    let replace = Request::Replace {
        session,
        key: 3,
        value: 42,
    };
    assert_eq!(send_split(&replace, 6), Response::Replaced);
    let find = Request::Find { session, key: 3 };
    assert_eq!(send_split(&find, 2), Response::Found { value: Some(42) });
    assert_eq!(send_split(&Request::Stop, 2), Response::Stopping);
    running.join().unwrap();
}

/// Median of round-trip times.
fn median(mut samples: Vec<std::time::Duration>) -> std::time::Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A round trip over loopback must not pay the ~40 ms Nagle ×
/// delayed-ACK stall in either wire mode: a response that leaves in two
/// writes without `TCP_NODELAY` waits for the client's delayed ACK. The
/// 5 ms bound sits two orders of magnitude below the stall and far above
/// a µs-scale round trip, so a slow machine does not trip it.
#[test]
fn round_trips_do_not_stall_on_delayed_acks() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};
    const BOUND: Duration = Duration::from_millis(5);
    let daemon = Arc::new(Daemon::new(StrategyKind::TreeToaster, cold_fleet(2)));
    let server = Server::bind("127.0.0.1:0", daemon).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run().unwrap());

    // Binary frames through the typed client.
    let mut client = Client::connect(addr).unwrap();
    let s = client.open(64, 3).unwrap();
    let binary: Vec<Duration> = (0..200i64)
        .map(|i| {
            let t = Instant::now();
            if i % 2 == 0 {
                client.replace(s, i % 64, i).unwrap();
            } else {
                assert_eq!(client.find(s, (i - 1) % 64).unwrap(), Some(i - 1));
            }
            t.elapsed()
        })
        .collect();
    let binary_p50 = median(binary);

    // S-expression lines, each request sent in one write.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut round_trip = |request: String| {
        line.clear();
        let t = Instant::now();
        writer.write_all(request.as_bytes()).unwrap();
        reader.read_line(&mut line).unwrap();
        (t.elapsed(), line.trim().to_string())
    };
    let (_, opened) = round_trip("(open records=64 seed=4)\n".into());
    let session: u32 = opened
        .strip_prefix("(opened session=")
        .and_then(|t| t.strip_suffix(')'))
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("open answered {opened}"));
    let sexpr: Vec<Duration> = (0..50i64)
        .map(|i| {
            let (took, reply) = if i % 2 == 0 {
                round_trip(format!("(replace session={session} key={i} value={i})\n"))
            } else {
                round_trip(format!("(find session={session} key={})\n", i - 1))
            };
            let want = if i % 2 == 0 {
                "(replaced)".to_string()
            } else {
                format!("(found value={})", i - 1)
            };
            assert_eq!(reply, want);
            took
        })
        .collect();
    let sexpr_p50 = median(sexpr);

    client.stop().unwrap();
    running.join().unwrap();
    assert!(
        binary_p50 < BOUND,
        "binary round trip median {binary_p50:?} (bound {BOUND:?})"
    );
    assert!(
        sexpr_p50 < BOUND,
        "s-expression round trip median {sexpr_p50:?} (bound {BOUND:?})"
    );
}
