//! The TCP front end: one listener, one thread per connection, a
//! shared stop flag, and a clean drain on the way out.
//!
//! Connections speak the binary frame protocol by default. A
//! connection whose first byte is `(` is switched to the s-expression
//! debug mode: newline-delimited [`Request::parse_sexpr`] in,
//! [`Response::to_sexpr`] lines out — `printf '(open records=8 seed=1)' | nc`
//! is a complete debug client.

use crate::daemon::{Daemon, DrainReport};
use crate::protocol::{write_frame, ErrorCode, FrameReader, Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running server: the listener plus the shared shutdown flag.
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str, daemon: Arc<Daemon>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            daemon,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (for clients when the port was ephemeral).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return: set it from another
    /// thread or a signal handler.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Accept loop. Returns once the stop flag is set (by a signal
    /// handler or a client's `(stop)`), after joining every connection
    /// thread and draining the daemon — the returned report is the
    /// "clean drain" receipt.
    pub fn run(self) -> io::Result<DrainReport> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let daemon = self.daemon.clone();
                    let stop = self.stop.clone();
                    conns.push(std::thread::spawn(move || {
                        // Connection errors only tear down that client.
                        let _ = serve_connection(stream, &daemon, &stop);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            // Reap finished connection threads so a long-lived server
            // does not accumulate handles.
            conns.retain(|h| !h.is_finished());
        }
        for handle in conns {
            let _ = handle.join();
        }
        Ok(self.daemon.drain())
    }
}

/// Serves one connection until EOF, error, or server stop. Read
/// timeouts let the thread notice the stop flag between requests.
///
/// Every response leaves in one write on a `TCP_NODELAY` stream, and
/// requests are read through one `BufReader`, so a round trip costs one
/// `recv` and one `send` on each side. A response split over two writes
/// without `TCP_NODELAY` waits for the client's delayed ACK (~40 ms).
fn serve_connection(stream: TcpStream, daemon: &Daemon, stop: &AtomicBool) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut peek = [0u8; 1];
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match stream.peek(&mut peek) {
            Ok(0) => return Ok(()),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let reader = BufReader::new(stream);
    if peek[0] == b'(' {
        serve_sexpr(reader, daemon, stop)
    } else {
        serve_binary(reader, daemon, stop)
    }
}

fn serve_binary(
    mut reader: BufReader<TcpStream>,
    daemon: &Daemon,
    stop: &AtomicBool,
) -> io::Result<()> {
    // Owned by the connection so a frame cut by the read timeout
    // resumes on the next pass instead of desynchronizing the stream.
    let mut frames = FrameReader::default();
    loop {
        let payload = loop {
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            match frames.read_frame(&mut reader) {
                Ok(Some(payload)) => break payload,
                Ok(None) => return Ok(()),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        };
        let response = match Request::decode(&payload) {
            Ok(req) => {
                let resp = daemon.handle(&req);
                if matches!(req, Request::Stop) {
                    write_frame(reader.get_mut(), &resp.encode())?;
                    stop.store(true, Ordering::Release);
                    return Ok(());
                }
                resp
            }
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
            },
        };
        write_frame(reader.get_mut(), &response.encode())?;
    }
}

fn serve_sexpr(
    mut reader: BufReader<TcpStream>,
    daemon: &Daemon,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        loop {
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            match reader.read_line(&mut line) {
                Ok(0) if line.trim().is_empty() => return Ok(()),
                Ok(_) if line.trim().is_empty() => break, // blank line
                Ok(_) if line.ends_with('\n') || line.trim().ends_with(')') => break,
                Ok(_) => {} // partial line before timeout: keep reading
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let response = match Request::parse_sexpr(text) {
            Ok(req) => {
                let resp = daemon.handle(&req);
                if matches!(req, Request::Stop) {
                    write_line(reader.get_mut(), &resp)?;
                    stop.store(true, Ordering::Release);
                    return Ok(());
                }
                resp
            }
            Err(msg) => Response::Error {
                code: ErrorCode::Malformed,
                message: msg,
            },
        };
        write_line(reader.get_mut(), &response)?;
    }
}

/// Writes one s-expression response line, newline included, in a single
/// write (`writeln!` on the stream would send the text and the `\n`
/// apart).
fn write_line(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut line = response.to_sexpr();
    line.push('\n');
    stream.write_all(line.as_bytes())
}
