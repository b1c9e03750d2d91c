//! A typed client over the binary frame protocol.
//!
//! One [`Client`] is one session-capable connection; the methods mirror
//! the [`Request`] vocabulary and surface server-side failures as
//! [`ServiceError::Server`].

use crate::protocol::{write_frame, ErrorCode, FrameReader, Request, Response, SessionSnapshot};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure: transport, codec, or a server-reported error.
#[derive(Debug)]
pub enum ServiceError {
    /// Socket / framing I/O failure.
    Io(io::Error),
    /// The server's bytes did not decode, or the response type did not
    /// match the request.
    Protocol(String),
    /// The server answered with an error frame.
    Server { code: ErrorCode, message: String },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "transport error: {e}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

/// A connected `tt-serve` client.
///
/// Like the server's side of a connection, it writes each request in
/// one `send` on a `TCP_NODELAY` stream and reads responses through one
/// `BufReader` and one long-lived [`FrameReader`].
pub struct Client {
    stream: BufReader<TcpStream>,
    frames: FrameReader,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            frames: FrameReader::default(),
        })
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServiceError> {
        write_frame(self.stream.get_mut(), &req.encode())?;
        let payload = self.frames.read_frame(&mut self.stream)?.ok_or_else(|| {
            ServiceError::Protocol("server closed the connection mid-call".into())
        })?;
        let resp = Response::decode(&payload).map_err(|e| ServiceError::Protocol(e.to_string()))?;
        if let Response::Error { code, message } = resp {
            return Err(ServiceError::Server { code, message });
        }
        Ok(resp)
    }

    /// Opens a session preloaded with `records` keys.
    pub fn open(&mut self, records: u64, seed: u64) -> Result<u32, ServiceError> {
        match self.call(&Request::Open { records, seed })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected("opened", &other)),
        }
    }

    /// Stages a write into the session's open epoch.
    pub fn replace(&mut self, session: u32, key: i64, value: i64) -> Result<(), ServiceError> {
        match self.call(&Request::Replace {
            session,
            key,
            value,
        })? {
            Response::Replaced => Ok(()),
            other => Err(unexpected("replaced", &other)),
        }
    }

    /// Point lookup.
    pub fn find(&mut self, session: u32, key: i64) -> Result<Option<i64>, ServiceError> {
        match self.call(&Request::Find { session, key })? {
            Response::Found { value } => Ok(value),
            other => Err(unexpected("found", &other)),
        }
    }

    /// Runs up to `rounds` reorganization rounds; returns rules fired.
    pub fn tick(&mut self, session: u32, rounds: u32) -> Result<u64, ServiceError> {
        match self.call(&Request::Tick { session, rounds })? {
            Response::Ticked { rewrites } => Ok(rewrites),
            other => Err(unexpected("ticked", &other)),
        }
    }

    /// Fetches the session's maintenance counters.
    pub fn snapshot(&mut self, session: u32) -> Result<SessionSnapshot, ServiceError> {
        match self.call(&Request::Snapshot { session })? {
            Response::Snapshotted(snap) => Ok(snap),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Drains and releases the session; returns its final rewrite count.
    pub fn close(&mut self, session: u32) -> Result<u64, ServiceError> {
        match self.call(&Request::Close { session })? {
            Response::Closed { rewrites } => Ok(rewrites),
            other => Err(unexpected("closed", &other)),
        }
    }

    /// Asks the daemon to drain everything and shut down.
    pub fn stop(&mut self) -> Result<(), ServiceError> {
        match self.call(&Request::Stop)? {
            Response::Stopping => Ok(()),
            other => Err(unexpected("stopping", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServiceError {
    ServiceError::Protocol(format!("expected {wanted}, got {got:?}"))
}
