//! The `tt-serve` wire protocol: length-prefixed binary frames with an
//! s-expression debug mode.
//!
//! Every frame on the wire is `[u32 LE length][payload]`, where the
//! payload is `[u8 tag][little-endian fields]` and `length` counts only
//! the payload bytes. Frames are capped at [`MAX_FRAME`] payload bytes;
//! a peer announcing a longer frame is cut off before any allocation.
//! Decoding is strict: short payloads are [`FrameError::Truncated`],
//! unknown tags are [`FrameError::BadTag`], and any bytes left over
//! after the typed fields are [`FrameError::TrailingBytes`] — a frame
//! either parses exactly or is rejected.
//!
//! The debug mode carries the same requests as newline-delimited
//! s-expressions (`(open records=64 seed=7)`); the server sniffs the
//! first byte of a connection — `(` switches that connection to text
//! mode. See [`Request::parse_sexpr`] / [`Response::to_sexpr`].

use std::io::{self, Read, Write};

/// Maximum frame payload size in bytes. The protocol's ops are all a
/// few dozen bytes; the cap exists so a corrupt or hostile length
/// prefix cannot make the server allocate gigabytes.
pub const MAX_FRAME: usize = 64 * 1024;

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the typed fields did.
    Truncated,
    /// The announced frame length exceeds [`MAX_FRAME`].
    Oversized,
    /// The leading tag byte names no known message.
    BadTag(u8),
    /// Bytes remained after the last typed field.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated mid-field"),
            FrameError::Oversized => write!(f, "frame exceeds {MAX_FRAME}-byte cap"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after frame fields"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Server-reported failure classes (the `code` byte of an error frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control refused the open: every session slot is taken.
    Busy,
    /// The request named a session that is not open.
    UnknownSession,
    /// The request frame did not decode.
    Malformed,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::UnknownSession => 2,
            ErrorCode::Malformed => 3,
        }
    }

    fn from_byte(b: u8) -> Result<ErrorCode, FrameError> {
        match b {
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::UnknownSession),
            3 => Ok(ErrorCode::Malformed),
            other => Err(FrameError::BadTag(other)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::Malformed => "malformed",
        }
    }
}

/// A client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Open a session preloaded with `records` keys generated from
    /// `seed`. Answered by [`Response::Opened`] or a `Busy` error.
    Open { records: u64, seed: u64 },
    /// Stage a write into the session's open maintenance epoch.
    Replace { session: u32, key: i64, value: i64 },
    /// Point lookup in the session's tree.
    Find { session: u32, key: i64 },
    /// Run up to `rounds` reorganization rounds on the session's tree.
    Tick { session: u32, rounds: u32 },
    /// Report the session's maintenance counters.
    Snapshot { session: u32 },
    /// Drain and release the session (quiesce, land every epoch, free
    /// the slot).
    Close { session: u32 },
    /// Ask the daemon to drain every session and shut down.
    Stop,
}

const TAG_OPEN: u8 = 0x01;
const TAG_REPLACE: u8 = 0x02;
const TAG_FIND: u8 = 0x03;
const TAG_TICK: u8 = 0x04;
const TAG_SNAPSHOT: u8 = 0x05;
const TAG_CLOSE: u8 = 0x06;
const TAG_STOP: u8 = 0x07;

const TAG_OPENED: u8 = 0x81;
const TAG_REPLACED: u8 = 0x82;
const TAG_FOUND: u8 = 0x83;
const TAG_TICKED: u8 = 0x84;
const TAG_SNAPSHOTTED: u8 = 0x85;
const TAG_CLOSED: u8 = 0x86;
const TAG_STOPPING: u8 = 0x87;
const TAG_ERROR: u8 = 0xFF;

/// One session's maintenance counters, as reported by
/// [`Request::Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSnapshot {
    /// Rewrites the session's tree has absorbed so far.
    pub rewrites: u64,
    /// Strategy structure memory, bytes.
    pub memory_bytes: u64,
    /// View deltas staged in the session's open epoch.
    pub staged: u64,
    /// Deltas that canceled in-buffer before touching a view.
    pub canceled: u64,
    /// Whether reorganization work is still pending on the tree.
    pub pending_matches: bool,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session granted; `session` routes every later request.
    Opened { session: u32 },
    /// Write staged.
    Replaced,
    /// Lookup result (`None` = key absent or tombstoned).
    Found { value: Option<i64> },
    /// Reorganization ran; `rewrites` rules fired.
    Ticked { rewrites: u64 },
    /// Counters for one session.
    Snapshotted(SessionSnapshot),
    /// Session drained and released; `rewrites` is the session's final
    /// rewrite count.
    Closed { rewrites: u64 },
    /// The daemon is shutting down.
    Stopping,
    /// The request failed.
    Error { code: ErrorCode, message: String },
}

/// Little-endian field reader with strict end-of-frame accounting.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() < n {
            return Err(FrameError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

impl Request {
    /// Serializes the request payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match *self {
            Request::Open { records, seed } => {
                out.push(TAG_OPEN);
                out.extend_from_slice(&records.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
            }
            Request::Replace {
                session,
                key,
                value,
            } => {
                out.push(TAG_REPLACE);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            Request::Find { session, key } => {
                out.push(TAG_FIND);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Tick { session, rounds } => {
                out.push(TAG_TICK);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&rounds.to_le_bytes());
            }
            Request::Snapshot { session } => {
                out.push(TAG_SNAPSHOT);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Request::Close { session } => {
                out.push(TAG_CLOSE);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Request::Stop => out.push(TAG_STOP),
        }
        out
    }

    /// Decodes a request payload (strict: exact length required).
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        if payload.len() > MAX_FRAME {
            return Err(FrameError::Oversized);
        }
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            TAG_OPEN => Request::Open {
                records: c.u64()?,
                seed: c.u64()?,
            },
            TAG_REPLACE => Request::Replace {
                session: c.u32()?,
                key: c.i64()?,
                value: c.i64()?,
            },
            TAG_FIND => Request::Find {
                session: c.u32()?,
                key: c.i64()?,
            },
            TAG_TICK => Request::Tick {
                session: c.u32()?,
                rounds: c.u32()?,
            },
            TAG_SNAPSHOT => Request::Snapshot { session: c.u32()? },
            TAG_CLOSE => Request::Close { session: c.u32()? },
            TAG_STOP => Request::Stop,
            other => return Err(FrameError::BadTag(other)),
        };
        c.finish()?;
        Ok(req)
    }

    /// Renders the request in the s-expression debug syntax.
    pub fn to_sexpr(&self) -> String {
        match *self {
            Request::Open { records, seed } => {
                format!("(open records={records} seed={seed})")
            }
            Request::Replace {
                session,
                key,
                value,
            } => format!("(replace session={session} key={key} value={value})"),
            Request::Find { session, key } => format!("(find session={session} key={key})"),
            Request::Tick { session, rounds } => {
                format!("(tick session={session} rounds={rounds})")
            }
            Request::Snapshot { session } => format!("(snapshot session={session})"),
            Request::Close { session } => format!("(close session={session})"),
            Request::Stop => "(stop)".to_string(),
        }
    }

    /// Parses the s-expression debug syntax: `(verb key=value …)`.
    /// Fields may appear in any order; unknown verbs, unknown fields,
    /// missing fields, and malformed integers are all rejected.
    pub fn parse_sexpr(text: &str) -> Result<Request, String> {
        let inner = text
            .trim()
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .ok_or_else(|| "expected (verb field=value ...)".to_string())?;
        let mut words = inner.split_whitespace();
        let verb = words
            .next()
            .ok_or_else(|| "empty s-expression".to_string())?;
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for word in words {
            let (k, v) = word
                .split_once('=')
                .ok_or_else(|| format!("field `{word}` is not key=value"))?;
            fields.push((k, v));
        }
        let get = |name: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("({verb} …) needs `{name}=`"))
        };
        let int = |name: &str| -> Result<i64, String> {
            get(name)?
                .parse()
                .map_err(|_| format!("`{name}` is not an integer"))
        };
        let uint = |name: &str| -> Result<u64, String> {
            get(name)?
                .parse()
                .map_err(|_| format!("`{name}` is not an unsigned integer"))
        };
        let known: &[&str] = match verb {
            "open" => &["records", "seed"],
            "replace" => &["session", "key", "value"],
            "find" => &["session", "key"],
            "tick" => &["session", "rounds"],
            "snapshot" | "close" => &["session"],
            "stop" => &[],
            other => return Err(format!("unknown verb `{other}`")),
        };
        if let Some((k, _)) = fields.iter().find(|(k, _)| !known.contains(k)) {
            return Err(format!("({verb} …) does not take `{k}=`"));
        }
        Ok(match verb {
            "open" => Request::Open {
                records: uint("records")?,
                seed: uint("seed")?,
            },
            "replace" => Request::Replace {
                session: uint("session")? as u32,
                key: int("key")?,
                value: int("value")?,
            },
            "find" => Request::Find {
                session: uint("session")? as u32,
                key: int("key")?,
            },
            "tick" => Request::Tick {
                session: uint("session")? as u32,
                rounds: uint("rounds")? as u32,
            },
            "snapshot" => Request::Snapshot {
                session: uint("session")? as u32,
            },
            "close" => Request::Close {
                session: uint("session")? as u32,
            },
            "stop" => Request::Stop,
            _ => unreachable!("verb validated above"),
        })
    }
}

impl Response {
    /// Serializes the response payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match self {
            Response::Opened { session } => {
                out.push(TAG_OPENED);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Response::Replaced => out.push(TAG_REPLACED),
            Response::Found { value } => {
                out.push(TAG_FOUND);
                out.push(u8::from(value.is_some()));
                out.extend_from_slice(&value.unwrap_or(0).to_le_bytes());
            }
            Response::Ticked { rewrites } => {
                out.push(TAG_TICKED);
                out.extend_from_slice(&rewrites.to_le_bytes());
            }
            Response::Snapshotted(s) => {
                out.push(TAG_SNAPSHOTTED);
                out.extend_from_slice(&s.rewrites.to_le_bytes());
                out.extend_from_slice(&s.memory_bytes.to_le_bytes());
                out.extend_from_slice(&s.staged.to_le_bytes());
                out.extend_from_slice(&s.canceled.to_le_bytes());
                out.push(u8::from(s.pending_matches));
            }
            Response::Closed { rewrites } => {
                out.push(TAG_CLOSED);
                out.extend_from_slice(&rewrites.to_le_bytes());
            }
            Response::Stopping => out.push(TAG_STOPPING),
            Response::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(code.to_byte());
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&msg[..len]);
            }
        }
        out
    }

    /// Decodes a response payload (strict: exact length required).
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        if payload.len() > MAX_FRAME {
            return Err(FrameError::Oversized);
        }
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            TAG_OPENED => Response::Opened { session: c.u32()? },
            TAG_REPLACED => Response::Replaced,
            TAG_FOUND => {
                let present = c.u8()? != 0;
                let value = c.i64()?;
                Response::Found {
                    value: present.then_some(value),
                }
            }
            TAG_TICKED => Response::Ticked { rewrites: c.u64()? },
            TAG_SNAPSHOTTED => Response::Snapshotted(SessionSnapshot {
                rewrites: c.u64()?,
                memory_bytes: c.u64()?,
                staged: c.u64()?,
                canceled: c.u64()?,
                pending_matches: c.u8()? != 0,
            }),
            TAG_CLOSED => Response::Closed { rewrites: c.u64()? },
            TAG_STOPPING => Response::Stopping,
            TAG_ERROR => {
                let code = ErrorCode::from_byte(c.u8()?)?;
                let len = u16::from_le_bytes(c.take(2)?.try_into().unwrap()) as usize;
                let message = String::from_utf8_lossy(c.take(len)?).into_owned();
                Response::Error { code, message }
            }
            other => return Err(FrameError::BadTag(other)),
        };
        c.finish()?;
        Ok(resp)
    }

    /// Renders the response in the s-expression debug syntax.
    pub fn to_sexpr(&self) -> String {
        match self {
            Response::Opened { session } => format!("(opened session={session})"),
            Response::Replaced => "(replaced)".to_string(),
            Response::Found { value: Some(v) } => format!("(found value={v})"),
            Response::Found { value: None } => "(found)".to_string(),
            Response::Ticked { rewrites } => format!("(ticked rewrites={rewrites})"),
            Response::Snapshotted(s) => format!(
                "(snapshot rewrites={} memory-bytes={} staged={} canceled={} pending={})",
                s.rewrites, s.memory_bytes, s.staged, s.canceled, s.pending_matches
            ),
            Response::Closed { rewrites } => format!("(closed rewrites={rewrites})"),
            Response::Stopping => "(stopping)".to_string(),
            Response::Error { code, message } => {
                format!("(error code={} message=\"{message}\")", code.name())
            }
        }
    }
}

/// Writes one length-prefixed frame with a single `write_all`: the
/// prefix and payload leave in one buffer, so a socket sends them as one
/// segment. Two writes would let Nagle's algorithm hold the payload
/// until the peer acknowledged the prefix, and a peer that delays its
/// ACK stalls every round trip by ~40 ms.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized.to_string(),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean end of
/// stream (EOF on the length-prefix boundary); EOF mid-frame and an
/// oversized announcement are errors. A convenience for one-off reads
/// (tests, scripts): a read error loses the bytes already read, so a
/// connection keeps one [`FrameReader`] over a `BufReader` instead.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    FrameReader::default().read_frame(r)
}

/// A resumable frame reader: the bytes of a partly read frame survive
/// a read error (a `WouldBlock`/`TimedOut` under a socket timeout, say),
/// so the next call picks the frame up where the failed one stopped
/// instead of parsing mid-frame bytes as a length prefix.
///
/// It asks for the prefix and the payload in two reads; over a
/// `BufReader` the first fills the buffer with the whole frame and the
/// second is a copy, so a frame costs one `recv`.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The frame so far: length prefix, then payload.
    buf: Vec<u8>,
    /// Bytes of `buf` already read.
    filled: usize,
}

impl FrameReader {
    /// Reads the next frame, resuming a partly read one; same results
    /// as [`read_frame`].
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            self.buf.resize(4, 0);
        }
        while self.filled < 4 {
            if !self.fill(r, 4)? {
                return Ok(None);
            }
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::Oversized.to_string(),
            ));
        }
        self.buf.resize(4 + len, 0);
        while self.filled < 4 + len {
            self.fill(r, 4 + len)?;
        }
        let payload = self.buf.split_off(4);
        self.filled = 0;
        Ok(Some(payload))
    }

    /// One read toward `buf[..want]`. `Ok(false)` is a clean end of
    /// stream: EOF before the frame's first byte.
    fn fill(&mut self, r: &mut impl Read, want: usize) -> io::Result<bool> {
        match r.read(&mut self.buf[self.filled..want]) {
            Ok(0) if self.filled == 0 => Ok(false),
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                FrameError::Truncated.to_string(),
            )),
            Ok(n) => {
                self.filled += n;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// A sink that records how many `write` calls reach it.
    #[derive(Default)]
    struct CountingWrite {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A source that hands out queued frames the way a socket hands out
    /// segments: one read never crosses into the next frame. Counts the
    /// `read` calls that reach it.
    struct CountingRead {
        frames: std::collections::VecDeque<Vec<u8>>,
        pos: usize,
        reads: usize,
    }

    impl CountingRead {
        fn new(frames: impl IntoIterator<Item = Vec<u8>>) -> CountingRead {
            CountingRead {
                frames: frames.into_iter().collect(),
                pos: 0,
                reads: 0,
            }
        }
    }

    impl Read for CountingRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(frame) = self.frames.front() else {
                return Ok(0);
            };
            let n = buf.len().min(frame.len() - self.pos);
            buf[..n].copy_from_slice(&frame[self.pos..self.pos + n]);
            self.pos += n;
            if self.pos == frame.len() {
                self.frames.pop_front();
                self.pos = 0;
            }
            Ok(n)
        }
    }

    fn every_request() -> Vec<Request> {
        vec![
            Request::Open {
                records: 20_000,
                seed: 7,
            },
            Request::Replace {
                session: 1,
                key: -3,
                value: 42,
            },
            Request::Find { session: 1, key: 9 },
            Request::Tick {
                session: 1,
                rounds: 4,
            },
            Request::Snapshot { session: 1 },
            Request::Close { session: 1 },
            Request::Stop,
        ]
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    #[test]
    fn write_frame_issues_one_write() {
        for len in [0, 1, MAX_FRAME - 1, MAX_FRAME] {
            let payload = vec![0xA5u8; len];
            let mut sink = CountingWrite::default();
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.writes, 1, "{len}-byte payload");
            assert_eq!(sink.bytes[..4], (len as u32).to_le_bytes());
            assert_eq!(sink.bytes[4..], payload[..]);
        }
        let mut sink = CountingWrite::default();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
        assert_eq!(sink.writes, 0, "an oversized frame writes nothing");
    }

    #[test]
    fn buffered_frame_reader_needs_one_read_per_frame() {
        let requests = every_request();
        let wire: Vec<Vec<u8>> = requests.iter().map(|r| framed(&r.encode())).collect();
        let mut source = BufReader::new(CountingRead::new(wire.clone()));
        let mut frames = FrameReader::default();
        for (i, req) in requests.iter().enumerate() {
            let payload = frames.read_frame(&mut source).unwrap().expect("a frame");
            assert_eq!(Request::decode(&payload).unwrap(), *req);
            assert_eq!(source.get_ref().reads, i + 1, "after frame {i}");
        }
        assert_eq!(frames.read_frame(&mut source).unwrap(), None);
        assert_eq!(
            source.get_ref().reads,
            requests.len() + 1,
            "one read sees EOF"
        );

        // Unbuffered, the prefix and the payload are two reads.
        let mut source = CountingRead::new(wire);
        while frames.read_frame(&mut source).unwrap().is_some() {}
        assert_eq!(source.reads, 2 * requests.len() + 1);
    }
}
