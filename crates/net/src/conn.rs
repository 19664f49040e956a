//! A framed protocol connection over a `TcpStream`, plus the bounded
//! retry-with-backoff connect policy.
//!
//! A [`Connection`] reads through a [`FrameDecoder`]: one `read` takes
//! every frame that has arrived, and the frames it decoded are returned
//! before the next `read`. A server that sends a pipelined connection's
//! replies together is then read with one system call per batch, not two
//! per reply. Whoever takes the socket over from a `Connection` takes the
//! frames it read ahead too ([`Connection::into_parts`]).

use crate::codec::Message;
use crate::frame::{encode_frame, Frame, FrameDecoder, PUSH_ID};
use bargain_common::{Error, Result};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How a client establishes and maintains a connection.
#[derive(Debug, Clone)]
pub struct ConnectPolicy {
    /// Maximum connect attempts before giving up with
    /// [`Error::Unavailable`].
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles on each further attempt
    /// (exponential backoff).
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Randomization applied to every backoff sleep: each sleep is scaled
    /// by a factor drawn uniformly from `[1 - jitter, 1 + jitter]`, so a
    /// fleet of clients reconnecting after the same outage does not retry
    /// in lockstep. `0.0` disables jitter.
    pub jitter: f64,
    /// Total retry-time budget across all attempts. When the next backoff
    /// sleep would push the elapsed time past this cap, the policy gives up
    /// with a clear [`Error::Timeout`] instead of sleeping on. `None`
    /// bounds retries by `max_attempts` alone.
    pub max_total: Option<Duration>,
    /// Read deadline for replies (`None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Write deadline for requests (`None` blocks forever).
    pub write_timeout: Option<Duration>,
}

impl Default for ConnectPolicy {
    fn default() -> Self {
        ConnectPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            jitter: 0.2,
            max_total: Some(Duration::from_secs(30)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ConnectPolicy {
    /// The backoff sleep before attempt `attempt` (1-based over retries),
    /// jittered by `seed`.
    fn backoff_for(&self, attempt: u32, seed: u64) -> Duration {
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << attempt.min(20).saturating_sub(1))
            .min(self.max_backoff);
        if self.jitter <= 0.0 {
            return base;
        }
        // xorshift64* over the seed and attempt number: cheap, deterministic
        // per (seed, attempt), uniform enough to spread a reconnect herd.
        let mut x = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        base.mul_f64(factor.max(0.0))
    }
}

/// Classifies an I/O failure on an established connection: deadline
/// expiries become [`Error::Timeout`], peer disappearances
/// [`Error::ConnectionClosed`], anything else stays [`Error::Io`]. The
/// peer's address is included so a multi-link host (client ↔ frontend ↔
/// certifier) can tell which hop failed.
pub(crate) fn classify_io(e: &io::Error, what: &str, peer: &str) -> Error {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            Error::Timeout(format!("{what} deadline expired (peer {peer}): {e}"))
        }
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => {
            Error::ConnectionClosed(format!("{what} (peer {peer}): {e}"))
        }
        _ => Error::Io(format!("{what} (peer {peer}): {e}")),
    }
}

/// Bytes one `read` of a [`Connection`] takes at most, into a buffer on the
/// reading call's stack.
const READ_CHUNK: usize = 16 * 1024;

/// A connection that sends and receives whole [`Message`]s.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    peer: String,
    /// The last request id this side issued; [`Connection::call`] and
    /// [`Connection::next_request_id`] hand out `last_id + 1, ...` so ids
    /// are unique per connection and never collide with [`PUSH_ID`].
    next_id: u64,
    /// What was read of a frame not yet whole.
    decoder: FrameDecoder,
    /// Frames read and not yet returned, the newest first.
    frames: Vec<Frame>,
    /// The framing error a read met behind `frames`: returned once they
    /// are, and from then on.
    broken: Option<Error>,
}

impl Connection {
    /// Wraps an accepted stream (server side), applying the given
    /// deadlines.
    pub fn from_stream(
        stream: TcpStream,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> Result<Connection> {
        stream.set_nodelay(true).map_err(Error::from)?;
        stream.set_read_timeout(read_timeout).map_err(Error::from)?;
        stream
            .set_write_timeout(write_timeout)
            .map_err(Error::from)?;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_owned(), |a| a.to_string());
        Ok(Connection {
            stream,
            peer,
            next_id: 0,
            decoder: FrameDecoder::new(),
            frames: Vec::new(),
            broken: None,
        })
    }

    /// Connects to `addr` with bounded retry and jittered exponential
    /// backoff. Each failed attempt sleeps, doubles the backoff (up to the
    /// policy's ceiling), and tries again. After `max_attempts` failures
    /// the last error is wrapped in [`Error::Unavailable`]; exceeding the
    /// policy's total retry-time budget yields [`Error::Timeout`].
    pub fn connect(
        addr: impl ToSocketAddrs + Copy + std::fmt::Display,
        policy: &ConnectPolicy,
    ) -> Result<Connection> {
        let start = Instant::now();
        // Seed the jitter from the clock so concurrent clients spread out.
        let seed = Instant::now().elapsed().subsec_nanos() as u64
            ^ std::process::id() as u64
            ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.subsec_nanos() as u64);
        let mut last_err = String::new();
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                let sleep = policy.backoff_for(attempt, seed);
                if let Some(cap) = policy.max_total {
                    if start.elapsed() + sleep > cap {
                        return Err(Error::Timeout(format!(
                            "connect to {addr}: retry budget of {cap:?} exhausted after \
                             {attempt} attempt(s) ({:?} elapsed): {last_err}",
                            start.elapsed()
                        )));
                    }
                }
                std::thread::sleep(sleep);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    return Connection::from_stream(
                        stream,
                        policy.read_timeout,
                        policy.write_timeout,
                    );
                }
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(Error::Unavailable(format!(
            "connect to {addr} failed after {} attempts: {last_err}",
            policy.max_attempts.max(1)
        )))
    }

    /// The underlying stream (for `try_clone`/`peek`/`shutdown` plumbing).
    /// A reader of its own misses what this connection has read ahead:
    /// take the socket over with [`Connection::into_parts`] instead.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Gives up the connection for a reader of its own: the socket, the
    /// decoder holding whatever part of a frame was read, and the frames
    /// read ahead and not yet returned, the oldest first.
    pub fn into_parts(self) -> (TcpStream, FrameDecoder, Vec<Frame>) {
        let mut frames = self.frames;
        frames.reverse();
        (self.stream, self.decoder, frames)
    }

    /// The peer's address, as reported at accept/connect time.
    #[must_use]
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Hands out the next request id for pipelined sends on this
    /// connection (strictly increasing, never [`PUSH_ID`]).
    pub fn next_request_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends one message as one frame (a single `write_all`) tagged with
    /// [`PUSH_ID`] — for pushes and fire-and-forget sends whose reply (if
    /// any) is not matched by id.
    pub fn send(&mut self, msg: &Message) -> Result<()> {
        self.send_with_id(PUSH_ID, msg)
    }

    /// Sends one message as one frame tagged with `request_id`.
    pub fn send_with_id(&mut self, request_id: u64, msg: &Message) -> Result<()> {
        let buf = encode_frame(msg.kind(), request_id, &msg.encode())?;
        self.stream
            .write_all(&buf)
            .map_err(|e| classify_io(&e, "write", &self.peer))
    }

    /// Receives one message, blocking up to the read deadline, discarding
    /// its request id (push streams and single-in-flight callers).
    pub fn recv(&mut self) -> Result<Message> {
        self.recv_tagged().map(|(_, msg)| msg)
    }

    /// Receives one message with its request id, blocking up to the read
    /// deadline: the oldest frame already read, or else whatever one `read`
    /// brings. A deadline that expires mid-frame keeps the part read.
    pub fn recv_tagged(&mut self) -> Result<(u64, Message)> {
        let frame = loop {
            if let Some(frame) = self.frames.pop() {
                break frame;
            }
            if let Some(e) = &self.broken {
                return Err(e.clone());
            }
            let mut buf = [0u8; READ_CHUNK];
            let n = match self.stream.read(&mut buf) {
                Ok(0) => {
                    let eof = io::Error::from(io::ErrorKind::UnexpectedEof);
                    return Err(classify_io(&eof, "read frame", &self.peer));
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(classify_io(&e, "read frame", &self.peer)),
            };
            let fed = self.decoder.feed(&buf[..n], &mut self.frames);
            self.frames.reverse();
            self.broken = fed.err();
        };
        Ok((
            frame.request_id,
            Message::decode(frame.kind, &frame.payload)?,
        ))
    }

    /// Sends `msg` tagged with a fresh request id and waits for the reply
    /// carrying the same id (skipping any pushes that arrive in between),
    /// translating a [`Message::Err`] reply into the error it carries.
    pub fn call(&mut self, msg: &Message) -> Result<Message> {
        let id = self.next_request_id();
        self.send_with_id(id, msg)?;
        loop {
            let (reply_id, reply) = self.recv_tagged()?;
            if reply_id != id {
                // A server push (or a stale reply from a request this
                // caller abandoned) interleaved with our call; sequential
                // callers have no queue to deliver it to, so skip it.
                continue;
            }
            return match reply {
                Message::Err(e) => Err(e),
                reply => Ok(reply),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connection and the peer's end of it.
    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = Connection::connect(addr, &ConnectPolicy::default()).unwrap();
        (conn, listener.accept().unwrap().0)
    }

    fn frame(id: u64, msg: &Message) -> Vec<u8> {
        encode_frame(msg.kind(), id, &msg.encode()).unwrap()
    }

    #[test]
    fn frames_read_together_are_returned_in_order_then_the_error_behind_them() {
        let (mut conn, mut peer) = pair();
        // Two whole frames and the start of a third in one write, the rest
        // of it, a fourth and a frame with a broken magic in another.
        let third = frame(3, &Message::Pong);
        let mut bytes = [frame(1, &Message::Ping), frame(2, &Message::Stats)].concat();
        bytes.extend(&third[..10]);
        peer.write_all(&bytes).unwrap();
        let mut broken = frame(5, &Message::Ping);
        broken[0] ^= 0xFF;
        peer.write_all(&[&third[10..], &frame(4, &Message::Ack), &broken].concat())
            .unwrap();

        let ids: Vec<u64> = (0..4).map(|_| conn.recv_tagged().unwrap().0).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        for _ in 0..2 {
            let err = conn.recv_tagged().unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err:?}");
        }
    }

    #[test]
    fn the_peer_closing_mid_frame_is_connection_closed() {
        let (mut conn, mut peer) = pair();
        let whole = frame(1, &Message::Ping);
        let cut = frame(2, &Message::Stats);
        peer.write_all(&[&whole[..], &cut[..cut.len() - 1]].concat())
            .unwrap();
        drop(peer);
        assert!(matches!(conn.recv_tagged(), Ok((1, Message::Ping))));
        let err = conn.recv_tagged().unwrap_err();
        assert!(matches!(err, Error::ConnectionClosed(_)), "{err:?}");
    }

    #[test]
    fn backoff_grows_and_respects_ceiling() {
        let policy = ConnectPolicy {
            jitter: 0.0,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            ..ConnectPolicy::default()
        };
        assert_eq!(policy.backoff_for(1, 0), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2, 0), Duration::from_millis(20));
        // Capped by the ceiling, not 40ms.
        assert_eq!(policy.backoff_for(3, 0), Duration::from_millis(35));
    }

    #[test]
    fn jitter_stays_within_band() {
        let policy = ConnectPolicy {
            jitter: 0.2,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(10),
            ..ConnectPolicy::default()
        };
        for seed in 0..64 {
            let d = policy.backoff_for(1, seed);
            assert!(
                d >= Duration::from_millis(80) && d <= Duration::from_millis(120),
                "jittered backoff {d:?} outside [80ms, 120ms]"
            );
        }
    }

    #[test]
    fn retry_budget_exhaustion_is_a_timeout() {
        // Nothing listens on this port (bound but not accepting releases
        // the port again); connect attempts fail fast, and the tight total
        // budget must convert the retry loop into a Timeout.
        let policy = ConnectPolicy {
            max_attempts: 100,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
            jitter: 0.0,
            max_total: Some(Duration::from_millis(10)),
            ..ConnectPolicy::default()
        };
        let err = Connection::connect("127.0.0.1:1", &policy).unwrap_err();
        match err {
            Error::Timeout(msg) => {
                assert!(msg.contains("retry budget"), "unexpected message: {msg}");
                assert!(msg.contains("127.0.0.1:1"), "peer missing: {msg}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn attempts_exhaustion_is_unavailable_with_peer() {
        let policy = ConnectPolicy {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            jitter: 0.0,
            max_total: None,
            ..ConnectPolicy::default()
        };
        let err = Connection::connect("127.0.0.1:1", &policy).unwrap_err();
        match err {
            Error::Unavailable(msg) => {
                assert!(msg.contains("127.0.0.1:1"), "peer missing: {msg}");
                assert!(msg.contains("2 attempts"), "unexpected message: {msg}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
}
