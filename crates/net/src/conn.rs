//! A framed protocol connection over a `TcpStream`, plus the bounded
//! retry-with-backoff connect policy.
//!
//! A [`Connection`] reads through a [`FrameDecoder`]: one `read` takes
//! every frame that has arrived, and the frames it decoded are returned
//! before the next `read`. A server that sends a pipelined connection's
//! replies together is then read with one system call per batch, not two
//! per reply.
//!
//! Requests leave together the same way. A request is encoded straight
//! into the connection's write buffer, and it is held there while frames
//! already read remain to be returned: a client that refills its window
//! as it pops replies answers a batch of replies with one `write_all`.
//! Held bytes are written on the send that finds nothing read ahead,
//! before any blocking `read`, in [`Connection::into_parts`], once they
//! reach 16 KiB (`READ_CHUNK`), and, best effort, when the connection is
//! dropped. A caller that keeps one request outstanding never holds
//! anything: nothing is read ahead when it sends.
//!
//! Whoever takes the socket over from a `Connection` takes the frames it
//! read ahead too ([`Connection::into_parts`]).

use crate::codec::Message;
use crate::frame::{append_frame, Frame, FrameDecoder, PUSH_ID};
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
/// reading call's stack; also the most it holds of requests unwritten.
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
    /// Encoded requests not yet written, held while `frames` is not empty.
    out: Vec<u8>,
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
            out: Vec::new(),
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
    /// A reader of its own misses what this connection has read ahead, and
    /// a writer of its own overtakes the requests it holds: take the socket
    /// over with [`Connection::into_parts`] instead.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Gives up the connection for a reader of its own, after writing the
    /// requests it holds: the socket, the decoder holding whatever part of
    /// a frame was read, and the frames read ahead and not yet returned,
    /// the oldest first.
    pub fn into_parts(mut self) -> Result<(TcpStream, FrameDecoder, Vec<Frame>)> {
        self.flush()?;
        // `Connection` writes what it holds when dropped, so the socket is
        // handed over as a second handle and this one closes with `self`.
        let stream = self.stream.try_clone().map_err(Error::from)?;
        let mut frames = std::mem::take(&mut self.frames);
        frames.reverse();
        Ok((stream, std::mem::take(&mut self.decoder), frames))
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

    /// Sends one message as one frame tagged with [`PUSH_ID`] — for pushes
    /// and fire-and-forget sends whose reply (if any) is not matched by id.
    /// Like [`Connection::send_with_id`], it may hold the frame to leave
    /// with later ones.
    pub fn send(&mut self, msg: &Message) -> Result<()> {
        self.send_with_id(PUSH_ID, msg)
    }

    /// Sends one message as one frame tagged with `request_id`. The frame
    /// is written, together with any held before it, unless frames read
    /// ahead remain to be returned: then it is held, to leave in one write
    /// with the requests sent while they are returned (see the module
    /// docs). A write error is returned by the call that writes, this one
    /// or a later `send`, `recv` or `into_parts`.
    pub fn send_with_id(&mut self, request_id: u64, msg: &Message) -> Result<()> {
        append_frame(&mut self.out, msg.kind(), request_id, |buf| {
            msg.encode_into(buf);
        })?;
        if self.frames.is_empty() || self.out.len() >= READ_CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the held requests in one `write_all`.
    fn flush(&mut self) -> Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        // One large request does not keep its buffer for the connection's life.
        self.out.shrink_to(READ_CHUNK);
        written.map_err(|e| classify_io(&e, "write", &self.peer))
    }

    /// Receives one message, blocking up to the read deadline, discarding
    /// its request id (push streams and single-in-flight callers).
    pub fn recv(&mut self) -> Result<Message> {
        self.recv_tagged().map(|(_, msg)| msg)
    }

    /// Receives one message with its request id, blocking up to the read
    /// deadline: the oldest frame already read, or else, once the held
    /// requests are written, whatever one `read` brings. A deadline that
    /// expires mid-frame keeps the part read.
    pub fn recv_tagged(&mut self) -> Result<(u64, Message)> {
        let frame = loop {
            if let Some(frame) = self.frames.pop() {
                break frame;
            }
            if let Some(e) = &self.broken {
                return Err(e.clone());
            }
            self.flush()?;
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

impl Drop for Connection {
    /// Writes the held requests, best effort: a request whose `send`
    /// returned `Ok` leaves even if nothing else writes it before the drop.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
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

    /// The frames one `read` of `peer` brings, by id. The peer must have
    /// something to read: it waits up to a second for it.
    fn read_once(peer: &mut TcpStream) -> Vec<u64> {
        peer.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut buf = [0u8; READ_CHUNK * 2];
        let n = peer.read(&mut buf).unwrap();
        let mut frames = Vec::new();
        FrameDecoder::new().feed(&buf[..n], &mut frames).unwrap();
        frames.iter().map(|f| f.request_id).collect()
    }

    /// Whether `peer` has nothing to read right now.
    fn nothing_arrived(peer: &TcpStream) -> bool {
        peer.set_nonblocking(true).unwrap();
        let idle =
            matches!(peer.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        peer.set_nonblocking(false).unwrap();
        idle
    }

    /// A connection that has read `replies` frames in one `read` and
    /// returned the first.
    fn reading_ahead(replies: u64) -> (Connection, TcpStream) {
        let (mut conn, mut peer) = pair();
        let bytes: Vec<u8> = (1..=replies)
            .flat_map(|id| frame(id, &Message::Ack))
            .collect();
        peer.write_all(&bytes).unwrap();
        assert_eq!(conn.recv_tagged().unwrap().0, 1);
        (conn, peer)
    }

    #[test]
    fn requests_sent_while_replies_remain_leave_in_one_write() {
        let (mut conn, mut peer) = reading_ahead(4);
        // The closed loop's shape: a request after each reply popped.
        for id in 101..=103 {
            conn.send_with_id(id, &Message::Ping).unwrap();
            assert!(
                nothing_arrived(&peer),
                "request {id} left before the replies ran out"
            );
            assert_eq!(conn.recv_tagged().unwrap().0, id - 99);
        }
        conn.send_with_id(104, &Message::Ping).unwrap();
        assert_eq!(read_once(&mut peer), [101, 102, 103, 104]);
    }

    #[test]
    fn a_receive_writes_the_held_requests_before_it_waits() {
        let (mut conn, mut peer) = reading_ahead(2);
        conn.send_with_id(7, &Message::Ping).unwrap();
        assert_eq!(conn.recv_tagged().unwrap().0, 2);
        let echo = std::thread::spawn(move || {
            for id in read_once(&mut peer) {
                peer.write_all(&frame(id, &Message::Pong)).unwrap();
            }
            peer
        });
        conn.stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        assert!(matches!(conn.recv_tagged(), Ok((7, Message::Pong))));
        echo.join().unwrap();
    }

    #[test]
    fn a_connection_that_never_reads_writes_each_request_as_it_is_sent() {
        let (mut conn, mut peer) = pair();
        for id in 1..=3 {
            conn.send_with_id(id, &Message::Ping).unwrap();
            assert_eq!(read_once(&mut peer), [id]);
        }
    }

    #[test]
    fn into_parts_writes_the_held_requests_first() {
        let (mut conn, mut peer) = reading_ahead(2);
        conn.send(&Message::Ping).unwrap();
        assert!(nothing_arrived(&peer));
        let (_stream, _decoder, frames) = conn.into_parts().unwrap();
        assert_eq!(frames.iter().map(|f| f.request_id).collect::<Vec<_>>(), [2]);
        assert_eq!(read_once(&mut peer), [PUSH_ID]);
    }

    #[test]
    fn a_dropped_connection_writes_what_it_holds() {
        let (mut conn, mut peer) = reading_ahead(2);
        conn.send_with_id(7, &Message::Ping).unwrap();
        assert!(nothing_arrived(&peer));
        drop(conn);
        assert_eq!(read_once(&mut peer), [7]);
        assert_eq!(peer.read(&mut [0u8; 1]).unwrap(), 0);
    }

    #[test]
    fn held_requests_leave_once_they_fill_a_read() {
        let (mut conn, mut peer) = reading_ahead(2);
        let big = Message::Ddl {
            sql: "x".repeat(READ_CHUNK / 3),
        };
        for id in 1..=2 {
            conn.send_with_id(id, &big).unwrap();
        }
        assert!(nothing_arrived(&peer));
        conn.send_with_id(3, &big).unwrap();
        let mut got = Vec::new();
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; READ_CHUNK];
        peer.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        while got.len() < 3 {
            let n = peer.read(&mut buf).unwrap();
            decoder.feed(&buf[..n], &mut got).unwrap();
        }
        assert_eq!(
            got.iter().map(|f| f.request_id).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    /// A connection holding one request, with one frame read ahead, whose
    /// peer has reset the connection (it closed with a byte unread).
    fn held_behind_a_reset() -> Connection {
        let (mut conn, peer) = reading_ahead(2);
        conn.stream.write_all(&[0]).unwrap();
        peer.peek(&mut [0u8; 1]).unwrap();
        drop(peer);
        std::thread::sleep(Duration::from_millis(20));
        conn.send_with_id(9, &Message::Ping).unwrap();
        assert_eq!(conn.recv_tagged().unwrap().0, 2);
        conn
    }

    #[test]
    fn a_reset_while_requests_are_held_fails_the_next_receive() {
        let err = held_behind_a_reset().recv_tagged().unwrap_err();
        assert!(matches!(err, Error::ConnectionClosed(_)), "{err:?}");
    }

    #[test]
    fn a_reset_while_requests_are_held_fails_the_next_send() {
        let err = held_behind_a_reset()
            .send_with_id(10, &Message::Ping)
            .unwrap_err();
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
