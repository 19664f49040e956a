//! The framing layer: length-prefixed, checksummed, request-tagged frames
//! over a byte stream.
//!
//! Every message travels in exactly one frame (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic       0x4E414742 ("BGAN" in byte order)
//! 4       1     version     (currently 2; receivers reject anything else)
//! 5       1     kind        (message discriminant, see `codec`)
//! 6       4     len         payload length in bytes (<= 64 MiB)
//! 10      4     crc         CRC-32 (IEEE) of the payload bytes
//! 14      8     request_id  correlates a reply to its request
//! 22      len   payload
//! ```
//!
//! The magic catches stray peers (e.g. an HTTP client probing the port) at
//! the first four bytes; the version byte allows incompatible codec
//! revisions to fail fast with an actionable error; the checksum catches
//! corruption that TCP's own checksum missed (or that a buggy proxy
//! introduced). A frame that fails any of these checks yields
//! [`Error::Codec`] — never a panic — and the connection should be dropped,
//! since stream framing is lost.
//!
//! Version 2 added the `request_id` tag: a connection may carry multiple
//! in-flight requests (pipelining), with each reply echoing its request's
//! id so the client can match responses that complete out of order. Frames
//! the server *pushes* (certifier deliveries, which answer no specific
//! request) carry id [`PUSH_ID`].
//!
//! Two read paths share the same validation:
//!
//! - [`read_frame`] — the blocking one-shot path: read exactly one frame
//!   from a `Read`.
//! - [`FrameDecoder`] — the incremental path for non-blocking sockets: feed
//!   whatever bytes the readiness loop produced (possibly mid-header,
//!   mid-payload, or several frames at once) and collect the frames that
//!   completed. Error classification is identical to the one-shot path by
//!   construction: both call [`parse_header`] and [`verify_payload`].

use bargain_common::codec::{Codec, Reader};
pub use bargain_common::crc32;
use bargain_common::{Error, Result};
use std::io::{Read, Write};

/// Frame magic: `b"BGAN"` interpreted as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"BGAN");

/// Wire protocol version this build speaks. Version 2 = request-tagged
/// frames (pipelining); version-1 peers are rejected at the handshake with
/// an actionable error.
pub const PROTOCOL_VERSION: u8 = 2;

/// The `request_id` carried by frames that answer no specific request:
/// server-initiated pushes (certifier decisions, refreshes) and
/// fire-and-forget requests whose sender will not match on the id.
pub const PUSH_ID: u64 = 0;

/// Upper bound on a frame payload. Larger frames are rejected before
/// allocation, so a corrupt or malicious length prefix cannot OOM the
/// process.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 22;

/// Builds the complete byte image of one frame (header + payload), ready
/// for a single `write_all`.
pub fn encode_frame(kind: u8, request_id: u64, payload: &[u8]) -> Result<Vec<u8>> {
    fits(payload.len())?;
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    append_frame(&mut buf, kind, request_id, |buf| {
        buf.extend_from_slice(payload)
    })?;
    Ok(buf)
}

/// Appends one frame to `out`: the header, then the payload `put` appends,
/// with the header's length and checksum filled in behind it. A payload
/// over [`MAX_FRAME_LEN`] is refused and `out` is left as it was.
pub fn append_frame(
    out: &mut Vec<u8>,
    kind: u8,
    request_id: u64,
    put: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    let start = out.len();
    MAGIC.put(out);
    PROTOCOL_VERSION.put(out);
    kind.put(out);
    // Length (offset 6) and checksum (offset 10), known once the payload
    // is in.
    0u32.put(out);
    0u32.put(out);
    request_id.put(out);
    put(out);
    let body = start + HEADER_LEN;
    let len = out.len() - body;
    if let Err(e) = fits(len) {
        out.truncate(start);
        return Err(e);
    }
    let crc = crc32(&out[body..]);
    out[start + 6..start + 10].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 10..start + 14].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Refuses a payload of `len` bytes over [`MAX_FRAME_LEN`].
fn fits(len: usize) -> Result<()> {
    if len as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(Error::Codec(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    Ok(())
}

/// A parsed, validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message discriminant (see `codec`).
    pub kind: u8,
    /// Payload length in bytes.
    pub len: u32,
    /// Expected CRC-32 of the payload.
    pub crc: u32,
    /// The request this frame belongs to ([`PUSH_ID`] for pushes).
    pub request_id: u64,
}

/// Validates a frame header, returning the message kind, payload length,
/// expected payload checksum, and request id.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
    let mut r = Reader::new(header);
    let magic: u32 = r.get()?;
    if magic != MAGIC {
        return Err(Error::Codec(format!(
            "bad frame magic {magic:#010x} (expected {MAGIC:#010x}); peer is not speaking the bargain protocol"
        )));
    }
    let version: u8 = r.get()?;
    if version != PROTOCOL_VERSION {
        return Err(Error::Codec(format!(
            "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    let kind = r.get()?;
    let len = r.get()?;
    if len > MAX_FRAME_LEN {
        return Err(Error::Codec(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    Ok(FrameHeader {
        kind,
        len,
        crc: r.get()?,
        request_id: r.get()?,
    })
}

/// Verifies a received payload against the header's checksum. The frame
/// kind and payload length are included in the error so a corrupted frame
/// can be attributed to a message type and located on the wire.
pub fn verify_payload(kind: u8, expected_crc: u32, payload: &[u8]) -> Result<()> {
    let actual = crc32(payload);
    if actual != expected_crc {
        return Err(Error::Codec(format!(
            "frame checksum mismatch (kind {kind}, {}-byte payload): header says              {expected_crc:#010x}, payload hashes to {actual:#010x}",
            payload.len()
        )));
    }
    Ok(())
}

/// Writes one frame (header + payload) to `w` as a single `write_all`.
pub fn write_frame(w: &mut impl Write, kind: u8, request_id: u64, payload: &[u8]) -> Result<()> {
    let buf = encode_frame(kind, request_id, payload)?;
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one frame from `r`, validating magic, version, length bound, and
/// checksum. Returns the message kind, request id, and payload.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, u64, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let h = parse_header(&header)?;
    let mut payload = vec![0u8; h.len as usize];
    r.read_exact(&mut payload)?;
    verify_payload(h.kind, h.crc, &payload)?;
    Ok((h.kind, h.request_id, payload))
}

/// One complete frame produced by the [`FrameDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant.
    pub kind: u8,
    /// The request this frame belongs to.
    pub request_id: u64,
    /// The checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

/// Incremental frame decoder for non-blocking reads: a byte-stream state
/// machine that accepts input in arbitrary slices — one byte at a time,
/// split inside the header, the length field, the checksum, or the payload
/// — and yields exactly the frames the one-shot [`read_frame`] path would,
/// with the same error classification (it runs the same [`parse_header`]
/// and [`verify_payload`]).
///
/// A partial frame *resumes* across calls: the decoder owns the carry-over
/// state, so a readiness loop can feed it whatever each `read` produced.
/// After any error the decoder is poisoned (stream framing is lost; the
/// connection must be dropped) and every further feed returns the same
/// classification.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Header bytes accumulated so far (only `header_fill` are valid).
    header: [u8; HEADER_LEN],
    header_fill: usize,
    /// Parsed header once `header_fill == HEADER_LEN`.
    parsed: Option<FrameHeader>,
    /// Payload bytes accumulated so far for the current frame.
    payload: Vec<u8>,
    /// Set on the first error; the framing is unrecoverable after that.
    poisoned: bool,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A fresh decoder at a frame boundary.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            header: [0u8; HEADER_LEN],
            header_fill: 0,
            parsed: None,
            payload: Vec::new(),
            poisoned: false,
        }
    }

    /// Whether the decoder is mid-frame (bytes consumed since the last
    /// frame boundary). A connection that closes while this is true died
    /// mid-frame.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.header_fill > 0 || self.parsed.is_some()
    }

    /// Feeds `data` into the decoder, appending every frame that completes
    /// to `out`. Consumes all of `data` or fails; on failure the decoder is
    /// poisoned and the connection should be dropped.
    pub fn feed(&mut self, mut data: &[u8], out: &mut Vec<Frame>) -> Result<()> {
        if self.poisoned {
            return Err(Error::Codec(
                "frame decoder poisoned by an earlier framing error".into(),
            ));
        }
        loop {
            match self.parsed {
                None => {
                    if data.is_empty() {
                        return Ok(());
                    }
                    // Accumulate header bytes.
                    let need = HEADER_LEN - self.header_fill;
                    let take = need.min(data.len());
                    self.header[self.header_fill..self.header_fill + take]
                        .copy_from_slice(&data[..take]);
                    self.header_fill += take;
                    data = &data[take..];
                    if self.header_fill == HEADER_LEN {
                        match parse_header(&self.header) {
                            Ok(h) => {
                                self.parsed = Some(h);
                                self.payload.reserve(h.len as usize);
                            }
                            Err(e) => {
                                self.poisoned = true;
                                return Err(e);
                            }
                        }
                    }
                }
                Some(h) => {
                    // Zero-length payloads complete without consuming any
                    // bytes, so this arm must run even when `data` is
                    // already empty.
                    let need = h.len as usize - self.payload.len();
                    let take = need.min(data.len());
                    self.payload.extend_from_slice(&data[..take]);
                    data = &data[take..];
                    if self.payload.len() < h.len as usize {
                        return Ok(()); // mid-payload: resume on next feed
                    }
                    if let Err(e) = verify_payload(h.kind, h.crc, &self.payload) {
                        self.poisoned = true;
                        return Err(e);
                    }
                    out.push(Frame {
                        kind: h.kind,
                        request_id: h.request_id,
                        payload: std::mem::take(&mut self.payload),
                    });
                    self.parsed = None;
                    self.header_fill = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, 42, b"hello").unwrap();
        let (kind, id, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(id, 42);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn an_appended_frame_is_the_encoded_one_and_an_oversized_one_leaves_nothing() {
        let mut out = encode_frame(1, 1, b"first").unwrap();
        append_frame(&mut out, 7, 42, |buf| buf.extend_from_slice(b"hello")).unwrap();
        let held = out.len();
        let err = append_frame(&mut out, 7, 43, |buf| {
            buf.resize(buf.len() + MAX_FRAME_LEN as usize + 1, 0);
        });
        assert!(matches!(err, Err(Error::Codec(_))), "{err:?}");
        assert_eq!(out.len(), held);
        let mut wire = out.as_slice();
        assert_eq!(read_frame(&mut wire).unwrap(), (1, 1, b"first".to_vec()));
        assert_eq!(read_frame(&mut wire).unwrap(), (7, 42, b"hello".to_vec()));
        assert!(wire.is_empty());
    }

    #[test]
    fn bad_magic_is_codec_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"x").unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(Error::Codec(_))
        ));
    }

    #[test]
    fn bad_version_is_codec_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"x").unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(Error::Codec(_))
        ));
    }

    #[test]
    fn version_1_peer_is_rejected_with_actionable_error() {
        // A v1 frame (the pre-pipelining 14-byte header) leads with the
        // same magic but version byte 1: the error must name both versions.
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"x").unwrap();
        buf[4] = 1;
        match read_frame(&mut buf.as_slice()) {
            Err(Error::Codec(msg)) => {
                assert!(
                    msg.contains("version 1") && msg.contains('2'),
                    "version error should name both versions: {msg}"
                );
            }
            other => panic!("expected Codec error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_is_codec_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_frame(&mut buf.as_slice()) {
            Err(Error::Codec(msg)) => {
                assert!(
                    msg.contains("kind 1") && msg.contains("7-byte payload"),
                    "checksum error should name the frame kind and size: {msg}"
                );
            }
            other => panic!("expected Codec error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_io_error_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"payload").unwrap();
        for cut in 0..buf.len() {
            let r = read_frame(&mut &buf[..cut]);
            assert!(r.is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"x").unwrap();
        // Forge an absurd length; payload checksum never gets checked
        // because the length guard fires first.
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(Error::Codec(_))
        ));
    }

    #[test]
    fn decoder_handles_one_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, 77, b"incremental").unwrap();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            dec.feed(std::slice::from_ref(b), &mut out).unwrap();
            if i + 1 < wire.len() {
                assert!(out.is_empty(), "no frame before the last byte");
                assert!(dec.mid_frame());
            }
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, 9);
        assert_eq!(out[0].request_id, 77);
        assert_eq!(out[0].payload, b"incremental");
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_yields_multiple_frames_from_one_chunk() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 1, b"a").unwrap();
        write_frame(&mut wire, 2, 2, b"bb").unwrap();
        write_frame(&mut wire, 3, 3, b"").unwrap();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.feed(&wire, &mut out).unwrap();
        assert_eq!(
            out.iter()
                .map(|f| (f.kind, f.request_id))
                .collect::<Vec<_>>(),
            vec![(1, 1), (2, 2), (3, 3)]
        );
    }

    #[test]
    fn decoder_resumes_across_a_split_inside_the_length_field() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 5, 6, b"split me").unwrap();
        // Split inside the len field (offset 6..10).
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.feed(&wire[..8], &mut out).unwrap();
        assert!(out.is_empty() && dec.mid_frame());
        dec.feed(&wire[8..], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, b"split me");
    }

    #[test]
    fn decoder_poisons_on_error_and_stays_poisoned() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 0, b"x").unwrap();
        wire[0] ^= 0xFF; // bad magic
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        assert!(dec.feed(&wire, &mut out).is_err());
        // Feeding perfectly valid bytes afterwards still errors: framing
        // is lost for good.
        let mut good = Vec::new();
        write_frame(&mut good, 1, 0, b"y").unwrap();
        assert!(dec.feed(&good, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_errors_match_one_shot_classification() {
        // For every single-byte corruption of a frame, the incremental
        // decoder must produce exactly the error (or the success) the
        // one-shot path produces.
        let mut wire = Vec::new();
        write_frame(&mut wire, 4, 9, b"classify").unwrap();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let one_shot = read_frame(&mut bad.as_slice());
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            let incremental = bad
                .iter()
                .try_for_each(|b| dec.feed(std::slice::from_ref(b), &mut out));
            match (one_shot, incremental) {
                (Ok((kind, id, payload)), Ok(())) => {
                    assert_eq!(out.len(), 1, "flip at {i}");
                    assert_eq!((out[0].kind, out[0].request_id), (kind, id));
                    assert_eq!(out[0].payload, payload);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "flip at {i}");
                }
                (Err(Error::Io(_)), Ok(())) => {
                    // A flipped length field promised more payload than the
                    // input holds: the one-shot path hits EOF (an I/O
                    // truncation error), while the incremental decoder —
                    // which cannot distinguish "truncated" from "more bytes
                    // coming" — correctly parks mid-frame.
                    assert!(dec.mid_frame(), "flip at {i}: decoder should wait");
                    assert!(out.is_empty(), "flip at {i}");
                }
                (a, b) => panic!("flip at {i}: one-shot {a:?} vs incremental {b:?}"),
            }
        }
    }
}
