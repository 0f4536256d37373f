//! Length-prefixed frame codec for the socket transport.
//!
//! Every message between a host process and a DLFM process is one
//! **frame** (protocol version 2):
//!
//! ```text
//! +--------+-------+-----+------+-------------+----------+
//! | len u32| magic | ver | kind | session u64 | corr u64 |
//! |        | u16   | u8  | u8   |             |          |
//! +--------+-------+-----+------+-------------+----------+
//! | trace_id u64 | parent_span u64 | cksum u32| payload  |
//! |              |                 |          | len - 40 |
//! +--------------+-----------------+----------+----------+
//! ```
//!
//! * `len` counts every byte after itself (header tail + payload), so a
//!   reader can frame the stream without understanding the payload;
//! * `magic`/`ver` reject cross-protocol or cross-version peers early;
//! * `kind` is one of Call/Post/Reply/Hangup/Ping/Pong;
//! * `session` multiplexes many logical connections over one socket;
//! * `corr` matches a Reply (or Pong) to the parked caller that sent the
//!   Call (or Ping);
//! * `trace_id`/`parent_span` (v2) carry the sender's trace context on
//!   Call/Post frames — 0 when the sender had none — so spans opened by
//!   the remote agent parent under the originating host statement and a
//!   cross-process transaction renders as one coherent trace;
//! * `cksum` is an FNV-1a digest of the payload: a corrupted frame is
//!   detected *per frame* and surfaced as a clean error to exactly the
//!   affected caller — the stream itself stays framed and alive.
//!
//! A version mismatch is detected after the whole frame was consumed (the
//! length prefix keeps the stream framed regardless of version), so the
//! transport can surface a clean [`WireError::BadVersion`] naming both
//! versions instead of desynchronizing.
//!
//! Payload bytes are produced by the hand-rolled [`Wire`] serializer the
//! envelope types implement (the workspace has no serde; the stand-in
//! crate is API-only). Primitives are little-endian, strings are
//! length-prefixed UTF-8.

use std::io::Read;

/// Protocol magic ("DL" with the high bits set).
pub const MAGIC: u16 = 0xD1FA;
/// Protocol version. v2 added the `trace_id`/`parent_span` header fields.
pub const VERSION: u8 = 2;
/// Bytes of header after the length prefix.
pub const HEADER_TAIL: usize = 40;
/// Upper bound on a frame's declared length: a corrupted or hostile
/// length prefix must not make the reader allocate unboundedly.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Round-trip request; a Reply with the same `corr` answers it.
    Call,
    /// Fire-and-forget request; never answered.
    Post,
    /// Answer to a Call. First payload byte is a status code
    /// ([`status`]); the response body follows only on success.
    Reply,
    /// The client end of `session` is gone: retire its server state.
    Hangup,
    /// Liveness probe; answered by a Pong with the same `corr`.
    Ping,
    /// Answer to a Ping.
    Pong,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Call => 1,
            FrameKind::Post => 2,
            FrameKind::Reply => 3,
            FrameKind::Hangup => 4,
            FrameKind::Ping => 5,
            FrameKind::Pong => 6,
        }
    }

    fn from_code(code: u8) -> Option<FrameKind> {
        Some(match code {
            1 => FrameKind::Call,
            2 => FrameKind::Post,
            3 => FrameKind::Reply,
            4 => FrameKind::Hangup,
            5 => FrameKind::Ping,
            6 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// Status codes in the first byte of a Reply payload.
pub mod status {
    /// Success; the response body follows.
    pub const OK: u8 = 0;
    /// The server's run queue stayed full past the admission timeout.
    pub const OVERLOADED: u8 = 1;
    /// The serving agent went away before replying.
    pub const DISCONNECTED: u8 = 2;
    /// The server could not decode (or received corrupted) request bytes.
    pub const DECODE: u8 = 3;
}

/// Codec and framing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame.
    Truncated,
    /// The magic bytes did not match — not our protocol.
    BadMagic(u16),
    /// Version mismatch: the peer framed a valid frame but speaks a
    /// different protocol revision. Carries both versions so the error
    /// shown to the operator names the skew exactly.
    BadVersion {
        /// Version the peer stamped on its frame.
        peer: u8,
        /// Version this end speaks ([`VERSION`]).
        ours: u8,
    },
    /// Unknown frame kind.
    BadKind(u8),
    /// Declared frame length exceeds [`MAX_FRAME`] (or is shorter than a
    /// header) — treated as stream corruption.
    BadLength(u32),
    /// Payload checksum mismatch: this frame is corrupt (the stream
    /// itself is still framed).
    Checksum,
    /// The payload bytes did not decode as the expected type.
    Decode(String),
    /// Socket-level I/O failure.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("stream ended mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion { peer, ours } => {
                write!(f, "wire version mismatch: peer speaks v{peer}, this end speaks v{ours}")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadLength(l) => write!(f, "bad frame length {l}"),
            WireError::Checksum => f.write_str("frame payload checksum mismatch"),
            WireError::Decode(m) => write!(f, "payload decode error: {m}"),
            WireError::Io(m) => write!(f, "socket error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Logical connection id within the socket.
    pub session: u64,
    /// Correlation id matching replies to callers (0 for one-way kinds).
    pub corr: u64,
    /// Trace id of the sender's current span context (0 = untraced).
    pub trace_id: u64,
    /// Span id of the sender's current span — the parent the receiving
    /// agent's spans should hang under (0 = untraced).
    pub parent_span: u64,
    /// Serialized message body.
    pub payload: Vec<u8>,
    /// The payload failed its checksum: header fields are trustworthy
    /// (framing survived), the body is not.
    pub corrupt: bool,
}

impl Frame {
    /// Build an untraced frame.
    pub fn new(kind: FrameKind, session: u64, corr: u64, payload: Vec<u8>) -> Frame {
        Frame { kind, session, corr, trace_id: 0, parent_span: 0, payload, corrupt: false }
    }

    /// Stamp a trace context onto the frame (builder style).
    pub fn traced(mut self, trace_id: u64, parent_span: u64) -> Frame {
        self.trace_id = trace_id;
        self.parent_span = parent_span;
        self
    }

    /// The trace context carried in the header, if any.
    pub fn trace(&self) -> Option<(u64, u64)> {
        (self.trace_id != 0).then_some((self.trace_id, self.parent_span))
    }
}

/// FNV-1a over the payload (cheap, order-sensitive, good enough to catch
/// injected corruption and torn writes).
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encode `frame` into `out` (appends; does not clear).
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let len = (HEADER_TAIL + frame.payload.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame.kind.code());
    out.extend_from_slice(&frame.session.to_le_bytes());
    out.extend_from_slice(&frame.corr.to_le_bytes());
    out.extend_from_slice(&frame.trace_id.to_le_bytes());
    out.extend_from_slice(&frame.parent_span.to_le_bytes());
    out.extend_from_slice(&checksum(&frame.payload).to_le_bytes());
    out.extend_from_slice(&frame.payload);
}

fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_ok_at_start: bool,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok_at_start {
                    return Ok(false);
                }
                return Err(WireError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Read one frame from the stream. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF anywhere else is [`WireError::Truncated`]. A checksum
/// mismatch is *not* an error: the frame comes back with
/// [`Frame::corrupt`] set so the caller can fail just that message.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or(r, &mut len_buf, true)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    // The length floor is the *v1* header tail (24 bytes): an old-version
    // peer's frames must still be consumable whole so the version skew
    // surfaces as a clean BadVersion, not as length corruption.
    const MIN_HEADER_TAIL: u32 = 24;
    if !(MIN_HEADER_TAIL..=MAX_FRAME).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    let mut rest = vec![0u8; len as usize];
    read_exact_or(r, &mut rest, false)?;
    let magic = u16::from_le_bytes([rest[0], rest[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if rest[2] != VERSION {
        // The frame is already consumed, so the stream stays framed; the
        // caller decides whether (and how loudly) to drop the peer.
        return Err(WireError::BadVersion { peer: rest[2], ours: VERSION });
    }
    if len < HEADER_TAIL as u32 {
        return Err(WireError::BadLength(len));
    }
    let kind = FrameKind::from_code(rest[3]).ok_or(WireError::BadKind(rest[3]))?;
    let session = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let corr = u64::from_le_bytes(rest[12..20].try_into().unwrap());
    let trace_id = u64::from_le_bytes(rest[20..28].try_into().unwrap());
    let parent_span = u64::from_le_bytes(rest[28..36].try_into().unwrap());
    let cksum = u32::from_le_bytes(rest[36..40].try_into().unwrap());
    let payload = rest.split_off(HEADER_TAIL);
    let corrupt = checksum(&payload) != cksum;
    Ok(Some(Frame { kind, session, corr, trace_id, parent_span, payload, corrupt }))
}

// ---------------------------------------------------------------------
// Payload serializer
// ---------------------------------------------------------------------

/// Hand-rolled byte serializer for envelope payload types. Implemented by
/// the request/response enums that cross the wire (`DlfmRequest`,
/// `DlfmResponse`); the transport stays generic over them through
/// function pointers captured where these bounds hold.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Bounded cursor over a payload's bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Decode(format!(
                "need {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `bool`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Decode(format!("invalid UTF-8 string: {e}")))
    }
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u16` (little-endian).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` (little-endian).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        read_frame(&mut Cursor::new(bytes)).unwrap().unwrap()
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        for kind in [
            FrameKind::Call,
            FrameKind::Post,
            FrameKind::Reply,
            FrameKind::Hangup,
            FrameKind::Ping,
            FrameKind::Pong,
        ] {
            let f = Frame::new(kind, 7, 42, b"hello world".to_vec());
            let g = roundtrip(&f);
            assert_eq!(f, g);
            assert!(!g.corrupt);
        }
    }

    #[test]
    fn trace_context_rides_the_header() {
        let f = Frame::new(FrameKind::Call, 7, 42, b"body".to_vec()).traced(0xabcd, 0x1234);
        let g = roundtrip(&f);
        assert_eq!(g.trace(), Some((0xabcd, 0x1234)));
        assert_eq!(g, f);
        // Untraced frames decode to no context.
        let g = roundtrip(&Frame::new(FrameKind::Post, 1, 0, Vec::new()));
        assert_eq!(g.trace(), None);
    }

    #[test]
    fn frame_roundtrip_property_style() {
        // Deterministic pseudo-random payloads of many sizes, including
        // empty and larger-than-header bodies.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..200usize {
            let len = (i * 37) % 5000;
            let mut payload = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                payload.push(x as u8);
            }
            let f = Frame::new(FrameKind::Call, x, x.rotate_left(7), payload);
            assert_eq!(roundtrip(&f), f, "payload len {len}");
        }
    }

    #[test]
    fn multiple_frames_stream_and_clean_eof() {
        let mut bytes = Vec::new();
        encode_frame(&Frame::new(FrameKind::Call, 1, 1, b"a".to_vec()), &mut bytes);
        encode_frame(&Frame::new(FrameKind::Reply, 1, 1, b"bb".to_vec()), &mut bytes);
        let mut cur = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap().payload, b"a");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap().payload, b"bb");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF at a frame boundary");
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut bytes = Vec::new();
        encode_frame(&Frame::new(FrameKind::Call, 1, 1, b"payload".to_vec()), &mut bytes);
        for cut in [1, 3, 5, 10, bytes.len() - 1] {
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            assert_eq!(read_frame(&mut cur).unwrap_err(), WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME + 1);
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            read_frame(&mut Cursor::new(bytes)).unwrap_err(),
            WireError::BadLength(MAX_FRAME + 1)
        );
        // A length shorter than the header tail is equally corrupt.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(read_frame(&mut Cursor::new(bytes)).unwrap_err(), WireError::BadLength(3));
    }

    #[test]
    fn corrupt_magic_and_version_rejected() {
        let mut bytes = Vec::new();
        encode_frame(&Frame::new(FrameKind::Call, 1, 1, Vec::new()), &mut bytes);
        let mut bad_magic = bytes.clone();
        bad_magic[4] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad_magic)).unwrap_err(),
            WireError::BadMagic(_)
        ));
        let mut bad_ver = bytes.clone();
        bad_ver[6] = 99;
        assert_eq!(
            read_frame(&mut Cursor::new(bad_ver)).unwrap_err(),
            WireError::BadVersion { peer: 99, ours: VERSION }
        );
        let mut bad_kind = bytes;
        bad_kind[7] = 0;
        assert_eq!(read_frame(&mut Cursor::new(bad_kind)).unwrap_err(), WireError::BadKind(0));
    }

    /// A v1 peer's frame: 24-byte header tail (no trace fields), version
    /// byte 1. Build it by hand exactly as the old encoder did.
    fn encode_v1_frame(kind_code: u8, session: u64, corr: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&((24 + payload.len()) as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(1); // v1
        out.push(kind_code);
        out.extend_from_slice(&session.to_le_bytes());
        out.extend_from_slice(&corr.to_le_bytes());
        out.extend_from_slice(&checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn old_version_peer_fails_cleanly_and_keeps_the_stream_framed() {
        // Adversarial case: a v1 peer sends two frames — the first must
        // surface BadVersion naming both versions, *after* consuming the
        // whole frame, so the second (v2) frame still reads intact.
        let mut bytes = encode_v1_frame(1, 9, 1, b"old wine");
        // A v1 frame shorter than the v2 header tail (empty payload, len
        // 24 < 40) must hit the version check, not the length check.
        bytes.extend_from_slice(&encode_v1_frame(5, 9, 2, b""));
        encode_frame(&Frame::new(FrameKind::Call, 9, 3, b"new bottle".to_vec()), &mut bytes);
        let mut cur = Cursor::new(bytes);
        for _ in 0..2 {
            let err = read_frame(&mut cur).unwrap_err();
            assert_eq!(err, WireError::BadVersion { peer: 1, ours: VERSION });
            let msg = err.to_string();
            assert!(msg.contains("v1") && msg.contains("v2"), "error names both versions: {msg}");
        }
        let f = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(f.payload, b"new bottle", "stream stays framed across version-skewed frames");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn payload_corruption_detected_per_frame() {
        let mut bytes = Vec::new();
        encode_frame(&Frame::new(FrameKind::Call, 3, 9, b"important".to_vec()), &mut bytes);
        encode_frame(&Frame::new(FrameKind::Call, 3, 10, b"next".to_vec()), &mut bytes);
        // Flip one payload byte of the first frame.
        let flip = 4 + HEADER_TAIL + 2;
        bytes[flip] ^= 0x40;
        let mut cur = Cursor::new(bytes);
        let f1 = read_frame(&mut cur).unwrap().unwrap();
        assert!(f1.corrupt, "corruption must be detected");
        assert_eq!((f1.session, f1.corr), (3, 9), "header fields survive payload corruption");
        // The stream stays framed: the next frame is intact.
        let f2 = read_frame(&mut cur).unwrap().unwrap();
        assert!(!f2.corrupt);
        assert_eq!(f2.payload, b"next");
    }

    #[test]
    fn primitive_codec_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 515);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 3);
        put_i64(&mut out, -12345);
        put_bool(&mut out, true);
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 515);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -12345);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "reading past the end is a clean error");
    }

    #[test]
    fn reader_rejects_lying_string_length() {
        let mut out = Vec::new();
        put_u32(&mut out, 1000); // claims 1000 bytes, provides 2
        out.extend_from_slice(b"ab");
        let mut r = Reader::new(&out);
        assert!(matches!(r.str().unwrap_err(), WireError::Decode(_)));
    }
}
