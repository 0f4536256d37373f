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
//! A payload is one [`Wire`] value. A message type is declared once with
//! [`wire_schema!`](crate::wire_schema), which writes its encoder, its
//! decoder, its `op_name` and a seeded [`Sample`] generator. It is a
//! declarative macro because the build is offline and the workspace's
//! serde is an API-only stand-in. Integers are little-endian, a `bool` is
//! one byte 0 or 1, and strings and `Vec`s are a `u32` count followed by
//! their contents. The decoder refuses anything else, so each value has
//! exactly one encoding.

use std::io::Read;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Byte serializer for message payload types. Every request and response
/// type of a fabric implements it, and both carriers move the encoded
/// bytes. A message type declares itself with [`wire_schema!`](crate::wire_schema),
/// which writes this impl; the impls below are the field types it uses.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! primitive {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $put(out, *self)
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<$t, WireError> {
                r.$get()
            }
        }
    )*};
}

primitive! {
    u8: put_u8, u8;
    u64: put_u64, u64;
    i64: put_i64, i64;
    bool: put_bool, bool;
}

impl Wire for i32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self as u32)
    }
    fn decode(r: &mut Reader<'_>) -> Result<i32, WireError> {
        Ok(r.u32()? as i32)
    }
}

impl Wire for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self)
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<String, WireError> {
        r.str()
    }
}

/// A `u32` count, then the elements. Every element takes at least one
/// byte, so the count is checked against the bytes left before anything
/// is allocated for it.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for x in self {
            x.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(WireError::Decode(format!(
                "count {n} exceeds the {} bytes left",
                r.remaining()
            )));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<(A, B), WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Seeded source for [`Sample`]: one seed always draws the same values,
/// so a failure replays from its seed.
pub struct Gen(StdRng);

impl Gen {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Gen {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A number in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }
}

/// A value drawn from a seeded [`Gen`]. [`wire_schema!`](crate::wire_schema)
/// writes it for every message, so round-trip and decode-fuzz tests cover
/// a new variant without naming it.
pub trait Sample {
    /// Draw one value.
    fn sample(g: &mut Gen) -> Self;
}

impl Sample for bool {
    fn sample(g: &mut Gen) -> bool {
        g.below(2) == 1
    }
}

/// Small numbers and the extremes as often as arbitrary ones.
impl Sample for i64 {
    fn sample(g: &mut Gen) -> i64 {
        match g.below(4) {
            0 => g.below(16) as i64,
            1 => [i64::MIN, -1, i64::MAX][g.below(3)],
            _ => g.next_u64() as i64,
        }
    }
}

/// Up to eight characters, multi-byte ones among them.
impl Sample for String {
    fn sample(g: &mut Gen) -> String {
        const CHARS: [char; 8] = ['/', 'a', 'z', '0', '.', ' ', 'ü', 'フ'];
        (0..g.below(9)).map(|_| CHARS[g.below(CHARS.len())]).collect()
    }
}

impl<T: Sample> Sample for Vec<T> {
    fn sample(g: &mut Gen) -> Vec<T> {
        (0..g.below(4)).map(|_| T::sample(g)).collect()
    }
}

impl<A: Sample, B: Sample> Sample for (A, B) {
    fn sample(g: &mut Gen) -> (A, B) {
        (A::sample(g), B::sample(g))
    }
}

/// How the field of a one-field schema variant crosses the wire. The
/// default, [`Plain`], is the field type's own [`Wire`] and [`Sample`]. A
/// variant written `tag => Variant(Type as SomeCodec)` names another one,
/// for a rule about the field that its type cannot state (a batch's member
/// limit). `tag` is the variant's own tag.
pub trait Codec<T> {
    /// Append the field's encoding to `out`.
    fn encode(v: &T, out: &mut Vec<u8>);
    /// Decode the field of variant `tag`.
    fn decode(r: &mut Reader<'_>, tag: u8) -> Result<T, WireError>;
    /// Draw a field for variant `tag`.
    fn sample(g: &mut Gen, tag: u8) -> T;
}

/// The field type's own [`Wire`] and [`Sample`].
pub struct Plain;

impl<T: Wire + Sample> Codec<T> for Plain {
    #[inline]
    fn encode(v: &T, out: &mut Vec<u8>) {
        v.encode(out)
    }
    #[inline]
    fn decode(r: &mut Reader<'_>, _tag: u8) -> Result<T, WireError> {
        T::decode(r)
    }
    fn sample(g: &mut Gen, _tag: u8) -> T {
        T::sample(g)
    }
}

/// Declare a wire message type once: the type, its [`Wire`] encoding and
/// its [`Sample`] generator all come from the one declaration.
///
/// An enum lists `tag => Variant` entries: unit, one-field tuple or struct
/// variants. A value is its tag byte, then its fields in declaration
/// order; an unknown tag fails to decode. A tuple variant may name a
/// [`Codec`] for its field, `Variant(Type as SomeCodec)`. The enum also
/// gets `op_name()`, the variant's name, and `every_variant(g)`, one
/// sampled value per variant in tag order. A struct is its fields in
/// declaration order. Attributes (docs, derives) pass through.
///
/// ```
/// dlrpc::wire_schema! {
///     /// A toy request.
///     #[derive(Debug, PartialEq)]
///     pub enum Req {
///         0 => Ping,
///         1 => Echo(String),
///         5 => Add { a: i64, b: i64 },
///     }
/// }
/// use dlrpc::{wire::Gen, Reader, Wire};
/// let mut out = Vec::new();
/// Req::Add { a: 1, b: 2 }.encode(&mut out);
/// assert_eq!(out[0], 5);
/// assert_eq!(Req::decode(&mut Reader::new(&out)).unwrap(), Req::Add { a: 1, b: 2 });
/// assert_eq!(Req::Echo("x".into()).op_name(), "Echo");
/// assert_eq!(Req::every_variant(&mut Gen::new(1)).len(), 3);
/// ```
#[macro_export]
macro_rules! wire_schema {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $( ( $ty:ty $( as $codec:ty )? ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ($ty) )? $( { $( $(#[$fmeta])* $field: $fty ),* } )?,
            )*
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( $name::$variant $( ($crate::__wire_bind!(field $ty)) )? $( { $($field),* } )? => {
                        out.push($tag);
                        $( <$crate::__wire_codec!($($codec)?) as $crate::wire::Codec<$ty>>::encode(field, out); )?
                        $( $( $crate::wire::Wire::encode($field, out); )* )?
                    } )*
                }
            }

            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $( $tag => $name::$variant
                        $( (<$crate::__wire_codec!($($codec)?) as $crate::wire::Codec<$ty>>::decode(r, $tag)?) )?
                        $( { $( $field: <$fty as $crate::wire::Wire>::decode(r)? ),* } )?, )*
                    tag => {
                        return Err($crate::wire::WireError::Decode(format!(
                            "unknown {} tag {tag}",
                            stringify!($name)
                        )))
                    }
                })
            }
        }

        impl $crate::wire::Sample for $name {
            fn sample(g: &mut $crate::wire::Gen) -> Self {
                const TAGS: &[u8] = &[$($tag),*];
                let tag = TAGS[g.below(TAGS.len())];
                Self::sample_variant(g, tag)
            }
        }

        impl $name {
            /// The variant's name (the operation name of spans and metrics).
            $vis fn op_name(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => stringify!($variant), )*
                }
            }

            /// One sampled value of every variant, in tag order.
            $vis fn every_variant(g: &mut $crate::wire::Gen) -> Vec<Self> {
                [$($tag),*].into_iter().map(|tag| Self::sample_variant(g, tag)).collect()
            }

            fn sample_variant(g: &mut $crate::wire::Gen, tag: u8) -> Self {
                match tag {
                    $( $tag => $name::$variant
                        $( (<$crate::__wire_codec!($($codec)?) as $crate::wire::Codec<$ty>>::sample(g, $tag)) )?
                        $( { $( $field: <$fty as $crate::wire::Sample>::sample(g) ),* } )?, )*
                    _ => unreachable!("{} has no tag {tag}", stringify!($name)),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::encode(&self.$field, out); )*
            }

            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($name { $( $field: <$fty as $crate::wire::Wire>::decode(r)?, )* })
            }
        }

        impl $crate::wire::Sample for $name {
            fn sample(g: &mut $crate::wire::Gen) -> Self {
                $name { $( $field: <$fty as $crate::wire::Sample>::sample(g), )* }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_codec {
    () => {
        $crate::wire::Plain
    };
    ($codec:ty) => {
        $codec
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_bind {
    ($bind:ident $ty:ty) => {
        $bind
    };
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

    /// The next byte, left unconsumed.
    pub fn peek_u8(&self) -> Result<u8, WireError> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| WireError::Decode("need 1 byte, 0 remaining".into()))
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

    /// Read a `bool`: one byte, 0 or 1. Any other byte fails, so a value
    /// has one encoding.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Decode(format!("bool byte {b}"))),
        }
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
    fn lying_counts_and_bool_bytes_fail_cleanly() {
        // A Vec count past the bytes left is refused before allocating.
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(&[0u8; 16]);
        assert!(matches!(Vec::<i64>::decode(&mut Reader::new(&out)), Err(WireError::Decode(_))));
        // A bool is 0 or 1: any other byte would give `true` two encodings.
        assert!(matches!(bool::decode(&mut Reader::new(&[2])), Err(WireError::Decode(_))));
        let pair = (String::from("ü"), -5i64);
        let mut out = Vec::new();
        vec![pair.clone(), pair.clone()].encode(&mut out);
        let back = Vec::<(String, i64)>::decode(&mut Reader::new(&out)).unwrap();
        assert_eq!(back, vec![pair.clone(), pair]);
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
