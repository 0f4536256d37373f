//! The DLFM decoder against bytes from outside: every DLFM call, on either
//! carrier, crosses it, and on a socket the bytes come from another
//! process.
//!
//! Starting from a generated value of every variant of every message, the
//! fuzz test truncates, flips, extends and plants huge counts in its
//! encoding. Each input must decode to a value whose own encoding is
//! exactly the bytes consumed (one value, one encoding) or fail with
//! `WireError::Decode`; it must never panic, and never allocate for more
//! elements than the input has bytes left.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::mem::size_of;

use dlfm::api::LinkRow;
use dlfm::{
    AccessControl, DbErrorKind, DlfmError, DlfmRequest, DlfmResponse, GroupSpec, LinkStatus,
    TelemetryKind,
};
use dlrpc::wire::Gen;
use dlrpc::{Reader, Wire, WireError};

thread_local! {
    /// Largest single allocation this thread asked for since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Tracking;

impl Tracking {
    fn note(size: usize) {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    }
}

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. `note` only
// touches a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Tracking::note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Tracking::note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// The widest element any decoded `Vec` or `String` holds: an allocation
/// for at most one element per input byte stays under `len * widest()`.
fn widest() -> usize {
    [
        size_of::<DlfmRequest>(),
        size_of::<DlfmResponse>(),
        size_of::<LinkRow>(),
        size_of::<(String, i64)>(),
    ]
    .into_iter()
    .max()
    .unwrap()
}

/// Room for an error message, which a failed decode formats.
const ERROR_TEXT: usize = 256;

/// Decode `input` as a `T` and hold the result to the rules above.
fn decode_one<T: Wire + Debug>(input: &[u8]) {
    LARGEST.with(|m| m.set(0));
    let mut r = Reader::new(input);
    let result = T::decode(&mut r);
    let consumed = input.len() - r.remaining();
    let largest = LARGEST.with(|m| m.get());
    assert!(
        largest <= input.len() * widest() + ERROR_TEXT,
        "decoding {} bytes allocated {largest} at once: {input:02x?}",
        input.len()
    );
    match result {
        Ok(value) => {
            let mut again = Vec::new();
            value.encode(&mut again);
            assert_eq!(again, &input[..consumed], "{value:?} decoded from other bytes");
        }
        Err(WireError::Decode(_)) => {}
        Err(e) => panic!("{e:?} is not a decode error, from {input:02x?}"),
    }
}

/// Every mutation of `value`'s encoding, decoded.
fn fuzz<T: Wire + Debug>(value: &T) {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    decode_one::<T>(&bytes);
    for cut in 0..bytes.len() {
        decode_one::<T>(&bytes[..cut]);
    }
    let mut m = bytes.clone();
    for i in 0..m.len() {
        for flip in [0x01, 0x80, 0xFF] {
            m[i] ^= flip;
            decode_one::<T>(&m);
            m[i] ^= flip;
        }
    }
    for tail in [&[0u8][..], &[0xFF; 5]] {
        decode_one::<T>(&[&bytes[..], tail].concat());
    }
    // A count is a u32 somewhere in the value: plant huge ones everywhere.
    for i in 0..bytes.len().saturating_sub(3) {
        for huge in [u32::MAX, 0x8000_0000, bytes.len() as u32] {
            m[i..i + 4].copy_from_slice(&huge.to_le_bytes());
            decode_one::<T>(&m);
            m[i..i + 4].copy_from_slice(&bytes[i..i + 4]);
        }
    }
}

#[test]
fn mutated_messages_decode_canonically_or_fail_cleanly() {
    for seed in 0..16 {
        let g = &mut Gen::new(seed);
        DlfmRequest::every_variant(g).iter().for_each(fuzz);
        DlfmResponse::every_variant(g).iter().for_each(fuzz);
        DlfmError::every_variant(g).iter().for_each(fuzz);
        TelemetryKind::every_variant(g).iter().for_each(fuzz);
        LinkStatus::every_variant(g).iter().for_each(fuzz);
        DbErrorKind::every_variant(g).iter().for_each(fuzz);
    }
}

fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    T::decode(&mut Reader::new(bytes))
}

/// A closed code (an access mode, a database error kind, a bool) that
/// arrives with a value it has no meaning for is refused, not read as a
/// default: access 7 is not "no access control".
#[test]
fn closed_codes_from_outside_fail_to_decode() {
    let group = GroupSpec {
        grp_id: 4,
        dbid: 5,
        table_name: "t".into(),
        column_name: "".into(),
        access: AccessControl::Full,
        recovery: true,
    };
    let mut bytes = encode(&DlfmRequest::RegisterGroup(group));
    // tag, grp_id, dbid, "t", "": the access code starts at byte 26.
    assert_eq!(bytes[26], 2);
    bytes[26] = 7;
    assert!(matches!(decode::<DlfmRequest>(&bytes), Err(WireError::Decode(_))));

    let db = DlfmError::Db { msg: "m".into(), retryable: true, kind: DbErrorKind::Other };
    let mut bytes = encode(&DlfmResponse::Err(db));
    *bytes.last_mut().unwrap() = 9;
    assert!(matches!(decode::<DlfmResponse>(&bytes), Err(WireError::Decode(_))));

    let mut bytes = encode(&DlfmResponse::Prepared { read_only: true });
    bytes[1] = 2;
    assert!(matches!(decode::<DlfmResponse>(&bytes), Err(WireError::Decode(_))));
}
