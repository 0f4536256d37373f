//! The one rule of the DLFM payload encoding that the schema cannot state.
//!
//! Every message is declared once in [`crate::api`] through
//! [`dlrpc::wire_schema!`], which writes its encoding: a tag byte, then the
//! fields in declaration order. What a field type cannot say is what a
//! `Batch` may hold, so both `Batch` variants name the [`Batch`] codec: at
//! most [`MAX_BATCH_OPS`] members, none of them a batch, refused before
//! anything is allocated for them.

use dlrpc::wire::{Codec, Gen, Sample};
use dlrpc::{Reader, Wire, WireError};

use crate::api::MAX_BATCH_OPS;

/// Codec of a `Batch` variant's members: a `Vec` on the wire, whose count
/// is checked against [`MAX_BATCH_OPS`] and whose members may not carry
/// the batch's own tag.
pub struct Batch;

impl<T: Wire + Sample> Codec<Vec<T>> for Batch {
    fn encode(members: &Vec<T>, out: &mut Vec<u8>) {
        members.encode(out)
    }

    fn decode(r: &mut Reader<'_>, tag: u8) -> Result<Vec<T>, WireError> {
        let n = r.u32()? as usize;
        if n > MAX_BATCH_OPS {
            return Err(WireError::Decode(format!("batch of {n} members (limit {MAX_BATCH_OPS})")));
        }
        let mut v = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            if r.peek_u8()? == tag {
                return Err(WireError::Decode("nested batch".into()));
            }
            v.push(T::decode(r)?);
        }
        Ok(v)
    }

    fn sample(g: &mut Gen, tag: u8) -> Vec<T> {
        let n = g.below(4);
        let mut v = Vec::with_capacity(n);
        while v.len() < n {
            let member = T::sample(g);
            let mut bytes = Vec::new();
            member.encode(&mut bytes);
            if bytes[0] != tag {
                v.push(member);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use dlrpc::wire::put_u32;

    use super::*;
    use crate::api::{DlfmRequest, DlfmResponse};

    /// The seeds every generator-driven test draws from.
    const SEEDS: std::ops::Range<u64> = 0..16;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = T::decode(&mut r).unwrap();
        assert_eq!(back, value);
        assert_eq!(r.remaining(), 0, "trailing bytes after {value:?}");
    }

    #[test]
    fn request_roundtrip_every_variant() {
        for seed in SEEDS {
            for req in DlfmRequest::every_variant(&mut Gen::new(seed)) {
                roundtrip(req);
            }
        }
        roundtrip(DlfmRequest::Batch(vec![sample_link(); MAX_BATCH_OPS]));
    }

    #[test]
    fn response_roundtrip_every_variant() {
        for seed in SEEDS {
            for resp in DlfmResponse::every_variant(&mut Gen::new(seed)) {
                roundtrip(resp);
            }
        }
    }

    fn sample_link() -> DlfmRequest {
        DlfmRequest::LinkFile {
            xid: 1,
            rec_id: 2,
            grp_id: 3,
            filename: "/a/b/c.dat".into(),
            in_backout: false,
        }
    }

    fn batch_tag<T: Wire>(empty_batch: T) -> u8 {
        let mut buf = Vec::new();
        empty_batch.encode(&mut buf);
        buf[0]
    }

    #[test]
    fn malformed_batches_are_refused_before_they_cost_anything() {
        fn decode_req(buf: &[u8]) -> Result<DlfmRequest, WireError> {
            DlfmRequest::decode(&mut Reader::new(buf))
        }
        fn decode_resp(buf: &[u8]) -> Result<DlfmResponse, WireError> {
            DlfmResponse::decode(&mut Reader::new(buf))
        }
        // Nested: a batch whose member is a batch.
        let mut nested = Vec::new();
        DlfmRequest::Batch(vec![DlfmRequest::Batch(vec![sample_link()])]).encode(&mut nested);
        assert!(matches!(decode_req(&nested), Err(WireError::Decode(m)) if m.contains("nested")));
        let mut nested = Vec::new();
        DlfmResponse::Batch(vec![DlfmResponse::Batch(vec![])]).encode(&mut nested);
        assert!(matches!(decode_resp(&nested), Err(WireError::Decode(m)) if m.contains("nested")));
        // A count past the limit is refused on sight: these five bytes
        // claim four billion members and carry none.
        let mut huge = vec![batch_tag(DlfmRequest::Batch(vec![]))];
        put_u32(&mut huge, u32::MAX);
        assert!(matches!(decode_req(&huge), Err(WireError::Decode(m)) if m.contains("limit")));
        let mut over = Vec::new();
        DlfmRequest::Batch(vec![sample_link(); MAX_BATCH_OPS + 1]).encode(&mut over);
        assert!(matches!(decode_req(&over), Err(WireError::Decode(m)) if m.contains("limit")));
        let mut huge = vec![batch_tag(DlfmResponse::Batch(vec![]))];
        put_u32(&mut huge, MAX_BATCH_OPS as u32 + 1);
        assert!(decode_resp(&huge).is_err());
        // Truncated: fewer members than the count, or half a member.
        let mut short = Vec::new();
        DlfmRequest::Batch(vec![sample_link(), DlfmRequest::Prepare { xid: 1 }]).encode(&mut short);
        for cut in [1, 5, short.len() - 9, short.len() - 1] {
            assert!(decode_req(&short[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_telemetry_kind_fails_cleanly() {
        let buf = [20u8, 250u8];
        let mut r = Reader::new(&buf);
        assert!(matches!(DlfmRequest::decode(&mut r), Err(WireError::Decode(_))));
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        let mut r = Reader::new(&[200u8]);
        assert!(matches!(DlfmRequest::decode(&mut r), Err(WireError::Decode(_))));
        let mut r = Reader::new(&[200u8]);
        assert!(matches!(DlfmResponse::decode(&mut r), Err(WireError::Decode(_))));
        // Truncated mid-variant: error, not panic.
        let mut buf = Vec::new();
        DlfmRequest::LinkFile {
            xid: 1,
            rec_id: 2,
            grp_id: 3,
            filename: "/a".into(),
            in_backout: false,
        }
        .encode(&mut buf);
        buf.truncate(buf.len() - 3);
        let mut r = Reader::new(&buf);
        assert!(DlfmRequest::decode(&mut r).is_err());
    }
}
