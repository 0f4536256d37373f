//! Index keys: a row's key columns as one byte string whose bytewise order
//! is [`Value`]'s, so a B-tree comparison is one `memcmp`. The encoding, why
//! it is prefix-free and where keys are decoded are stated in
//! [`crate::storage`]'s module doc.

use std::fmt;
use std::io::Write;
use std::num::NonZeroU8;

use crate::value::Value;

/// Bytes a key may hold without a heap allocation.
pub const INLINE: usize = 31;

const NULL: u8 = 1;
const BOOL: u8 = 2;
const INT: u8 = 3;
const STR: u8 = 4;
const BYTES: u8 = 5;

/// An encoded index key. Each byte string has one representation (inline,
/// zero-padded, exactly when it fits), so derived equality and hashing are
/// those of the bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Key(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// The bytes and their length plus one (the niche keeps `Key` 32 bytes).
    Inline([u8; INLINE], NonZeroU8),
    /// A key longer than [`INLINE`] bytes.
    Boxed(Box<[u8]>),
}

impl Key {
    /// The key of `vals`, one column each.
    pub fn new<'v, I>(vals: I) -> Key
    where
        I: IntoIterator<Item = &'v Value>,
        I::IntoIter: Clone,
    {
        Key::build(&[], vals.into_iter())
    }

    /// This key with `v` appended as one more column.
    pub fn with(&self, v: &Value) -> Key {
        Key::build(self.bytes(), std::iter::once(v))
    }

    /// `head` followed by the encoding of `vals`, written straight into a
    /// buffer of the exact length.
    fn build<'v>(head: &[u8], vals: impl Iterator<Item = &'v Value> + Clone) -> Key {
        let len = head.len() + vals.clone().map(encoded_len).sum::<usize>();
        let write = |mut out: &mut [u8]| {
            put(&mut out, head);
            vals.for_each(|v| encode(v, &mut out));
        };
        if len <= INLINE {
            let mut buf = [0; INLINE];
            write(&mut buf);
            Key(Repr::Inline(buf, NonZeroU8::MIN.saturating_add(len as u8)))
        } else {
            let mut buf = vec![0; len].into_boxed_slice();
            write(&mut buf);
            Key(Repr::Boxed(buf))
        }
    }

    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(buf, len) => &buf[..usize::from(len.get() - 1)],
            Repr::Boxed(buf) => buf,
        }
    }

    /// Are `prefix`'s columns this key's leading ones?
    pub fn starts_with(&self, prefix: &Key) -> bool {
        self.bytes().starts_with(prefix.bytes())
    }

    /// Decode the columns (only to render them).
    pub fn values(&self) -> Vec<Value> {
        let (mut rest, mut out) = (self.bytes(), Vec::new());
        while let Some((&tag, tail)) = rest.split_first() {
            rest = tail;
            out.push(match tag {
                NULL => Value::Null,
                BOOL => Value::Bool(take(&mut rest, 1)[0] != 0),
                INT => {
                    let be = take(&mut rest, 8).try_into().expect("an Int column has eight bytes");
                    Value::Int((u64::from_be_bytes(be) ^ 1 << 63) as i64)
                }
                STR => Value::Str(String::from_utf8_lossy(&unescape(&mut rest)).into_owned()),
                _ => Value::Bytes(unescape(&mut rest)),
            });
        }
        out
    }
}

/// Encoded length of one column.
fn encoded_len(v: &Value) -> usize {
    let escaped = |b: &[u8]| 3 + b.len() + b.iter().filter(|&&c| c == 0).count();
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) => 9,
        Value::Str(s) => escaped(s.as_bytes()),
        Value::Bytes(b) => escaped(b),
    }
}

/// Write `bytes` at the front of `out` and advance past them.
fn put(out: &mut &mut [u8], bytes: &[u8]) {
    out.write_all(bytes).expect("the buffer is sized by `encoded_len`");
}

/// Write one column at the front of `out` and advance past it.
fn encode(v: &Value, out: &mut &mut [u8]) {
    let (tag, raw) = match v {
        Value::Null => return put(out, &[NULL]),
        Value::Bool(b) => return put(out, &[BOOL, u8::from(*b)]),
        Value::Int(i) => {
            put(out, &[INT]);
            return put(out, &((*i as u64) ^ 1 << 63).to_be_bytes());
        }
        Value::Str(s) => (STR, s.as_bytes()),
        Value::Bytes(b) => (BYTES, &b[..]),
    };
    put(out, &[tag]);
    for (i, part) in raw.split(|&c| c == 0).enumerate() {
        if i > 0 {
            put(out, &[0, 0xFF]);
        }
        put(out, part);
    }
    put(out, &[0, 0]);
}

/// Split the first `n` bytes off `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    head
}

/// The raw bytes of the escaped string at the front of `rest`, advancing
/// past its terminator.
fn unescape(rest: &mut &[u8]) -> Vec<u8> {
    let mut raw = Vec::new();
    loop {
        match take(rest, 1)[0] {
            // `0x00 0x00` ends the string; `0x00 0xFF` is an escaped `0x00`.
            0 if take(rest, 1)[0] == 0 => return raw,
            c => raw.push(c),
        }
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.bytes().cmp(other.bytes())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The decoded columns, as a `Vec<Value>` prints.
impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering::{Greater, Less};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::storage::{IndexData, ScanBound};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    #[test]
    fn a_key_is_32_bytes_and_short_ones_stay_inline() {
        assert_eq!(std::mem::size_of::<Key>(), 32);
        let fits = Key::new(&[s("/b/d07/f1234567"), Value::Int(0)]);
        assert!(matches!(fits.0, Repr::Inline(..)), "{} bytes", fits.bytes().len());
        assert!(matches!(Key::new(&[s(&"x".repeat(29))]).0, Repr::Boxed(_)));
    }

    #[test]
    fn bytes_follow_the_rules() {
        assert_eq!(
            Key::new(&[Value::Int(-1)]).bytes(),
            [INT, 0x7F, 255, 255, 255, 255, 255, 255, 255]
        );
        assert_eq!(Key::new(&[s("a\0")]).bytes(), [STR, b'a', 0, 0xFF, 0, 0]);
        assert_eq!(Key::new(&[Value::Null, Value::Bool(true)]).bytes(), [NULL, BOOL, 1]);
        let k = Key::new(&[s("a"), Value::Int(7)]);
        assert_eq!(Key::new(&[s("a")]).with(&Value::Int(7)), k);
        assert_eq!(format!("{k:?}"), r#"[Str("a"), Int(7)]"#);
    }

    /// A pool of values that collide often: the edges of `i64`, empty
    /// strings, strings with embedded NULs and shared prefixes, and bytes
    /// holding the escape bytes themselves.
    fn pool(rng: &mut StdRng) -> Vec<Value> {
        let mut pool = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
        pool.extend([i64::MIN, -1, 0, 1, i64::MAX].map(Value::Int));
        pool.extend(["", "\0", "a", "a\0", "a\0b", "a\0\0", "a\u{1}", "ab", "b"].map(s));
        pool.push(Value::Bytes(vec![]));
        const ALPHABET: [u8; 4] = [0, 1, b'a', 0xFF];
        for _ in 0..12 {
            let len = rng.gen_range(0..5);
            let bytes: Vec<u8> = (0..len).map(|_| ALPHABET[rng.gen_range(0..4)]).collect();
            pool.push(match rng.gen_bool(0.5) {
                true => Value::Int(rng.next_u64() as i64),
                false if rng.gen_bool(0.5) => Value::Bytes(bytes),
                false => s(&String::from_utf8_lossy(&bytes).replace('\u{1}', "/b/d0")),
            });
        }
        pool
    }

    fn pick(rng: &mut StdRng, pool: &[Value], n: usize) -> Vec<Value> {
        (0..n).map(|_| pool[rng.gen_range(0..pool.len())].clone()).collect()
    }

    /// One side of a range on the next column: open, or a value from the
    /// pool, inclusive or not.
    fn bound(rng: &mut StdRng, pool: &[Value]) -> Option<(Value, bool)> {
        rng.gen_bool(0.7).then(|| (pick(rng, pool, 1).remove(0), rng.gen_bool(0.5)))
    }

    fn as_bound(b: &Option<(Value, bool)>) -> ScanBound<'_> {
        b.as_ref().map(|(v, inclusive)| (v, *inclusive))
    }

    /// The encoding keeps `Value`'s order, decodes back, and turns column
    /// prefixes into byte prefixes, for every pair of 1–3 column keys.
    #[test]
    fn encoded_keys_order_decode_and_prefix_as_values_do() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = pool(&mut rng);
            let vals: Vec<Vec<Value>> = (0..250)
                .map(|_| {
                    let n = rng.gen_range(1..4);
                    pick(&mut rng, &pool, n)
                })
                .collect();
            let keys: Vec<Key> = vals.iter().map(Key::new).collect();
            for (a, ka) in vals.iter().zip(&keys) {
                assert_eq!(&ka.values(), a, "seed {seed}: decode");
                for (b, kb) in vals.iter().zip(&keys) {
                    assert_eq!(ka.cmp(kb), a.cmp(b), "seed {seed}: {a:?} against {b:?}");
                    assert_eq!(kb.starts_with(ka), b.starts_with(a), "seed {seed}: {a:?} in {b:?}");
                }
            }
        }
    }

    /// Every prefix-and-range scan of an index returns, in order, the row
    /// ids the filter over `Vec<Value>` keys returns: leading columns equal
    /// to the prefix, and with a range, a next column inside both bounds.
    #[test]
    fn index_scans_match_the_filter_over_values() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let pool = pool(&mut rng);
            let width = 1 + seed as usize % 3;
            let mut rows: Vec<(Vec<Value>, u64)> =
                (0..300).map(|r| (pick(&mut rng, &pool, width), r)).collect();
            let mut ix = IndexData::default();
            for (key, rowid) in &rows {
                ix.insert(Key::new(key), *rowid);
            }
            rows.sort();
            for _ in 0..300 {
                let (at, len) = (rng.gen_range(0..rows.len()), rng.gen_range(0..width + 1));
                let prefix = match rng.gen_bool(0.8) {
                    true => rows[at].0[..len].to_vec(),
                    false => pick(&mut rng, &pool, len),
                };
                let range = match rng.gen_bool(0.7) {
                    true => Some((bound(&mut rng, &pool), bound(&mut rng, &pool))),
                    false => None,
                };
                let scan: Vec<u64> = ix
                    .scan(
                        &Key::new(&prefix),
                        range.as_ref().map(|(lo, hi)| (as_bound(lo), as_bound(hi))),
                    )
                    .flat_map(|(_, ids)| ids.iter())
                    .collect();
                let in_range = |key: &[Value]| {
                    let Some((lo, hi)) = &range else { return true };
                    let Some(v) = key.get(prefix.len()) else { return false };
                    lo.as_ref().is_none_or(|(b, inc)| matches!(v.cmp(b), Greater) || *inc && v == b)
                        && hi
                            .as_ref()
                            .is_none_or(|(b, inc)| matches!(v.cmp(b), Less) || *inc && v == b)
                };
                let filtered: Vec<u64> = rows
                    .iter()
                    .filter(|(key, _)| key.starts_with(&prefix) && in_range(key))
                    .map(|(_, rowid)| *rowid)
                    .collect();
                assert_eq!(scan, filtered, "seed {seed}: prefix {prefix:?}, range {range:?}");
            }
        }
    }
}
