//! The workspace's one set of JSON writing rules (it has no JSON
//! dependency): [`json_escape`] for string contents, [`json_num`] for
//! numbers, and [`json_is_well_formed`], the minimal syntax checker CI and
//! the tests validate every emitted document with. The Perfetto export,
//! the incident bundles' time series and the bench summaries all write
//! through these.

/// Append `s` to `out` escaped for the inside of a JSON string literal.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// A number as JSON: Rust's shortest round-trip form (never an
/// exponent), and `null` for a NaN or an infinity, which JSON cannot
/// spell.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Minimal JSON well-formedness check: one value, correctly nested
/// structures, valid string/number/literal tokens, nothing trailing.
/// Enough to catch every way hand-rolled emission can go wrong (unescaped
/// quotes, unbalanced brackets, stray commas producing empty members).
pub fn json_is_well_formed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let ok = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    ok && pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_container(b, pos, b'}', parse_member),
        Some(b'[') => parse_container(b, pos, b']', parse_value),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, b"true"),
        Some(b'f') => parse_literal(b, pos, b"false"),
        Some(b'n') => parse_literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    let ok = b[*pos..].starts_with(lit);
    *pos += if ok { lit.len() } else { 0 };
    ok
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return false;
        }
    }
    *pos > start
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return false;
                            }
                            *pos += 1;
                        }
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false, // control chars must be escaped
            _ => *pos += 1,
        }
    }
    false // unterminated
}

/// An object or an array, from its opening bracket: `member`s separated
/// by commas, up to `close`.
fn parse_container(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    member: fn(&[u8], &mut usize) -> bool,
) -> bool {
    *pos += 1; // past the opening bracket
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return true;
    }
    loop {
        if !member(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

/// One `"key": value` member of an object.
fn parse_member(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    if !parse_string(b, pos) {
        return false;
    }
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b':') {
        return false;
    }
    *pos += 1;
    parse_value(b, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_checker_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e4,true,false,null,\"s\\n\"]}",
            "  {\"traceEvents\":[{\"ts\":1}]} ",
        ] {
            assert!(json_is_well_formed(good), "should accept: {good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "{\"a\":1}x",
            "{\"a\":\"unterminated}",
            "{\"a\":01e}",
            "[\"tab\tliteral\"]",
        ] {
            assert!(!json_is_well_formed(bad), "should reject: {bad}");
        }
    }

    #[test]
    fn numbers_follow_one_rule() {
        assert_eq!(json_num(1234.5678), "1234.5678");
        assert_eq!(json_num(42.0), "42");
        assert_eq!(json_num(1e21), "1000000000000000000000");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_num(bad), "null");
        }
        let mut s = String::from("[\"");
        json_escape("q\"\\\n\u{1}", &mut s);
        s.push_str("\",");
        s.push_str(&json_num(-0.5));
        s.push(']');
        assert!(json_is_well_formed(&s), "{s}");
    }
}
