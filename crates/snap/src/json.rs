//! A minimal JSON value, writer and parser.
//!
//! The benchmark run cache and the checkpoint layer persist structured
//! data to disk; the workspace builds offline, so instead of `serde_json`
//! this is a small hand-rolled codec covering exactly what they need:
//! objects, arrays, strings, booleans, null, unsigned integers and
//! finite floats.
//!
//! Two ways in and out:
//!
//! * the [`Json`] tree — [`Json::render`] / [`Json::parse`] — for
//!   documents whose shape is only known at run time;
//! * the streaming pieces — [`write_string`], [`write_u64`],
//!   [`write_f64`] and the pull [`Reader`] — for hot fixed-shape
//!   documents, which render straight into a `String` and decode straight
//!   into the caller's types in one pass, with no tree in between. Both
//!   sides produce and accept exactly the bytes the tree does.
//!
//! Losslessness contract: `u64` values round-trip exactly (they are
//! written as bare integers and re-parsed as integers), and finite `f64`
//! values round-trip exactly (written with Rust's shortest-round-trip
//! `{:?}` formatting, re-parsed with `f64::from_str`). Non-finite floats
//! are rejected at write time.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the cache records' native number type).
    UInt(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    ///
    /// # Panics
    /// Panics on non-finite floats — the cache never produces them, and
    /// JSON cannot represent them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => write_u64(out, *n),
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text. Rejects trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader::new(text);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }
}

/// Append `s` as a JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs whole; every escaped byte is ASCII, so run
    // boundaries always fall on char boundaries.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append an unsigned integer.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Append a finite float in its shortest round-trip form.
///
/// # Panics
/// Panics on non-finite floats — JSON cannot represent them.
pub fn write_f64(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot encode {x}");
    // `{:?}` is Rust's shortest representation that parses back to the
    // same bits.
    let _ = write!(out, "{x:?}");
}

/// A cursor-style pull reader over JSON text.
///
/// The caller walks the document in order — [`Reader::begin_object`],
/// [`Reader::field`] for each expected key, [`Reader::begin_array`] with
/// [`Reader::next_item`], and the scalar reads — and decodes values
/// straight into its own types. A document that deviates from the shape
/// the caller expects (another key, another order, a missing comma, a
/// truncation, a non-integer where an integer belongs) is an `Err` naming
/// the byte offset, never a panic. [`Reader::value`] reads whatever node
/// comes next as a [`Json`] tree, which is how [`Json::parse`] works.
///
/// Array items and integer arrays in the compact form the writers emit
/// (no whitespace, bare commas) are read on a fast path in one pass over
/// the bytes; any other byte sends the read down the general path from
/// the same position, with the same values and the same errors.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Whether the innermost open container has no element yet, so the
    /// next one takes no separating comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            first: true,
        }
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!(
            "{what} at byte {}, found {:?}",
            self.pos,
            self.peek().map(|c| c as char)
        )
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// The separator before a container's next element.
    fn separator(&mut self) -> Result<(), String> {
        self.skip_ws();
        if !self.first {
            self.expect(b',')?;
            self.skip_ws();
        }
        self.first = false;
        Ok(())
    }

    /// Enter an object.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'{')?;
        self.first = true;
        Ok(())
    }

    /// Read the next key of the current object, which must be `name`, and
    /// its colon; the value is read next.
    pub fn field(&mut self, name: &str) -> Result<(), String> {
        self.separator()?;
        let rest = &self.text.as_bytes()[self.pos..];
        let matches = rest.len() > name.len() + 1
            && rest[0] == b'"'
            && rest[1..].starts_with(name.as_bytes())
            && rest[name.len() + 1] == b'"';
        if !matches {
            return Err(self.err(&format!("expected key {name:?}")));
        }
        self.pos += name.len() + 2;
        self.skip_ws();
        self.expect(b':')
    }

    /// Read the next key of the current object and its colon, or close
    /// the object and return `None`.
    pub fn next_key(&mut self) -> Result<Option<String>, String> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.first = false;
            return Ok(None);
        }
        self.separator()?;
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Leave the current object, which must have no keys left.
    pub fn end_object(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'}')?;
        self.first = false;
        Ok(())
    }

    /// Enter an array.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'[')?;
        self.first = true;
        Ok(())
    }

    /// Position at the current array's next element and return `true`,
    /// or close the array and return `false`.
    pub fn next_item(&mut self) -> Result<bool, String> {
        // The compact form `to_json` writes: `]`, a bare comma, or a first
        // element that starts right after the `[`. Anything else takes the
        // general path from the same position.
        match (self.peek(), self.first) {
            (Some(b']'), _) => {
                self.pos += 1;
                self.first = false;
                Ok(false)
            }
            (Some(b','), false) => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            (Some(c), true) if !matches!(c, b' ' | b'\t' | b'\n' | b'\r') => {
                self.first = false;
                Ok(true)
            }
            _ => self.next_item_general(),
        }
    }

    /// [`Reader::next_item`] for any spacing.
    fn next_item_general(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.first = false;
            return Ok(false);
        }
        self.separator()?;
        Ok(true)
    }

    /// The raw token of a number.
    fn number_token(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Read an unsigned integer: bare digits without leading zeros, as
    /// [`write_u64`] writes them.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // Up to 19 digits cannot overflow; only a 20th needs checking.
        let mut n = 0u64;
        while let Some(&d @ b'0'..=b'9') = bytes.get(self.pos) {
            if self.pos - start == 19 {
                break;
            }
            n = n * 10 + u64::from(d - b'0');
            self.pos += 1;
        }
        let mut n = Some(n);
        while let Some(&d @ b'0'..=b'9') = bytes.get(self.pos) {
            n = n
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let digits = self.pos - start;
        let canonical = (digits == 1 || (digits > 1 && bytes[start] != b'0'))
            && !matches!(bytes.get(self.pos), Some(b'-' | b'+' | b'.' | b'e' | b'E'));
        match n {
            Some(n) if canonical => Ok(n),
            _ => {
                self.pos = start;
                let tok = self.number_token();
                Err(format!(
                    "expected an unsigned integer at byte {start}, found {tok:?}"
                ))
            }
        }
    }

    /// Read a finite number as `f64` (integers coerce).
    pub fn f64(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        let tok = self.number_token();
        tok.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("expected a finite number at byte {start}, found {tok:?}"))
    }

    /// Read a string, resolving escapes.
    pub fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        // Unescaped runs are copied whole; they start and end next to
        // ASCII bytes, so they are always valid `str` slices.
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).ok_or(format!("bad \\u escape {code:#x}"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.err("unescaped control character")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// An array of integers in the compact form [`write_u64`] and
    /// `to_json` write — `[`, canonical digits joined by bare commas, `]`
    /// — read in one pass from the current position, handing each value
    /// to `push`. Returns the position after the `]`, or `None` at the
    /// first byte outside that form, at a 20-digit number, or when `push`
    /// refuses a value; the reader is untouched either way, so the caller
    /// can take the general path from the same position.
    fn compact_u64s(&self, mut push: impl FnMut(u64) -> Option<()>) -> Option<usize> {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        if bytes.get(at) != Some(&b'[') {
            return None;
        }
        at += 1;
        if bytes.get(at) == Some(&b']') {
            return Some(at + 1);
        }
        loop {
            let start = at;
            let mut n = 0u64;
            while let Some(&d @ b'0'..=b'9') = bytes.get(at) {
                n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                at += 1;
            }
            // Up to 19 digits cannot overflow; longer numbers, and empty
            // or zero-led ones, are the general path's to accept or reject.
            let digits = at - start;
            if digits == 0 || digits > 19 || (digits > 1 && bytes[start] == b'0') {
                return None;
            }
            push(n)?;
            match bytes.get(at) {
                Some(b',') => at += 1,
                Some(b']') => return Some(at + 1),
                _ => return None,
            }
        }
    }

    /// Read an array of unsigned integers.
    pub fn u64_array(&mut self) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        if let Some(end) = self.compact_u64s(|n| {
            out.push(n);
            Some(())
        }) {
            self.pos = end;
            self.first = false;
            return Ok(out);
        }
        out.clear();
        self.u64_array_general(out)
    }

    /// [`Reader::u64_array`] for any spacing, appending to `out`.
    fn u64_array_general(&mut self, mut out: Vec<u64>) -> Result<Vec<u64>, String> {
        self.begin_array()?;
        while self.next_item_general()? {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Read an array of exactly `N` unsigned integers.
    pub fn u64_tuple<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut out = [0; N];
        let mut len = 0;
        let end = self.compact_u64s(|n| {
            *out.get_mut(len)? = n;
            len += 1;
            Some(())
        });
        if let (Some(end), true) = (end, len == N) {
            self.pos = end;
            self.first = false;
            return Ok(out);
        }
        self.u64_tuple_general()
    }

    /// [`Reader::u64_tuple`] for any spacing.
    fn u64_tuple_general<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut out = [0; N];
        self.begin_array()?;
        for slot in &mut out {
            if !self.next_item_general()? {
                return Err(self.err(&format!("expected {N} integers")));
            }
            *slot = self.u64()?;
        }
        if self.next_item_general()? {
            return Err(self.err(&format!("expected ']' after {N} integers")));
        }
        Ok(out)
    }

    /// Read an array of strings.
    pub fn string_array(&mut self) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        self.begin_array()?;
        while self.next_item()? {
            out.push(self.string()?);
        }
        Ok(out)
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Read the next node, whatever it is, as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.begin_array()?;
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.begin_object()?;
                while let Some(key) = self.next_key()? {
                    fields.push((key, self.value()?));
                }
                Ok(Json::Obj(fields))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                let tok = self.number_token();
                if !tok.contains(['.', 'e', 'E', '-', '+']) {
                    if let Ok(n) = tok.parse::<u64>() {
                        return Ok(Json::UInt(n));
                    }
                }
                tok.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|e| format!("bad number {tok:?} at byte {start}: {e}"))
            }
            _ => Err(self.err("unexpected value")),
        }
    }

    /// Require that only whitespace is left.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Float(0.1),
            Json::Float(-1.5e300),
            Json::Str("he\"llo\\\n\tworld ß∂".into()),
        ] {
            let text = v.render();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_is_exact_beyond_f64_precision() {
        // 2^53 + 1 is not representable as f64; the UInt path must keep it.
        let v = Json::UInt((1 << 53) + 1);
        assert_eq!(
            Json::parse(&v.render()).unwrap().as_u64(),
            Some((1 << 53) + 1)
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::UInt(1), Json::Float(2.5), Json::Null]),
            ),
            (
                "b".into(),
                Json::Obj(vec![("c".into(), Json::Str("d".into()))]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!(back.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\n\" , true ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("A\n"));
        assert_eq!(arr[2], Json::Bool(true));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
    #[test]
    fn reader_walks_a_fixed_shape_in_order() {
        let text = r#" {"n": 7, "x": 0.5, "s": "a\"b", "v": [1, 2], "t": [[3,4]], "e": []} "#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        r.field("n").unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        r.field("x").unwrap();
        assert_eq!(r.f64().unwrap(), 0.5);
        r.field("s").unwrap();
        assert_eq!(r.string().unwrap(), "a\"b");
        r.field("v").unwrap();
        assert_eq!(r.u64_array().unwrap(), vec![1, 2]);
        r.field("t").unwrap();
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64_tuple::<2>().unwrap(), [3, 4]);
        assert!(!r.next_item().unwrap());
        r.field("e").unwrap();
        assert!(r.string_array().unwrap().is_empty());
        r.end_object().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_shape_deviations() {
        let read = |text: &str| -> Result<(u64, u64), String> {
            let mut r = Reader::new(text);
            r.begin_object()?;
            r.field("a")?;
            let a = r.u64()?;
            r.field("b")?;
            let b = r.u64_tuple::<1>()?[0];
            r.end_object()?;
            r.finish()?;
            Ok((a, b))
        };
        assert_eq!(read(r#"{"a":1,"b":[2]}"#), Ok((1, 2)));
        for bad in [
            r#"{"b":[2],"a":1}"#,
            r#"{"a":1 "b":[2]}"#,
            r#"{"a":1,"b":[2],}"#,
            r#"{,"a":1,"b":[2]}"#,
            r#"{"a":1.0,"b":[2]}"#,
            r#"{"a":-1,"b":[2]}"#,
            r#"{"a":01,"b":[2]}"#,
            r#"{"a":18446744073709551616,"b":[2]}"#,
            r#"{"a":1,"b":[2,3]}"#,
            r#"{"a":1,"b":[]}"#,
            r#"{"a":1,"b":[,2]}"#,
            r#"{"ab":1,"b":[2]}"#,
            r#"{"a":1,"b":[2]}x"#,
            r#"{"a":1,"b":[2"#,
            r#"{"a"#,
            "",
        ] {
            assert!(read(bad).is_err(), "{bad:?} should fail");
        }
        assert!(
            Reader::new("1e999").f64().is_err(),
            "non-finite is rejected"
        );
        assert!(
            Reader::new("\"a\u{1}b\"").string().is_err(),
            "control characters must be escaped"
        );
        assert_eq!(Reader::new("3").f64(), Ok(3.0), "integers coerce");
    }

    /// The compact fast paths of `next_item`, `u64_array` and `u64_tuple`
    /// against the general paths they skip: the same result, error text,
    /// position and container state on every short string over the bytes
    /// that matter, and on numbers around the 19-digit limit.
    #[test]
    fn compact_fast_paths_read_like_the_general_path() {
        fn same<T: PartialEq + std::fmt::Debug>(
            text: &str,
            first: bool,
            fast: impl Fn(&mut Reader<'_>) -> Result<T, String>,
            general: impl Fn(&mut Reader<'_>) -> Result<T, String>,
        ) {
            let mut a = Reader {
                text,
                pos: 0,
                first,
            };
            let mut b = Reader {
                text,
                pos: 0,
                first,
            };
            let (x, y) = (fast(&mut a), general(&mut b));
            assert_eq!(x, y, "{text:?} (first: {first})");
            assert_eq!(
                (a.pos, a.first),
                (b.pos, b.first),
                "{text:?} (first: {first})"
            );
        }
        let check = |text: &str| {
            for first in [true, false] {
                same(text, first, |r| r.next_item(), |r| r.next_item_general());
            }
            same(
                text,
                true,
                |r| r.u64_array(),
                |r| r.u64_array_general(Vec::new()),
            );
            same(
                text,
                true,
                |r| r.u64_tuple::<1>(),
                |r| r.u64_tuple_general::<1>(),
            );
            same(
                text,
                true,
                |r| r.u64_tuple::<2>(),
                |r| r.u64_tuple_general::<2>(),
            );
            same(
                text,
                true,
                |r| r.u64_tuple::<3>(),
                |r| r.u64_tuple_general::<3>(),
            );
        };
        let alphabet = [b'[', b']', b',', b'0', b'7', b' ', b'-'];
        let mut texts = vec![Vec::new()];
        for _ in 0..6 {
            let longer: Vec<Vec<u8>> = texts
                .iter()
                .filter(|t| t.len() == texts.last().map_or(0, Vec::len))
                .flat_map(|t| {
                    alphabet.iter().map(move |&c| {
                        let mut t = t.clone();
                        t.push(c);
                        t
                    })
                })
                .collect();
            texts.extend(longer);
        }
        for text in &texts {
            check(std::str::from_utf8(text).unwrap());
        }
        // Long numbers, up to and past the 19-digit limit.
        let max = u64::MAX.to_string();
        for n in [
            "1234567".to_string(),
            "12345678".to_string(),
            "123456789".to_string(),
            "00000000".to_string(),
            "01234567".to_string(),
            "1234567890123456".to_string(),
            "12345678901234567".to_string(),
            "9".repeat(19),
            format!("1{}", "0".repeat(19)),
            max.clone(),
            format!("{}6", &max[..19]),
            "9".repeat(21),
        ] {
            for text in [
                format!("[{n}]"),
                format!("[{n}"),
                format!("[1,{n}]"),
                format!("[{n},{n}]"),
                format!("[{n},2,3]"),
                format!("[{n} ]"),
                format!("[{n}x]"),
                format!("[{n}.5]"),
                format!("[{}:{}]", &n[..n.len() / 2], &n[n.len() / 2..]),
            ] {
                check(&text);
            }
        }
        let mut r = Reader::new("[18446744073709551615,12345678901234567,0,90000000]");
        assert_eq!(
            r.u64_array(),
            Ok(vec![u64::MAX, 12_345_678_901_234_567, 0, 90_000_000])
        );
    }

    #[test]
    fn streaming_writers_match_the_tree() {
        for s in ["", "plain", "q\"b\\n\nt\tr\r\u{1}\u{1f}\u{7f}", "ß∂ ✓"] {
            let mut out = String::new();
            write_string(&mut out, s);
            // The per-char escaper the run-copying writer replaced.
            let mut want = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => want.push_str("\\\""),
                    '\\' => want.push_str("\\\\"),
                    '\n' => want.push_str("\\n"),
                    '\t' => want.push_str("\\t"),
                    '\r' => want.push_str("\\r"),
                    c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                    c => want.push(c),
                }
            }
            want.push('"');
            assert_eq!(out, want);
            assert_eq!(Reader::new(&out).string().unwrap(), s);
        }
        for n in [0, 7, 10, 1 << 53, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }
}
