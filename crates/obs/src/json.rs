//! A dependency-free JSON value type, writer and parser.
//!
//! The build environment is offline, so serde is unavailable; this module
//! implements the small subset the metrics exporter needs. Numbers are
//! stored as `f64` (counters fit losslessly up to 2⁵³, far beyond any
//! realistic metric), object keys keep insertion order, and the writer
//! emits output the parser round-trips exactly.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Build a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Build a number from a `u64` counter (lossless below 2⁵³).
    pub fn count(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Look up a key if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    let _ = write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parse a JSON document. Arrays and objects nested more than 128
    /// levels deep are an error, so hostile input cannot overflow the
    /// recursive parser's stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) serialisation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional fallback.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
    }
}

/// Write `s` into `out` as a JSON string literal, quotes included: `"`,
/// `\\`, `\n`, `\r` and `\t` take their short escapes, other control
/// characters `\u00xx`, and everything else is copied as it stands, one
/// unescaped run per call to `out`. This is the one string encoder of the
/// crate: [`Json`]'s compact and pretty forms use it, and so can a caller
/// that writes a JSON document straight into its output.
pub fn write_string<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    escape(out, s)?;
    out.write_char('"')
}

/// Write `value`'s [`Display`](fmt::Display) form into `out` as a JSON
/// string literal, escaping it as it is formatted — what
/// [`write_string`]`(out, &value.to_string())` writes, without the `String`.
pub fn write_display<W: fmt::Write + ?Sized>(
    out: &mut W,
    value: &(impl fmt::Display + ?Sized),
) -> fmt::Result {
    /// Escapes whatever is formatted through it into the inner writer.
    struct Escaper<'a, W: ?Sized>(&'a mut W);
    impl<W: fmt::Write + ?Sized> fmt::Write for Escaper<'_, W> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            escape(self.0, s)
        }
    }
    out.write_char('"')?;
    fmt::Write::write_fmt(&mut Escaper(out), format_args!("{value}"))?;
    out.write_char('"')
}

/// The body of a string literal: `s` with every byte that JSON requires
/// escaped. Each such byte is ASCII, so the runs between them end on char
/// boundaries.
fn escape<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match short {
            "" => write!(out, "\\u{b:04x}")?,
            short => out.write_str(short)?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level; the deepest document this workspace writes, an
/// audit report, nests about 9.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        match code {
                            // High surrogate: JSON encodes astral-plane
                            // scalars as a `\uD8xx\uDCxx` pair (RFC 8259
                            // §7); decode both halves into one char.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                    return Err(format!(
                                        "lone high surrogate \\u{code:04X} at byte {pos}: \
                                         expected a low-surrogate \\u escape to follow",
                                        pos = *pos
                                    ));
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate \\u{code:04X} followed by \
                                         \\u{low:04X}, which is not a low surrogate"
                                    ));
                                }
                                let scalar = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(scalar)
                                        .expect("surrogate pairs always decode to a valid scalar"),
                                );
                                *pos += 6;
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{code:04X} at byte {pos}",
                                    pos = *pos
                                ));
                            }
                            _ => out.push(
                                char::from_u32(code)
                                    .expect("non-surrogate BMP code points are scalars"),
                            ),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // step, so a string costs time linear in its length. Both
                // stops are ASCII, so the run ends on a char boundary of
                // the input, which is a &str and therefore valid UTF-8.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("name".to_owned(), Json::str("closure")),
            ("rounds".to_owned(), Json::count(12)),
            ("ratio".to_owned(), Json::Num(0.5)),
            ("ok".to_owned(), Json::Bool(true)),
            ("nothing".to_owned(), Json::Null),
            (
                "kinds".to_owned(),
                Json::Arr(vec![Json::str("ta"), Json::str("pi*"), Json::count(3)]),
            ),
        ])
    }

    #[test]
    fn compact_round_trips() {
        let v = sample();
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_round_trips() {
        let v = sample();
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::count(42).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn string_escapes_are_pinned() {
        // Every escape form, pinned byte for byte: short escapes, `\u00xx`
        // in lower-case hex for the other controls, and DEL and non-ASCII
        // copied as they stand.
        let s = "q\"b\\n\nr\rt\tc\u{1}\u{1f}\u{7f}\u{e9}\u{1D11E}";
        let want = "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f\u{7f}\u{e9}\u{1D11E}\"";
        assert_eq!(Json::str(s).to_string(), want);
        let mut out = String::new();
        write_string(&mut out, s).unwrap();
        assert_eq!(out, want);
        // A `Display` value escapes as it is formatted, across every piece
        // the formatter hands over.
        struct Pieces;
        impl fmt::Display for Pieces {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("q\"b\\n")?;
                let soh = '\u{1}';
                write!(f, "\nr\rt\tc{soh}\u{1f}")?;
                f.write_str("\u{7f}\u{e9}\u{1D11E}")
            }
        }
        let mut out = String::new();
        write_display(&mut out, &Pieces).unwrap();
        assert_eq!(out, want);
        assert_eq!(Json::str("").to_string(), "\"\"");
    }

    #[test]
    fn surrogate_pairs_decode_beyond_the_bmp() {
        // U+1D11E MUSICAL SYMBOL G CLEF = 𝄞, U+10348 = 𐍈.
        assert_eq!(
            Json::parse(r#""𝄞 and 𐍈""#).unwrap(),
            Json::str("\u{1D11E} and \u{10348}")
        );
        // BMP escapes still decode directly.
        assert_eq!(Json::parse(r#""é☃""#).unwrap(), Json::str("é☃"));
    }

    #[test]
    fn non_bmp_strings_round_trip() {
        // The writer emits astral characters as raw UTF-8; the parser must
        // accept both that form and the escaped surrogate-pair form.
        let v = Json::str("clef \u{1D11E}, emoji \u{1F512}, tail");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn lone_surrogates_are_rejected_with_a_clear_error() {
        let high = Json::parse(r#""\uD834""#).unwrap_err();
        assert!(
            high.contains("lone high surrogate \\uD834"),
            "unexpected error: {high}"
        );
        let low = Json::parse(r#""\uDD1E""#).unwrap_err();
        assert!(
            low.contains("lone low surrogate \\uDD1E"),
            "unexpected error: {low}"
        );
        // High surrogate followed by a non-low escape names both halves.
        let pair = Json::parse("\"\\uD834\\u0041\"").unwrap_err();
        assert!(
            pair.contains("\\uD834") && pair.contains("\\u0041"),
            "unexpected error: {pair}"
        );
        // High surrogate followed by a plain character is also lone.
        assert!(Json::parse(r#""\uD834x""#).is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = sample();
        assert_eq!(v.get("rounds").and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("closure"));
        assert_eq!(
            v.get("kinds").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(2.5).as_u64(), None);
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // A half-mebibyte string mixing 1- to 4-byte characters and
        // escapes; every unescaped run is copied whole.
        let text = "ab\u{e9}\u{2603}\u{1D11E}\"\\\n".repeat(40_000);
        let v = Json::str(&text);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(Json::parse(&nested(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
    }
}
