//! A minimal JSON value, parser and writer — the wire format of the
//! service tier, hand-rolled because the build environment has no
//! crates.io access.
//!
//! Scope: the full JSON grammar, surrogate-pair `\u` escapes included,
//! with numbers parsed as `f64`. Numbers print via
//! Rust's shortest-round-trip `Display`, so an `f64` survives a
//! serialize→parse cycle bit-exactly; values that must stay exact past
//! 2^53 (cache keys, digests) travel as hex strings instead.

use autoax_telemetry::write_json_str;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered (no key dedup — last lookup wins
    /// never arises because [`Json::get`] returns the first match).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset where it went wrong.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: input, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// First value under `key` (objects only; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as a non-negative integer: rejects negatives,
    /// fractions and anything past 2^53 (where `f64` drops integers).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as usize)
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next character (always a char boundary).
    pos: usize,
}

/// Nesting ceiling: a parser recursing per `[`/`{` must bound depth or a
/// hostile body of 100k brackets overflows the stack.
const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { msg, at: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let n: f64 = self.src[start..self.pos].parse().map_err(|_| JsonError {
            msg: "invalid number",
            at: start,
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                msg: "number out of range",
                at: start,
            });
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // a high surrogate must pair with a low one
                                let low = match self.src.as_bytes().get(self.pos..self.pos + 2) {
                                    Some(b"\\u") => {
                                        self.pos += 2;
                                        self.hex4()?
                                    }
                                    _ => 0,
                                };
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("unpaired surrogate in \\u escape"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // one scalar off the `&str`, in O(1)
                    let ch = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape at `pos`: exactly four, no
    /// sign.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let code = hex.iter().fold(0, |code, &h| {
            code * 16 + char::from(h).to_digit(16).expect("a hex digit")
        });
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected object")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // JSON has no NaN/Infinity; Json::Num is kept finite by
                // the parser and the engine never emits non-finite
                // objective values, but render defensively as null.
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Builds a `Json::Obj` from `(key, value)` pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse(r#""a\"b\nA""#).unwrap(),
            Json::Str("a\"b\nA".into())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00 \u00E9""#).unwrap(),
            Json::Str("\u{1F600} \u{e9}".into())
        );
        let doc = Json::parse(r#"{"k":[1,2,{"x":null}],"y":false}"#).unwrap();
        assert_eq!(doc.get("y"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("k").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for (input, expect_at) in [
            ("", 0),
            ("{", 1),
            ("[1,]", 3),
            (r#"{"a"}"#, 4),
            ("tru", 0),
            ("1e999", 0),
            ("\"ab", 3),
            ("{} {}", 3),
            ("\"\u{0001}\"", 1),
            // a sign is not a hex digit
            (r#""\u+041""#, 3),
            // unpaired surrogates
            (r#""\ud83d""#, 7),
            (r#""\ud83d\u0041""#, 13),
            (r#""\ude00""#, 7),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert_eq!(err.at, expect_at, "input={input:?}: {err}");
        }
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // JSON source of one repeat: multi-byte characters, an escaped
        // quote and plain ASCII
        let unit = "\u{e9}\u{20ac}\u{1F600} plain \\\" ";
        let repeats = (1 << 20) / unit.len() + 1;
        let doc = format!("\"{}\"", unit.repeat(repeats));
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(&doc).expect("a long string");
        let took = t0.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
        // each repeat decodes its two-byte escape to one quote
        assert_eq!(
            parsed.as_str().map(str::len),
            Some((unit.len() - 1) * repeats)
        );
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(10_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 12345.678e-90, -0.0] {
            let text = Json::Num(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn as_usize_rejects_lossy_numbers() {
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(1e300).as_usize(), None);
    }

    #[test]
    fn display_escapes_and_round_trips() {
        let doc = obj([
            (
                "text",
                Json::Str("line\nbreak \"q\" \\ \u{0007}\r\t\u{0001} é".into()),
            ),
            ("n", Json::Num(2.5)),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"text":"line\nbreak \"q\" \\ \u0007\r\t\u0001 é","n":2.5}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    /// Characters the string paths branch on: quotes, backslashes,
    /// control characters, the edges of the BMP and a non-BMP scalar.
    const SPECIAL: [char; 9] = [
        '"',
        '\\',
        '/',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        '\u{e9}',
        '\u{ffff}',
        '\u{1F600}',
    ];

    /// A string of up to 8 characters drawn from `x`: mostly
    /// [`SPECIAL`], otherwise any Unicode scalar value.
    fn text(mut x: u32) -> String {
        (0..x % 9)
            .map(|_| {
                x = x.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
                match x >> 30 {
                    0 => char::from_u32((x >> 8) % 0x11_0000).unwrap_or('\u{FFFD}'),
                    _ => SPECIAL[(x >> 8) as usize % SPECIAL.len()],
                }
            })
            .collect()
    }

    /// A `Json` tree of depth ≤ 3 read off a stream of draws.
    fn tree(draws: &mut std::slice::Iter<'_, (u8, u32)>, depth: usize) -> Json {
        let Some(&(kind, x)) = draws.next() else {
            return Json::Null;
        };
        match kind % if depth < 3 { 7 } else { 5 } {
            0 => Json::Null,
            1 => Json::Bool(x & 1 == 1),
            2 => {
                let n = f64::from_bits(u64::from(x) << 32 | u64::from(x.rotate_left(7)));
                Json::Num(if n.is_finite() { n } else { f64::from(x) })
            }
            3 | 4 => Json::Str(text(x)),
            5 => Json::Arr((0..x % 4).map(|_| tree(draws, depth + 1)).collect()),
            _ => Json::Obj(
                (0..x % 4)
                    .map(|i| (text(x ^ i), tree(draws, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// Fragments the parser branches on.
    const TOKENS: [&str; 16] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\\u",
        "d83d",
        "dc00",
        "+041",
        "true",
        "-1e5",
        " ",
        "\u{1F600}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text up to 2 KiB parses or fails with an error; it
        /// never panics.
        #[test]
        fn arbitrary_text_parses_or_fails_without_panicking(
            picks in prop::collection::vec((0usize..TOKENS.len() * 2, any::<u32>()), 0..=600)
        ) {
            let mut input = String::new();
            for (i, x) in picks {
                match TOKENS.get(i) {
                    Some(token) => input.push_str(token),
                    None => input.push(char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}')),
                }
                if input.len() > 2048 {
                    break;
                }
            }
            let _ = Json::parse(&input);
        }

        /// Generated trees of depth ≤ 3, with control and non-BMP
        /// characters, survive `to_string` then `parse` bit for bit.
        #[test]
        fn generated_trees_round_trip_bit_for_bit(
            draws in prop::collection::vec((any::<u8>(), any::<u32>()), 1..=40)
        ) {
            let doc = tree(&mut draws.iter(), 0);
            let back = Json::parse(&doc.to_string()).expect("a printed tree parses");
            // Debug prints every f64 distinctly, -0.0 included
            prop_assert_eq!(format!("{back:?}"), format!("{doc:?}"));
        }
    }
}
