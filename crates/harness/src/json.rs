//! A minimal hand-rolled JSON reader for sweep-spec files.
//!
//! The workspace is dependency-free by policy, so scenario files are
//! parsed with this small recursive-descent reader instead of `serde`.
//! It supports the full JSON grammar except for one deliberate
//! restriction: numbers are kept as their raw source tokens (the spec
//! layer needs exact `u64` round-trips, which `f64` cannot provide), and
//! only integer accessors are exposed. Arrays and objects nest at most
//! [`Json::MAX_DEPTH`] deep, so a hostile document is a named error
//! rather than a stack overflow, and [`read_input`] reads at most 16 MiB
//! from a pipe or device, so an endless input such as `/dev/zero` is one
//! rather than an exhausted memory.

use std::io::Read;
use std::path::Path;

/// The most bytes [`read_input`] reads from an input that is not a
/// regular file: a pipe, or a device that may never end. A regular file's
/// size is finite and known when it is opened, so it has no limit: the
/// partials and checkpoints `fle_lab` writes hold one `[value,count]`
/// pair per distinct message and step count, whose number grows with the
/// trials of a crash sweep rather than with any spec limit.
const MAX_STREAM_BYTES: u64 = 16 << 20;

/// Reads the file at `path` as UTF-8 text: a regular file whole, any other
/// input up to 16 MiB. A pipe or device that runs past that limit (say,
/// `/dev/zero`) is refused once one byte past it has been read, before
/// anything parses it.
///
/// # Errors
///
/// A message naming the file: it cannot be read, it is a pipe or device
/// that runs past the limit, or it is not UTF-8.
pub fn read_input(path: &Path) -> Result<String, String> {
    let name = path.display();
    let cannot = |e: std::io::Error| format!("cannot read {name}: {e}");
    let mut file = std::fs::File::open(path).map_err(cannot)?;
    let stream = !file.metadata().map_err(cannot)?.is_file();
    let mut bytes = Vec::new();
    if stream {
        (&mut file)
            .take(MAX_STREAM_BYTES + 1)
            .read_to_end(&mut bytes)
    } else {
        file.read_to_end(&mut bytes)
    }
    .map_err(cannot)?;
    if stream && bytes.len() as u64 > MAX_STREAM_BYTES {
        return Err(format!(
            "{name} is not a regular file and runs past {MAX_STREAM_BYTES} bytes, \
             the input size limit for pipes and devices (16 MiB)"
        ));
    }
    String::from_utf8(bytes).map_err(|e| format!("{name} is not UTF-8 text: {e}"))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token (e.g. `"42"`, `"-1"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The deepest nesting of arrays and objects [`Json::parse`] accepts.
    /// Spec, checkpoint and partial-report files nest a handful of levels.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input,
    /// including arrays and objects nested deeper than
    /// [`Json::MAX_DEPTH`].
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if this is a non-negative integer number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is a [`Json::Obj`].
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up `key` in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Escapes `s` for embedding inside a JSON string literal (the
    /// surrounding quotes are the caller's). Round-trips through
    /// [`Json::parse`].
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses an array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == Json::MAX_DEPTH {
            return Err(format!(
                "JSON nesting depth limit of {} exceeded at byte {}",
                Json::MAX_DEPTH,
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("malformed number at byte {start}"));
        }
        // Fractions / exponents are valid JSON but no spec field uses
        // them; reject loudly rather than silently truncate.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (spec fields are integers)"
            ));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .to_string();
        Ok(Json::Num(raw))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in spec files;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos - 1
                            ));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let ch = rest.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&deep(Json::MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(Json::MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting depth limit of 128"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(200_000), "}".repeat(200_000));
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.contains("nesting depth limit"), "{err}");
    }

    #[test]
    fn parses_nested_documents() {
        let doc =
            r#" {"a": [1, 2, {"b": "x\ny"}], "c": null, "d": true, "e": 18446744073709551615} "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_u64(), Some(u64::MAX));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1.5",
            "1e3",
            "\"unterminated",
            "{} trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\nback\\slash",
            "\u{1}\u{1f}",
        ] {
            let doc = format!("\"{}\"", Json::escape(s));
            assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(s), "doc {doc:?}");
        }
    }

    #[test]
    fn empty_containers_and_order() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<_> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
