//! The workspace's one JSON codec.
//!
//! The workspace resolves dependencies offline, so there is no serde;
//! everything that reads or writes JSON (the simulator's trace, fault,
//! attack, capsule and metrics line dialects, the campaign
//! manifest, log and report, the experiment result files) goes through
//! this crate, so the grammar, the string escaper and the integer rules
//! exist once:
//!
//! * [`Json`]: the value tree, [`Json::render`] and [`parse_json`];
//! * [`ObjWriter`]: appends one object to a `String` field by field,
//!   for emitters whose output bytes are hashed (trace lines) or
//!   written by the hundred thousand (capsules) and must not pay for a
//!   tree;
//! * typed by-key accessors ([`Json::uint_at`], [`Json::num_at`],
//!   [`Json::str_at`], [`Json::arr_at`], [`Json::obj_at`],
//!   [`Json::opt`]) whose errors name the key, so a reader is one line
//!   per field.
//!
//! **Integer fidelity.** A JSON number is an `f64` everywhere except
//! where an `f64` would lie: an unsigned integer above 2⁵³ is carried
//! as [`Json::Int`], digit for digit. Capsules store `f64::to_bits`
//! patterns, seeds and transmission ids as bare integers up to 2⁶⁴, and
//! they must come back exactly. [`Json::uint`] and the parser agree on
//! the split, so a value has one representation and `==` is value
//! equality.
//!
//! Non-finite numbers render as `null` (JSON has no NaN), and `null`
//! reads back as NaN through [`Json::as_num`].

use std::fmt::Write as _;

/// The largest integer below which every `u64` is exactly an `f64`
/// (and prints as its own digits through `f64`'s `Display`).
const EXACT_F64: u64 = 1 << 53;

/// Containers nested deeper than this are rejected by [`parse_json`]
/// rather than recursed into: hostile input must not exhaust the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// An unsigned integer above 2⁵³, which [`Json::Num`] cannot hold
    /// exactly. Build through [`Json::uint`]; smaller integers are
    /// `Num`.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for numbers.
    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// An unsigned integer, exact over the whole `u64` range: `Num` up
    /// to 2⁵³ (rendering as before), [`Json::Int`] above.
    pub fn uint(v: u64) -> Json {
        if v <= EXACT_F64 {
            Json::Num(v as f64)
        } else {
            Json::Int(v)
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip representation; integral values
                    // print without an exponent or trailing zeros, which
                    // keeps golden files stable and diffs readable.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(v) => write_uint(out, *v),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string: the one escaper. `"` and `\`
/// get a backslash, control characters their short or `\u00XX` escape,
/// so a rendered string never contains a raw newline and one record is
/// always one line.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Keys and labels almost never need escaping: copy them whole.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The unsigned integer types [`ObjWriter::uint`] accepts.
pub trait Uint: Copy {
    /// The value, widened losslessly.
    fn widen(self) -> u64;
}
macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Uint for $t {
            fn widen(self) -> u64 {
                self as u64
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

/// Appends the decimal digits of `v`.
fn write_uint(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Writes one JSON object straight into a `String`, field by field, in
/// call order: `ObjWriter::new().uint("t", 5).str("ev", "tx").finish()`
/// is `{"t":5,"ev":"tx"}`. Byte for byte what [`Json::render`] produces
/// for the same fields, without building the tree.
#[derive(Debug)]
pub struct ObjWriter {
    out: String,
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

impl ObjWriter {
    /// Opens an object.
    pub fn new() -> Self {
        // One allocation covers a typical trace or capsule line.
        let mut out = String::with_capacity(128);
        out.push('{');
        ObjWriter { out }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        write_str(&mut self.out, key);
        self.out.push(':');
    }

    /// An unsigned integer field, exact over the type's whole range.
    pub fn uint(mut self, key: &str, v: impl Uint) -> Self {
        self.key(key);
        write_uint(&mut self.out, v.widen());
        self
    }

    /// A string field, escaped.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        write_str(&mut self.out, v);
        self
    }

    /// A field whose value is already-rendered JSON (a nested
    /// [`ObjWriter::finish`] or [`Json::render`] result).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Json {
    /// Looks up a key in an object value (`None` on missing key or
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite-or-NaN number (`null` reads as NaN, the
    /// inverse of [`render`](Self::render)'s NaN → `null` mapping). An
    /// [`Int`](Json::Int) is rounded to the nearest `f64`; use
    /// [`as_u64`](Self::as_u64) where the digits matter.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: `None` for a negative,
    /// fractional or non-finite number, and for one written in a form
    /// (`1e19`) whose integer value an `f64` does not pin down.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::Num(v) if v >= 0.0 && v <= EXACT_F64 as f64 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn field<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing required {what} field {key:?}"))?;
        read(value).ok_or_else(|| format!("field {key:?} must be {what}"))
    }

    /// The unsigned integer at `key`, narrowed to `T` with a checked
    /// conversion: a value outside `T`'s range is an error, never a
    /// wrap.
    pub fn uint_at<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let what = format!("a {} integer", std::any::type_name::<T>());
        self.field(key, &what, |v| v.as_u64().and_then(|n| T::try_from(n).ok()))
    }

    /// The number at `key` (`null` reads as NaN).
    pub fn num_at(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a number", Json::as_num)
    }

    /// The string at `key`.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Json::as_str)
    }

    /// The array at `key`.
    pub fn arr_at(&self, key: &str) -> Result<&[Json], String> {
        self.field(key, "an array", Json::as_arr)
    }

    /// The object at `key`, as its insertion-ordered fields.
    pub fn obj_at(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.field(key, "an object", |v| match v {
            Json::Obj(fields) => Some(fields.as_slice()),
            _ => None,
        })
    }

    /// An optional field: `None` when `key` is absent, otherwise what
    /// `read` (one of the `*_at` accessors) makes of it, so a present
    /// field of the wrong type is still an error.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => read(self, key).map(Some),
        }
    }
}

/// Parses one JSON document. Strict on structure (unbalanced brackets,
/// trailing garbage, bad escapes and nesting beyond 64 levels are
/// errors), permissive on whitespace. Errors carry the byte offset so
/// a torn `jobs.log` tail is diagnosable.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
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
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(text, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                        let hex = text
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogates never appear in our own output;
                        // map them to the replacement character rather
                        // than failing the whole document.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash; both
                // are ASCII, so the run ends on a character boundary.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let lexeme = &text[start..*pos];
    // A plain digit string that fits a u64 is kept exactly.
    if let Ok(v) = lexeme.parse::<u64>() {
        if !lexeme.starts_with('+') {
            return Ok(Json::uint(v));
        }
    }
    lexeme
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::num(2.5f64).render(), "2.5");
        assert_eq!(Json::num(10u16).render(), "10");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn containers_render_in_order() {
        let v = Json::Obj(vec![
            ("b".into(), Json::num(1u8)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::num(2u8)])),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[null,2]}"#);
    }

    /// The value the moved parser's round-trip test was written over,
    /// plus what this crate added: control characters and an `Int`.
    fn sample() -> Json {
        Json::Obj(vec![
            ("id".into(), Json::num(17u32)),
            ("scheme".into(), Json::str("lr-seluge")),
            (
                "metrics".into(),
                Json::Arr(vec![Json::num(2.5f64), Json::Null]),
            ),
            ("note".into(), Json::str("quo\"te\\slash\nnewline")),
            ("ctl".into(), Json::str("a\nb\t\u{1}\"\\\r\u{1f}é")),
            ("bits".into(), Json::uint(13_835_058_055_282_163_712)),
            ("ok".into(), Json::Bool(true)),
        ])
    }

    #[test]
    fn parse_round_trips_render() {
        let v = sample();
        assert_eq!(parse_json(&v.render()).unwrap(), v);
        // Escaped control characters keep one record on one line.
        assert!(!v.render().contains(['\n', '\r', '\t', '\u{1}']));
    }

    #[test]
    fn parse_handles_whitespace_and_numbers() {
        let v = parse_json(" { \"a\" : [ 1 , -2.5e3 , 0.125 ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[Json::Num(1.0), Json::Num(-2500.0), Json::Num(0.125)]
        );
    }

    #[test]
    fn parse_rejects_torn_documents() {
        // The shapes a kill -9 mid-append leaves in jobs.log.
        for torn in [
            r#"{"id":3,"metrics":[1.0,"#,
            r#"{"id":3"#,
            r#"{"id":3} extra"#,
            r#"{"id":"#,
            r#"{"id":"\u12"#,
            r#"{"id":+}"#,
            "",
        ] {
            assert!(parse_json(torn).is_err(), "accepted torn {torn:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(parse_json(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn null_reads_back_as_nan() {
        let v = parse_json("[null,2]").unwrap();
        let arr = v.as_arr().unwrap();
        assert!(arr[0].as_num().unwrap().is_nan());
        assert_eq!(arr[1].as_num(), Some(2.0));
    }

    #[test]
    fn float_bits_survive_a_render_parse_cycle() {
        // Aggregate bit-identity across resume depends on this: the log
        // stores f64s as shortest-round-trip decimal.
        for &v in &[0.1, 1.0 / 3.0, 123456.789012345, f64::MIN_POSITIVE, 1e300] {
            let back = parse_json(&Json::Num(v).render()).unwrap();
            assert_eq!(back.as_num().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn every_u64_round_trips_exactly() {
        for v in [
            0,
            1,
            EXACT_F64 - 1,
            EXACT_F64,
            EXACT_F64 + 1,
            1 << 63,
            (1 << 63) + 1,
            f64::to_bits(-2.0),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let text = Json::uint(v).render();
            assert_eq!(text, v.to_string());
            let back = parse_json(&text).unwrap();
            assert_eq!(back, Json::uint(v), "{v}");
            assert_eq!(back.as_u64(), Some(v), "{v}");
            // The same digits inside an object, through the accessor.
            let line = ObjWriter::new().uint("x_bits", v).finish();
            assert_eq!(parse_json(&line).unwrap().uint_at::<u64>("x_bits"), Ok(v));
        }
        // Small integers stay plain numbers, so values built with
        // `Json::Num` before this type carried integers compare equal.
        assert_eq!(parse_json("17").unwrap(), Json::Num(17.0));
        // One past u64::MAX is not an exact integer any more.
        let over = parse_json("18446744073709551616").unwrap();
        assert_eq!(over.as_u64(), None);
        assert_eq!(over.as_num(), Some(18_446_744_073_709_551_616.0));
    }

    #[test]
    fn as_u64_refuses_what_is_not_an_exact_unsigned_integer() {
        for text in ["-1", "1.5", "1e19", "null", "\"7\"", "true", "-0.5"] {
            assert_eq!(parse_json(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(parse_json("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse_json("7.0").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn typed_accessors_name_the_key_and_check_the_range() {
        let v = parse_json(
            r#"{"node":4294967298,"pool":7,"name":"x","xs":[1],"o":{"k":null},"f":-2.5}"#,
        )
        .unwrap();
        assert_eq!(v.uint_at::<u64>("node"), Ok(4_294_967_298));
        let err = v.uint_at::<u32>("node").unwrap_err();
        assert!(err.contains("\"node\"") && err.contains("u32"), "{err}");
        assert_eq!(v.uint_at::<u8>("pool"), Ok(7));
        assert!(v.uint_at::<u32>("f").unwrap_err().contains("\"f\""));
        let err = v.uint_at::<u32>("absent").unwrap_err();
        assert!(
            err.contains("missing required") && err.contains("\"absent\""),
            "{err}"
        );
        assert_eq!(v.str_at("name"), Ok("x"));
        assert!(v.str_at("pool").unwrap_err().contains("must be a string"));
        assert_eq!(v.arr_at("xs").unwrap().len(), 1);
        assert!(v.arr_at("name").is_err());
        assert_eq!(v.num_at("f"), Ok(-2.5));
        assert!(v.obj_at("o").unwrap()[0].1.as_num().unwrap().is_nan());
        assert!(v.obj_at("xs").is_err());
        // Optional: absent is None, present-but-wrong is still an error.
        assert_eq!(v.opt("absent", Json::str_at), Ok(None));
        assert_eq!(v.opt("name", Json::str_at), Ok(Some("x")));
        assert!(v.opt("pool", Json::str_at).is_err());
        // A non-object has no fields.
        assert!(Json::Null.str_at("name").is_err());
    }

    #[test]
    fn object_writer_matches_the_tree_renderer() {
        let tree = Json::Obj(vec![
            ("t".into(), Json::uint(u64::MAX)),
            ("ev".into(), Json::str("a\n\"b\"")),
            ("in".into(), Json::Obj(vec![("k".into(), Json::num(1u8))])),
        ]);
        let line = ObjWriter::new()
            .uint("t", u64::MAX)
            .str("ev", "a\n\"b\"")
            .raw("in", &ObjWriter::new().uint("k", 1u8).finish())
            .finish();
        assert_eq!(line, tree.render());
        assert_eq!(parse_json(&line).unwrap(), tree);
        assert_eq!(ObjWriter::new().finish(), "{}");
    }
}
