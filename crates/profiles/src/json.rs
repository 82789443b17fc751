//! Minimal JSON parser and profile loader.
//!
//! SparkER's loaders accept JSON datasets (one object per line). To keep the
//! workspace on the allowed dependency set, this is a small hand-rolled
//! recursive-descent parser covering the full JSON grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null).
//!
//! One grammar serves two consumers. [`parse_json`] builds a [`JsonValue`]
//! tree (request bodies, configurations, models). [`profiles_from_json_lines`]
//! builds each [`Profile`] straight from its line: string members stay
//! borrowed from the input until they become attribute values, and only
//! non-string members are parsed into a tree.
//!
//! Loading is not a negligible phase: on a 100k-profile file it used to take
//! longer than resolving the profiles. Its cost model is one linear pass over
//! the input — a string is scanned in runs between `"` and `\`, and is
//! borrowed from the input unless it contains an escape — plus one allocation
//! per attribute name and value. Nesting is capped at `MAX_DEPTH` (128)
//! arrays/objects, so hostile input ends in an error instead of a stack
//! overflow on any thread.

use crate::error::{Error, Result};
use crate::profile::{Profile, ProfileBuilder, SourceId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`) so
/// serialization and iteration are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value as attribute text: strings verbatim, scalars via
    /// `Display`, arrays/objects recursively space-joined. ER treats all
    /// values as text.
    pub fn to_text(&self) -> String {
        match self {
            JsonValue::Null => String::new(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(n) => format_number(*n),
            JsonValue::String(s) => s.clone(),
            JsonValue::Array(items) => items
                .iter()
                .map(JsonValue::to_text)
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(" "),
            JsonValue::Object(map) => map
                .values()
                .map(JsonValue::to_text)
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// [`JsonValue::to_text`], moving a string instead of copying it.
    fn into_text(self) -> String {
        match self {
            JsonValue::String(s) => s,
            other => other.to_text(),
        }
    }
}

impl ProfileBuilder {
    /// Append the attribute instances of the JSON member `name: value`: an
    /// array gives one instance per element, any other value one, each
    /// rendered as by [`JsonValue::to_text`]. Blank instances are dropped,
    /// as by [`ProfileBuilder::attr`]. The JSON-lines loader and the serve
    /// tier's request bodies both convert members through this one rule.
    pub fn json_attr(mut self, name: &str, value: JsonValue) -> Self {
        match value {
            JsonValue::Array(items) => {
                for item in items {
                    self = self.attr(name, item.into_text());
                }
                self
            }
            other => self.attr(name, other.into_text()),
        }
    }
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl fmt::Display for JsonValue {
    /// Serialize back to JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => write!(f, "{}", format_number(*n)),
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Deepest nesting of arrays and objects the parser accepts. Each level is
/// one recursive call, so the cap bounds stack use on any thread.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> Error {
        Error::Json {
            message: message.to_string(),
            offset: self.pos,
            line: None,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may follow the value just read.
    fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Open one array or object, refusing to pass [`MAX_DEPTH`].
    fn nest(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.members(|p, key| {
                    map.insert(key.into_owned(), p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Object(map))
            }
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Read an object, handing each member's key to `member`, which must
    /// consume the member's value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<()>,
    ) -> Result<()> {
        self.expect(b'{')?;
        self.nest()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        self.nest()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Read a string literal. The runs between escapes are copied whole; a
    /// string without escapes is borrowed from the input.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            // `"` and `\` are ASCII, so the run ends on a char boundary.
            self.pos += bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - run);
            let chunk = &text[run..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(mut s) => {
                            s.push_str(chunk);
                            Cow::Owned(s)
                        }
                    });
                }
                _ => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(chunk);
                    self.pos += 1;
                    s.push(self.escape()?);
                }
            }
        }
    }

    /// Decode the escape sequence after a backslash.
    fn escape(&mut self) -> Result<char> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // Surrogate pair handling for non-BMP chars.
                let code = if (0xD800..0xDC00).contains(&code) {
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    code
                };
                return char::from_u32(code).ok_or_else(|| self.err("bad codepoint"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let h = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + h;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Load profiles from JSON-lines text: one object per non-empty line; every
/// key becomes an attribute (arrays become one attribute per element), with
/// `id_key` (when present) used as the original id and the line's 0-based
/// index otherwise. Attributes come in key order; of duplicate keys the last
/// wins. A malformed line fails with its 1-based line number and the error's
/// byte offset within `text`.
pub fn profiles_from_json_lines(
    text: &str,
    source: SourceId,
    id_key: &str,
) -> Result<Vec<Profile>> {
    let mut profiles = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line_start = line.as_ptr() as usize - text.as_ptr() as usize;
        let profile = profile_from_line(line, index, source, id_key).map_err(|e| match e {
            Error::Json {
                message, offset, ..
            } => Error::Json {
                message,
                offset: line_start + offset,
                line: Some(index + 1),
            },
            other => other,
        })?;
        profiles.push(profile);
    }
    Ok(profiles)
}

/// A member value of a profile line: a string borrowed from the line, or
/// any other value as a tree.
enum Field<'a> {
    Text(Cow<'a, str>),
    Value(JsonValue),
}

/// Build the profile of the line at 0-based `index` without a tree of the
/// whole line.
fn profile_from_line(line: &str, index: usize, source: SourceId, id_key: &str) -> Result<Profile> {
    let mut p = Parser::new(line);
    p.skip_ws();
    if p.peek() != Some(b'{') {
        // A syntax error outranks "not an object".
        p.value()?;
        p.finish()?;
        return Err(Error::Json {
            message: format!("line {} is not a JSON object", index + 1),
            offset: 0,
            line: None,
        });
    }
    let mut fields: Vec<(Cow<str>, Field)> = Vec::new();
    p.members(|p, key| {
        let field = if p.peek() == Some(b'"') {
            Field::Text(p.string()?)
        } else {
            Field::Value(p.value()?)
        };
        fields.push((key, field));
        Ok(())
    })?;
    p.finish()?;
    // Key order, and the last of duplicate keys wins: what a map of the
    // line would hold. The sort is stable, so the swap moves the later
    // duplicate into the kept slot.
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    fields.dedup_by(|later, kept| {
        let duplicate = later.0 == kept.0;
        if duplicate {
            std::mem::swap(later, kept);
        }
        duplicate
    });
    let original_id = match fields.binary_search_by(|(key, _)| key.as_ref().cmp(id_key)) {
        Ok(at) => match fields.remove(at).1 {
            Field::Text(s) => s.into_owned(),
            Field::Value(v) => v.to_text(),
        },
        Err(_) => index.to_string(),
    };
    let mut b = Profile::builder(source, original_id);
    for (key, field) in fields {
        b = match field {
            Field::Text(s) => b.attr(key, s),
            Field::Value(v) => b.json_attr(&key, v),
        };
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse_json("-3.5e2").unwrap(), JsonValue::Number(-350.0));
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            JsonValue::String("hi".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        let JsonValue::Object(map) = &v else { panic!() };
        assert_eq!(map.len(), 2);
        let JsonValue::Array(items) = &map["a"] else {
            panic!()
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let input = r#""line\nbreak \"quoted\" tab\t back\\slash""#;
        let v = parse_json(input).unwrap();
        assert_eq!(
            v.as_str().unwrap(),
            "line\nbreak \"quoted\" tab\t back\\slash"
        );
        // Display re-escapes; reparsing gives the same value.
        assert_eq!(parse_json(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_incl_surrogates() {
        assert_eq!(parse_json(r#""é""#).unwrap().as_str().unwrap(), "é");
        assert_eq!(parse_json(r#""😀""#).unwrap().as_str().unwrap(), "😀");
        assert!(parse_json(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_json("{\"a\": }").unwrap_err();
        assert!(matches!(err, Error::Json { .. }));
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("12 34").is_err(), "trailing data");
        assert!(parse_json("").is_err());
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse_json(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        let JsonValue::Object(map) = v else { panic!() };
        assert_eq!(
            map["a"],
            JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)])
        );
    }

    #[test]
    fn display_serializes_sorted_keys() {
        let v = parse_json(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn to_text_flattens() {
        let v = parse_json(r#"{"authors":["A. One","B. Two"],"year":2017,"ok":true}"#).unwrap();
        assert_eq!(v.to_text(), "A. One B. Two true 2017");
        assert_eq!(JsonValue::Null.to_text(), "");
        assert_eq!(JsonValue::Number(2.5).to_text(), "2.5");
    }

    #[test]
    fn profiles_from_json_lines_basic() {
        let text = concat!(
            "{\"realId\":\"b1\",\"title\":\"Blast\",\"authors\":[\"Simonini\",\"Bergamaschi\"]}\n",
            "\n",
            "{\"title\":\"SparkER\",\"year\":2017}\n",
        );
        let ps = profiles_from_json_lines(text, SourceId(0), "realId").unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].original_id, "b1");
        let authors: Vec<&str> = ps[0].values_of("authors").collect();
        assert_eq!(authors, vec!["Simonini", "Bergamaschi"]);
        assert_eq!(
            ps[1].original_id, "2",
            "missing id falls back to line number"
        );
        assert_eq!(ps[1].value_of("year"), Some("2017"));
    }

    #[test]
    fn non_object_line_is_error() {
        let err =
            profiles_from_json_lines("{\"a\":\"x\"}\n[1,2]\n", SourceId(0), "id").unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error at line 2 (byte 10): line 2 is not a JSON object"
        );
        // A syntax error outranks "not an object".
        let err = profiles_from_json_lines("[1,\n", SourceId(0), "id").unwrap_err();
        assert!(err.to_string().contains("unexpected end of input"), "{err}");
        let err = profiles_from_json_lines("[1] x\n", SourceId(0), "id").unwrap_err();
        assert!(err.to_string().contains("trailing characters"), "{err}");
    }

    #[test]
    fn syntax_errors_name_the_line_and_the_file_offset() {
        let text = "{\"a\":\"x\"}\r\n\n{\"b\" \"y\"}\n";
        let Error::Json {
            message,
            offset,
            line,
        } = profiles_from_json_lines(text, SourceId(0), "id").unwrap_err()
        else {
            panic!("expected a JSON error")
        };
        assert_eq!(message, "expected ':'");
        assert_eq!(line, Some(3));
        assert_eq!(&text[offset..offset + 3], "\"y\"");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        // Far past the cap, on a spawned thread's default stack: an error,
        // not an abort.
        let deep = "[".repeat(1_000_000);
        let objects = format!("{{\"a\":{}", "{\"a\":".repeat(1_000_000));
        std::thread::Builder::new()
            .spawn(move || {
                assert!(parse_json(&deep).is_err());
                assert!(parse_json(&objects).is_err());
                let line = format!("{{\"a\":{deep}}}\n");
                assert!(profiles_from_json_lines(&line, SourceId(0), "id").is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut p = Parser::new(r#""plain ünïcode" "a\tb""#);
        assert!(matches!(
            p.string().unwrap(),
            Cow::Borrowed("plain ünïcode")
        ));
        p.skip_ws();
        assert_eq!(p.string().unwrap(), Cow::<str>::Owned("a\tb".to_string()));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(
            parse_json(r#""\u00e9\u00C9""#).unwrap().as_str(),
            Some("éÉ")
        );
        assert!(parse_json(r#""\u+0e9""#).is_err());
        assert!(parse_json(r#""\u00e""#).is_err());
        assert!(parse_json(r#""\udc00""#).is_err(), "lone low surrogate");
        assert!(
            parse_json(r#""\ud83d\u0041""#).is_err(),
            "bad low surrogate"
        );
    }

    #[test]
    fn duplicate_keys_keep_the_last_value_in_key_order() {
        let text = r#"{"b":"1","id":"x","a":"2","b":["3","4"],"a":null,"id":7}"#;
        let ps = profiles_from_json_lines(text, SourceId(0), "id").unwrap();
        assert_eq!(ps[0].original_id, "7");
        let attrs: Vec<(&str, &str)> = ps[0]
            .attributes
            .iter()
            .map(|a| (a.name.as_str(), a.value.as_str()))
            .collect();
        assert_eq!(attrs, vec![("b", "3"), ("b", "4")]);
    }

    #[test]
    fn json_attr_gives_one_instance_per_array_element() {
        let value = parse_json(r#"[" x ", 2.5, true, null, [1, "y"], {"k": "z"}]"#).unwrap();
        let p = Profile::builder(SourceId(0), "p")
            .json_attr("v", value)
            .json_attr("w", JsonValue::Number(3.0))
            .build();
        let values: Vec<&str> = p.attributes.iter().map(|a| a.value.as_str()).collect();
        assert_eq!(values, vec![" x ", "2.5", "true", "1 y", "z", "3"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(2.0), "2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(-0.0), "0");
    }
}
