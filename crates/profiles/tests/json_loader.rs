//! The JSON-lines loader against its tree-based oracle, and no-panic
//! properties of every text loader.
//!
//! `profiles_from_json_lines` builds each profile straight from its line.
//! The oracle below is the loader it replaced: parse the line into a
//! [`JsonValue`] map, then convert the map. On generated lines — escapes,
//! non-BMP characters, arrays, nested objects, numbers, booleans and null,
//! duplicate keys, missing and non-string ids, CRLF endings, blank lines —
//! and on mutations of them, both must agree: the same profiles, or both an
//! error. On the generated lines both must also equal the profiles the
//! generator meant, derived without parsing. Arbitrary bytes must end in
//! `Ok` or `Err` in the JSON and CSV loaders, never in a panic or an abort.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proptest::prelude::*;
use sparker_profiles::{
    parse_csv, parse_json, profiles_from_csv, profiles_from_json_lines, CsvOptions, JsonValue,
    Profile, SourceId,
};

/// The tree-based JSON-lines loader: one `JsonValue` per line, then every
/// member of the map becomes attribute instances.
fn oracle(text: &str, source: SourceId, id_key: &str) -> Result<Vec<Profile>, String> {
    let mut profiles = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json(line).map_err(|e| e.to_string())?;
        let JsonValue::Object(map) = value else {
            return Err(format!("line {} is not a JSON object", lineno + 1));
        };
        profiles.push(oracle_profile(&map, lineno, source, id_key));
    }
    Ok(profiles)
}

/// The oracle's conversion of one line's map.
fn oracle_profile(
    map: &BTreeMap<String, JsonValue>,
    lineno: usize,
    source: SourceId,
    id_key: &str,
) -> Profile {
    let original_id = map
        .get(id_key)
        .map(JsonValue::to_text)
        .unwrap_or_else(|| lineno.to_string());
    let mut b = Profile::builder(source, original_id);
    for (k, v) in map {
        if k == id_key {
            continue;
        }
        match v {
            JsonValue::Array(items) => {
                for item in items {
                    b = b.attr(k.clone(), item.to_text());
                }
            }
            other => {
                b = b.attr(k.clone(), other.to_text());
            }
        }
    }
    b.build()
}

/// The profiles generated lines stand for, derived without parsing: each
/// line's members inserted into a map in order, then converted as by the
/// oracle.
fn expected(lines: &[(Line, bool)]) -> Vec<Profile> {
    lines
        .iter()
        .enumerate()
        .filter_map(|(lineno, (line, _))| {
            let map: BTreeMap<String, JsonValue> = line.clone()?.into_iter().collect();
            Some(oracle_profile(&map, lineno, SourceId(1), "id"))
        })
        .collect()
}

/// Characters a generated string may hold: plain text, JSON
/// metacharacters, control characters, and multi-byte up to non-BMP.
fn text_char() -> impl Strategy<Value = char> {
    prop_oneof![
        "[a-z ]{1}".prop_map(|s| s.chars().next().unwrap()),
        "[A-Z0-9]{1}".prop_map(|s| s.chars().next().unwrap()),
        prop::sample::select(vec![
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{1}',
            '\u{1f}',
            '\u{7f}',
            ' ',
            'é',
            '中',
            '😀',
            '\u{10ffff}',
            '\u{fffd}',
            '\u{a0}',
        ]),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(text_char(), 0..10).prop_map(|cs| cs.into_iter().collect())
}

/// Member names: few enough to collide, including the id key, an empty
/// name and names that need escapes.
fn key() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "id", "id", "title", "name", "b", "é", "😀", "q\"t", "", " id",
    ])
    .prop_map(str::to_string)
}

fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1000i64..1000).prop_map(|n| n as f64),
        -1e6f64..1e6,
        prop::sample::select(vec![-0.0, 0.5, 1e300, -2.5e-8, 1e15, 123456789012345680.0]),
    ]
}

fn value() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        number().prop_map(JsonValue::Number),
        text().prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::btree_map(key(), inner, 0..3).prop_map(JsonValue::Object),
        ]
    })
}

/// Most members are strings, the loader's borrowed path.
fn member() -> impl Strategy<Value = (String, JsonValue)> {
    (
        key(),
        prop_oneof![
            text().prop_map(JsonValue::String),
            text().prop_map(JsonValue::String),
            value(),
        ],
    )
}

/// One generated line: `None` is a blank line; members are written in
/// order, duplicates included.
type Line = Option<Vec<(String, JsonValue)>>;

fn lines() -> impl Strategy<Value = Vec<(Line, bool)>> {
    let line = (0u8..6, prop::collection::vec(member(), 0..6))
        .prop_map(|(kind, members)| (kind > 0).then_some(members));
    prop::collection::vec((line, any::<bool>()), 0..8)
}

/// JSON text for generated lines. `salt` varies the spelling — escape
/// styles, hex case, number notation, whitespace — without changing the
/// value.
struct Writer {
    out: String,
    salt: u32,
}

impl Writer {
    fn tick(&mut self) -> u32 {
        self.salt = self.salt.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        self.salt >> 16
    }

    fn ws(&mut self) {
        match self.tick() % 4 {
            0 => self.out.push(' '),
            1 => self.out.push_str(" \t "),
            _ => {}
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            let style = self.tick() % 3;
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' | '/' if style == 1 => {
                    self.out.push_str(if c == '\t' { "\\t" } else { "\\/" })
                }
                c if style == 0 || (c < ' ' && style == 1) => {
                    // A \u escape; past the BMP, a surrogate pair.
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if self.salt & 1 == 0 {
                            write!(self.out, "\\u{unit:04x}").unwrap();
                        } else {
                            write!(self.out, "\\u{unit:04X}").unwrap();
                        }
                    }
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn value(&mut self, v: &JsonValue) {
        match v {
            JsonValue::Null => self.out.push_str("null"),
            JsonValue::Bool(b) => write!(self.out, "{b}").unwrap(),
            JsonValue::Number(n) if self.tick().is_multiple_of(2) => {
                write!(self.out, "{n}").unwrap()
            }
            JsonValue::Number(n) => write!(self.out, "{n:e}").unwrap(),
            JsonValue::String(s) => self.string(s),
            JsonValue::Array(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.value(item);
                    self.ws();
                }
                self.out.push(']');
            }
            JsonValue::Object(map) => self.members(map.iter()),
        }
    }

    fn members<'a>(&mut self, members: impl Iterator<Item = (&'a String, &'a JsonValue)>) {
        self.out.push('{');
        for (i, (k, v)) in members.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.ws();
            self.string(k);
            self.ws();
            self.out.push(':');
            self.ws();
            self.value(v);
            self.ws();
        }
        self.out.push('}');
    }
}

fn jsonl(lines: &[(Line, bool)], salt: u32) -> String {
    let mut w = Writer {
        out: String::new(),
        salt,
    };
    for (line, crlf) in lines {
        match line {
            None => w.ws(),
            Some(members) => {
                w.ws();
                w.members(members.iter().map(|(k, v)| (k, v)));
                w.ws();
            }
        }
        w.out.push_str(if *crlf { "\r\n" } else { "\n" });
    }
    w.out
}

/// Byte-level damage to a valid file.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(f64),
    Insert(f64, &'static str),
    Delete(f64, usize),
    Nest(f64, &'static str, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let at = 0.0f64..1.0;
    prop_oneof![
        at.clone().prop_map(Mutation::Truncate),
        (
            at.clone(),
            prop::sample::select(vec![
                "\"",
                "\\",
                "\\u",
                "\\uZZZZ",
                "\\u+041",
                "\\ud800",
                "\\udc00",
                "\\ud83d\\u0041",
                "\\ud83d\\ude00",
                "\\u00",
                "\\x",
                "{",
                "}",
                "[",
                "]",
                ",",
                ":",
                "\n",
                "\r\n",
                "é",
                "😀",
                "-",
                "1e",
                "tru",
                "nul",
            ])
        )
            .prop_map(|(at, s)| Mutation::Insert(at, s)),
        (at.clone(), 1usize..4).prop_map(|(at, n)| Mutation::Delete(at, n)),
        (
            at,
            prop::sample::select(vec!["[", "{\"a\":"]),
            prop::sample::select(vec![126usize, 127, 128, 129, 1_000, 100_000]),
        )
            .prop_map(|(at, open, depth)| Mutation::Nest(at, open, depth)),
    ]
}

fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for m in mutations {
        let pos = |at: f64, len: usize| ((at * len as f64) as usize).min(len);
        match *m {
            Mutation::Truncate(at) => bytes.truncate(pos(at, bytes.len())),
            Mutation::Insert(at, s) => {
                let p = pos(at, bytes.len());
                bytes.splice(p..p, s.bytes());
            }
            Mutation::Delete(at, n) => {
                let p = pos(at, bytes.len());
                bytes.drain(p..(p + n).min(bytes.len()));
            }
            Mutation::Nest(at, open, depth) => {
                let p = pos(at, bytes.len());
                bytes.splice(p..p, open.repeat(depth).into_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Soup of JSON and CSV metacharacters, so random inputs get past the
/// first byte.
fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(b"{}[]\":,\\u0123456789abcdefnul tr-.eE\n\r\t\"x;".to_vec()),
        0..120,
    )
    .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn arbitrary_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..200)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn assert_agrees_with_oracle(text: &str) -> Result<bool, TestCaseError> {
    let new = profiles_from_json_lines(text, SourceId(1), "id");
    let old = oracle(text, SourceId(1), "id");
    match (new, old) {
        (Ok(new), Ok(old)) => {
            prop_assert_eq!(new, old);
            Ok(true)
        }
        (Err(_), Err(_)) => Ok(false),
        (new, old) => Err(TestCaseError::fail(format!(
            "loader {new:?} vs oracle {old:?} on {text:?}"
        ))),
    }
}

fn assert_csv_loaders_return(text: &str) {
    for separator in [',', ';'] {
        let _ = parse_csv(text, separator);
    }
    let _ = profiles_from_csv(text, SourceId(0), &CsvOptions::default());
    let headerless = CsvOptions {
        has_header: false,
        id_column: None,
        ..CsvOptions::default()
    };
    let _ = profiles_from_csv(text, SourceId(0), &headerless);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn loader_equals_the_tree_oracle_on_valid_lines(lines in lines(), salt in any::<u32>()) {
        let text = jsonl(&lines, salt);
        prop_assert!(assert_agrees_with_oracle(&text)?, "generated input must load: {text:?}");
        prop_assert_eq!(
            profiles_from_json_lines(&text, SourceId(1), "id").unwrap(),
            expected(&lines)
        );
        // Without the final newline, too.
        let trimmed = text.trim_end_matches(['\r', '\n']);
        prop_assert!(assert_agrees_with_oracle(trimmed)?);
    }

    #[test]
    fn loader_equals_the_tree_oracle_on_mutated_lines(
        lines in lines(),
        salt in any::<u32>(),
        mutations in prop::collection::vec(mutation(), 1..4),
    ) {
        let text = mutate(&jsonl(&lines, salt), &mutations);
        assert_agrees_with_oracle(&text)?;
    }

    #[test]
    fn json_entry_points_never_panic(
        soup in soup(),
        bytes in arbitrary_bytes(),
        lines in lines(),
        mutations in prop::collection::vec(mutation(), 1..4),
    ) {
        let mutated = mutate(&jsonl(&lines, 7), &mutations);
        for text in [&soup, &bytes, &mutated] {
            let _ = parse_json(text);
            let _ = profiles_from_json_lines(text, SourceId(0), "id");
        }
    }

    #[test]
    fn csv_loaders_never_panic(soup in soup(), bytes in arbitrary_bytes(), cut in 0.0f64..1.0) {
        let valid = "id,name,price\r\na1,\"sony, \"\"bravia\"\"\",699\nb2,é 😀,\n";
        let cut = valid
            .char_indices()
            .map(|(i, _)| i)
            .nth((cut * valid.chars().count() as f64) as usize)
            .unwrap_or(valid.len());
        for text in [&soup, &bytes, &valid[..cut], &format!("{}{soup}", &valid[..cut])] {
            assert_csv_loaders_return(text);
        }
    }
}
