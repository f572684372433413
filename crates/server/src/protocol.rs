//! The rex-server wire protocol: a line-oriented text codec.
//!
//! Every request is one line (`\n`-terminated); multi-row payloads
//! (`BATCH`, `SCRIPT`) announce a line count up front and stream that
//! many following lines. Responses are `OK …` / `ERR …` status lines;
//! multi-line response bodies (query rows, stats) end with a lone `.`
//! terminator line, SMTP-style. The full grammar lives in
//! `docs/SERVER.md`.
//!
//! Values travel in a *typed* encoding so a row round-trips exactly —
//! `i:42`, `d:2.5`, `s:hello`, `b:true`, `n`, `l:[i:1,i:2]` — with
//! backslash escapes for every structural byte that may occur inside a
//! string. Fields are tab-separated; `INSERT` packs multiple rows on one
//! line with `;` separators.

use rex_core::error::{Result, RexError};
use rex_core::tuple::Tuple;
use rex_core::value::Value;
use std::fmt::Write as _;

/// The longest request line the server reads, in bytes, newline
/// included. The largest line the server tests, the examples and
/// `rexbench --quick` send is 238 bytes, so 1 MiB leaves wide headroom
/// while bounding what one client can make the server buffer. A longer
/// line is discarded through its newline and answered with
/// [`oversize_line`]; inside `BATCH`/`SCRIPT` it fails the whole command
/// as that line's decode error, after every announced line was read.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The reply to a request line longer than [`MAX_LINE_BYTES`].
pub fn oversize_line() -> String {
    format!("ERR line exceeds {MAX_LINE_BYTES} bytes")
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `HELLO [client-name]` — handshake; the server answers its identity
    /// and the current snapshot version.
    Hello(Option<String>),
    /// `QUERY <rql>` — run a read-only query against the current
    /// published snapshot.
    Query(String),
    /// `INSERT <table> <row>[;<row>]*` — one-line write through the
    /// writer thread.
    Insert { table: String, rows: Vec<Tuple> },
    /// `BATCH <table> <n>` — header for a streamed batch: `n` row lines
    /// follow, then the whole batch goes through the writer as one
    /// streamed ingest.
    Batch { table: String, count: usize },
    /// `SCRIPT <n>` — header for a multi-statement script: `n` statement
    /// lines follow; they run serialized on the writer's session (the
    /// write side also accepts DDL this way).
    Script { count: usize },
    /// `STATS` — server counters plus the published snapshot's report.
    Stats,
    /// `METRICS` — the same counters in Prometheus text exposition.
    Metrics,
    /// `QUIT` — close this connection.
    Quit,
    /// `SHUTDOWN` — begin graceful server shutdown (what SIGTERM does).
    Shutdown,
}

/// Parse one request line (without its trailing newline).
///
/// Only the line terminator and the spaces after the verb (and after an
/// `INSERT`'s table name) are stripped: an `INSERT` row is taken as it
/// stands, so a string that ends in whitespace arrives whole, as it does
/// through `BATCH`.
pub fn parse_command(line: &str) -> Result<Command> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, raw) = line.split_once(' ').unwrap_or((line, ""));
    let raw = raw.trim_start_matches(' ');
    let rest = raw.trim();
    match verb.trim().to_ascii_uppercase().as_str() {
        "HELLO" => Ok(Command::Hello((!rest.is_empty()).then(|| rest.to_string()))),
        "QUERY" if !rest.is_empty() => Ok(Command::Query(rest.to_string())),
        "QUERY" => Err(proto("QUERY needs an RQL statement")),
        "INSERT" => {
            let (table, body) = raw
                .split_once(' ')
                .map(|(t, b)| (t, b.trim_start_matches(' ')))
                .filter(|(_, b)| !b.is_empty())
                .ok_or_else(|| proto("INSERT needs a table name and at least one row"))?;
            let mut scratch = Vec::new();
            let rows = split_unescaped(body, b';')
                .into_iter()
                .map(|r| decode_row_with(r, &mut scratch))
                .collect::<Result<Vec<_>>>()?;
            Ok(Command::Insert { table: table.to_string(), rows })
        }
        "BATCH" => {
            let (table, n) =
                rest.split_once(' ').ok_or_else(|| proto("BATCH needs a table and a row count"))?;
            let count =
                n.trim().parse().map_err(|_| proto(&format!("bad BATCH row count: {n}")))?;
            Ok(Command::Batch { table: table.to_string(), count })
        }
        "SCRIPT" => {
            let count =
                rest.parse().map_err(|_| proto(&format!("bad SCRIPT statement count: {rest}")))?;
            Ok(Command::Script { count })
        }
        "STATS" => Ok(Command::Stats),
        "METRICS" => Ok(Command::Metrics),
        "QUIT" => Ok(Command::Quit),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(proto(&format!(
            "unknown command {other:?} \
             (expected HELLO/QUERY/INSERT/BATCH/SCRIPT/STATS/METRICS/QUIT)"
        ))),
    }
}

fn proto(msg: &str) -> RexError {
    RexError::Parse { line: 0, col: 0, message: format!("protocol: {msg}") }
}

// ---- value & row codec ---------------------------------------------------

/// The escape letter of a character that must be escaped inside an
/// encoded string: the field, row, list, and line separators of the
/// protocol, plus the escape itself. All of them are ASCII.
fn escape_of(c: char) -> Option<char> {
    match c {
        '\\' => Some('\\'),
        '\t' => Some('t'),
        '\n' => Some('n'),
        '\r' => Some('r'),
        ';' | ',' | '[' | ']' => Some(c),
        _ => None,
    }
}

/// The inverse of [`escape_of`].
fn unescape_of(e: char) -> Option<char> {
    match e {
        '\\' => Some('\\'),
        't' => Some('\t'),
        'n' => Some('\n'),
        'r' => Some('\r'),
        ';' | ',' | '[' | ']' => Some(e),
        _ => None,
    }
}

fn escape_into(s: &str, out: &mut String) {
    if !s.bytes().any(|b| escape_of(char::from(b)).is_some()) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match escape_of(c) {
            Some(e) => {
                out.push('\\');
                out.push(e);
            }
            None => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Result<String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let e = chars.next().ok_or_else(|| proto("dangling escape at end of string"))?;
        out.push(unescape_of(e).ok_or_else(|| proto(&format!("unknown escape \\{e}")))?);
    }
    Ok(out)
}

/// Encode one value in the typed wire form.
pub fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('n'),
        Value::Bool(b) => out.push_str(if *b { "b:true" } else { "b:false" }),
        Value::Int(i) => {
            out.push_str("i:");
            if *i < 0 {
                out.push('-');
            }
            push_digits(i.unsigned_abs(), out);
        }
        Value::Double(d) => {
            out.push_str("d:");
            push_double(*d, out);
        }
        Value::Str(s) => {
            out.push_str("s:");
            escape_into(s, out);
        }
        Value::List(items) => {
            out.push_str("l:[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_value(item, out);
            }
            out.push(']');
        }
    }
}

/// Append the decimal digits of `n`.
fn push_digits(mut n: u64, out: &mut String) {
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
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// 2^53: below it every integral double is an integer whose digits are
/// its shortest round-trip form.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Append `d` as Rust's `{}` prints it: the shortest decimal that parses
/// back to the same bits, so doubles round-trip exactly. An integral
/// value below 2^53 in magnitude is written digit by digit, since its
/// digits are that shortest form; every other double, ±0.0, NaN and ±inf
/// among them, goes through the formatter.
fn push_double(d: f64, out: &mut String) {
    let a = d.abs();
    if a > 0.0 && a < EXACT_INT && a.fract() == 0.0 {
        if d < 0.0 {
            out.push('-');
        }
        push_digits(a as u64, out);
    } else {
        let _ = write!(out, "{d}");
    }
}

/// Decode one value from the typed wire form.
pub fn decode_value(s: &str) -> Result<Value> {
    if s == "n" {
        return Ok(Value::Null);
    }
    let (tag, body) =
        s.split_once(':').ok_or_else(|| proto(&format!("bad value encoding: {s:?}")))?;
    match tag {
        "b" => match body {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(proto(&format!("bad boolean: {body:?}"))),
        },
        "i" => body
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| proto(&format!("bad integer: {body:?}"))),
        "d" => body
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| proto(&format!("bad double: {body:?}"))),
        "s" => Ok(Value::str(unescape(body)?)),
        "l" => {
            let inner = body
                .strip_prefix('[')
                .and_then(|b| b.strip_suffix(']'))
                .ok_or_else(|| proto(&format!("bad list encoding: {body:?}")))?;
            if inner.is_empty() {
                return Ok(Value::list(Vec::new()));
            }
            let items = split_unescaped(inner, b',')
                .into_iter()
                .map(decode_value)
                .collect::<Result<Vec<_>>>()?;
            Ok(Value::list(items))
        }
        other => Err(proto(&format!("unknown value tag {other:?}"))),
    }
}

/// Encode a whole row: tab-separated typed values.
pub fn encode_row(t: &Tuple) -> String {
    let mut out = String::new();
    encode_row_into(t, &mut out);
    out
}

/// Append a row's encoding to `out` (no line terminator): the reply
/// path writes every row straight into one buffer.
pub fn encode_row_into(t: &Tuple, out: &mut String) {
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        encode_value(v, out);
    }
}

/// Decode a row line into a [`Tuple`]. The empty string is the 0-ary row.
pub fn decode_row(line: &str) -> Result<Tuple> {
    decode_row_with(line, &mut Vec::new())
}

/// [`decode_row`] through a caller-owned scratch buffer, so a reader of
/// many rows allocates one tuple per row and nothing else.
pub fn decode_row_with(line: &str, scratch: &mut Vec<Value>) -> Result<Tuple> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(Tuple::empty());
    }
    scratch.clear();
    for field in line.split('\t') {
        scratch.push(decode_value(field)?);
    }
    let row = Tuple::from_slice(scratch);
    scratch.clear();
    Ok(row)
}

/// Split on a separator, honoring backslash escapes (a `\;` inside a
/// string does not split). List nesting is flat because `[`/`]`/`,` are
/// escaped inside strings, so bracket depth tracking suffices. The parts
/// borrow from `s`.
fn split_unescaped(s: &str, sep: u8) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut escaped = false;
    let mut depth = 0usize;
    for (i, b) in s.bytes().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' => escaped = true,
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b if b == sep && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Flatten an error into a single `ERR` status line (newlines collapsed
/// so the line framing survives any message).
pub fn err_line(e: &RexError) -> String {
    format!("ERR {}", e.to_string().replace('\n', "; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;

    #[test]
    fn values_round_trip_exactly() {
        let gnarly = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(0.1 + 0.2),
            Value::Double(f64::NAN),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(-0.0),
            Value::str(""),
            Value::str("tabs\tsemis;commas,brackets[]\\back\nnewline\rcr"),
            Value::str("plain"),
            Value::list(vec![]),
            Value::list(vec![Value::Int(1), Value::str("a;b"), Value::list(vec![Value::Null])]),
        ];
        for v in &gnarly {
            let mut enc = String::new();
            encode_value(v, &mut enc);
            let back = decode_value(&enc).unwrap();
            // Value's total equality: NaN == NaN here.
            assert_eq!(&back, v, "through {enc:?}");
        }
    }

    #[test]
    fn rows_round_trip_and_reject_garbage() {
        let t = tuple![1i64, 2.5f64, "x;y\tz"];
        assert_eq!(decode_row(&encode_row(&t)).unwrap(), t);
        assert_eq!(decode_row("").unwrap(), Tuple::empty());
        assert!(decode_row("i:notanint").is_err());
        assert!(decode_row("q:wat").is_err());
        assert!(decode_value("s:dangling\\").is_err());
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_command("HELLO"), Ok(Command::Hello(None)));
        assert_eq!(parse_command("hello bench-1"), Ok(Command::Hello(Some("bench-1".into()))));
        assert_eq!(
            parse_command("QUERY SELECT * FROM t WHERE x > 1"),
            Ok(Command::Query("SELECT * FROM t WHERE x > 1".into()))
        );
        assert_eq!(
            parse_command("INSERT edges i:1\ti:2;i:3\ti:4"),
            Ok(Command::Insert {
                table: "edges".into(),
                rows: vec![tuple![1i64, 2i64], tuple![3i64, 4i64]],
            })
        );
        assert_eq!(
            parse_command("BATCH edges 128"),
            Ok(Command::Batch { table: "edges".into(), count: 128 })
        );
        assert_eq!(parse_command("SCRIPT 3"), Ok(Command::Script { count: 3 }));
        assert_eq!(parse_command("STATS"), Ok(Command::Stats));
        assert_eq!(parse_command("metrics"), Ok(Command::Metrics));
        assert_eq!(parse_command("QUIT"), Ok(Command::Quit));
        assert_eq!(parse_command("SHUTDOWN"), Ok(Command::Shutdown));
        for bad in ["", "QUERY", "INSERT t", "INSERT t  ", "BATCH t x", "SCRIPT many", "NOPE 1"] {
            assert!(parse_command(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn insert_keeps_a_last_string_s_trailing_whitespace() {
        for tail in [" ", "  ", "\u{3000}"] {
            let cmd = parse_command(&format!("INSERT  t  i:1\ts:abc{tail}\r\n")).unwrap();
            let Command::Insert { table, rows } = cmd else { panic!() };
            assert_eq!(table, "t");
            assert_eq!(rows, vec![tuple![1i64, format!("abc{tail}")]], "{tail:?}");
        }
    }

    #[test]
    fn insert_rows_with_escaped_separators_stay_whole() {
        let mut enc = String::new();
        encode_value(&Value::str("a;b"), &mut enc);
        let cmd = parse_command(&format!("INSERT t {enc}")).unwrap();
        let Command::Insert { rows, .. } = cmd else { panic!() };
        assert_eq!(rows, vec![tuple!["a;b"]]);
    }
}
