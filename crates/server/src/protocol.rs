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
pub fn parse_command(line: &str) -> Result<Command> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (line.trim(), ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "HELLO" => Ok(Command::Hello((!rest.is_empty()).then(|| rest.to_string()))),
        "QUERY" if !rest.is_empty() => Ok(Command::Query(rest.to_string())),
        "QUERY" => Err(proto("QUERY needs an RQL statement")),
        "INSERT" => {
            let (table, body) = rest
                .split_once(' ')
                .ok_or_else(|| proto("INSERT needs a table name and at least one row"))?;
            let rows = split_unescaped(body.trim(), ';')
                .into_iter()
                .map(|r| decode_row(&r))
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

/// Bytes that must be escaped inside an encoded string: the field, row,
/// list, and line separators of the protocol, plus the escape itself.
const ESCAPED: &[(char, char)] = &[
    ('\\', '\\'),
    ('\t', 't'),
    ('\n', 'n'),
    ('\r', 'r'),
    (';', ';'),
    (',', ','),
    ('[', '['),
    (']', ']'),
];

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match ESCAPED.iter().find(|(raw, _)| *raw == c) {
            Some((_, enc)) => {
                out.push('\\');
                out.push(*enc);
            }
            None => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let e = chars.next().ok_or_else(|| proto("dangling escape at end of string"))?;
        match ESCAPED.iter().find(|(_, enc)| *enc == e) {
            Some((raw, _)) => out.push(*raw),
            None => return Err(proto(&format!("unknown escape \\{e}"))),
        }
    }
    Ok(out)
}

/// Encode one value in the typed wire form.
pub fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('n'),
        Value::Bool(b) => {
            let _ = write!(out, "b:{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "i:{i}");
        }
        // Rust's `{}` for f64 prints the shortest string that parses back
        // to the same bits, so doubles round-trip exactly.
        Value::Double(d) => {
            let _ = write!(out, "d:{d}");
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
            let items = split_unescaped(inner, ',')
                .into_iter()
                .map(|e| decode_value(&e))
                .collect::<Result<Vec<_>>>()?;
            Ok(Value::list(items))
        }
        other => Err(proto(&format!("unknown value tag {other:?}"))),
    }
}

/// Encode a whole row: tab-separated typed values.
pub fn encode_row(t: &Tuple) -> String {
    let mut out = String::new();
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        encode_value(v, &mut out);
    }
    out
}

/// Decode a row line into a [`Tuple`]. The empty string is the 0-ary row.
pub fn decode_row(line: &str) -> Result<Tuple> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(Tuple::empty());
    }
    let values = line.split('\t').map(decode_value).collect::<Result<Vec<_>>>()?;
    Ok(Tuple::new(values))
}

/// Split on a separator, honoring backslash escapes (a `\;` inside a
/// string does not split). List nesting is flat because `[`/`]`/`,` are
/// escaped inside strings, so bracket depth tracking suffices.
fn split_unescaped(s: &str, sep: char) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut escaped = false;
    let mut depth = 0usize;
    for c in s.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' => {
                cur.push(c);
                escaped = true;
            }
            '[' => {
                cur.push(c);
                depth += 1;
            }
            ']' => {
                cur.push(c);
                depth = depth.saturating_sub(1);
            }
            c if c == sep && depth == 0 => parts.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    parts.push(cur);
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
        for bad in ["", "QUERY", "INSERT t", "BATCH t x", "SCRIPT many", "NOPE 1"] {
            assert!(parse_command(bad).is_err(), "{bad:?}");
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
