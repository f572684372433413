//! Seeded fuzz of the row codec: the hand-rolled encoder must emit exactly
//! the bytes of the plain `write!`-based encoder it replaced, and every
//! encoded row must decode back to itself.

use rex::data::rng::StdRng;
use rex_core::tuple::Tuple;
use rex_core::value::Value;
use rex_server::protocol::{decode_row, encode_row, encode_row_into};
use std::fmt::Write as _;

/// Values drawn over the whole run; at least a million.
const VALUES: usize = 1_000_000;

/// The encoder the wire format was defined by: `{}` for every number.
fn reference_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('n'),
        Value::Bool(b) => write!(out, "b:{b}").unwrap(),
        Value::Int(i) => write!(out, "i:{i}").unwrap(),
        Value::Double(d) => write!(out, "d:{d}").unwrap(),
        Value::Str(s) => {
            out.push_str("s:");
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    ';' | ',' | '[' | ']' => {
                        out.push('\\');
                        out.push(c);
                    }
                    c => out.push(c),
                }
            }
        }
        Value::List(items) => {
            out.push_str("l:[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_value(item, out);
            }
            out.push(']');
        }
    }
}

fn reference_row(t: &Tuple, out: &mut String) {
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        reference_value(v, out);
    }
}

/// A multiple of `1 / unit` below 2^20 times a power of two drawn from
/// `lo..=hi`: exact, and a multiple of `1 / unit` whenever the power is.
fn scaled(rng: &mut StdRng, unit: f64, lo: i64, hi: i64) -> f64 {
    let x = rng.gen_range(1..=(1i64 << 20)) as f64 / unit;
    x * 2f64.powi(rng.gen_range(lo..=hi) as i32)
}

fn sign(rng: &mut StdRng, x: f64) -> f64 {
    if rng.next_u64() & 1 == 0 {
        x
    } else {
        -x
    }
}

fn double(rng: &mut StdRng) -> f64 {
    let two53 = (1i64 << 53) as f64;
    // Weights out of 80. Arbitrary bit patterns and subnormals print as
    // hundreds of digits, so they are drawn rarely enough to keep the run
    // short in a debug build.
    let x = match rng.gen_range(0..80usize) {
        // Any bit pattern: huge and tiny exponents, NaN payloads.
        0 => f64::from_bits(rng.next_u64()),
        // Subnormals.
        1 => f64::from_bits(rng.next_u64() >> 12),
        // Integral doubles at and around 2^53 ...
        2..=11 => two53 + rng.gen_range(-4096..=4096) as f64,
        // ... and from well below it to far above it, where the exact
        // digits stop being the shortest form.
        12..=25 => scaled(rng, 1.0, 0, 80),
        // Dyadic fractions, which share the integral values' magnitudes
        // but not their digit-by-digit path: around 1e11 ...
        26..=37 => 1e11 + rng.gen_range(-100_000..=100_000) as f64 / 16.0,
        // ... and at every magnitude from 1/16 to 2^60.
        38..=53 => scaled(rng, 16.0, 0, 40),
        // Small dyadics like the served tables hold.
        54..=65 => rng.gen_range(0..=16_000) as f64 / 16.0,
        // Ordinary non-dyadic fractions.
        66..=77 => rng.gen_range(-1e6..1e6),
        _ => *[0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON]
            .get(rng.gen_range(0..6usize))
            .unwrap(),
    };
    // NaN has one wire spelling and decodes as the canonical NaN, so a
    // drawn NaN is replaced by it (the edge cases encode payload NaNs).
    Some(sign(rng, x)).filter(|d| !d.is_nan()).unwrap_or(f64::NAN)
}

/// Every byte the codec escapes, the whitespace a line parser might trim,
/// and a few multi-byte characters.
const ALPHABET: &[char] =
    &['\\', '\t', '\n', '\r', ';', ',', '[', ']', ' ', 'a', 'Z', '0', ':', 'é', '\u{3000}', '🦀'];

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..8usize);
    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

fn value(rng: &mut StdRng, depth: usize, count: &mut usize) -> Value {
    *count += 1;
    match rng.gen_range(0..if depth < 3 { 8usize } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 0),
        2 => Value::Int(match rng.gen_range(0..4usize) {
            0 => *[i64::MIN, i64::MAX, 0, -1].get(rng.gen_range(0..4usize)).unwrap(),
            1 => rng.gen_range(-1000..=1000),
            _ => rng.next_u64() as i64 >> rng.gen_range(0..64usize),
        }),
        3..=5 => Value::Double(double(rng)),
        6 => Value::str(string(rng)),
        _ => {
            let len = rng.gen_range(0..4usize);
            Value::list((0..len).map(|_| value(rng, depth + 1, count)).collect())
        }
    }
}

/// Draw rows until `values` values were drawn; assert both properties on
/// each. Returns the number of rows.
fn fuzz(seed: u64, values: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut count = 0usize;
    let (mut line, mut want) = (String::new(), String::new());
    let mut rows = 0usize;
    while count < values {
        let arity = rng.gen_range(0..17usize);
        let t = Tuple::new((0..arity).map(|_| value(&mut rng, 0, &mut count)).collect());
        line.clear();
        encode_row_into(&t, &mut line);
        want.clear();
        reference_row(&t, &mut want);
        assert_eq!(line, want, "encoding of {t:?}");
        let back = decode_row(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(back, t, "through {line:?}");
        rows += 1;
    }
    rows
}

#[test]
fn encoder_matches_the_formatter_and_rows_round_trip() {
    // Two halves on two threads keep the debug-build run short.
    let rows: usize = std::thread::scope(|s| {
        let halves: Vec<_> =
            [0x5EED_C0DE, 0xC0DE_5EED].map(|seed| s.spawn(move || fuzz(seed, VALUES / 2))).into();
        halves.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(rows > 100_000, "{rows} rows");
}

#[test]
fn edge_doubles_encode_like_the_formatter() {
    let two53 = (1i64 << 53) as f64;
    for d in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        -(two53 - 1.0),
        1e11 - 0.0625,
        1e11,
        1e11 + 0.0625,
        2f64.powi(60),
        2f64.powi(60) + 2f64.powi(8),
        1e15 + 0.125,
        0.0625,
        -0.5,
        5e-324,
        f64::MIN_POSITIVE / 2.0,
    ] {
        let t = Tuple::new(vec![Value::Double(d)]);
        let mut want = String::new();
        reference_row(&t, &mut want);
        assert_eq!(encode_row(&t), want, "{d:e}");
    }
}
