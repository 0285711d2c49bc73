//! Property test for the workspace's one JSON writer and reader:
//! every generated [`Value`] tree survives `parse(render(v)) == v`, and
//! rendering is idempotent (`render(parse(render(v))) == render(v)`),
//! which also pins what value equality cannot see, such as the sign of
//! `-0.0` and the kind of a number.
//!
//! Trees nest arrays and objects (arrays of objects directly under the
//! root take the writer's one-object-per-line layout). Strings mix
//! quotes, backslashes, every control character and non-ASCII text;
//! integers hit the `u64`/`i64` extremes; floats are finite and
//! include `-0.0`, subnormals and magnitudes up to `f64::MAX`.

use adsim_stats::rng::cases;
use adsim_stats::Rng64;
use adsim_trace::json::{parse, render, Value};

const CASES: u64 = 10_000;

/// Characters a generated string draws from besides random ASCII.
const AWKWARD: [char; 14] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '中', '😀', '\u{2028}',
    '\u{fffd}',
];

fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
    items[rng.range_usize(0, items.len())]
}

fn string(rng: &mut Rng64) -> String {
    (0..rng.range_usize(0, 12))
        .map(|_| match rng.range_usize(0, 4) {
            0 => pick(rng, &AWKWARD),
            // Any control character, escaped as \n, \t, ... or \u00XX.
            1 => char::from(rng.range_usize(0, 0x20) as u8),
            _ => char::from(rng.range_usize(0x20, 0x7f) as u8),
        })
        .collect()
}

fn int(rng: &mut Rng64) -> i128 {
    const EXTREMES: [i128; 8] = [
        0,
        -1,
        u64::MAX as i128,
        u64::MAX as i128 - 1,
        i64::MAX as i128,
        i64::MIN as i128,
        i64::MIN as i128 + 1,
        u32::MAX as i128 + 1,
    ];
    match rng.range_usize(0, 3) {
        0 => pick(rng, &EXTREMES),
        1 => rng.next_u64() as i128,
        _ => rng.next_u64() as i64 as i128,
    }
}

fn float(rng: &mut Rng64) -> f64 {
    const SPECIAL: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        1e16,
        0.1,
    ];
    match rng.range_usize(0, 4) {
        0 => pick(rng, &SPECIAL),
        // Every finite bit pattern, subnormals included.
        1 => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
        // Integral floats render with a fraction (`3.0`) or an
        // exponent (`1e17`) and must come back as floats.
        2 => rng.range_usize(0, 1 << 20) as f64 * pick(rng, &[1.0, -1.0, 1e17]),
        _ => rng.range_f64(-1e6, 1e6),
    }
}

fn value(rng: &mut Rng64, depth: usize) -> Value {
    let leaf_only = depth >= 4;
    match rng.range_usize(0, if leaf_only { 6 } else { 9 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(int(rng)),
        3 => Value::Num(float(rng)),
        4 | 5 => Value::Str(string(rng)),
        6 => Value::Arr((0..rng.range_usize(0, 5)).map(|_| value(rng, depth + 1)).collect()),
        // Arrays of objects: the writer's row layout under the root.
        7 => Value::Arr((0..rng.range_usize(0, 4)).map(|_| object(rng, depth + 1)).collect()),
        _ => object(rng, depth + 1),
    }
}

fn object(rng: &mut Rng64, depth: usize) -> Value {
    Value::Obj((0..rng.range_usize(0, 5)).map(|_| (string(rng), value(rng, depth))).collect())
}

/// Kind-and-bits equality: [`Value`]'s `==` compares numbers by value,
/// so it cannot tell `-0.0` from `0.0` or `1` from `1.0`.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((ka, a), (kb, b))| ka == kb && same(a, b))
        }
        (Value::Int(_), _) | (Value::Num(_), _) | (_, Value::Int(_)) | (_, Value::Num(_)) => false,
        _ => a == b,
    }
}

#[test]
fn render_then_parse_returns_the_tree_on_random_trees() {
    cases(CASES, |rng| {
        let v = value(rng, 0);
        let text = render(&v);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        assert_eq!(back, v, "{text}");
        assert!(same(&back, &v), "number kind or bits changed: {text}");
        assert_eq!(render(&back), text, "rendering is not idempotent");
    });
}

#[test]
fn generator_reaches_every_shape() {
    // A vacuous generator would pass the property above trivially.
    let (mut rows, mut neg_zero, mut subnormal, mut extreme, mut control) = (0, 0, 0, 0, 0);
    fn walk(v: &Value, depth: usize, seen: &mut dyn FnMut(&Value, usize)) {
        seen(v, depth);
        match v {
            Value::Arr(items) => items.iter().for_each(|i| walk(i, depth + 1, seen)),
            Value::Obj(members) => members.iter().for_each(|(_, m)| walk(m, depth + 1, seen)),
            _ => {}
        }
    }
    cases(CASES, |rng| {
        walk(&value(rng, 0), 0, &mut |v, depth| match v {
            Value::Arr(items) if depth == 1 && !items.is_empty() => {
                rows += items.iter().all(|i| matches!(i, Value::Obj(_))) as u32;
            }
            Value::Num(x) if x.to_bits() == (-0.0f64).to_bits() => neg_zero += 1,
            Value::Num(x) if x.is_subnormal() => subnormal += 1,
            Value::Int(i) if *i == u64::MAX as i128 || *i == i64::MIN as i128 => extreme += 1,
            Value::Str(s) if s.chars().any(char::is_control) => control += 1,
            _ => {}
        });
    });
    for (what, n) in [
        ("row arrays", rows),
        ("-0.0", neg_zero),
        ("subnormals", subnormal),
        ("u64/i64 extremes", extreme),
        ("control characters", control),
    ] {
        assert!(n > 0, "the generator never produced {what}");
    }
}
