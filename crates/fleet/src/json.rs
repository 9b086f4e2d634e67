//! Allocation-free JSON writers for the campus snapshot.
//!
//! One set of writers serves both consumers of snapshot JSON: the
//! JSONL export ([`crate::CampusSnapshot::to_json`]) and the HTTP
//! serving tier, which renders every body into reusable buffers.
//! Nothing here allocates beyond growing the caller's `Vec`.
//!
//! Numbers render exactly as `format!("{v:.3}")` would (the export
//! format predates this module and golden files pin it), but without
//! going through `core::fmt`: the value is scaled by 1000, an FMA
//! recovers the product's rounding error exactly, and only when the
//! exact product lies within a hair of a rounding tie does the writer
//! fall back to `core::fmt`, whose exact mode settles the tie.

use std::io::Write;

use crate::aggregator::FusedPerson;

/// Magnitudes at or above this take the `core::fmt` path: the scaled
/// value stays below 2^50, so its ulp is at most 1/4 and the FMA
/// residual at most 1/8 — the nearest integer is then within one of
/// the rounded product.
const SCALED_LIMIT: f64 = 1e12;

/// Distance from an exact half below which the fast path defers to
/// `core::fmt`. The fractional offset is computed with one rounding
/// (error ≤ 2^-53), so anything this far from the tie is decided
/// correctly.
const TIE_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// Appends `s` verbatim (callers pass JSON-safe literals).
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
}

/// Appends `v` in decimal.
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `v` in decimal.
pub fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `v` as a JSON number with three decimals — byte-identical
/// to `format!("{v:.3}")` — or `null` when it is not finite: `NaN`
/// and `inf` are not JSON, and a poisoned silence percentile must not
/// corrupt the export stream or an HTTP body.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    match thousandths(v.abs()) {
        Some(n) => {
            // `{:.3}` keeps the sign of negative zero and of values
            // that round to zero.
            if v.is_sign_negative() {
                out.push(b'-');
            }
            push_u64(out, n / 1000);
            let frac = n % 1000;
            out.extend_from_slice(&[
                b'.',
                b'0' + (frac / 100) as u8,
                b'0' + (frac / 10 % 10) as u8,
                b'0' + (frac % 10) as u8,
            ]);
        }
        None => {
            let _ = write!(out, "{v:.3}");
        }
    }
}

/// `a · 1000` rounded to the nearest integer, for finite `a ≥ 0`, or
/// `None` when `a` is too large or the exact product is too close to
/// a tie to decide without `core::fmt`.
fn thousandths(a: f64) -> Option<u64> {
    if a >= SCALED_LIMIT {
        return None;
    }
    let s = a * 1000.0;
    // The exact product is `s + e`: an FMA computes `a·1000 − s`
    // before rounding, and a product's rounding error is itself a
    // double. (For subnormal `a` it may underflow, but then the
    // product is far below one half either way.)
    let e = a.mul_add(1000.0, -s);
    let n = s.round();
    // `s − n` is exact (|s − n| ≤ ½ and ulp(s) ≤ ¼); adding `e`
    // rounds once.
    let t = (s - n) + e;
    let off = t.abs();
    if (off - 0.5).abs() <= TIE_MARGIN {
        return None;
    }
    let n = n as u64;
    Some(if off < 0.5 {
        n
    } else if t > 0.0 {
        n + 1
    } else {
        n - 1
    })
}

/// Appends one fused person as a JSON object. `observer_sep` separates
/// the observer ids: the JSONL export and `/snapshot` write `[1, 2]`,
/// the per-request slices write `[1,2]`.
pub fn push_person(out: &mut Vec<u8>, p: &FusedPerson, observer_sep: &str) {
    push_str(out, "{\"x\":");
    push_f64(out, p.x);
    push_str(out, ",\"y\":");
    push_f64(out, p.y);
    push_str(out, ",\"confidence\":");
    push_f64(out, p.confidence);
    push_str(out, ",\"observers\":[");
    for (i, o) in p.observers.iter().enumerate() {
        if i > 0 {
            push_str(out, observer_sep);
        }
        push_u64(out, u64::from(*o));
    }
    push_str(out, "]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fast(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    fn reference(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    }

    /// `k/1000 + ½/1000` (the decimal tie) nudged by `ulps` units in
    /// the last place.
    fn near_tie(k: u64, ulps: i32, negative: bool) -> f64 {
        let mut v = (k as f64 + 0.5) / 1000.0;
        for _ in 0..ulps.unsigned_abs() {
            v = if ulps > 0 { v.next_up() } else { v.next_down() };
        }
        if negative {
            -v
        } else {
            v
        }
    }

    #[test]
    fn specials_and_exact_ties_match_core_fmt() {
        let cases = [
            0.0,
            -0.0,
            0.0625,
            0.1875,
            -0.3125,
            1.0625,
            0.0005,
            0.0015,
            -0.0001,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            999_999_999_999.999,
            1e12,
            -1e12,
            123_456_789_012.062_5,
            f64::MAX,
            f64::MIN,
        ];
        for v in cases {
            assert_eq!(fast(v), reference(v), "{v:e}");
        }
        assert_eq!(fast(f64::NAN), "null");
        assert_eq!(fast(f64::INFINITY), "null");
        assert_eq!(fast(f64::NEG_INFINITY), "null");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Any bit pattern: NaNs, infinities, subnormals and every
        /// exponent render as `format!("{v:.3}")` (or `null`).
        #[test]
        fn random_bit_patterns_match_core_fmt(bits in 0u64..=u64::MAX) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(fast(v), reference(v));
        }

        /// Values a few ulps either side of a decimal rounding tie,
        /// at everyday magnitudes and up to and past the fast-path
        /// limit.
        #[test]
        fn near_ties_match_core_fmt(
            small in 0u64..10_000_000,
            large in 0u64..2_000_000_000_000_000,
            ulps in -3i32..=3,
            negative in 0u8..2,
        ) {
            for k in [small, large] {
                let v = near_tie(k, ulps, negative == 1);
                prop_assert_eq!(fast(v), reference(v));
            }
        }

        /// The range real snapshots use: metres, milliseconds and
        /// confidences.
        #[test]
        fn everyday_values_match_core_fmt(v in -1e7f64..1e7) {
            prop_assert_eq!(fast(v), reference(v));
        }

        /// Subnormals and tiny normals round to signed zero.
        #[test]
        fn subnormals_match_core_fmt(bits in 0u64..(1u64 << 53), negative in 0u8..2) {
            let v = f64::from_bits(bits | (u64::from(negative) << 63));
            prop_assert_eq!(fast(v), reference(v));
        }

        /// At and above the fast-path limit the `core::fmt` fallback
        /// takes over.
        #[test]
        fn large_values_match_core_fmt(v in 1e12f64..1e18) {
            prop_assert_eq!(fast(v), reference(v));
            prop_assert_eq!(fast(-v), reference(-v));
        }
    }
}
