//! Fixed-point decimal arithmetic.
//!
//! TPC-H money and rate columns are decimals (`decimal(15,2)`). MonetDB — the
//! system the paper benchmarks — stores these as scaled integers, and so do
//! we: a [`Decimal64`] is an `i64` mantissa plus a decimal scale. Addition,
//! subtraction, and multiplication are exact (performed in `i128` and
//! rescaled); division and averaging intentionally go through `f64` because
//! none of the reproduced queries require exact division.

use crate::error::{Result, StorageError};
use std::cmp::Ordering;
use std::fmt;

/// A fixed-point decimal: `mantissa * 10^-scale`.
///
/// ```
/// use wimpi_storage::decimal::Decimal64;
/// let price = Decimal64::from_str_scale("901.00", 2).unwrap();
/// let discount = Decimal64::from_str_scale("0.06", 2).unwrap();
/// let one = Decimal64::one(2);
/// let discounted = price.mul(one.sub(discount).unwrap(), 2).unwrap();
/// assert_eq!(discounted.to_string(), "846.94");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decimal64 {
    mantissa: i64,
    scale: u8,
}

const POW10: [i128; 19] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
    10_000_000_000_000_000,
    100_000_000_000_000_000,
    1_000_000_000_000_000_000,
];

// `add`/`sub` are deliberately inherent (not `std::ops`): they are fallible
// (overflow) and scale-aware, so operator sugar would mislead.
#[allow(clippy::should_implement_trait)]
impl Decimal64 {
    /// Builds a decimal from a raw mantissa and scale.
    pub const fn new(mantissa: i64, scale: u8) -> Self {
        Self { mantissa, scale }
    }

    /// The value `1` at the given scale.
    pub const fn one(scale: u8) -> Self {
        Self { mantissa: POW10[scale as usize] as i64, scale }
    }

    /// The value `0` at the given scale.
    pub const fn zero(scale: u8) -> Self {
        Self { mantissa: 0, scale }
    }

    /// Raw mantissa (value × 10^scale).
    pub const fn mantissa(self) -> i64 {
        self.mantissa
    }

    /// Decimal scale (number of fractional digits).
    pub const fn scale(self) -> u8 {
        self.scale
    }

    /// Converts to `f64`; lossy for very large mantissas, which TPC-H never
    /// produces.
    pub fn to_f64(self) -> f64 {
        self.mantissa as f64 / POW10[self.scale as usize] as f64
    }

    /// Builds from an `f64`, rounding half away from zero.
    pub fn from_f64(v: f64, scale: u8) -> Self {
        let scaled = v * POW10[scale as usize] as f64;
        Self { mantissa: scaled.round() as i64, scale }
    }

    /// Parses a decimal string like `-12.345`, scaling or truncating the
    /// fraction to `scale` digits.
    pub fn from_str_scale(s: &str, scale: u8) -> Result<Self> {
        let s = s.trim();
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let mut parts = body.splitn(2, '.');
        let int_part = parts.next().unwrap_or("");
        let frac_part = parts.next().unwrap_or("");
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(StorageError::Parse(format!("empty decimal: {s:?}")));
        }
        let mut mantissa: i128 = 0;
        for c in int_part.chars() {
            let d =
                c.to_digit(10).ok_or_else(|| StorageError::Parse(format!("bad decimal: {s:?}")))?;
            mantissa = mantissa * 10 + d as i128;
        }
        // Validate the *entire* fraction before scaling: a stray byte past
        // the `scale`-th digit ("1.23x" at scale 2) must be rejected, not
        // silently dropped with the truncated tail.
        if frac_part.bytes().any(|b| !b.is_ascii_digit()) {
            return Err(StorageError::Parse(format!("bad decimal: {s:?}")));
        }
        for i in 0..scale as usize {
            let d = match frac_part.as_bytes().get(i) {
                Some(b) => (b - b'0') as i128,
                None => 0,
            };
            mantissa = mantissa * 10 + d;
        }
        if neg {
            mantissa = -mantissa;
        }
        i64::try_from(mantissa)
            .map(|m| Self { mantissa: m, scale })
            .map_err(|_| StorageError::DecimalOverflow)
    }

    /// Rescales to a new scale, rounding half away from zero when narrowing
    /// — the same convention as [`Decimal64::mul`], so scalar rescales and
    /// the multiply path can never disagree on the last digit.
    pub fn rescale(self, scale: u8) -> Result<Self> {
        if scale == self.scale {
            return Ok(self);
        }
        let m = rescale_i128(self.mantissa as i128, self.scale as usize, scale as usize)?;
        i64::try_from(m)
            .map(|m| Self { mantissa: m, scale })
            .map_err(|_| StorageError::DecimalOverflow)
    }

    /// Exact addition. Operands are first brought to the wider scale.
    pub fn add(self, other: Self) -> Result<Self> {
        let scale = self.scale.max(other.scale);
        let a = self.rescale(scale)?;
        let b = other.rescale(scale)?;
        a.mantissa
            .checked_add(b.mantissa)
            .map(|m| Self { mantissa: m, scale })
            .ok_or(StorageError::DecimalOverflow)
    }

    /// Exact subtraction.
    pub fn sub(self, other: Self) -> Result<Self> {
        self.add(Self { mantissa: -other.mantissa, scale: other.scale })
    }

    /// Exact multiplication, rounded (half away from zero) to `out_scale`.
    pub fn mul(self, other: Self, out_scale: u8) -> Result<Self> {
        let raw = self.mantissa as i128 * other.mantissa as i128;
        let raw_scale = self.scale as usize + other.scale as usize;
        let m = rescale_i128(raw, raw_scale, out_scale as usize)?;
        i64::try_from(m)
            .map(|m| Self { mantissa: m, scale: out_scale })
            .map_err(|_| StorageError::DecimalOverflow)
    }
}

/// Rescales a raw i128 mantissa between scales, rounding half away from zero
/// when narrowing.
fn rescale_i128(m: i128, from: usize, to: usize) -> Result<i128> {
    if to >= from {
        m.checked_mul(POW10[to - from]).ok_or(StorageError::DecimalOverflow)
    } else {
        let div = POW10[from - to];
        let q = m / div;
        let r = m % div;
        // Round half away from zero so totals match hand-computed sums.
        if r.abs() * 2 >= div {
            Ok(q + m.signum())
        } else {
            Ok(q)
        }
    }
}

impl PartialOrd for Decimal64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal64 {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.scale == other.scale {
            self.mantissa.cmp(&other.mantissa)
        } else {
            let scale = self.scale.max(other.scale);
            let a = self.mantissa as i128 * POW10[(scale - self.scale) as usize];
            let b = other.mantissa as i128 * POW10[(scale - other.scale) as usize];
            a.cmp(&b)
        }
    }
}

impl fmt::Display for Decimal64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let div = POW10[self.scale as usize] as i64;
        let int = self.mantissa / div;
        let frac = (self.mantissa % div).abs();
        let sign = if self.mantissa < 0 && int == 0 { "-" } else { "" };
        write!(f, "{sign}{int}.{frac:0width$}", width = self.scale as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.00", "1.50", "-3.07", "901.00", "123456.78"] {
            let d = Decimal64::from_str_scale(s, 2).unwrap();
            assert_eq!(d.to_string(), s, "round trip of {s}");
        }
    }

    #[test]
    fn parse_pads_missing_fraction() {
        let d = Decimal64::from_str_scale("7", 2).unwrap();
        assert_eq!(d.mantissa(), 700);
        let d = Decimal64::from_str_scale("7.5", 2).unwrap();
        assert_eq!(d.mantissa(), 750);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Decimal64::from_str_scale("", 2).is_err());
        assert!(Decimal64::from_str_scale("1.2x", 3).is_err());
        assert!(Decimal64::from_str_scale("abc", 2).is_err());
        // Garbage *past* the retained digits used to slip through: the old
        // loop read only the first `scale` fraction bytes, so "1.23x" at
        // scale 2 parsed as 1.23.
        assert!(Decimal64::from_str_scale("1.23x", 2).is_err());
        assert!(Decimal64::from_str_scale("1.2 3", 2).is_err());
        assert!(Decimal64::from_str_scale("0.00#", 2).is_err());
        assert!(Decimal64::from_str_scale("-5.1e3", 1).is_err());
    }

    #[test]
    fn parse_truncates_long_valid_fractions() {
        // Extra *valid* digits are still truncated per the documented
        // contract ("scaling or truncating"): only garbage is rejected.
        let d = Decimal64::from_str_scale("1.239", 2).unwrap();
        assert_eq!(d.mantissa(), 123);
    }

    #[test]
    fn rescale_narrowing_rounds_half_away_from_zero() {
        // 1.25 → scale 1 must give 1.3 (not the old truncation to 1.2),
        // matching what `mul` produces for the same narrowing.
        assert_eq!(Decimal64::new(125, 2).rescale(1).unwrap(), Decimal64::new(13, 1));
        assert_eq!(Decimal64::new(-125, 2).rescale(1).unwrap(), Decimal64::new(-13, 1));
        assert_eq!(Decimal64::new(124, 2).rescale(1).unwrap(), Decimal64::new(12, 1));
        assert_eq!(Decimal64::new(-124, 2).rescale(1).unwrap(), Decimal64::new(-12, 1));
        // Agreement with the mul path: x.rescale(s) == x.mul(1, s).
        for m in [-1999i64, -125, -5, 0, 5, 125, 1999] {
            let x = Decimal64::new(m, 3);
            for s in 0..=3u8 {
                assert_eq!(
                    x.rescale(s).unwrap(),
                    x.mul(Decimal64::one(0), s).unwrap(),
                    "rescale({m}e-3 -> {s}) diverged from mul"
                );
            }
        }
    }

    #[test]
    fn add_mixed_scales() {
        let a = Decimal64::from_str_scale("1.5", 1).unwrap();
        let b = Decimal64::from_str_scale("0.25", 2).unwrap();
        let c = a.add(b).unwrap();
        assert_eq!(c.to_string(), "1.75");
        assert_eq!(c.scale(), 2);
    }

    #[test]
    fn mul_rescales_and_rounds() {
        // 1.05 * 1.05 = 1.1025 -> 1.10 at scale 2 (round down)
        let a = Decimal64::from_str_scale("1.05", 2).unwrap();
        assert_eq!(a.mul(a, 2).unwrap().to_string(), "1.10");
        // 1.15 * 1.1 = 1.265 -> 1.27 at scale 2 (round half away)
        let b = Decimal64::from_str_scale("1.15", 2).unwrap();
        let c = Decimal64::from_str_scale("1.1", 1).unwrap();
        assert_eq!(b.mul(c, 2).unwrap().to_string(), "1.27");
    }

    #[test]
    fn negative_display() {
        let d = Decimal64::new(-7, 2);
        assert_eq!(d.to_string(), "-0.07");
        let d = Decimal64::new(-107, 2);
        assert_eq!(d.to_string(), "-1.07");
    }

    #[test]
    fn ordering_across_scales() {
        let a = Decimal64::from_str_scale("1.5", 1).unwrap();
        let b = Decimal64::from_str_scale("1.49", 2).unwrap();
        assert!(a > b);
        let c = Decimal64::from_str_scale("1.50", 2).unwrap();
        assert_eq!(a.cmp(&c), Ordering::Equal);
    }

    #[test]
    fn overflow_detected() {
        let big = Decimal64::new(i64::MAX, 0);
        assert_eq!(big.add(Decimal64::new(1, 0)), Err(StorageError::DecimalOverflow));
        assert_eq!(big.mul(big, 0), Err(StorageError::DecimalOverflow));
    }

    #[test]
    fn tpch_discount_expression_is_exact() {
        // l_extendedprice * (1 - l_discount) — the hottest expression in the
        // benchmark; must be exact at scale 4.
        let price = Decimal64::from_str_scale("36485.76", 2).unwrap();
        let disc = Decimal64::from_str_scale("0.09", 2).unwrap();
        let one = Decimal64::one(2);
        let v = price.mul(one.sub(disc).unwrap(), 4).unwrap();
        assert_eq!(v.to_string(), "33202.0416");
    }

    #[test]
    fn from_f64_rounds() {
        assert_eq!(Decimal64::from_f64(1.25, 2).mantissa(), 125);
        assert_eq!(Decimal64::from_f64(-1.25, 2).mantissa(), -125);
        assert_eq!(Decimal64::from_f64(0.064999, 2).mantissa(), 6);
    }
}
