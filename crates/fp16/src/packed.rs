//! Low-precision integer weight scalars and the packed `INT16` words the
//! hyper-asymmetric GEMM flow carries through the memory hierarchy.
//!
//! The paper's packing format `P(B_x)_y` packs `x` weights into one 16-bit
//! word along dimension `y`. This module provides the *word-level* types
//! ([`Int4`], [`Int2`], [`PackedWord`]); matrix-level packing (choosing the
//! dimension) lives in the `pacq-quant` crate.

use core::fmt;

use pacq_error::{PacqError, PacqResult};

/// Weight precision of a hyper-asymmetric GEMM (the activation side is
/// always FP16 in this work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightPrecision {
    /// 4-bit signed weights, 4 per 16-bit word.
    Int4,
    /// 2-bit signed weights, 8 per 16-bit word.
    Int2,
}

impl WeightPrecision {
    /// Every precision, in CLI-token order.
    pub const ALL: [WeightPrecision; 2] = [WeightPrecision::Int4, WeightPrecision::Int2];

    /// The one token table: the canonical token first (the wire form in
    /// cache entries, dse job ids and serve frames), then the display
    /// form, which `--precision` also accepts.
    pub const fn tokens(self) -> &'static [&'static str] {
        match self {
            WeightPrecision::Int4 => &["int4", "INT4"],
            WeightPrecision::Int2 => &["int2", "INT2"],
        }
    }

    /// The canonical token (`int4` / `int2`).
    pub const fn token(self) -> &'static str {
        self.tokens()[0]
    }

    /// Parses any token of [`WeightPrecision::tokens`], exactly (callers
    /// diagnose).
    pub fn parse(token: &str) -> Option<WeightPrecision> {
        WeightPrecision::ALL
            .into_iter()
            .find(|p| p.tokens().contains(&token))
    }

    /// Number of weights packed into one 16-bit word (`x` in `P(B_x)_y`).
    #[inline]
    pub const fn lanes(self) -> usize {
        match self {
            WeightPrecision::Int4 => 4,
            WeightPrecision::Int2 => 8,
        }
    }

    /// Bit width of one weight.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            WeightPrecision::Int4 => 4,
            WeightPrecision::Int2 => 2,
        }
    }

    /// Smallest representable signed value (-8 or -2).
    #[inline]
    pub const fn min_value(self) -> i8 {
        match self {
            WeightPrecision::Int4 => -8,
            WeightPrecision::Int2 => -2,
        }
    }

    /// Largest representable signed value (7 or 1).
    #[inline]
    pub const fn max_value(self) -> i8 {
        match self {
            WeightPrecision::Int4 => 7,
            WeightPrecision::Int2 => 1,
        }
    }

    /// The unsigned bias added to make the code non-negative (8 or 2).
    ///
    /// Section IV of the paper biases a signed INT4 weight by `+8` so that
    /// `B + 8 + 1024` lands in `[1024, 2048)`.
    #[inline]
    pub const fn bias(self) -> i32 {
        -(self.min_value() as i32)
    }

    /// The FP-domain offset folded out by Eq. (1): `1024 + bias`
    /// (1032 for INT4, 1026 for INT2).
    #[inline]
    pub const fn fp_offset(self) -> i32 {
        1024 + self.bias()
    }
}

impl fmt::Display for WeightPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tokens()[1])
    }
}

/// A signed 4-bit weight value in `[-8, 7]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Int4(i8);

impl Int4 {
    /// Smallest value (-8).
    pub const MIN: Int4 = Int4(-8);
    /// Largest value (7).
    pub const MAX: Int4 = Int4(7);

    /// Creates an `Int4`, returning `None` when out of range.
    #[inline]
    pub const fn new(value: i8) -> Option<Self> {
        if value >= -8 && value <= 7 {
            Some(Int4(value))
        } else {
            None
        }
    }

    /// Creates an `Int4`, clamping out-of-range inputs.
    #[inline]
    pub const fn saturating(value: i32) -> Self {
        if value < -8 {
            Int4(-8)
        } else if value > 7 {
            Int4(7)
        } else {
            Int4(value as i8)
        }
    }

    /// The signed value.
    #[inline]
    pub const fn value(self) -> i8 {
        self.0
    }

    /// The biased unsigned 4-bit code `value + 8` in `[0, 15]`, i.e. the
    /// `yyyy` nibble of observation ② in the paper.
    #[inline]
    pub const fn biased_code(self) -> u8 {
        (self.0 + 8) as u8
    }

    /// Reconstructs from the biased code, rejecting codes above 15.
    #[inline]
    pub fn from_biased_code(code: u8) -> PacqResult<Self> {
        if code > 15 {
            return Err(PacqError::invalid_input(
                "Int4::from_biased_code",
                format!("biased code {code} out of range [0, 15]"),
            ));
        }
        Ok(Int4(code as i8 - 8))
    }

    /// Reconstructs from the low 4 bits of `code`, ignoring the rest.
    ///
    /// Infallible companion of [`Int4::from_biased_code`] for callers
    /// that have already masked the lane out of a [`PackedWord`].
    #[inline]
    pub const fn from_masked_code(code: u8) -> Self {
        Int4((code & 0xF) as i8 - 8)
    }

    /// Iterator over all 16 representable values.
    pub fn all_values() -> impl Iterator<Item = Int4> {
        (-8..=7).map(Int4)
    }
}

impl fmt::Display for Int4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<i8> for Int4 {
    type Error = WeightRangeError;
    fn try_from(value: i8) -> Result<Self, Self::Error> {
        Int4::new(value).ok_or(WeightRangeError {
            value: value as i32,
            precision: WeightPrecision::Int4,
        })
    }
}

impl From<Int4> for i8 {
    fn from(value: Int4) -> i8 {
        value.value()
    }
}

/// A signed 2-bit weight value in `[-2, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Int2(i8);

impl Int2 {
    /// Smallest value (-2).
    pub const MIN: Int2 = Int2(-2);
    /// Largest value (1).
    pub const MAX: Int2 = Int2(1);

    /// Creates an `Int2`, returning `None` when out of range.
    #[inline]
    pub const fn new(value: i8) -> Option<Self> {
        if value >= -2 && value <= 1 {
            Some(Int2(value))
        } else {
            None
        }
    }

    /// Creates an `Int2`, clamping out-of-range inputs.
    #[inline]
    pub const fn saturating(value: i32) -> Self {
        if value < -2 {
            Int2(-2)
        } else if value > 1 {
            Int2(1)
        } else {
            Int2(value as i8)
        }
    }

    /// The signed value.
    #[inline]
    pub const fn value(self) -> i8 {
        self.0
    }

    /// The biased unsigned 2-bit code `value + 2` in `[0, 3]`.
    #[inline]
    pub const fn biased_code(self) -> u8 {
        (self.0 + 2) as u8
    }

    /// Reconstructs from the biased code, rejecting codes above 3.
    #[inline]
    pub fn from_biased_code(code: u8) -> PacqResult<Self> {
        if code > 3 {
            return Err(PacqError::invalid_input(
                "Int2::from_biased_code",
                format!("biased code {code} out of range [0, 3]"),
            ));
        }
        Ok(Int2(code as i8 - 2))
    }

    /// Reconstructs from the low 2 bits of `code`, ignoring the rest.
    ///
    /// Infallible companion of [`Int2::from_biased_code`] for callers
    /// that have already masked the lane out of a [`PackedWord`].
    #[inline]
    pub const fn from_masked_code(code: u8) -> Self {
        Int2((code & 0x3) as i8 - 2)
    }

    /// Iterator over all 4 representable values.
    pub fn all_values() -> impl Iterator<Item = Int2> {
        (-2..=1).map(Int2)
    }
}

impl fmt::Display for Int2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<i8> for Int2 {
    type Error = WeightRangeError;
    fn try_from(value: i8) -> Result<Self, Self::Error> {
        Int2::new(value).ok_or(WeightRangeError {
            value: value as i32,
            precision: WeightPrecision::Int2,
        })
    }
}

impl From<Int2> for i8 {
    fn from(value: Int2) -> i8 {
        value.value()
    }
}

/// Error returned when a value does not fit the requested weight precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightRangeError {
    value: i32,
    precision: WeightPrecision,
}

impl fmt::Display for WeightRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} does not fit in {} (range [{}, {}])",
            self.value,
            self.precision,
            self.precision.min_value(),
            self.precision.max_value()
        )
    }
}

impl std::error::Error for WeightRangeError {}

/// One 16-bit word holding packed low-precision weights: 4×INT4 or 8×INT2,
/// stored as *biased* codes so the hardware never sees a sign bit (the
/// paper's `B + 8` transformation is applied at pack time).
///
/// Lane 0 occupies the least-significant bits.
///
/// # Examples
///
/// ```
/// use pacq_fp16::{Int4, PackedWord};
///
/// let w = PackedWord::pack_int4([
///     Int4::new(-8).unwrap(),
///     Int4::new(0).unwrap(),
///     Int4::new(3).unwrap(),
///     Int4::new(7).unwrap(),
/// ]);
/// assert_eq!(w.unpack_int4().map(|v| v.value()), [-8, 0, 3, 7]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedWord(u16);

impl PackedWord {
    /// Creates a packed word from its raw 16 bits (biased codes).
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        PackedWord(bits)
    }

    /// The raw 16 bits.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Packs four INT4 weights (lane 0 in the low nibble).
    pub fn pack_int4(weights: [Int4; 4]) -> Self {
        let mut bits = 0u16;
        for (lane, w) in weights.iter().enumerate() {
            bits |= (w.biased_code() as u16) << (4 * lane);
        }
        PackedWord(bits)
    }

    /// Unpacks four INT4 weights.
    pub fn unpack_int4(self) -> [Int4; 4] {
        core::array::from_fn(|lane| Int4::from_masked_code(((self.0 >> (4 * lane)) & 0xF) as u8))
    }

    /// Packs eight INT2 weights (lane 0 in the low 2 bits).
    pub fn pack_int2(weights: [Int2; 8]) -> Self {
        let mut bits = 0u16;
        for (lane, w) in weights.iter().enumerate() {
            bits |= (w.biased_code() as u16) << (2 * lane);
        }
        PackedWord(bits)
    }

    /// Unpacks eight INT2 weights.
    pub fn unpack_int2(self) -> [Int2; 8] {
        core::array::from_fn(|lane| Int2::from_masked_code(((self.0 >> (2 * lane)) & 0x3) as u8))
    }

    /// The biased code in `lane` for the given precision.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= precision.lanes()`.
    pub fn biased_lane(self, precision: WeightPrecision, lane: usize) -> u8 {
        assert!(
            lane < precision.lanes(),
            "lane {lane} out of range for {precision}"
        );
        match precision {
            WeightPrecision::Int4 => ((self.0 >> (4 * lane)) & 0xF) as u8,
            WeightPrecision::Int2 => ((self.0 >> (2 * lane)) & 0x3) as u8,
        }
    }

    /// The signed weight value in `lane` for the given precision.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= precision.lanes()`.
    pub fn signed_lane(self, precision: WeightPrecision, lane: usize) -> i8 {
        let code = self.biased_lane(precision, lane) as i32;
        (code - precision.bias()) as i8
    }
}

impl fmt::LowerHex for PackedWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_constants() {
        assert_eq!(WeightPrecision::Int4.lanes(), 4);
        assert_eq!(WeightPrecision::Int2.lanes(), 8);
        assert_eq!(WeightPrecision::Int4.fp_offset(), 1032);
        assert_eq!(WeightPrecision::Int2.fp_offset(), 1026);
        assert_eq!(WeightPrecision::Int4.bias(), 8);
        assert_eq!(WeightPrecision::Int2.bias(), 2);
    }

    #[test]
    fn int4_roundtrip_all_values() {
        for w in Int4::all_values() {
            assert_eq!(Int4::from_biased_code(w.biased_code()), Ok(w));
            assert_eq!(Int4::from_masked_code(w.biased_code()), w);
            assert_eq!(Int4::new(w.value()), Some(w));
        }
        assert_eq!(Int4::new(8), None);
        assert_eq!(Int4::new(-9), None);
        assert_eq!(Int4::saturating(100), Int4::MAX);
        assert_eq!(Int4::saturating(-100), Int4::MIN);
    }

    #[test]
    fn int2_roundtrip_all_values() {
        for w in Int2::all_values() {
            assert_eq!(Int2::from_biased_code(w.biased_code()), Ok(w));
            assert_eq!(Int2::from_masked_code(w.biased_code()), w);
            assert_eq!(Int2::new(w.value()), Some(w));
        }
        assert_eq!(Int2::new(2), None);
        assert_eq!(Int2::saturating(5), Int2::MAX);
    }

    #[test]
    fn packed_word_int4_roundtrip_exhaustive_lanes() {
        for a in Int4::all_values() {
            for b in [Int4::MIN, Int4::MAX, Int4::new(0).unwrap()] {
                let w = PackedWord::pack_int4([a, b, a, b]);
                assert_eq!(w.unpack_int4(), [a, b, a, b]);
                assert_eq!(w.signed_lane(WeightPrecision::Int4, 0), a.value());
                assert_eq!(w.signed_lane(WeightPrecision::Int4, 1), b.value());
            }
        }
    }

    #[test]
    fn packed_word_int2_roundtrip() {
        let ws: [Int2; 8] = core::array::from_fn(|i| Int2::new((i as i8 % 4) - 2).unwrap());
        let w = PackedWord::pack_int2(ws);
        assert_eq!(w.unpack_int2(), ws);
        for (lane, expect) in ws.iter().enumerate() {
            assert_eq!(w.signed_lane(WeightPrecision::Int2, lane), expect.value());
        }
    }

    #[test]
    fn lane0_is_least_significant() {
        let w = PackedWord::pack_int4([
            Int4::new(-8).unwrap(), // code 0
            Int4::new(-7).unwrap(), // code 1
            Int4::new(-6).unwrap(), // code 2
            Int4::new(-5).unwrap(), // code 3
        ]);
        assert_eq!(w.to_bits(), 0x3210);
    }

    #[test]
    #[should_panic(expected = "lane 4 out of range")]
    fn lane_bounds_checked() {
        PackedWord::from_bits(0).biased_lane(WeightPrecision::Int4, 4);
    }

    #[test]
    fn out_of_range_biased_codes_are_rejected_not_panicking() {
        for code in 16u8..=u8::MAX {
            assert!(Int4::from_biased_code(code).is_err(), "code {code}");
        }
        for code in 4u8..=u8::MAX {
            assert!(Int2::from_biased_code(code).is_err(), "code {code}");
        }
    }

    #[test]
    fn try_from_reports_error() {
        let err = Int4::try_from(9i8).unwrap_err();
        assert!(err.to_string().contains("does not fit in INT4"));
    }
}
