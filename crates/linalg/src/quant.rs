//! Compressed item-factor storage: software f16 and per-block i8 codecs.
//!
//! Top-k scoring at catalog scale is memory-bandwidth-bound — every query
//! streams the surviving item blocks through the four-lane kernel, so
//! bytes-per-query sets the throughput ceiling, not FLOPs.  This module
//! stores a factor slab at reduced precision and decodes it tile-by-tile
//! into an f32 scratch buffer right before scoring, halving (f16) or
//! quartering (i8) the bytes moved per scanned block while the arithmetic
//! stays in f32 with the exact same four-lane structure.
//!
//! Two codecs:
//!
//! * **F16** — IEEE 754 binary16, encoded/decoded in software (no external
//!   crates, no unsafe).  Round-to-nearest-even; relative error per
//!   coefficient is at most [`F16_REL_ERR`] `= 2⁻¹¹` for normal values,
//!   plus an absolute [`F16_SUBNORMAL_ABS`] `= 2⁻²⁵` once a value falls
//!   into the subnormal range.  Values beyond ±65504 saturate to ±∞ (factor
//!   entries never get there in practice; the error bound is still honest
//!   because ∞ only widens the decoded norm).
//! * **I8** — linear quantization with one f32 scale per `quant_block` rows
//!   (aligned with the per-block max-norm tables the pruning path already
//!   keeps): `scale = max|x| / 127`, `code = round(x / scale)` clamped to
//!   `[-127, 127]`, `decode = code · scale`.  Per-coefficient error is at
//!   most `scale / 2`.
//!
//! The per-block **row error bound** ([`EncodedSlab::err_bound`]) converts
//! the per-coefficient bounds into an L2 bound on `‖decode(θ_v) − θ_v‖` for
//! any row of a block.  Callers fold it into the Cauchy–Schwarz pruning
//! bound exactly the way [`crate::topk::NORM_BOUND_SLACK`] already absorbs
//! f32 rounding: a block is skipped only when even
//! `‖x_u‖·(block_max[b] + err_b)` cannot reach the heap threshold, so
//! pruning stays admissible with respect to the **exact** scores, not just
//! the decoded ones.  The residual gap (a decoded score may rank candidates
//! slightly differently) is what the serving layer's exact-f32 rerank with
//! over-fetch absorbs.

use crate::batch::batch_score_block;

/// Storage precision of one item-factor segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Exact f32 rows — the uncompressed baseline; scans are bit-identical
    /// to the pre-quantization path.
    #[default]
    F32,
    /// Software IEEE 754 binary16: 2 bytes per coefficient.
    F16,
    /// Linearly quantized signed bytes with per-block scales: 1 byte per
    /// coefficient plus 4 bytes per scale block.
    I8,
}

impl Precision {
    /// Stable one-byte discriminator (cache keys, wire formats).
    pub fn code(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::I8 => 2,
        }
    }

    /// Human-readable name, matching [`Precision::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::I8 => "i8",
        }
    }

    /// Parses `"f32"`, `"f16"`, or `"i8"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "f16" => Some(Precision::F16),
            "i8" => Some(Precision::I8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest relative rounding error of round-to-nearest f32→f16 for values
/// in the normal range: `2⁻¹¹` (half a ulp of the 10-bit significand).
pub const F16_REL_ERR: f32 = 4.882_812_5e-4;

/// Largest absolute rounding error once a value falls below the smallest
/// normal f16 (`2⁻¹⁴`): half the subnormal spacing, `2⁻²⁵`.
pub const F16_SUBNORMAL_ABS: f32 = 2.980_232_2e-8;

/// Encodes one f32 as IEEE 754 binary16 bits, round-to-nearest-even.
/// Overflow saturates to ±infinity; NaN payloads collapse to a quiet NaN.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16; // quant-ok: top 16 bits only, sign survives the narrowing
    let exp = ((bits >> 23) & 0xff) as i32; // quant-ok: 8-bit exponent fits i32 exactly
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Infinity or NaN: keep the class, quiet any NaN.
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal half: rebase the exponent, round the 13 dropped bits to
        // nearest-even.  A rounding carry ripples into the exponent field
        // correctly (1.111… rounds up to the next power of two, and the
        // largest normal rounds to +inf).
        let half_exp = (unbiased + 15) as u32; // quant-ok: 1..=30 after the range checks above
        let mut half = (half_exp << 10) | (man >> 13);
        let round = man & 0x1fff;
        if round > 0x1000 || (round == 0x1000 && (half & 1) == 1) {
            half += 1;
        }
        return sign | half as u16; // quant-ok: half ≤ 0x7c00 after a full carry, fits u16
    }
    if unbiased >= -25 {
        // Subnormal half: shift the full significand (implicit bit
        // restored) into the 10-bit field, round-to-nearest-even.
        let mant = man | 0x0080_0000;
        let shift = (13 + (-14 - unbiased)) as u32; // quant-ok: 14..=24 given -25 ≤ unbiased < -14
        let mut half = mant >> shift;
        let rem = mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && (half & 1) == 1) {
            half += 1;
        }
        return sign | half as u16; // quant-ok: half ≤ 0x400 (may round up into the smallest normal), fits u16
    }
    sign // underflow → ±0
}

/// Decodes IEEE 754 binary16 bits back to f32 (always exact — every f16
/// value is representable in f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    let bits = if exp == 0x1f {
        // Infinity / NaN.
        sign | 0x7f80_0000 | (man << 13)
    } else if exp == 0 {
        if man == 0 {
            sign // ±0
        } else {
            // Subnormal: value = man · 2⁻²⁴, exact in f32 (man ≤ 1023 and
            // the scale is a power of two).
            let mag = man as f32 * (1.0 / 16_777_216.0); // quant-ok: man ≤ 1023 is exactly representable
            return f32::from_bits(sign | mag.to_bits());
        }
    } else {
        sign | (((exp as u32) + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

#[derive(Debug, Clone, PartialEq)]
enum SlabData {
    F16(Vec<u16>),
    I8 { codes: Vec<i8>, scales: Vec<f32> },
}

/// A row-major factor slab stored at reduced precision, decoded
/// tile-by-tile at scan time.
///
/// The slab is immutable once encoded; re-encoding (precision changes,
/// segment compaction) goes back through [`EncodedSlab::encode`] from the
/// retained exact f32 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedSlab {
    f: usize,
    rows: usize,
    /// Rows covered by one i8 scale (also the granularity of
    /// [`EncodedSlab::err_bound`] for I8).  Irrelevant to F16 decode but
    /// kept so error bounds use one blocking everywhere.
    quant_block: usize,
    data: SlabData,
}

impl EncodedSlab {
    /// Encodes a row-major `rows × f` slab at `precision`; `None` for
    /// [`Precision::F32`] (nothing to encode — callers keep serving the
    /// exact slab, bit-identically).
    ///
    /// # Panics
    /// Panics when the buffer is not `rows × f` shaped or `quant_block`
    /// is zero.
    pub fn encode(
        items: &[f32],
        f: usize,
        quant_block: usize,
        precision: Precision,
    ) -> Option<Self> {
        assert!(f > 0, "latent dimension must be positive");
        assert!(quant_block > 0, "quant block must be positive");
        assert_eq!(items.len() % f, 0, "item buffer not a multiple of f");
        let rows = items.len() / f;
        let data = match precision {
            Precision::F32 => return None,
            Precision::F16 => SlabData::F16(items.iter().map(|&x| f32_to_f16_bits(x)).collect()),
            Precision::I8 => {
                let n_blocks = rows.div_ceil(quant_block).max(1);
                let mut codes = Vec::with_capacity(items.len());
                let mut scales = Vec::with_capacity(n_blocks);
                for block in items.chunks(quant_block * f) {
                    let max_abs = block.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                    let scale = max_abs / 127.0;
                    scales.push(scale);
                    if scale == 0.0 {
                        codes.extend(std::iter::repeat_n(0i8, block.len()));
                    } else {
                        codes.extend(block.iter().map(|&x| {
                            (x / scale).round().clamp(-127.0, 127.0) as i8 // quant-ok: clamped to the i8 code range before narrowing
                        }));
                    }
                }
                if rows == 0 {
                    scales.push(0.0);
                }
                SlabData::I8 { codes, scales }
            }
        };
        Some(Self {
            f,
            rows,
            quant_block,
            data,
        })
    }

    /// The precision this slab is stored at.
    pub fn precision(&self) -> Precision {
        match self.data {
            SlabData::F16(_) => Precision::F16,
            SlabData::I8 { .. } => Precision::I8,
        }
    }

    /// Rows stored.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Latent dimension.
    pub fn rank(&self) -> usize {
        self.f
    }

    /// Rows per i8 scale block.
    pub fn quant_block(&self) -> usize {
        self.quant_block
    }

    /// Decodes rows `[start, end)` into `out` (`(end − start) · f` floats).
    ///
    /// # Panics
    /// Panics on an out-of-range row window or a misshapen `out`.
    pub fn decode_rows(&self, start: usize, end: usize, out: &mut [f32]) {
        assert!(start <= end && end <= self.rows, "row window out of range");
        assert_eq!(out.len(), (end - start) * self.f, "decode buffer shape");
        match &self.data {
            SlabData::F16(bits) => {
                let src = &bits[start * self.f..end * self.f];
                for (dst, &h) in out.iter_mut().zip(src.iter()) {
                    *dst = f16_bits_to_f32(h);
                }
            }
            SlabData::I8 { codes, scales } => {
                let f = self.f;
                for (i, row) in out.chunks_exact_mut(f).enumerate() {
                    let r = start + i;
                    let scale = scales[r / self.quant_block];
                    let src = &codes[r * f..(r + 1) * f];
                    for (dst, &c) in row.iter_mut().zip(src.iter()) {
                        *dst = c as f32 * scale; // quant-ok: i8 → f32 is exact; the decode is code · scale by definition
                    }
                }
            }
        }
    }

    /// Decodes the whole slab (norm tables, tests, re-layout).
    pub fn decode_all(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.f];
        self.decode_rows(0, self.rows, &mut out);
        out
    }

    /// Bytes streamed from memory to score rows `[start, end)`: encoded
    /// coefficients plus, for I8, the f32 scales of every touched block.
    /// This is the quantity the `bytes_scanned` serving metric sums.
    pub fn scan_bytes(&self, start: usize, end: usize) -> u64 {
        assert!(start <= end && end <= self.rows, "row window out of range");
        let coeffs = ((end - start) * self.f) as u64;
        match &self.data {
            SlabData::F16(_) => coeffs * 2,
            SlabData::I8 { .. } => {
                if start == end {
                    return 0;
                }
                let first = start / self.quant_block;
                let last = (end - 1) / self.quant_block;
                coeffs + (last - first + 1) as u64 * 4
            }
        }
    }

    /// Upper bound on `‖decode(θ_v) − θ_v‖₂` for **any** row `v` in
    /// `[start, end)`.
    ///
    /// * I8: per-coefficient error ≤ `scale/2`, so the row error is at most
    ///   `√f · scale/2` with the largest scale of the touched blocks.
    /// * F16: per-coefficient error ≤ `F16_REL_ERR · |x|` plus
    ///   `F16_SUBNORMAL_ABS`, so the row error is bounded by
    ///   `F16_REL_ERR/(1 − F16_REL_ERR) · max_decoded_norm + √f ·
    ///   F16_SUBNORMAL_ABS`; `max_decoded_norm` must upper-bound the
    ///   **decoded** row norms of the window (the caller's block-max table,
    ///   which is exactly what the pruning path already keeps).
    ///
    /// Folding this into the Cauchy–Schwarz prune test — skip block `b`
    /// only when `‖x_u‖·(block_max[b] + err_b)·SLACK < t` — keeps pruning
    /// admissible for the exact scores: any pruned row's exact norm is at
    /// most its decoded norm plus `err_b`, so its exact score cannot reach
    /// the threshold either.
    pub fn err_bound(&self, start: usize, end: usize, max_decoded_norm: f32) -> f32 {
        assert!(start <= end && end <= self.rows, "row window out of range");
        let sqrt_f = (self.f as f32).sqrt(); // quant-ok: f is tens-to-hundreds, exact in f32
        match &self.data {
            SlabData::F16(_) => {
                F16_REL_ERR / (1.0 - F16_REL_ERR) * max_decoded_norm + sqrt_f * F16_SUBNORMAL_ABS
            }
            SlabData::I8 { scales, .. } => {
                if start == end {
                    return 0.0;
                }
                let first = start / self.quant_block;
                let last = (end - 1) / self.quant_block;
                let max_scale = scales[first..=last].iter().fold(0.0f32, |m, &s| m.max(s));
                sqrt_f * max_scale * 0.5
            }
        }
    }
}

/// Quantized counterpart of [`batch_score_block`]: decodes rows
/// `[start, end)` of the slab into `scratch` and scores them with the same
/// four-lane [`batch_score_block`] kernel — the scan streams encoded bytes,
/// the arithmetic stays f32.
///
/// The caller passes one block per call (the scan tile), so `scratch` stays
/// L2-resident; it is grown on demand and reused across calls.
#[allow(clippy::too_many_arguments)]
pub fn batch_score_rows_quant(
    users: &[f32],
    n_users: usize,
    slab: &EncodedSlab,
    start: usize,
    end: usize,
    f: usize,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(slab.rank(), f, "slab rank mismatch");
    let rows = end - start;
    scratch.resize(rows * f, 0.0);
    slab.decode_rows(start, end, &mut scratch[..rows * f]);
    batch_score_block(users, n_users, &scratch[..rows * f], rows, f, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_round_trips_names_and_codes() {
        for p in [Precision::F32, Precision::F16, Precision::I8] {
            assert_eq!(Precision::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Precision::parse("F16"), Some(Precision::F16));
        assert_eq!(Precision::parse("half"), None);
        assert_eq!(Precision::default(), Precision::F32);
        assert!(Precision::F32.code() != Precision::F16.code());
        assert!(Precision::F16.code() != Precision::I8.code());
    }

    #[test]
    fn f16_known_values_round_trip_exactly() {
        // Values exactly representable in binary16 must survive untouched.
        for &x in &[
            0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1.5, 1024.0,
        ] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back.to_bits(), x.to_bits(), "x = {x}");
        }
        // Canonical bit patterns.
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xfc00), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn f16_specials_saturate_and_quiet() {
        assert_eq!(f32_to_f16_bits(1e10), 0x7c00, "overflow saturates to inf");
        assert_eq!(f32_to_f16_bits(-1e10), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Smallest positive subnormal and total underflow.
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16_bits(1e-30), 0x0000, "tiny underflows to +0");
        assert_eq!(f32_to_f16_bits(-1e-30), 0x8000, "tiny underflows to -0");
    }

    #[test]
    fn f16_error_stays_within_documented_bound() {
        // Deterministic pseudo-random sweep over several magnitudes.
        let mut state = 0x1234_5678u32;
        for _ in 0..10_000 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let unit = (state >> 8) as f32 / (1u32 << 24) as f32; // quant-ok: 24-bit mantissa fits f32 exactly
            let mag = 10.0f32.powi((state % 9) as i32 - 5); // quant-ok: small exponent range
            let x = (unit - 0.5) * 2.0 * mag;
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            let err = (back - x).abs();
            assert!(
                err <= F16_REL_ERR * x.abs() + F16_SUBNORMAL_ABS,
                "x = {x}, decoded {back}, err {err}"
            );
        }
    }

    #[test]
    fn i8_round_trip_error_within_half_scale() {
        let f = 8;
        let rows = 100;
        let mut items = Vec::with_capacity(rows * f);
        let mut state = 77u32;
        for _ in 0..rows * f {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            items.push(((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 6.0);
            // quant-ok: 24-bit mantissa exact
        }
        let slab = EncodedSlab::encode(&items, f, 16, Precision::I8).unwrap();
        let decoded = slab.decode_all();
        for (r, (row, dec)) in items.chunks(f).zip(decoded.chunks(f)).enumerate() {
            let block = &items[(r / 16) * 16 * f..(((r / 16) + 1) * 16 * f).min(items.len())];
            let scale = block.iter().fold(0.0f32, |m, &x| m.max(x.abs())) / 127.0;
            for (&x, &d) in row.iter().zip(dec.iter()) {
                assert!(
                    (d - x).abs() <= scale * 0.5 + 1e-7,
                    "row {r}: x {x} decoded {d} scale {scale}"
                );
            }
        }
    }

    #[test]
    fn i8_zero_block_encodes_and_decodes_to_zero() {
        let items = vec![0.0f32; 4 * 3];
        let slab = EncodedSlab::encode(&items, 3, 2, Precision::I8).unwrap();
        assert_eq!(slab.decode_all(), items);
        assert_eq!(slab.err_bound(0, 4, 0.0), 0.0);
    }

    #[test]
    fn encode_f32_is_identity_none() {
        assert!(EncodedSlab::encode(&[1.0, 2.0], 2, 4, Precision::F32).is_none());
    }

    #[test]
    fn scan_bytes_price_the_encoded_stream() {
        let f = 4;
        let items = vec![0.5f32; 10 * f];
        let f16 = EncodedSlab::encode(&items, f, 4, Precision::F16).unwrap();
        assert_eq!(f16.scan_bytes(0, 10), (10 * f * 2) as u64);
        let i8s = EncodedSlab::encode(&items, f, 4, Precision::I8).unwrap();
        // 10 rows of 4 one-byte codes + 3 touched scale blocks (4+4+2 rows).
        assert_eq!(i8s.scan_bytes(0, 10), (10 * f) as u64 + 3 * 4);
        assert_eq!(i8s.scan_bytes(4, 8), (4 * f) as u64 + 4);
        assert_eq!(i8s.scan_bytes(3, 3), 0);
    }

    #[test]
    fn err_bound_covers_worst_row_error() {
        let f = 6;
        let rows = 64;
        let mut items = Vec::with_capacity(rows * f);
        let mut state = 99u32;
        for r in 0..rows {
            for _ in 0..f {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let unit = (state >> 8) as f32 / (1u32 << 24) as f32; // quant-ok: exact conversion
                                                                      // Skewed magnitudes stress the per-block scales.
                items.push((unit - 0.5) * if r < 8 { 8.0 } else { 0.05 });
            }
        }
        for precision in [Precision::F16, Precision::I8] {
            let slab = EncodedSlab::encode(&items, f, 8, precision).unwrap();
            let decoded = slab.decode_all();
            for b in 0..rows / 8 {
                let (s, e) = (b * 8, (b + 1) * 8);
                let max_norm = decoded[s * f..e * f]
                    .chunks(f)
                    .map(|r| crate::blas::norm_sq(r).sqrt())
                    .fold(0.0f32, f32::max);
                let bound = slab.err_bound(s, e, max_norm);
                for r in s..e {
                    let err: f32 = (0..f)
                        .map(|d| (decoded[r * f + d] - items[r * f + d]).powi(2))
                        .sum::<f32>()
                        .sqrt();
                    assert!(
                        err <= bound * (1.0 + 1e-5) + 1e-12,
                        "{precision}: row {r} err {err} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn quant_scoring_matches_scoring_the_decoded_slab() {
        let f = 16;
        let rows = 96;
        let mut items = Vec::with_capacity(rows * f);
        let mut state = 5u32;
        for _ in 0..rows * f {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            items.push(((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 2.0);
            // quant-ok: exact conversion
        }
        let users: Vec<f32> = (0..2 * f).map(|i| (i as f32 * 0.37).sin()).collect(); // quant-ok: index magnitude tiny
        for precision in [Precision::F16, Precision::I8] {
            let slab = EncodedSlab::encode(&items, f, 32, precision).unwrap();
            let decoded = slab.decode_all();
            let mut got = vec![0.0f32; 2 * 40];
            let mut scratch = Vec::new();
            batch_score_rows_quant(&users, 2, &slab, 8, 48, f, &mut scratch, &mut got);
            let mut expect = vec![0.0f32; 2 * 40];
            batch_score_block(&users, 2, &decoded[8 * f..48 * f], 40, f, &mut expect);
            assert_eq!(
                got, expect,
                "{precision}: decode-then-score must be bit-identical"
            );
        }
    }
}
