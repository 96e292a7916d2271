//! JPEG encoder with pluggable DCT arithmetic (§V-B, Fig. 6).
//!
//! The pipeline is the baseline JPEG luminance path: 8×8 block split,
//! level shift, fixed-point 2-D DCT (**through the [`OperatorCtx`] — the
//! operators under test**), quality-scaled quantization, zigzag, DC
//! differential + AC run/size symbolization, canonical Huffman entropy
//! coding. A full decoder reverses the lossless back end and applies an
//! exact inverse DCT, so encoder variants can be compared by MSSIM on
//! decoded images exactly as in the paper.

mod dct;
mod entropy;
mod quant;

pub use dct::{dct8_coeffs_q13, dct8x8_fixed, idct8x8_f64, DCT_FRAC, SITE_DCT_COL, SITE_DCT_ROW};
pub use entropy::{
    amplitude_bits, amplitude_value, size_category, BitReader, BitWriter, HuffmanCode,
};
pub use quant::{quality_table, quantize, zigzag_order, LUMA_Q50};

use crate::workload::{Prepared, Workload, WorkloadRun};
use crate::{OpCounts, OperatorCtx};
use apx_fixture::image::Image;
use apx_metrics::QualityScore;
use apx_operators::{SiteOps, SiteSpec};

/// Declared call-sites of the JPEG workload.
pub const SITES: &[SiteSpec] = &[
    SiteSpec {
        tag: SITE_DCT_ROW,
        ops: SiteOps::AddMul,
        summary: "row pass of the 8x8 fixed-point DCT",
    },
    SiteSpec {
        tag: SITE_DCT_COL,
        ops: SiteOps::AddMul,
        summary: "column pass of the 8x8 fixed-point DCT",
    },
];

/// Encoded image plus everything needed to score the encoder variant.
#[derive(Debug, Clone)]
pub struct JpegResult {
    /// Entropy-coded stream (DC+AC symbol stream, canonical Huffman).
    pub bytes: Vec<u8>,
    /// Image reconstructed by the reference decoder.
    pub decoded: Image,
    /// Operations executed through the context (DCT only — the paper
    /// replaces only the DCT operators).
    pub counts: OpCounts,
}

/// The quantized coefficient blocks of an image (pre-entropy coding).
type CoeffBlocks = Vec<[[i64; 8]; 8]>;

/// The paper's JPEG workload: a synthetic-photo image encoded at a given
/// quality, with the exact-arithmetic pipeline as the MSSIM reference.
#[derive(Debug, Clone)]
pub struct JpegFixture {
    image: Image,
    quality: u32,
    reference: Image,
}

impl JpegFixture {
    /// Builds the fixture: `size × size` synthetic photo, quality-90
    /// encoding (the paper's setting), exact reference decoded once.
    ///
    /// # Panics
    /// Panics if `size` is not a positive multiple of 8 or `quality` is
    /// out of `1..=100`.
    #[must_use]
    pub fn synthetic(size: usize, quality: u32, seed: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(8),
            "size must be a multiple of 8"
        );
        let image = apx_fixture::image::synthetic_photo(size, size, seed);
        let mut exact = OperatorCtx::exact();
        let reference = encode_decode(&image, quality, &mut exact).decoded;
        JpegFixture {
            image,
            quality,
            reference,
        }
    }

    /// The input image.
    #[must_use]
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Runs the encoder through `ctx` and returns the result together with
    /// the MSSIM against the exact-arithmetic encoding.
    pub fn run(&self, ctx: &mut OperatorCtx) -> (JpegResult, QualityScore) {
        ctx.reset_counts();
        let result = encode_decode(&self.image, self.quality, ctx);
        let score = QualityScore::mssim(
            self.reference.pixels(),
            result.decoded.pixels(),
            self.image.width(),
            self.image.height(),
        );
        (result, score)
    }
}

/// The registered JPEG workload: a seeded synthetic photo encoded at a
/// fixed quality with the DCT running through the context, scored by
/// MSSIM of the decoded image against the exact-arithmetic encoding.
/// The entropy-coded stream length rides along as the `stream_bytes`
/// auxiliary output.
#[derive(Debug, Clone, Copy)]
pub struct JpegWorkload {
    size: usize,
    quality: u32,
}

impl JpegWorkload {
    /// Workload over a `size × size` image (positive multiple of 8) at
    /// `quality` in `1..=100`.
    #[must_use]
    pub fn new(size: usize, quality: u32) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(8),
            "size must be a multiple of 8"
        );
        assert!((1..=100).contains(&quality), "quality out of 1..=100");
        JpegWorkload { size, quality }
    }
}

impl Workload for JpegWorkload {
    fn name(&self) -> &'static str {
        "jpeg"
    }

    /// Legacy fixture seed of the `fig6` binary.
    fn default_seed(&self) -> u64 {
        0x1E7A
    }

    fn fingerprint(&self) -> String {
        format!("jpeg/v1:size={},quality={}", self.size, self.quality)
    }

    fn sites(&self) -> &'static [SiteSpec] {
        SITES
    }

    fn prepare(&self, seed: u64) -> Prepared<'_> {
        let fixture = JpegFixture::synthetic(self.size, self.quality, seed);
        Box::new(move |ctx| {
            let (result, score) = fixture.run(ctx);
            WorkloadRun {
                score,
                counts: result.counts,
                aux: vec![("stream_bytes".to_owned(), result.bytes.len() as f64)],
            }
        })
    }
}

/// Encodes `image` through `ctx` and immediately decodes the stream with
/// the reference decoder.
///
/// # Panics
/// Panics if the image dimensions are not multiples of 8.
pub fn encode_decode(image: &Image, quality: u32, ctx: &mut OperatorCtx) -> JpegResult {
    let blocks = forward_blocks(image, quality, ctx);
    let bytes = entropy_encode(&blocks);
    let coeffs = entropy_decode(&bytes, blocks.len()).expect("self-produced stream must decode");
    let decoded = reconstruct(&coeffs, image.width(), image.height(), quality);
    JpegResult {
        bytes,
        decoded,
        counts: ctx.counts(),
    }
}

/// Level shift + DCT (through `ctx`) + quantization for every 8×8 block,
/// in raster order.
fn forward_blocks(image: &Image, quality: u32, ctx: &mut OperatorCtx) -> CoeffBlocks {
    assert!(
        image.width().is_multiple_of(8) && image.height().is_multiple_of(8),
        "dimensions must be multiples of 8"
    );
    let qt = quant::quality_table(quality);
    let mut blocks = Vec::with_capacity(image.width() * image.height() / 64);
    for by in (0..image.height()).step_by(8) {
        for bx in (0..image.width()).step_by(8) {
            let mut block = [[0i64; 8]; 8];
            for (r, row) in block.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = i64::from(image.pixel(bx + c, by + r)) - 128;
                }
            }
            let coeffs = dct::dct8x8_fixed(&block, ctx);
            let mut quantized = [[0i64; 8]; 8];
            for r in 0..8 {
                for c in 0..8 {
                    // heavily approximate DCT arithmetic can overshoot the
                    // entropy coder's 15-bit amplitude alphabet (DC diffs
                    // span twice the coefficient range); exact-arithmetic
                    // coefficients stay far below the bound
                    quantized[r][c] =
                        quant::quantize(coeffs[r][c], qt[r][c]).clamp(-16_383, 16_383);
                }
            }
            blocks.push(quantized);
        }
    }
    blocks
}

/// JPEG symbolization constants.
const EOB: u16 = 0x00;
const ZRL: u16 = 0xF0;

/// Symbolizes the blocks (DC differences + AC run/size) and Huffman-codes
/// them with per-image canonical tables (written compactly in the header).
fn entropy_encode(blocks: &CoeffBlocks) -> Vec<u8> {
    let zz = quant::zigzag_order();
    // pass 1: symbol statistics
    let mut dc_freq = vec![0u64; 16];
    let mut ac_freq = vec![0u64; 256];
    let mut prev_dc = 0i64;
    let mut symbolized: Vec<Vec<(u16, i64)>> = Vec::with_capacity(blocks.len());
    for block in blocks {
        let dc_diff = block[0][0] - prev_dc;
        prev_dc = block[0][0];
        let dc_size = entropy::size_category(dc_diff) as u16;
        dc_freq[dc_size as usize] += 1;
        let mut ac: Vec<(u16, i64)> = Vec::new();
        let mut run = 0u16;
        for &(r, c) in &zz[1..] {
            let v = block[r][c];
            if v == 0 {
                run += 1;
                continue;
            }
            while run >= 16 {
                ac.push((ZRL, 0));
                ac_freq[ZRL as usize] += 1;
                run -= 16;
            }
            let size = entropy::size_category(v) as u16;
            let sym = (run << 4) | size;
            ac.push((sym, v));
            ac_freq[sym as usize] += 1;
            run = 0;
        }
        if run > 0 {
            ac.push((EOB, 0));
            ac_freq[EOB as usize] += 1;
        }
        symbolized.push(ac);
    }
    // pass 2: emit
    let dc_code = entropy::HuffmanCode::from_frequencies(&dc_freq);
    let ac_code = entropy::HuffmanCode::from_frequencies(&ac_freq);
    let mut writer = entropy::BitWriter::new();
    write_code_table(&mut writer, &dc_freq);
    write_code_table(&mut writer, &ac_freq);
    let mut prev_dc = 0i64;
    for (block, ac) in blocks.iter().zip(&symbolized) {
        let dc_diff = block[0][0] - prev_dc;
        prev_dc = block[0][0];
        let dc_size = entropy::size_category(dc_diff);
        dc_code.encode(&mut writer, dc_size as u16);
        if dc_size > 0 {
            writer.put(entropy::amplitude_bits(dc_diff, dc_size), dc_size);
        }
        for &(sym, v) in ac {
            ac_code.encode(&mut writer, sym);
            let size = u32::from(sym & 0xF);
            if size > 0 {
                writer.put(entropy::amplitude_bits(v, size), size);
            }
        }
    }
    writer.finish()
}

/// Writes symbol frequencies as a crude table header (symbol count, then
/// `(symbol, 32-bit count)` pairs). A real JPEG would emit DHT segments;
/// the framing is irrelevant to the experiments, losslessness is not.
fn write_code_table(writer: &mut entropy::BitWriter, freqs: &[u64]) {
    let active: Vec<u16> = (0..freqs.len() as u16)
        .filter(|&s| freqs[s as usize] > 0)
        .collect();
    writer.put(active.len() as u32, 16);
    for &s in &active {
        writer.put(u32::from(s), 16);
        writer.put(freqs[s as usize] as u32, 32);
    }
}

fn read_code_table(reader: &mut entropy::BitReader<'_>, alphabet: usize) -> Option<Vec<u64>> {
    let count = reader.bits(16)? as usize;
    let mut freqs = vec![0u64; alphabet];
    for _ in 0..count {
        let sym = reader.bits(16)? as usize;
        let freq = u64::from(reader.bits(32)?);
        *freqs.get_mut(sym)? = freq;
    }
    Some(freqs)
}

/// Decodes the entropy stream back into quantized coefficient blocks.
#[must_use]
fn entropy_decode(bytes: &[u8], num_blocks: usize) -> Option<CoeffBlocks> {
    let zz = quant::zigzag_order();
    let mut reader = entropy::BitReader::new(bytes);
    let dc_freq = read_code_table(&mut reader, 16)?;
    let ac_freq = read_code_table(&mut reader, 256)?;
    let dc_code = entropy::HuffmanCode::from_frequencies(&dc_freq);
    let ac_code = entropy::HuffmanCode::from_frequencies(&ac_freq);
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut prev_dc = 0i64;
    for _ in 0..num_blocks {
        let mut block = [[0i64; 8]; 8];
        let dc_size = u32::from(dc_code.decode(&mut reader)?);
        let dc_diff = if dc_size > 0 {
            entropy::amplitude_value(reader.bits(dc_size)?, dc_size)
        } else {
            0
        };
        prev_dc += dc_diff;
        block[0][0] = prev_dc;
        let mut pos = 1;
        while pos < 64 {
            let sym = ac_code.decode(&mut reader)?;
            if sym == EOB {
                break;
            }
            if sym == ZRL {
                pos += 16;
                continue;
            }
            let run = usize::from(sym >> 4);
            let size = u32::from(sym & 0xF);
            pos += run;
            if pos >= 64 {
                return None;
            }
            let (r, c) = zz[pos];
            block[r][c] = entropy::amplitude_value(reader.bits(size)?, size);
            pos += 1;
        }
        blocks.push(block);
    }
    Some(blocks)
}

/// Dequantizes and inverse-transforms the blocks into an image.
fn reconstruct(blocks: &CoeffBlocks, width: usize, height: usize, quality: u32) -> Image {
    let qt = quant::quality_table(quality);
    let mut pixels = vec![0u8; width * height];
    let blocks_x = width / 8;
    for (bi, block) in blocks.iter().enumerate() {
        let (bx, by) = ((bi % blocks_x) * 8, (bi / blocks_x) * 8);
        let mut deq = [[0.0f64; 8]; 8];
        for r in 0..8 {
            for c in 0..8 {
                deq[r][c] = (block[r][c] * qt[r][c]) as f64;
            }
        }
        let spatial = dct::idct8x8_f64(&deq);
        for (r, row) in spatial.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                pixels[(by + r) * width + bx + c] = (v + 128.0).clamp(0.0, 255.0) as u8;
            }
        }
    }
    Image::from_pixels(width, height, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{FaType, OperatorConfig, OperatorCtx};

    #[test]
    fn exact_encoding_scores_perfect_mssim_against_itself() {
        let fixture = JpegFixture::synthetic(64, 90, 5);
        let mut ctx = OperatorCtx::exact();
        let (result, score) = fixture.run(&mut ctx);
        assert!((score.value() - 1.0).abs() < 1e-12);
        assert!(!result.bytes.is_empty());
    }

    #[test]
    fn quality_90_reconstruction_is_visually_close_to_the_source() {
        let fixture = JpegFixture::synthetic(64, 90, 5);
        let mut ctx = OperatorCtx::exact();
        let (result, _) = fixture.run(&mut ctx);
        let score_vs_source =
            apx_metrics::mssim(fixture.image().pixels(), result.decoded.pixels(), 64, 64);
        assert!(
            score_vs_source > 0.85,
            "q90 MSSIM vs source: {score_vs_source}"
        );
    }

    #[test]
    fn compressed_stream_is_smaller_than_raw() {
        let fixture = JpegFixture::synthetic(128, 90, 6);
        let mut ctx = OperatorCtx::exact();
        let (result, _) = fixture.run(&mut ctx);
        assert!(
            result.bytes.len() < 128 * 128,
            "stream {} bytes !< raw {}",
            result.bytes.len(),
            128 * 128
        );
    }

    #[test]
    fn dct_ops_are_counted() {
        let fixture = JpegFixture::synthetic(32, 90, 2);
        let mut ctx = OperatorCtx::exact();
        let (result, _) = fixture.run(&mut ctx);
        // 16 blocks * 16 1-D DCTs * 8 outputs * 8 muls
        assert_eq!(result.counts.muls, 16 * 16 * 64);
        assert_eq!(result.counts.adds, 16 * 16 * 8 * 7);
    }

    #[test]
    fn heavy_approximation_hurts_mssim() {
        let fixture = JpegFixture::synthetic(64, 90, 5);
        let mut gentle = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 15 });
        let mut harsh = OperatorCtx::for_config(&OperatorConfig::RcaApx {
            n: 16,
            m: 2,
            fa_type: FaType::Three,
        });
        let (_, good) = fixture.run(&mut gentle);
        let (_, bad) = fixture.run(&mut harsh);
        assert!(good > bad, "gentle {good} must beat harsh {bad}");
        assert!(
            good.value() > 0.9,
            "near-exact sizing keeps MSSIM high: {good}"
        );
    }
}
