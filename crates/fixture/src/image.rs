//! Synthetic grayscale test images with photographic statistics.

use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// Creates an image from raw pixels (row-major).
    ///
    /// # Panics
    /// Panics if `pixels.len() != width * height`.
    #[must_use]
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel buffer.
    #[must_use]
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn pixel(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Pixel with the coordinates clamped to the image borders (the edge
    /// extension used by interpolation filters).
    #[must_use]
    pub fn pixel_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[cy * self.width + cx]
    }

    /// Serializes to binary PGM (P5) for eyeballing results.
    #[must_use]
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.pixels);
        out
    }
}

/// The smallest edge length [`synthetic_photo`] accepts.
pub const MIN_EDGE: usize = 16;

/// Generates a deterministic grayscale image with natural-photo
/// statistics: low-frequency shading, a handful of hard-edged objects,
/// band-limited texture and mild vignetting.
///
/// # Example
/// ```
/// let img = apx_fixture::image::synthetic_photo(64, 64, 1);
/// assert_eq!(img.pixels().len(), 64 * 64);
/// // non-degenerate dynamic range
/// let min = img.pixels().iter().min().unwrap();
/// let max = img.pixels().iter().max().unwrap();
/// assert!(max - min > 100);
/// ```
///
/// # Panics
/// Panics if `width` or `height` is smaller than [`MIN_EDGE`].
#[must_use]
pub fn synthetic_photo(width: usize, height: usize, seed: u64) -> Image {
    assert!(width >= MIN_EDGE && height >= MIN_EDGE, "image too small");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut field = vec![0.0f64; width * height];

    // 1. smooth shading: sum of low-frequency cosine plane waves
    let waves: Vec<(f64, f64, f64, f64)> = (0..4)
        .map(|_| {
            (
                rng.random::<f64>() * 2.5 + 0.5,
                rng.random::<f64>() * 2.5 + 0.5,
                rng.random::<f64>() * std::f64::consts::TAU,
                rng.random::<f64>() * 40.0 + 15.0,
            )
        })
        .collect();
    for y in 0..height {
        for x in 0..width {
            let (fx, fy) = (x as f64 / width as f64, y as f64 / height as f64);
            let mut v = 128.0;
            for &(kx, ky, phase, amp) in &waves {
                v += amp * (std::f64::consts::TAU * (kx * fx + ky * fy) + phase).cos();
            }
            field[y * width + x] = v;
        }
    }

    // 2. hard-edged objects (ellipses and rectangles) for DCT/SSIM edges
    for _ in 0..6 {
        let cx = rng.random::<f64>() * width as f64;
        let cy = rng.random::<f64>() * height as f64;
        let rx = rng.random::<f64>() * width as f64 / 6.0 + 4.0;
        let ry = rng.random::<f64>() * height as f64 / 6.0 + 4.0;
        let delta = rng.random::<f64>() * 120.0 - 60.0;
        let rectangular = rng.random::<bool>();
        for y in 0..height {
            for x in 0..width {
                let dx = (x as f64 - cx) / rx;
                let dy = (y as f64 - cy) / ry;
                let inside = if rectangular {
                    dx.abs() < 1.0 && dy.abs() < 1.0
                } else {
                    dx * dx + dy * dy < 1.0
                };
                if inside {
                    field[y * width + x] += delta;
                }
            }
        }
    }

    // 3. band-limited texture: white noise box-blurred once
    let noise: Vec<f64> = (0..width * height)
        .map(|_| (rng.random::<f64>() - 0.5) * 36.0)
        .collect();
    for y in 1..height - 1 {
        for x in 1..width - 1 {
            let mut acc = 0.0;
            for dy in 0..3 {
                for dx in 0..3 {
                    acc += noise[(y + dy - 1) * width + (x + dx - 1)];
                }
            }
            field[y * width + x] += acc / 9.0;
        }
    }

    // 4. vignette and quantization to u8
    let pixels = field
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let (x, y) = (i % width, i / width);
            let dx = (x as f64 / width as f64) - 0.5;
            let dy = (y as f64 / height as f64) - 0.5;
            let vignette = 1.0 - 0.35 * (dx * dx + dy * dy);
            (v * vignette).clamp(0.0, 255.0) as u8
        })
        .collect();
    Image::from_pixels(width, height, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_photo(64, 48, 42);
        let b = synthetic_photo(64, 48, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_images() {
        let a = synthetic_photo(32, 32, 1);
        let b = synthetic_photo(32, 32, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn image_has_photo_like_statistics() {
        let img = synthetic_photo(128, 128, 7);
        let px = img.pixels();
        let mean: f64 = px.iter().map(|&p| f64::from(p)).sum::<f64>() / px.len() as f64;
        assert!((40.0..220.0).contains(&mean), "mean {mean}");
        // neighbouring pixels must correlate (natural images do)
        let mut same = 0.0;
        let mut count = 0.0;
        for y in 0..img.height() {
            for x in 1..img.width() {
                let d = f64::from(img.pixel(x, y)) - f64::from(img.pixel(x - 1, y));
                same += d * d;
                count += 1.0;
            }
        }
        let neighbour_mse = same / count;
        assert!(
            neighbour_mse < 1000.0,
            "horizontal neighbour MSE too high: {neighbour_mse}"
        );
    }

    #[test]
    fn clamped_access_extends_borders() {
        let img = synthetic_photo(16, 16, 3);
        assert_eq!(img.pixel_clamped(-5, -5), img.pixel(0, 0));
        assert_eq!(img.pixel_clamped(100, 8), img.pixel(15, 8));
    }

    #[test]
    fn pgm_header_is_wellformed() {
        let img = synthetic_photo(16, 16, 3);
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n16 16\n255\n"));
        assert_eq!(pgm.len(), 13 + 256);
    }
}
