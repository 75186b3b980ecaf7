//! Minimal self-contained FFT (iterative radix-2, complex, power-of-two
//! lengths) plus row-column 2-D/3-D transforms. Used by the two-point
//! correlation; no external FFT dependency is allowed in this workspace.

use std::f64::consts::PI;

/// Complex number as (re, im).
pub type C = (f64, f64);

#[inline]
fn c_mul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// In-place iterative radix-2 FFT. `inverse` applies the conjugate transform
/// *and* the 1/n scaling.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [C], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = c_mul(data[start + k + len / 2], w);
                data[start + k] = (u.0 + v.0, u.1 + v.1);
                data[start + k + len / 2] = (u.0 - v.0, u.1 - v.1);
                w = c_mul(w, wlen);
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for d in data.iter_mut() {
            d.0 *= inv_n;
            d.1 *= inv_n;
        }
    }
}

/// In-place 3-D FFT on an `nx × ny × nz` complex grid (x fastest).
pub fn fft3(data: &mut [C], dims: [usize; 3], inverse: bool) {
    let [nx, ny, nz] = dims;
    assert_eq!(data.len(), nx * ny * nz);
    let mut scratch = vec![(0.0, 0.0); nx.max(ny).max(nz)];
    // x lines.
    for z in 0..nz {
        for y in 0..ny {
            let row = (z * ny + y) * nx;
            fft(&mut data[row..row + nx], inverse);
        }
    }
    // y lines.
    for z in 0..nz {
        for x in 0..nx {
            for y in 0..ny {
                scratch[y] = data[(z * ny + y) * nx + x];
            }
            fft(&mut scratch[..ny], inverse);
            for y in 0..ny {
                data[(z * ny + y) * nx + x] = scratch[y];
            }
        }
    }
    // z lines.
    for y in 0..ny {
        for x in 0..nx {
            for z in 0..nz {
                scratch[z] = data[(z * ny + y) * nx + x];
            }
            fft(&mut scratch[..nz], inverse);
            for z in 0..nz {
                data[(z * ny + y) * nx + x] = scratch[z];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_recovers_signal() {
        let n = 64;
        let orig: Vec<C> = (0..n)
            .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut data = orig.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn single_frequency_has_single_peak() {
        let n = 32;
        let k = 5;
        let mut data: Vec<C> = (0..n)
            .map(|i| ((2.0 * PI * k as f64 * i as f64 / n as f64).cos(), 0.0))
            .collect();
        fft(&mut data, false);
        for (f, v) in data.iter().enumerate() {
            let mag = (v.0 * v.0 + v.1 * v.1).sqrt();
            if f == k || f == n - k {
                assert!((mag - n as f64 / 2.0).abs() < 1e-9, "bin {f}: {mag}");
            } else {
                assert!(mag < 1e-9, "leakage at bin {f}: {mag}");
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let data_t: Vec<C> = (0..n).map(|i| ((i as f64).sin(), 0.0)).collect();
        let mut data_f = data_t.clone();
        fft(&mut data_f, false);
        let e_t: f64 = data_t.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        let e_f: f64 = data_f.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>() / n as f64;
        assert!((e_t - e_f).abs() < 1e-9);
    }

    #[test]
    fn fft3_roundtrip() {
        let dims = [8, 4, 16];
        let n = dims.iter().product::<usize>();
        let orig: Vec<C> = (0..n).map(|i| ((i as f64 * 0.7).sin(), 0.0)).collect();
        let mut data = orig.clone();
        fft3(&mut data, dims, false);
        fft3(&mut data, dims, true);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a.0 - b.0).abs() < 1e-11);
        }
    }

    #[test]
    fn fft2_roundtrip() {
        // A 2-D grid is the `nz = 1` case of `fft3`.
        let dims = [8, 16, 1];
        let orig: Vec<C> = (0..128).map(|i| ((i as f64 * 0.3).cos(), 0.0)).collect();
        let mut data = orig.clone();
        fft3(&mut data, dims, false);
        fft3(&mut data, dims, true);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a.0 - b.0).abs() < 1e-11);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut d = vec![(0.0, 0.0); 12];
        fft(&mut d, false);
    }
}
