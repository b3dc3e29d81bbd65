//! Single-precision planar amplitude planes and the f32 spMM microkernel
//! (the narrow execution arm of the precision axis).
//!
//! [`AmpBufferF32`] mirrors [`AmpBuffer`](crate::AmpBuffer) with `f32`
//! planes — half the plane traffic of the bandwidth-bound sweep.
//! [`EllMatrix::spmm_rows_planar_f32`] mirrors the f64 planar dispatch in
//! [`planar`](crate::planar) arm for arm (same value-pattern dispatch,
//! evaluated on the *f64* gate values, so both precisions take identical
//! arms on identical matrices); gate values are narrowed once per row and
//! every multiply-accumulate runs in `f32`.
//!
//! All narrowing goes through [`bqsim_num::narrow`] (the CI lint wall
//! denies bare `as` casts in this crate), and the kernel accepts the
//! pattern-compression toggle the auto-tuner probes.

use crate::format::EllMatrix;
use bqsim_num::narrow::{to_f32, widen};
use bqsim_num::Complex;

/// A batch of state vectors in planar layout with `f32` component
/// planes, amplitude-major like [`AmpBuffer`](crate::AmpBuffer)
/// (`plane[r * batch + b]`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AmpBufferF32 {
    re: Vec<f32>,
    im: Vec<f32>,
}

impl AmpBufferF32 {
    /// An all-zero buffer holding `len` amplitudes.
    pub fn zeroed(len: usize) -> Self {
        AmpBufferF32 {
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// An all-zero buffer of `len` amplitudes whose planes reserve room
    /// for `cap` (pool size classes allocate whole classes up front).
    pub fn zeroed_with_capacity(len: usize, cap: usize) -> Self {
        let mut b = AmpBufferF32 {
            re: Vec::with_capacity(cap.max(len)),
            im: Vec::with_capacity(cap.max(len)),
        };
        b.reset_zeroed(len);
        b
    }

    /// Resizes to `len` amplitudes, all zero, reusing plane capacity.
    pub fn reset_zeroed(&mut self, len: usize) {
        self.re.clear();
        self.re.resize(len, 0.0);
        self.im.clear();
        self.im.resize(len, 0.0);
    }

    /// Amplitudes the planes can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.re.capacity().min(self.im.capacity())
    }

    /// Number of amplitudes.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the buffer holds no amplitudes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Both planes, `(re, im)`.
    #[inline]
    pub fn planes(&self) -> (&[f32], &[f32]) {
        (&self.re, &self.im)
    }

    /// Both planes mutably, `(re, im)`.
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.re, &mut self.im)
    }

    /// Sets every amplitude to the narrowed `v` (zeroing, NaN
    /// poisoning).
    pub fn fill(&mut self, v: Complex) {
        self.re.fill(to_f32(v.re));
        self.im.fill(to_f32(v.im));
    }

    /// De-interleaves and narrows `src` into the leading `src.len()`
    /// amplitudes. This is the intended precision-loss point of the
    /// staging path: each amplitude rounds exactly once on entry.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() > self.len()`.
    pub fn copy_from_aos(&mut self, src: &[Complex]) {
        assert!(src.len() <= self.len(), "planar prefix copy overrun");
        for ((dr, di), s) in self.re.iter_mut().zip(self.im.iter_mut()).zip(src) {
            *dr = to_f32(s.re);
            *di = to_f32(s.im);
        }
    }

    /// Re-interleaves and widens the leading `dst.len()` amplitudes into
    /// `dst` (exact: widening never rounds).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() > self.len()`.
    pub fn copy_to_aos(&self, dst: &mut [Complex]) {
        assert!(dst.len() <= self.len(), "planar prefix copy overrun");
        for (d, (&re, &im)) in dst.iter_mut().zip(self.re.iter().zip(&self.im)) {
            *d = Complex::new(widen(re), widen(im));
        }
    }

    /// Copies the leading `src.len()` amplitudes from another `f32`
    /// planar buffer — two plane `memcpy`s, no conversion.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() > self.len()`.
    pub fn copy_prefix_from(&mut self, src: &AmpBufferF32) {
        let len = src.len();
        assert!(len <= self.len(), "planar prefix copy overrun");
        self.re[..len].copy_from_slice(&src.re);
        self.im[..len].copy_from_slice(&src.im);
    }

    /// Narrows the leading `re.len()` amplitudes from `f64` planes
    /// (cross-width planar copy; one rounding per amplitude).
    ///
    /// # Panics
    ///
    /// Panics if the planes are unequal or longer than this buffer.
    pub fn copy_from_planes_f64(&mut self, re: &[f64], im: &[f64]) {
        assert_eq!(re.len(), im.len(), "source plane size mismatch");
        assert!(re.len() <= self.len(), "planar prefix copy overrun");
        for (d, &s) in self.re.iter_mut().zip(re) {
            *d = to_f32(s);
        }
        for (d, &s) in self.im.iter_mut().zip(im) {
            *d = to_f32(s);
        }
    }

    /// Widens the leading `re.len()` amplitudes into `f64` planes
    /// (exact).
    ///
    /// # Panics
    ///
    /// Panics if the planes are unequal or longer than this buffer.
    pub fn copy_to_planes_f64(&self, re: &mut [f64], im: &mut [f64]) {
        assert_eq!(re.len(), im.len(), "target plane size mismatch");
        assert!(re.len() <= self.len(), "planar prefix copy overrun");
        for (d, &s) in re.iter_mut().zip(&self.re) {
            *d = widen(s);
        }
        for (d, &s) in im.iter_mut().zip(&self.im) {
            *d = widen(s);
        }
    }

    /// Builds a narrowed planar buffer from an interleaved slice.
    pub fn from_aos(src: &[Complex]) -> Self {
        let mut b = AmpBufferF32::zeroed(src.len());
        b.copy_from_aos(src);
        b
    }

    /// Widens back into a fresh interleaved `Vec<Complex>`.
    pub fn to_aos(&self) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.len()];
        self.copy_to_aos(&mut out);
        out
    }
}

// --- f32 lane primitives ---------------------------------------------------
//
// Same split-pass shape as the f64 primitives in `planar.rs`: two
// independent per-plane passes per arm, each a flat map the
// auto-vectoriser unrolls. Each narrows the gate value once and
// multiplies in f32 (twice the SIMD width of the f64 passes on the same
// vector registers).

#[inline(always)]
fn lane_zero(or: &mut [f32], oi: &mut [f32]) {
    or.fill(0.0);
    oi.fill(0.0);
}

#[inline(always)]
fn lane_copy(or: &mut [f32], oi: &mut [f32], xr: &[f32], xi: &[f32]) {
    or.copy_from_slice(xr);
    oi.copy_from_slice(xi);
}

#[inline(always)]
fn lane_rscale(s: f64, or: &mut [f32], oi: &mut [f32], xr: &[f32], xi: &[f32]) {
    let s = to_f32(s);
    for (o, &a) in or.iter_mut().zip(xr) {
        *o = s * a;
    }
    for (o, &b) in oi.iter_mut().zip(xi) {
        *o = s * b;
    }
}

#[inline(always)]
fn lane_cscale(v: Complex, or: &mut [f32], oi: &mut [f32], xr: &[f32], xi: &[f32]) {
    let (vr, vi) = (to_f32(v.re), to_f32(v.im));
    for (o, (&a, &b)) in or.iter_mut().zip(xr.iter().zip(xi)) {
        *o = vr * a - vi * b;
    }
    for (o, (&a, &b)) in oi.iter_mut().zip(xr.iter().zip(xi)) {
        *o = vr * b + vi * a;
    }
}

#[inline(always)]
fn lane_axpy(v: Complex, or: &mut [f32], oi: &mut [f32], xr: &[f32], xi: &[f32]) {
    let (vr, vi) = (to_f32(v.re), to_f32(v.im));
    for (o, (&a, &b)) in or.iter_mut().zip(xr.iter().zip(xi)) {
        *o += vr * a - vi * b;
    }
    for (o, (&a, &b)) in oi.iter_mut().zip(xr.iter().zip(xi)) {
        *o += vr * b + vi * a;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // planar kernels take one slice per plane
fn lane_pair_r(
    s0: f64,
    s1: f64,
    or: &mut [f32],
    oi: &mut [f32],
    ar: &[f32],
    ai: &[f32],
    br: &[f32],
    bi: &[f32],
) {
    let (s0, s1) = (to_f32(s0), to_f32(s1));
    for (o, (&a, &b)) in or.iter_mut().zip(ar.iter().zip(br)) {
        *o = s0 * a + s1 * b;
    }
    for (o, (&a, &b)) in oi.iter_mut().zip(ai.iter().zip(bi)) {
        *o = s0 * a + s1 * b;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // planar kernels take one slice per plane
fn lane_pair_c(
    v0: Complex,
    v1: Complex,
    or: &mut [f32],
    oi: &mut [f32],
    ar: &[f32],
    ai: &[f32],
    br: &[f32],
    bi: &[f32],
) {
    let n = or.len();
    let (ar, ai, br, bi) = (&ar[..n], &ai[..n], &br[..n], &bi[..n]);
    let (v0r, v0i, v1r, v1i) = (to_f32(v0.re), to_f32(v0.im), to_f32(v1.re), to_f32(v1.im));
    for (t, o) in or.iter_mut().enumerate() {
        *o = (v0r * ar[t] - v0i * ai[t]) + (v1r * br[t] - v1i * bi[t]);
    }
    for (t, o) in oi[..n].iter_mut().enumerate() {
        *o = (v0r * ai[t] + v0i * ar[t]) + (v1r * bi[t] + v1i * br[t]);
    }
}

/// One `(re, im)` input-row plane pair.
type Planes32<'a> = (&'a [f32], &'a [f32]);

#[inline(always)]
fn lane_multi_r<const K: usize>(s: [f64; K], or: &mut [f32], oi: &mut [f32], x: [Planes32<'_>; K]) {
    let n = or.len();
    let s = s.map(to_f32);
    for (t, o) in or.iter_mut().enumerate() {
        let mut re = s[0] * x[0].0[t];
        for k in 1..K {
            re += s[k] * x[k].0[t];
        }
        *o = re;
    }
    for (t, o) in oi[..n].iter_mut().enumerate() {
        let mut im = s[0] * x[0].1[t];
        for k in 1..K {
            im += s[k] * x[k].1[t];
        }
        *o = im;
    }
}

#[inline(always)]
fn lane_multi_c<const K: usize>(
    v: [Complex; K],
    or: &mut [f32],
    oi: &mut [f32],
    x: [Planes32<'_>; K],
) {
    let n = or.len();
    let vr = v.map(|z| to_f32(z.re));
    let vi = v.map(|z| to_f32(z.im));
    for (t, o) in or.iter_mut().enumerate() {
        let (a, b) = (x[0].0[t], x[0].1[t]);
        let mut re = vr[0] * a - vi[0] * b;
        for k in 1..K {
            let (a, b) = (x[k].0[t], x[k].1[t]);
            re += vr[k] * a - vi[k] * b;
        }
        *o = re;
    }
    for (t, o) in oi[..n].iter_mut().enumerate() {
        let (a, b) = (x[0].0[t], x[0].1[t]);
        let mut im = vr[0] * b + vi[0] * a;
        for k in 1..K {
            let (a, b) = (x[k].0[t], x[k].1[t]);
            im += vr[k] * b + vi[k] * a;
        }
        *o = im;
    }
}

impl EllMatrix {
    /// Pure-f32 planar row-window spMM: the counterpart of
    /// [`EllMatrix::spmm_rows_planar`] over `f32` planes with `f32`
    /// arithmetic. Dispatch decisions (unit value, all-real row) are
    /// evaluated on the f64 gate values, so this takes exactly the arms
    /// the f64 kernel would. `use_pattern` toggles pattern-compressed
    /// slot addressing (an annotation, never a semantic change).
    ///
    /// # Panics
    ///
    /// Panics on any size mismatch or window overrun.
    #[allow(clippy::too_many_arguments)] // mirrors the f64 row-window signature
    pub fn spmm_rows_planar_f32(
        &self,
        in_re: &[f32],
        in_im: &[f32],
        out_re: &mut [f32],
        out_im: &mut [f32],
        first_row: usize,
        batch: usize,
        use_pattern: bool,
    ) {
        let rows = self.num_rows();
        let max_nzr = self.max_nzr();
        assert_eq!(in_re.len(), rows * batch, "input re plane size mismatch");
        assert_eq!(in_im.len(), rows * batch, "input im plane size mismatch");
        assert_eq!(out_re.len(), out_im.len(), "output plane size mismatch");
        assert!(out_re.len().is_multiple_of(batch), "ragged output window");
        assert!(
            first_row + out_re.len() / batch <= rows,
            "row window out of range"
        );
        let (values, cols, row_nnz) = self.slots();
        let period = if use_pattern {
            self.pattern_period()
        } else {
            None
        };
        let src = |col: u32| -> Planes32<'_> {
            let at = col as usize * batch;
            (&in_re[at..at + batch], &in_im[at..at + batch])
        };
        for (i, (or, oi)) in out_re
            .chunks_exact_mut(batch)
            .zip(out_im.chunks_exact_mut(batch))
            .enumerate()
        {
            let r = first_row + i;
            let (t, offset) = match period {
                Some(d) => (r & (d - 1), (r - (r & (d - 1))) as u32),
                None => (r, 0),
            };
            let base = t * max_nzr;
            let nnz = row_nnz[t] as usize;
            let v = &values[base..base + max_nzr];
            let col = |k: usize| cols[base + k] + offset;
            // Same shape dispatch as the f64 planar kernel, including the
            // (2, 1) full-complex-scale quirk.
            match (max_nzr, nnz) {
                (_, 0) => lane_zero(or, oi),
                (1, _) => {
                    let (xr, xi) = src(col(0));
                    if v[0] == Complex::ONE {
                        lane_copy(or, oi, xr, xi);
                    } else if v[0].im == 0.0 {
                        lane_rscale(v[0].re, or, oi, xr, xi);
                    } else {
                        lane_cscale(v[0], or, oi, xr, xi);
                    }
                }
                (2, 1) => {
                    let (xr, xi) = src(col(0));
                    lane_cscale(v[0], or, oi, xr, xi);
                }
                (_, 1) => {
                    let (xr, xi) = src(col(0));
                    if v[0] == Complex::ONE {
                        lane_copy(or, oi, xr, xi);
                    } else if v[0].im == 0.0 {
                        lane_rscale(v[0].re, or, oi, xr, xi);
                    } else {
                        lane_cscale(v[0], or, oi, xr, xi);
                    }
                }
                (_, 2) => {
                    let (ar, ai) = src(col(0));
                    let (br, bi) = src(col(1));
                    if v[0].im == 0.0 && v[1].im == 0.0 {
                        lane_pair_r(v[0].re, v[1].re, or, oi, ar, ai, br, bi);
                    } else {
                        lane_pair_c(v[0], v[1], or, oi, ar, ai, br, bi);
                    }
                }
                (_, 3) => {
                    let x = [src(col(0)), src(col(1)), src(col(2))];
                    if v[..3].iter().all(|v| v.im == 0.0) {
                        lane_multi_r::<3>([v[0].re, v[1].re, v[2].re], or, oi, x);
                    } else {
                        lane_multi_c::<3>([v[0], v[1], v[2]], or, oi, x);
                    }
                }
                (_, 4) => {
                    let x = [src(col(0)), src(col(1)), src(col(2)), src(col(3))];
                    if v[..4].iter().all(|v| v.im == 0.0) {
                        lane_multi_r::<4>([v[0].re, v[1].re, v[2].re, v[3].re], or, oi, x);
                    } else {
                        lane_multi_c::<4>([v[0], v[1], v[2], v[3]], or, oi, x);
                    }
                }
                (_, nnz) => {
                    lane_zero(or, oi);
                    for (k, &vk) in v[..nnz].iter().enumerate() {
                        let (xr, xi) = src(col(k));
                        lane_axpy(vk, or, oi, xr, xi);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmpBuffer;

    fn test_matrix(nzr: usize, fill: usize, rows: usize) -> EllMatrix {
        let mut ell = EllMatrix::zeros(rows, nzr);
        for r in 0..rows {
            for s in 0..fill.min(nzr) {
                let c = (r * 5 + s * 3 + 2) % rows;
                let v = match (r + s) % 3 {
                    0 => Complex::ONE,
                    1 => Complex::new(0.25 + s as f64, 0.0),
                    _ => Complex::new(-0.5, 0.75 + r as f64 * 0.125),
                };
                ell.set_slot(r, s, c, v);
            }
        }
        ell
    }

    #[test]
    fn amp_buffer_f32_roundtrips_and_narrows_once() {
        let src: Vec<Complex> = (0..7)
            .map(|i| Complex::new(0.1 * i as f64, -0.3 * i as f64))
            .collect();
        let buf = AmpBufferF32::from_aos(&src);
        assert_eq!(buf.len(), 7);
        for (orig, back) in src.iter().zip(buf.to_aos()) {
            assert_eq!(back.re, widen(to_f32(orig.re)));
            assert_eq!(back.im, widen(to_f32(orig.im)));
        }
        // Cross-width planar copies agree with the AoS round trip.
        let wide = AmpBuffer::from_aos(&src);
        let (re64, im64) = wide.planes();
        let mut narrow = AmpBufferF32::zeroed(7);
        narrow.copy_from_planes_f64(re64, im64);
        assert_eq!(narrow, buf);
        let mut back = AmpBuffer::zeroed(7);
        let (bre, bim) = back.planes_mut();
        narrow.copy_to_planes_f64(bre, bim);
        assert_eq!(back.to_aos(), buf.to_aos());
    }

    /// Every dispatch arm of the f32 kernel stays within a small
    /// multiple of f32 epsilon of the f64 planar reference, and pattern
    /// on/off is bit-identical.
    #[test]
    fn f32_tracks_the_f64_reference() {
        for (nzr, fill) in [(1usize, 1usize), (2, 1), (2, 2), (3, 3), (4, 4), (5, 5)] {
            let rows = 16;
            let ell = test_matrix(nzr, fill, rows);
            for batch in [1usize, 8, 17] {
                let input: Vec<Complex> = (0..rows * batch)
                    .map(|i| Complex::new(0.01 * i as f64 - 0.3, 0.7 - 0.02 * i as f64))
                    .collect();
                let pin = AmpBuffer::from_aos(&input);
                let mut pout = AmpBuffer::zeroed(rows * batch);
                ell.spmm_planar(&pin, &mut pout, batch);
                let reference = pout.to_aos();

                let fin = AmpBufferF32::from_aos(&input);
                let mut fout = AmpBufferF32::zeroed(rows * batch);
                let mut fout_nopat = AmpBufferF32::zeroed(rows * batch);
                {
                    let (ire, iim) = fin.planes();
                    let (ore, oim) = fout.planes_mut();
                    ell.spmm_rows_planar_f32(ire, iim, ore, oim, 0, batch, true);
                    let (nre, nim) = fout_nopat.planes_mut();
                    ell.spmm_rows_planar_f32(ire, iim, nre, nim, 0, batch, false);
                }
                assert_eq!(fout, fout_nopat, "pattern toggle must be bit-identical");
                let got = fout.to_aos();
                // Inputs are O(1) and rows touch ≤ 5 slots, so a few
                // ulps of f32 per term bounds the divergence.
                let tol = 16.0 * f64::from(f32::EPSILON) * (nzr as f64 + 1.0);
                for (want, got) in reference.iter().zip(&got) {
                    assert!(
                        (want.re - got.re).abs() <= tol && (want.im - got.im).abs() <= tol,
                        "nzr={nzr} fill={fill} batch={batch}: {want:?} vs {got:?}"
                    );
                }
            }
        }
    }
}
