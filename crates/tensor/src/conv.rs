//! Convolution and pooling kernels for NCHW tensors.
//!
//! Convolutions are computed by lowering to matrix multiplication via
//! `im2col`/`col2im`, the standard approach for CPU inference and training.
//! Pooling is computed directly, recording argmax indices so the backward
//! pass can scatter gradients.

use crate::error::{Result, TensorError};
use crate::parallel;
use crate::tensor::Tensor;

/// Geometry of a 2-D sliding-window operation (convolution or pooling).
///
/// The paper's fused binary blocks use a 3×3 convolution with stride 1 and
/// padding 1, and a 3×3 pool with stride 2 and padding 1; both are instances
/// of this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied symmetrically on all sides.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a square-kernel spec.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec { kernel_h: kernel, kernel_w: kernel, stride, padding }
    }

    /// The paper's convolution geometry: 3×3, stride 1, padding 1.
    pub fn paper_conv() -> Self {
        Conv2dSpec::new(3, 1, 1)
    }

    /// The paper's pooling geometry: 3×3, stride 2, padding 1.
    pub fn paper_pool() -> Self {
        Conv2dSpec::new(3, 2, 1)
    }

    /// Output spatial size for an `(h, w)` input.
    ///
    /// Assumes the geometry is valid (the kernel fits in the padded input
    /// and the stride is non-zero). Every fallible kernel entry point —
    /// the f32 conv/pool/im2col family below, the bit-packed
    /// [`crate::bitmatrix::bit_im2col`], and the fused
    /// [`crate::bitmatrix::BinaryConvPlan`] — goes through
    /// [`Conv2dSpec::checked_output_size`] instead, which rejects
    /// degenerate geometries rather than silently clamping them; this raw
    /// variant is only for contexts where the geometry was already
    /// validated (or is a compile-time paper constant).
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding).saturating_sub(self.kernel_h) / self.stride.max(1) + 1;
        let ow = (w + 2 * self.padding).saturating_sub(self.kernel_w) / self.stride.max(1) + 1;
        (oh, ow)
    }

    /// Output spatial size for an `(h, w)` input, rejecting degenerate
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel is larger
    /// than the padded input (which [`Conv2dSpec::output_size`] would
    /// silently clamp to a bogus 1×N output), if the kernel is empty, or
    /// if the stride is zero.
    pub fn checked_output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let valid = self.stride > 0
            && self.kernel_h > 0
            && self.kernel_w > 0
            && h + 2 * self.padding >= self.kernel_h
            && w + 2 * self.padding >= self.kernel_w;
        if !valid {
            return Err(TensorError::InvalidGeometry {
                kernel: (self.kernel_h, self.kernel_w),
                input: (h, w),
                stride: self.stride,
                padding: self.padding,
            });
        }
        Ok(self.output_size(h, w))
    }
}

pub(crate) fn check_nchw(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: t.rank() });
    }
    let d = t.dims();
    if d.contains(&0) {
        return Err(TensorError::Empty { op });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Lowers an NCHW batch into column matrices for convolution.
///
/// Returns a tensor of shape `(n, c*kh*kw, oh*ow)`: one column matrix per
/// batch element, with each column holding the receptive field of one output
/// pixel. Out-of-bounds taps read as zero (zero padding).
///
/// # Errors
///
/// Returns an error if `input` is not a non-empty rank-4 tensor or the
/// geometry is degenerate.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "im2col")?;
    let (oh, ow) = spec.checked_output_size(h, w)?;
    let rows = c * spec.kernel_h * spec.kernel_w;
    let cols = oh * ow;
    let mut out = vec![0.0f32; n * rows * cols];
    let data = input.data();
    // Batch elements are independent: fan them out across the pool. Each
    // worker writes only its own batch chunk, so the result is identical
    // for any thread count.
    parallel::par_item_chunks_mut(&mut out, rows * cols, |b0, chunk| {
        for (bi, bchunk) in chunk.chunks_mut(rows * cols).enumerate() {
            let in_base = (b0 + bi) * c * h * w;
            let mut r = 0;
            for ch in 0..c {
                for ky in 0..spec.kernel_h {
                    for kx in 0..spec.kernel_w {
                        let row_off = r * cols;
                        for oy in 0..oh {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let src_row = in_base + ch * h * w + iy as usize * w;
                            for ox in 0..ow {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                bchunk[row_off + oy * ow + ox] = data[src_row + ix as usize];
                            }
                        }
                        r += 1;
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, [n, rows, cols])
}

/// Inverse lowering: accumulates a `(n, c*kh*kw, oh*ow)` column tensor back
/// into an NCHW gradient of shape `(n, c, h, w)`.
///
/// Overlapping receptive fields *accumulate*, which is exactly the adjoint of
/// [`im2col`] — required for correct convolution input gradients.
///
/// # Errors
///
/// Returns an error if `cols` is not rank 3 or its shape is inconsistent
/// with `(c, h, w)` under `spec`.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<Tensor> {
    if cols.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: cols.rank() });
    }
    let (oh, ow) = spec.checked_output_size(h, w)?;
    let rows = c * spec.kernel_h * spec.kernel_w;
    let n = cols.dims()[0];
    if cols.dims()[1] != rows || cols.dims()[2] != oh * ow {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![n, rows, oh * ow],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();
    // Scatter-accumulation stays within one batch element, so batches can
    // run on separate workers without racing; per-element accumulation
    // order is the serial loop's, keeping results thread-count-invariant.
    parallel::par_item_chunks_mut(&mut out, c * h * w, |b0, chunk| {
        for (bi, bchunk) in chunk.chunks_mut(c * h * w).enumerate() {
            let in_base = (b0 + bi) * rows * (oh * ow);
            let mut r = 0;
            for ch in 0..c {
                for ky in 0..spec.kernel_h {
                    for kx in 0..spec.kernel_w {
                        let row_off = in_base + r * oh * ow;
                        for oy in 0..oh {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst_row = ch * h * w + iy as usize * w;
                            for ox in 0..ow {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                bchunk[dst_row + ix as usize] += data[row_off + oy * ow + ox];
                            }
                        }
                        r += 1;
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, [n, c, h, w])
}

/// Forward 2-D convolution: input `(n, c, h, w)`, weights `(f, c, kh, kw)`,
/// producing `(n, f, oh, ow)`.
///
/// # Errors
///
/// Returns an error for non-rank-4 operands, mismatched channel counts or
/// degenerate geometry.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "conv2d")?;
    let (f, wc, kh, kw) = check_nchw(weight, "conv2d")?;
    if wc != c || kh != spec.kernel_h || kw != spec.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv2d",
        });
    }
    let (oh, ow) = spec.checked_output_size(h, w)?;
    let rows = c * kh * kw;
    let pixels = oh * ow;
    let cols = im2col(input, spec)?;
    let wmat = weight.reshape([f, rows])?;
    let wdata = wmat.data();
    let cdata = cols.data();
    let mut out = vec![0.0f32; n * f * pixels];
    // Fan the batch out across the pool; each element is an independent
    // `(f, rows) x (rows, pixels)` product. A single-element batch instead
    // parallelises inside the GEMM (across output rows), so per-sample
    // inference outside the runtime still uses every core; runtime node
    // threads run it serially (`parallel::inline`).
    parallel::par_item_chunks_mut(&mut out, f * pixels, |b0, chunk| {
        for (bi, res) in chunk.chunks_mut(f * pixels).enumerate() {
            let b = b0 + bi;
            let colmat = &cdata[b * rows * pixels..(b + 1) * rows * pixels];
            crate::ops::gemm_auto(wdata, colmat, f, rows, pixels, res);
        }
    });
    Tensor::from_vec(out, [n, f, oh, ow])
}

/// Gradients of [`conv2d`] given upstream `grad_out` of shape
/// `(n, f, oh, ow)`.
///
/// Returns `(grad_input, grad_weight)` with the shapes of `input` and
/// `weight` respectively.
///
/// # Errors
///
/// Returns an error for inconsistent shapes.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    let (n, c, h, w) = check_nchw(input, "conv2d_backward")?;
    let (f, _, kh, kw) = check_nchw(weight, "conv2d_backward")?;
    let (gn, gf, goh, gow) = check_nchw(grad_out, "conv2d_backward")?;
    let (oh, ow) = spec.checked_output_size(h, w)?;
    if gn != n || gf != f || goh != oh || gow != ow {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.dims().to_vec(),
            rhs: vec![n, f, oh, ow],
            op: "conv2d_backward",
        });
    }
    let rows = c * kh * kw;
    let cols = im2col(input, spec)?;
    let wmat = weight.reshape([f, rows])?;
    let wmat_t = wmat.transpose()?;
    let mut grad_w = Tensor::zeros([f, rows]);
    let mut grad_cols = Vec::with_capacity(n * rows * oh * ow);
    for b in 0..n {
        let gmat = grad_out.index_axis0(b)?.reshape([f, oh * ow])?;
        let colmat = cols.index_axis0(b)?; // (rows, oh*ow)
                                           // dW += dY * X_col^T
        let gw = gmat.matmul(&colmat.transpose()?)?;
        grad_w.add_assign(&gw)?;
        // dX_col = W^T * dY
        let gc = wmat_t.matmul(&gmat)?;
        grad_cols.extend_from_slice(gc.data());
    }
    let grad_cols = Tensor::from_vec(grad_cols, [n, rows, oh * ow])?;
    let grad_input = col2im(&grad_cols, c, h, w, spec)?;
    let grad_weight = grad_w.reshape([f, c, kh, kw])?;
    Ok((grad_input, grad_weight))
}

/// Result of a max-pooling forward pass: the pooled output plus the flat
/// input index each output element was taken from (for the backward pass).
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled tensor of shape `(n, c, oh, ow)`.
    pub output: Tensor,
    /// For each output element, the flat index into the input it selected.
    pub argmax: Vec<usize>,
}

/// Forward max pooling over an NCHW tensor.
///
/// Padding positions are treated as `-inf` (never selected) unless an entire
/// window falls in padding, in which case the output is `0.0` and the argmax
/// sentinel `usize::MAX` marks "no source" (no gradient flows back).
///
/// # Errors
///
/// Returns an error if `input` is not a non-empty rank-4 tensor or the
/// pooling geometry is degenerate.
pub fn max_pool2d(input: &Tensor, spec: &Conv2dSpec) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check_nchw(input, "max_pool2d")?;
    let (oh, ow) = spec.checked_output_size(h, w)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![usize::MAX; n * c * oh * ow];
    let data = input.data();
    for b in 0..n {
        for ch in 0..c {
            let in_plane = (b * c + ch) * h * w;
            let out_plane = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = usize::MAX;
                    for ky in 0..spec.kernel_h {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..spec.kernel_w {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = in_plane + iy as usize * w + ix as usize;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = out_plane + oy * ow + ox;
                    if best_idx == usize::MAX {
                        out[o] = 0.0;
                    } else {
                        out[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
    }
    Ok(MaxPoolOutput { output: Tensor::from_vec(out, [n, c, oh, ow])?, argmax })
}

/// Backward max pooling: scatters `grad_out` to the argmax positions recorded
/// by [`max_pool2d`].
///
/// # Errors
///
/// Returns an error if `grad_out` length differs from the recorded argmax
/// table.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::LengthMismatch { expected: argmax.len(), actual: grad_out.len() });
    }
    let mut grad_in = Tensor::zeros(input_shape.to_vec());
    let gi = grad_in.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax) {
        if idx != usize::MAX {
            gi[idx] += g;
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_paper_geometries() {
        assert_eq!(Conv2dSpec::paper_conv().output_size(32, 32), (32, 32));
        assert_eq!(Conv2dSpec::paper_pool().output_size(32, 32), (16, 16));
        assert_eq!(Conv2dSpec::paper_pool().output_size(16, 16), (8, 8));
        assert_eq!(Conv2dSpec::paper_pool().output_size(8, 8), (4, 4));
    }

    #[test]
    fn oversized_kernel_is_rejected_not_clamped() {
        // Regression: `output_size` used `saturating_sub`, so a 5x5 kernel
        // on an unpadded 2x2 input silently produced a bogus 1x1 output
        // instead of failing. Degenerate geometry must now error.
        let spec = Conv2dSpec::new(5, 1, 0);
        assert!(matches!(
            spec.checked_output_size(2, 2),
            Err(TensorError::InvalidGeometry { kernel: (5, 5), input: (2, 2), .. })
        ));
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([1, 1, 5, 5]);
        assert!(conv2d(&input, &weight, &spec).is_err());
        assert!(im2col(&input, &spec).is_err());
        assert!(max_pool2d(&input, &spec).is_err());
        // Padding that makes the kernel fit again is accepted.
        let padded = Conv2dSpec::new(5, 1, 2);
        assert_eq!(padded.checked_output_size(2, 2).unwrap(), (2, 2));
    }

    #[test]
    fn zero_stride_is_rejected() {
        let spec = Conv2dSpec::new(3, 0, 1);
        assert!(spec.checked_output_size(8, 8).is_err());
        assert!(max_pool2d(&Tensor::ones([1, 1, 8, 8]), &spec).is_err());
    }

    #[test]
    fn checked_output_size_matches_unchecked_when_valid() {
        for spec in [Conv2dSpec::paper_conv(), Conv2dSpec::paper_pool(), Conv2dSpec::new(1, 1, 0)] {
            assert_eq!(spec.checked_output_size(16, 16).unwrap(), spec.output_size(16, 16));
        }
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is the identity layout.
        let input = Tensor::from_fn([1, 2, 2, 2], |i| i as f32);
        let spec = Conv2dSpec::new(1, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[1, 2, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_respects_padding() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let spec = Conv2dSpec::new(3, 1, 1);
        let cols = im2col(&input, &spec).unwrap();
        // Center tap (kernel position 1,1 = row 4) sees every input pixel.
        let row4 = &cols.data()[4 * 4..5 * 4];
        assert_eq!(row4, &[1.0, 1.0, 1.0, 1.0]);
        // Corner tap (0,0) only sees the input where the window fits.
        let row0 = &cols.data()[0..4];
        assert_eq!(row0, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 input, 3x3 all-ones kernel, pad 1: each output = sum of the
        // 3x3 neighbourhood.
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let weight = Tensor::ones([1, 1, 3, 3]);
        let out = conv2d(&input, &weight, &Conv2dSpec::paper_conv()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let input = Tensor::ones([1, 3, 4, 4]);
        let weight = Tensor::ones([2, 3, 3, 3]);
        let out = conv2d(&input, &weight, &Conv2dSpec::paper_conv()).unwrap();
        assert_eq!(out.dims(), &[1, 2, 4, 4]);
        // Interior output pixel: 3 channels * 9 taps = 27.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 27.0);
        // Corner: 3 channels * 4 in-bounds taps = 12.
        assert_eq!(out.get(&[0, 1, 0, 0]).unwrap(), 12.0);
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::ones([1, 2, 4, 4]);
        let weight = Tensor::ones([1, 3, 3, 3]);
        assert!(conv2d(&input, &weight, &Conv2dSpec::paper_conv()).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y — the adjoint
        // property that makes conv gradients correct.
        let spec = Conv2dSpec::paper_conv();
        let x = Tensor::from_fn([1, 2, 3, 3], |i| (i as f32 * 0.37).sin());
        let cx = im2col(&x, &spec).unwrap();
        let y = Tensor::from_fn(cx.dims().to_vec(), |i| (i as f32 * 0.11).cos());
        let lhs = cx.dot(&y).unwrap();
        let cy = col2im(&y, 2, 3, 3, &spec).unwrap();
        let rhs = x.dot(&cy).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn conv2d_backward_finite_difference() {
        let spec = Conv2dSpec::paper_conv();
        let input = Tensor::from_fn([1, 1, 3, 3], |i| (i as f32 * 0.3).sin());
        let weight = Tensor::from_fn([1, 1, 3, 3], |i| (i as f32 * 0.7).cos() * 0.5);
        let out = conv2d(&input, &weight, &spec).unwrap();
        // Loss = sum of outputs -> upstream gradient of ones.
        let gout = Tensor::ones(out.dims().to_vec());
        let (gin, gw) = conv2d_backward(&input, &weight, &gout, &spec).unwrap();
        let eps = 1e-3;
        // Check a few weight coordinates by central differences.
        for &idx in &[0usize, 4, 8] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let fp = conv2d(&input, &wp, &spec).unwrap().sum();
            let fm = conv2d(&input, &wm, &spec).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 1e-2, "dW[{idx}]: {num} vs {}", gw.data()[idx]);
        }
        // And a few input coordinates.
        for &idx in &[0usize, 4, 7] {
            let mut xp = input.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = input.clone();
            xm.data_mut()[idx] -= eps;
            let fp = conv2d(&xp, &weight, &spec).unwrap().sum();
            let fm = conv2d(&xm, &weight, &spec).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gin.data()[idx]).abs() < 1e-2,
                "dX[{idx}]: {num} vs {}",
                gin.data()[idx]
            );
        }
    }

    #[test]
    fn max_pool_known_values() {
        let input = Tensor::from_vec((1..=16).map(|x| x as f32).collect(), [1, 1, 4, 4]).unwrap();
        let res = max_pool2d(&input, &Conv2dSpec::paper_pool()).unwrap();
        assert_eq!(res.output.dims(), &[1, 1, 2, 2]);
        // Windows centred per stride-2 with pad 1 over a 4x4 of 1..16.
        assert_eq!(res.output.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_scatters_to_argmax() {
        let input = Tensor::from_vec((1..=16).map(|x| x as f32).collect(), [1, 1, 4, 4]).unwrap();
        let spec = Conv2dSpec::paper_pool();
        let res = max_pool2d(&input, &spec).unwrap();
        let gout = Tensor::ones([1, 1, 2, 2]);
        let gin = max_pool2d_backward(&gout, &res.argmax, input.dims()).unwrap();
        // Gradient lands exactly on the max positions (values 6, 8, 14, 16).
        assert_eq!(gin.data()[5], 1.0);
        assert_eq!(gin.data()[7], 1.0);
        assert_eq!(gin.data()[13], 1.0);
        assert_eq!(gin.data()[15], 1.0);
        assert_eq!(gin.sum(), 4.0);
    }

    #[test]
    fn max_pool_preserves_max_bound() {
        let input = Tensor::from_fn([1, 2, 8, 8], |i| ((i * 37) % 101) as f32 / 101.0);
        let res = max_pool2d(&input, &Conv2dSpec::paper_pool()).unwrap();
        assert!(res.output.max().unwrap() <= input.max().unwrap());
    }

    #[test]
    fn pool_rejects_bad_rank() {
        let input = Tensor::ones([4, 4]);
        assert!(max_pool2d(&input, &Conv2dSpec::paper_pool()).is_err());
    }
}
