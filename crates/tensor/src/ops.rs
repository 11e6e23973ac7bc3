use crate::{kernel, par, Result, Tensor, TensorError};

/// Below this many multiply-adds the scoped-thread fan-out costs more
/// than it saves, so `matmul` stays on the calling thread.
const PAR_MIN_MACS: usize = 64 * 64 * 64;

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

impl Tensor {
    /// Matrix multiplication of two rank-2 tensors: `(m,k) × (k,n) → (m,n)`.
    ///
    /// This is the GEMM every expert feed-forward and every gating
    /// projection in the MoE layer reduces to; the paper's performance
    /// model (§4.1) prices expert time as a multiple of GEMM time.
    ///
    /// Large products fan out over [`par::num_threads`] workers (override
    /// with `TENSOR_THREADS`); small ones stay on the calling thread.
    /// The result is bit-identical for every worker count — see
    /// [`Tensor::matmul_with_threads`].
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 with matching inner
    /// dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.matmul_with_threads(rhs, par::num_threads())
    }

    /// [`Tensor::matmul`] with an explicit worker-count cap.
    ///
    /// The output is bit-identical for every `threads` value (including
    /// 0 and 1, both meaning serial): the same packed microkernel
    /// (`crate::kernel`) computes every row band, and each output
    /// element always accumulates its `k` products in ascending order,
    /// so no floating-point reassociation occurs between the serial and
    /// parallel paths.
    ///
    /// Every `a[i][k] · b[k][j]` product is computed — there is no
    /// zero-skip — so non-finite values in **either** operand propagate
    /// to the output (`0.0 × NaN = NaN`).
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 with matching inner
    /// dimension.
    pub fn matmul_with_threads(&self, rhs: &Tensor, threads: usize) -> Result<Tensor> {
        let (m, k) = check_matrix(self, "matmul")?;
        let (k2, n) = check_matrix(rhs, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        if m > 0 && n > 0 && k > 0 {
            let a = self.data();
            let bp = kernel::pack_b(rhs.data(), k, n);
            let threads = if m * n * k < PAR_MIN_MACS {
                1
            } else {
                threads.max(1)
            };
            par::for_each_row_band(&mut out, m, n, threads, |first_row, band| {
                let band_rows = band.len() / n;
                let mut apack = Vec::new();
                kernel::gemm_band(a, first_row, &bp, band, band_rows, &mut apack);
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Grouped GEMM over contiguous row groups of `self`, one weight
    /// matrix per group: rows `offsets[g] .. offsets[g+1]` of the output
    /// are `self[offsets[g]..offsets[g+1], :] × weights[g]`.
    ///
    /// This is the dropless expert-batch primitive: tokens gathered per
    /// expert form variable-size groups (empty groups allowed — no
    /// padding, no capacity drops), and one call computes every expert's
    /// FFN projection in a single parallel pass over **all** output
    /// rows, so a skewed expert load no longer serialises on the
    /// heaviest expert.
    ///
    /// Each output row is computed by the same banded microkernel as
    /// [`Tensor::matmul_with_threads`], so per-group results are
    /// bit-identical to `self.slice_rows(..)?.matmul(w)` for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns an error unless `self` is rank 2, every weight is rank 2
    /// with the same `(k, n)` shape matching `self`'s inner dimension,
    /// and `offsets` is an ascending list of `weights.len() + 1` row
    /// offsets starting at 0 and ending at `self`'s row count.
    pub fn matmul_grouped(
        &self,
        weights: &[&Tensor],
        offsets: &[usize],
        threads: usize,
    ) -> Result<Tensor> {
        let (m, k) = check_matrix(self, "matmul_grouped")?;
        if weights.is_empty() || offsets.len() != weights.len() + 1 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_grouped",
                lhs: vec![weights.len()],
                rhs: vec![offsets.len()],
            });
        }
        let (k2, n) = check_matrix(weights[0], "matmul_grouped")?;
        for w in weights {
            let (wk, wn) = check_matrix(w, "matmul_grouped")?;
            if wk != k2 || wn != n {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul_grouped",
                    lhs: weights[0].dims().to_vec(),
                    rhs: w.dims().to_vec(),
                });
            }
        }
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_grouped",
                lhs: self.dims().to_vec(),
                rhs: weights[0].dims().to_vec(),
            });
        }
        if offsets[0] != 0
            || offsets[offsets.len() - 1] != m
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TensorError::IndexOutOfBounds {
                index: offsets[offsets.len() - 1],
                bound: m,
            });
        }
        let mut out = vec![0.0f32; m * n];
        if m > 0 && n > 0 && k > 0 {
            let a = self.data();
            // Pack each non-empty group's B once; empty groups never
            // touch their weight.
            let packed: Vec<Option<kernel::PackedB>> = weights
                .iter()
                .enumerate()
                .map(|(g, w)| (offsets[g] < offsets[g + 1]).then(|| kernel::pack_b(w.data(), k, n)))
                .collect();
            let threads = if m * n * k < PAR_MIN_MACS {
                1
            } else {
                threads.max(1)
            };
            par::for_each_row_band(&mut out, m, n, threads, |first_row, band| {
                let band_rows = band.len() / n;
                let band_end = first_row + band_rows;
                let mut apack = Vec::new();
                for (g, bp) in packed.iter().enumerate() {
                    let Some(bp) = bp else { continue };
                    let lo = offsets[g].max(first_row);
                    let hi = offsets[g + 1].min(band_end);
                    if lo >= hi {
                        continue;
                    }
                    let sub = &mut band[(lo - first_row) * n..(hi - first_row) * n];
                    kernel::gemm_band(a, lo, bp, sub, hi - lo, &mut apack);
                }
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// Adds `rhs` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if !self.shape().same_as(rhs.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor::from_vec(self.data().iter().map(|&v| f(v)).collect(), self.dims())
            .expect("map preserves shape")
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.num_elements() == 0 {
            0.0
        } else {
            self.sum() / self.num_elements() as f32
        }
    }

    /// Sums a rank-2 tensor over its rows: `(m,n) → (n,)`.
    ///
    /// This is the reduction used when accumulating weight gradients over a
    /// token batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            for (acc, v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor.
    ///
    /// Used to shard a `(H, M)` weight row-wise across an
    /// expert-sharding-parallel group.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or an invalid range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if start > end || end > m {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: m,
            });
        }
        Tensor::from_vec(self.data()[start * n..end * n].to_vec(), &[end - start, n])
    }

    /// Extracts columns `[start, end)` of a rank-2 tensor.
    ///
    /// Used to shard a `(M, H)` weight column-wise across an
    /// expert-sharding-parallel group.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or an invalid range.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_cols",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if start > end || end > n {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: n,
            });
        }
        let width = end - start;
        let mut out = Vec::with_capacity(m * width);
        for i in 0..m {
            out.extend_from_slice(&self.data()[i * n + start..i * n + end]);
        }
        Tensor::from_vec(out, &[m, width])
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor> {
        if !self.shape().same_as(rhs.shape()) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        Tensor::from_vec(
            self.data()
                .iter()
                .zip(rhs.data())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.dims(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(Tensor::zeros(&[2]).matmul(&a).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
        assert_eq!(t.at(&[2, 1]).unwrap(), a.at(&[1, 2]).unwrap());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        assert_eq!(c.data(), &[4.0, 7.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn slicing_rows_and_cols() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let r = a.slice_rows(1, 3).unwrap();
        assert_eq!(r.dims(), &[2, 4]);
        assert_eq!(r.data()[0], 4.0);
        let c = a.slice_cols(1, 3).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        assert!(a.slice_rows(2, 5).is_err());
        assert!(a.slice_cols(3, 2).is_err());
        assert!(Tensor::zeros(&[3]).slice_cols(0, 1).is_err());
    }

    #[test]
    fn column_shards_reassemble_matmul() {
        // x·W == Σ_s parts where W is column-sharded and parts concatenated:
        // verify (x · W)[:, s-range] == x · W_s
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let w = Tensor::from_vec((0..12).map(|v| v as f32 * 0.5).collect(), &[3, 4]).unwrap();
        let full = x.matmul(&w).unwrap();
        let left = x.matmul(&w.slice_cols(0, 2).unwrap()).unwrap();
        let right = x.matmul(&w.slice_cols(2, 4).unwrap()).unwrap();
        assert_eq!(full.slice_cols(0, 2).unwrap(), left);
        assert_eq!(full.slice_cols(2, 4).unwrap(), right);
    }

    #[test]
    fn parallel_matmul_bit_identical_to_serial() {
        // big enough to clear PAR_MIN_MACS so the fan-out really runs
        let mut rng = crate::TensorRng::seed_from(7);
        let a = rng.normal(&[96, 64], 0.0, 1.0);
        let b = rng.normal(&[64, 80], 0.0, 1.0);
        let serial = a.matmul_with_threads(&b, 1).unwrap();
        for threads in [0, 2, 3, 5, 16, 96, 1000] {
            let parallel = a.matmul_with_threads(&b, threads).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
        assert_eq!(a.matmul(&b).unwrap(), serial);
    }

    #[test]
    fn blocked_kernel_handles_ragged_tile_edges() {
        // dims straddling the microkernel tile sizes by one either way
        for (m, k, n) in [
            (1, 65, 129),
            (3, 63, 127),
            (2, 128, 256),
            (5, 1, 1),
            (7, 257, 17),
        ] {
            let a = Tensor::from_vec((0..m * k).map(|v| (v % 7) as f32 - 3.0).collect(), &[m, k])
                .unwrap();
            let b = Tensor::from_vec((0..k * n).map(|v| (v % 5) as f32 * 0.25).collect(), &[k, n])
                .unwrap();
            let got = a.matmul(&b).unwrap();
            // reference: naive ijk accumulation
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                    }
                    expect[i * n + j] = acc;
                }
            }
            let expect = Tensor::from_vec(expect, &[m, n]).unwrap();
            assert!(got.allclose(&expect, 1e-4), "({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_with_empty_dims() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert_eq!(a.matmul(&b).unwrap().dims(), &[0, 2]);
        let c = Tensor::zeros(&[2, 0]);
        let d = Tensor::zeros(&[0, 4]);
        assert_eq!(c.matmul(&d).unwrap(), Tensor::zeros(&[2, 4]));
        let e = Tensor::zeros(&[2, 3]);
        let f = Tensor::zeros(&[3, 0]);
        assert_eq!(e.matmul(&f).unwrap().dims(), &[2, 0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().unwrap().data(), &[4.0, 6.0]);
    }
}
