//! Column-major dense matrices for the Linpack workload.

use phoenix_sim::SimRng;

/// A dense `n × n` matrix in column-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    pub(crate) n: usize,
    /// Column-major storage: element `(i, j)` at `data[j * n + i]`.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub(crate) fn zeros(n: usize) -> Matrix {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The HPL-style random test matrix: uniform in (-0.5, 0.5), plus a
    /// diagonal boost for comfortable conditioning of small test sizes.
    pub fn random(n: usize, seed: u64) -> Matrix {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n);
        for v in m.data.iter_mut() {
            *v = rng.gen_range(-0.5..0.5);
        }
        m
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.n + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.n + i] = v;
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(x.len(), n);
        let mut y = vec![0.0; n];
        for j in 0..n {
            let col = &self.data[j * n..(j + 1) * n];
            let xj = x[j];
            for i in 0..n {
                y[i] += col[i] * xj;
            }
        }
        y
    }
}

/// Infinity norm of a vector.
pub fn vec_norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |a, &v| a.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.data[2 * 3 + 1], 7.5);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Matrix::random(8, 1), Matrix::random(8, 1));
        assert_ne!(Matrix::random(8, 1), Matrix::random(8, 2));
    }

    #[test]
    fn matvec_identity() {
        let n = 4;
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn norms() {
        assert_eq!(vec_norm_inf(&[1.0, -9.0, 2.0]), 9.0);
    }
}
