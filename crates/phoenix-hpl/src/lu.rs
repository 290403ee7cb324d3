//! Blocked LU factorization with partial pivoting, parallelized with
//! std scoped threads — the Linpack-class compute kernel used to
//! measure Phoenix's performance impact (paper Table 4).
//!
//! Right-looking algorithm: factor a `nb`-wide panel sequentially, then
//! update every trailing column independently (forward substitution
//! against the panel's L11 followed by a rank-`nb` update), split across
//! worker threads by column chunks. Columns are contiguous in the
//! column-major layout, so the trailing region splits into disjoint
//! `&mut` chunks without any locking.

use crate::matrix::Matrix;
use std::time::Instant;

/// Panel width. 32 balances sequential panel cost against update
/// parallelism for the matrix sizes the benches use.
pub const DEFAULT_NB: usize = 32;

/// Result of a factorization run.
#[derive(Clone, Debug)]
pub struct LuResult {
    /// Row permutation: `pivots[k]` is the row swapped into row `k` at
    /// step `k`.
    pub pivots: Vec<usize>,
    pub(crate) seconds: f64,
}

/// Factor `a` in place (L below the unit diagonal, U on and above) using
/// `threads` workers. Returns timing and the pivot vector.
pub fn lu_factor(a: &mut Matrix, threads: usize, nb: usize) -> LuResult {
    assert!(threads >= 1);
    let n = a.n;
    let mut pivots: Vec<usize> = (0..n).collect();
    let start = Instant::now();

    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);

        // ---- panel factorization (sequential, with full-row swaps) ----
        for j in k..k + kb {
            // Find pivot in column j, rows j..n.
            let (mut p, mut best) = (j, a.get(j, j).abs());
            for i in j + 1..n {
                let v = a.get(i, j).abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            pivots[j] = p;
            if p != j {
                for c in 0..n {
                    let t = a.get(j, c);
                    a.set(j, c, a.get(p, c));
                    a.set(p, c, t);
                }
            }
            let d = a.get(j, j);
            if d != 0.0 {
                let inv = 1.0 / d;
                for i in j + 1..n {
                    let v = a.get(i, j) * inv;
                    a.set(i, j, v);
                }
            }
            // Update the remaining panel columns with this elimination.
            for c in j + 1..k + kb {
                let u = a.get(j, c);
                if u != 0.0 {
                    for i in j + 1..n {
                        let v = a.get(i, c) - a.get(i, j) * u;
                        a.set(i, c, v);
                    }
                }
            }
        }

        // ---- trailing update (parallel over column chunks) ----
        let trail_cols = n - (k + kb);
        if trail_cols > 0 {
            let (head, tail) = a.data.split_at_mut((k + kb) * n);
            let panel = &head[k * n..]; // columns k..k+kb, read-only
            let workers = threads.min(trail_cols).max(1);
            let per = trail_cols.div_ceil(workers);
            std::thread::scope(|scope| {
                for chunk in tail.chunks_mut(per * n) {
                    scope.spawn(move || {
                        for col in chunk.chunks_mut(n) {
                            update_column(panel, col, n, k, kb);
                        }
                    });
                }
            });
        }

        k += kb;
    }

    LuResult {
        pivots,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Update one trailing column against the factored panel:
/// forward-substitute rows `k..k+kb` (unit-lower L11), then subtract
/// `L21 · y` from rows `k+kb..n`.
#[inline]
fn update_column(panel: &[f64], col: &mut [f64], n: usize, k: usize, kb: usize) {
    // Forward substitution with L11 (unit diagonal), in place.
    for jj in 0..kb {
        let y = col[k + jj];
        if y != 0.0 {
            let pcol = &panel[jj * n..(jj + 1) * n];
            for ii in jj + 1..kb {
                col[k + ii] -= pcol[k + ii] * y;
            }
        }
    }
    // Rank-kb update of the lower part.
    for jj in 0..kb {
        let y = col[k + jj];
        if y != 0.0 {
            let pcol = &panel[jj * n..(jj + 1) * n];
            for ii in k + kb..n {
                col[ii] -= pcol[ii] * y;
            }
        }
    }
}

/// Solve `A x = b` given the in-place factorization and pivot vector.
pub fn lu_solve(lu: &Matrix, pivots: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.n;
    let mut x = b.to_vec();
    // Apply the permutation.
    for k in 0..n {
        let p = pivots[k];
        if p != k {
            x.swap(k, p);
        }
    }
    // Ly = Pb (unit lower).
    for j in 0..n {
        let y = x[j];
        if y != 0.0 {
            for i in j + 1..n {
                x[i] -= lu.get(i, j) * y;
            }
        }
    }
    // Ux = y.
    for j in (0..n).rev() {
        x[j] /= lu.get(j, j);
        let y = x[j];
        if y != 0.0 {
            for i in 0..j {
                x[i] -= lu.get(i, j) * y;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::vec_norm_inf;

    fn residual(n: usize, threads: usize, nb: usize) -> f64 {
        let a = Matrix::random(n, 7);
        let x_true: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let b = a.matvec(&x_true);
        let mut lu = a.clone();
        let r = lu_factor(&mut lu, threads, nb);
        let x = lu_solve(&lu, &r.pivots, &b);
        let err: Vec<f64> = x.iter().zip(&x_true).map(|(a, b)| a - b).collect();
        vec_norm_inf(&err) / vec_norm_inf(&x_true).max(1.0)
    }

    #[test]
    fn solves_small_system_exactly_enough() {
        assert!(residual(16, 1, 4) < 1e-9);
    }

    #[test]
    fn blocked_matches_unblocked() {
        // nb == n degenerates to unblocked; results must agree closely.
        let a = Matrix::random(24, 3);
        let mut l1 = a.clone();
        let mut l2 = a.clone();
        let r1 = lu_factor(&mut l1, 1, 24);
        let r2 = lu_factor(&mut l2, 1, 8);
        assert_eq!(r1.pivots, r2.pivots);
        for (x, y) in l1.data.iter().zip(l2.data.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = Matrix::random(64, 9);
        let mut l1 = a.clone();
        let mut l4 = a.clone();
        let r1 = lu_factor(&mut l1, 1, 16);
        let r4 = lu_factor(&mut l4, 4, 16);
        assert_eq!(r1.pivots, r4.pivots);
        for (x, y) in l1.data.iter().zip(l4.data.iter()) {
            assert_eq!(x, y, "bitwise identical: same op order per column");
        }
    }

    #[test]
    fn larger_system_residual_is_small() {
        assert!(residual(96, 2, DEFAULT_NB) < 1e-8);
    }

    #[test]
    fn gflops_reported_positive() {
        let mut a = Matrix::random(48, 5);
        let r = lu_factor(&mut a, 1, 16);
        // `measure_impact` turns the elapsed time into GFLOP/s.
        assert!(r.seconds > 0.0);
    }
}
