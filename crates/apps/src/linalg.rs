//! Minimal dense linear algebra for ALS: symmetric matrices, rank-one
//! updates and an in-place Cholesky solver. The ALS update solves a d×d
//! regularised least-squares system per vertex (`O(d³ + deg)` per update,
//! Table 2), so this is the entire numeric substrate the paper's Netflix
//! experiment needs.

/// Dense symmetric matrix stored row-major (full storage for simplicity).
#[derive(Clone, Debug, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        SymMatrix { n, data: vec![0.0; n * n] }
    }

    /// `λ·I`.
    pub fn scaled_identity(n: usize, lambda: f64) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = lambda;
        }
        m
    }

    /// Size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Element write (callers must maintain symmetry themselves).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// `self += x xᵀ` (rank-one update).
    #[allow(clippy::needless_range_loop, reason = "the index also addresses the packed matrix, as in the textbook form")]
    pub fn add_outer(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.n);
        for i in 0..self.n {
            let xi = x[i];
            for j in 0..self.n {
                self.data[i * self.n + j] += xi * x[j];
            }
        }
    }

    /// `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self.get(i, j) * x[j]).sum())
            .collect()
    }
}

/// Error from the dense solver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// (`A = L Lᵀ`), overwriting `b` with `x`. `a` is consumed as scratch.
#[allow(clippy::needless_range_loop, reason = "the indices address both the factor and the right-hand side, as in the textbook form")]
pub fn cholesky_solve(mut a: SymMatrix, b: &mut [f64]) -> Result<(), NotPositiveDefinite> {
    let n = a.n;
    debug_assert_eq!(b.len(), n);
    // Factor: lower triangle of `a` becomes L.
    for j in 0..n {
        let mut d = a.get(j, j);
        for k in 0..j {
            let l = a.get(j, k);
            d -= l * l;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotPositiveDefinite);
        }
        let d = d.sqrt();
        a.set(j, j, d);
        for i in j + 1..n {
            let mut v = a.get(i, j);
            for k in 0..j {
                v -= a.get(i, k) * a.get(j, k);
            }
            a.set(i, j, v / d);
        }
    }
    // Forward solve L y = b.
    for i in 0..n {
        let mut v = b[i];
        for k in 0..i {
            v -= a.get(i, k) * b[k];
        }
        b[i] = v / a.get(i, i);
    }
    // Backward solve Lᵀ x = y.
    for i in (0..n).rev() {
        let mut v = b[i];
        for k in i + 1..n {
            v -= a.get(k, i) * b[k];
        }
        b[i] = v / a.get(i, i);
    }
    Ok(())
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = SymMatrix::scaled_identity(3, 1.0);
        let mut b = vec![1.0, 2.0, 3.0];
        cholesky_solve(a, &mut b).unwrap();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_known_system() {
        // A = [[4,2],[2,3]], b = [2, 1] -> x = [0.5, 0]
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 4.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 3.0);
        let mut b = vec![2.0, 1.0];
        cholesky_solve(a, &mut b).unwrap();
        assert!((b[0] - 0.5).abs() < 1e-12);
        assert!(b[1].abs() < 1e-12);
    }

    #[test]
    fn roundtrip_random_spd() {
        // Build SPD as λI + Σ xxᵀ, solve, verify residual.
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..20 {
            let n = 5;
            let mut a = SymMatrix::scaled_identity(n, 0.5);
            for _ in 0..8 {
                let x: Vec<f64> = (0..n).map(|_| rnd()).collect();
                a.add_outer(&x);
            }
            let xtrue: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let mut b = a.mul_vec(&xtrue);
            cholesky_solve(a.clone(), &mut b).unwrap();
            assert!(dist2(&b, &xtrue) < 1e-16, "residual {}", dist2(&b, &xtrue));
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 1.0); // eigenvalues 3, -1
        let mut b = vec![1.0, 1.0];
        assert_eq!(cholesky_solve(a, &mut b), Err(NotPositiveDefinite));
    }

    #[test]
    fn outer_product_accumulates() {
        let mut a = SymMatrix::zeros(2);
        a.add_outer(&[1.0, 2.0]);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 4.0);
        a.add_outer(&[1.0, 0.0]);
        assert_eq!(a.get(0, 0), 2.0);
    }

    #[test]
    fn dot_and_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
