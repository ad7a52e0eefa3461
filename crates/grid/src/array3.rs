//! Flat row-major 3-D array of f64 with x fastest.

use std::ops::{Index, IndexMut};

/// A dense 3-D array of `f64`, linearised as `(k * ny + j) * nx + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Array3 {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f64>,
}

impl Array3 {
    /// Creates a zero-filled array of the given shape.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            data: vec![0.0; nx * ny * nz],
        }
    }

    /// Shape as `[nx, ny, nz]`.
    pub fn shape(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate is out of range.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        (k * self.ny + j) * self.nx + i
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// In-place add at one site.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] += v;
    }

    /// Fills the whole array with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Raw slice view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable slice view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sum of all elements (diagnostics).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Shifts the array contents one plane towards -z (plane `k` receives
    /// plane `k+1`; the last plane is zeroed). Used by the moving window.
    pub fn shift_down_z(&mut self) {
        let plane = self.nx * self.ny;
        let n = self.data.len();
        self.data.copy_within(plane..n, 0);
        self.data[n - plane..].fill(0.0);
    }
}

impl Index<(usize, usize, usize)> for Array3 {
    type Output = f64;

    fn index(&self, (i, j, k): (usize, usize, usize)) -> &f64 {
        &self.data[self.idx(i, j, k)]
    }
}

impl IndexMut<(usize, usize, usize)> for Array3 {
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut f64 {
        let idx = self.idx(i, j, k);
        &mut self.data[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_is_fastest_dimension() {
        let a = Array3::zeros(4, 5, 6);
        assert_eq!(a.idx(1, 0, 0), a.idx(0, 0, 0) + 1);
        assert_eq!(a.idx(0, 1, 0), a.idx(0, 0, 0) + 4);
        assert_eq!(a.idx(0, 0, 1), a.idx(0, 0, 0) + 20);
    }

    #[test]
    fn indexing_and_add() {
        let mut a = Array3::zeros(2, 2, 2);
        a[(1, 1, 1)] = 3.0;
        a.add(1, 1, 1, 2.0);
        assert_eq!(a.get(1, 1, 1), 5.0);
        assert_eq!(a.sum(), 5.0);
        assert_eq!(a.max_abs(), 5.0);
    }

    #[test]
    fn shift_down_z_moves_planes() {
        let mut a = Array3::zeros(2, 2, 3);
        a.set(0, 0, 0, 1.0);
        a.set(0, 0, 1, 2.0);
        a.set(0, 0, 2, 3.0);
        a.shift_down_z();
        assert_eq!(a.get(0, 0, 0), 2.0);
        assert_eq!(a.get(0, 0, 1), 3.0);
        assert_eq!(a.get(0, 0, 2), 0.0);
    }
}
