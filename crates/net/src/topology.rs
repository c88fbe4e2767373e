//! Process-mesh topology.
//!
//! The paper organizes processes into an `R × C` virtual mesh (§4.1)
//! with **rows mapped to supernodes**: intra-row communication stays
//! inside a supernode's full-bisection network, while column-wise and
//! global communication crosses the oversubscribed top-level fat tree
//! (§3.2). This module provides the rank ↔ (row, col) arithmetic and
//! the supernode mapping used by the cost model.

use sunbfs_common::json_record;

json_record! {
    /// Shape of the virtual process mesh.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MeshShape {
        /// Number of rows (`R`); each row is one supernode.
        pub rows: usize,
        /// Number of columns (`C`); nodes within a row share a supernode.
        pub cols: usize,
    }
}

impl MeshShape {
    /// Create a mesh shape; both dimensions must be nonzero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        MeshShape { rows, cols }
    }

    /// A near-square mesh for `n` ranks (`rows * cols == n`, rows ≤ cols).
    ///
    /// Picks the factorization with rows closest to `sqrt(n)` from below,
    /// the usual choice for 2D-style partitionings.
    pub fn near_square(n: usize) -> Self {
        assert!(n > 0);
        let mut rows = (n as f64).sqrt() as usize;
        while rows > 1 && !n.is_multiple_of(rows) {
            rows -= 1;
        }
        MeshShape::new(rows.max(1), n / rows.max(1))
    }

    /// Total rank count.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.rows * self.cols
    }
}

/// Topology: mesh arithmetic plus the supernode mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    shape: MeshShape,
}

impl Topology {
    /// Build a topology over the given mesh.
    pub fn new(shape: MeshShape) -> Self {
        Topology { shape }
    }

    /// The mesh shape.
    #[inline]
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Total number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.shape.num_ranks()
    }

    /// Row of `rank` (row-major numbering: `rank = row * cols + col`).
    #[inline]
    pub fn row_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.num_ranks());
        rank / self.shape.cols
    }

    /// Column of `rank`.
    #[inline]
    pub fn col_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.num_ranks());
        rank % self.shape.cols
    }

    /// Rank at mesh position `(row, col)`.
    #[inline]
    pub fn rank_at(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.shape.rows && col < self.shape.cols);
        row * self.shape.cols + col
    }

    /// Supernode of `rank`. Rows map to supernodes (§4.1), so this is
    /// simply the row index.
    #[inline]
    pub fn supernode_of(&self, rank: usize) -> usize {
        self.row_of(rank)
    }

    /// Number of supernodes in use.
    #[inline]
    pub fn num_supernodes(&self) -> usize {
        self.shape.rows
    }

    /// Nodes per supernode (the row width).
    #[inline]
    pub fn supernode_size(&self) -> usize {
        self.shape.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_roundtrip() {
        let t = Topology::new(MeshShape::new(3, 4));
        for rank in 0..12 {
            assert_eq!(t.rank_at(t.row_of(rank), t.col_of(rank)), rank);
        }
        assert_eq!(t.row_of(7), 1);
        assert_eq!(t.col_of(7), 3);
    }

    #[test]
    fn supernode_is_row() {
        let t = Topology::new(MeshShape::new(4, 2));
        assert_eq!(t.supernode_of(0), 0);
        assert_eq!(t.supernode_of(1), 0);
        assert_eq!(t.supernode_of(2), 1);
        assert_eq!(t.num_supernodes(), 4);
        assert_eq!(t.supernode_size(), 2);
    }

    #[test]
    fn near_square_factorizations() {
        assert_eq!(MeshShape::near_square(16), MeshShape::new(4, 4));
        assert_eq!(MeshShape::near_square(12), MeshShape::new(3, 4));
        assert_eq!(MeshShape::near_square(1), MeshShape::new(1, 1));
        assert_eq!(MeshShape::near_square(7), MeshShape::new(1, 7));
        for n in 1..=64 {
            let s = MeshShape::near_square(n);
            assert_eq!(s.num_ranks(), n);
            assert!(s.rows <= s.cols);
        }
    }

    #[test]
    #[should_panic]
    fn zero_dimension_rejected() {
        MeshShape::new(0, 3);
    }
}
