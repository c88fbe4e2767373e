//! Graph 500 R-MAT (Kronecker) graph generator.
//!
//! The Graph 500 benchmark (§2.2 of the paper) runs BFS on a synthetic
//! small-world graph produced by the R-MAT recursive-matrix model
//! (Chakrabarti et al., 2004) with quadrant probabilities
//! `A = 0.57, B = C = 0.19, D = 0.05` and an edge factor of 16: a
//! SCALE-`s` graph has `2^s` vertices and `16 · 2^s` undirected edges.
//!
//! This crate provides:
//! * [`RmatParams`] — generator configuration (Graph 500 defaults),
//! * [`generate_edges`] / [`generate_chunk`] — deterministic, splittable
//!   edge generation (each simulated rank generates its own chunk, as on
//!   the real machine),
//! * [`degrees`] and [`degree_histogram`] — degree-distribution tooling
//!   used to reproduce the multi-peak distribution of Figure 2 and to
//!   choose the E/H thresholds of Figure 12.
//!
//! Vertex labels are scrambled with a bijective hash
//! ([`sunbfs_common::LabelScrambler`]) so that vertex id carries no
//! degree information, as the specification requires.

pub mod degree;

pub use degree::{degree_frequencies, degree_histogram, degrees};

use sunbfs_common::{Edge, GlobalGraphHeader, LabelScrambler, SplitMix64};

/// Configuration of the R-MAT generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Graph 500 SCALE (`2^scale` vertices).
    pub scale: u32,
    /// Edges generated per vertex (Graph 500: 16).
    pub edge_factor: u32,
    /// Quadrant probability A (top-left).
    pub a: f64,
    /// Quadrant probability B (top-right).
    pub b: f64,
    /// Quadrant probability C (bottom-left).
    pub c: f64,
    /// Master seed; the whole graph is a pure function of `(params, seed)`.
    pub seed: u64,
    /// Whether to scramble vertex labels (spec: yes; tests sometimes
    /// disable it to make degree structure predictable).
    pub scramble: bool,
}

impl RmatParams {
    /// Graph 500 specification parameters at the given SCALE.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            scramble: true,
        }
    }

    /// Quadrant probability D, `1 - (A+B+C)`.
    #[inline]
    pub fn d(&self) -> f64 {
        1.0 - (self.a + self.b + self.c)
    }

    /// Graph header (vertex/edge counts).
    pub fn header(&self) -> GlobalGraphHeader {
        GlobalGraphHeader {
            scale: self.scale,
            edge_factor: self.edge_factor,
        }
    }

    /// Total number of edges this configuration generates.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.header().num_edges()
    }

    /// Total number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.header().num_vertices()
    }
}

/// The quadrant boundaries `a`, `a + b`, `(a + b) + c` as integer cut
/// points on the generator's 53-bit draw.
///
/// `SplitMix64::next_f64` is `k · 2⁻⁵³` for the integer `k =
/// next_u64() >> 11`, an exact `f64`. Scaling a boundary `x` by `2⁵³`
/// is exact too (a power of two only moves the exponent), so
/// `k · 2⁻⁵³ < x  ⇔  k < x · 2⁵³  ⇔  k < ⌈x · 2⁵³⌉` for an integer
/// `k`: comparing `k` with `cut(x)` decides exactly what the `f64`
/// comparison decides, for dyadic and non-dyadic boundaries alike. The
/// sums are formed in `f64` in the order the definition forms them.
/// (`as u64` saturates: a boundary ≤ 0 or NaN is never undercut, one
/// ≥ 1 always is — again what the `f64` comparison says.)
fn quadrant_cuts(params: &RmatParams) -> [u64; 3] {
    let cut = |x: f64| (x * (1u64 << 53) as f64).ceil() as u64;
    let ab = params.a + params.b;
    [cut(params.a), cut(ab), cut(ab + params.c)]
}

/// Draw a single R-MAT edge by recursive quadrant descent: per level
/// one 53-bit draw picks top-left (no bit), top-right (column bit),
/// bottom-left (row bit) or bottom-right (both) with probabilities
/// `a`, `b`, `c`, `d`. The quadrant is unpredictable by construction,
/// so the two bits are computed from the three comparisons instead of
/// branched on.
#[inline]
fn rmat_edge(scale: u32, [a, ab, abc]: [u64; 3], rng: &mut SplitMix64) -> (u64, u64) {
    let mut u = 0u64;
    let mut v = 0u64;
    for _ in 0..scale {
        let k = rng.next_u64() >> 11;
        let (past_a, past_ab, past_abc) = (k >= a, k >= ab, k >= abc);
        u = (u << 1) | (past_a & past_ab) as u64;
        v = (v << 1) | (past_a & (!past_ab | past_abc)) as u64;
    }
    (u, v)
}

/// Generate the half-open edge range `[lo, hi)` of the graph's edge list.
///
/// Each edge index derives an independent RNG stream from the master
/// seed, so any partitioning of `[0, num_edges)` into chunks yields the
/// same global edge list. This mirrors distributed generation on the
/// real machine, where every node generates its slice of the Kronecker
/// edge list independently.
pub fn generate_range(params: &RmatParams, lo: u64, hi: u64) -> Vec<Edge> {
    assert!(hi <= params.num_edges(), "edge range beyond graph size");
    assert!(lo <= hi);
    let root = SplitMix64::new(params.seed ^ 0x6261_7463_6867_656e);
    let scrambler = LabelScrambler::new(params.scale.max(1), params.seed);
    let cuts = quadrant_cuts(params);
    let mut out = Vec::with_capacity((hi - lo) as usize);
    for i in lo..hi {
        let mut rng = root.split(i);
        let (mut u, mut v) = rmat_edge(params.scale, cuts, &mut rng);
        if params.scramble {
            u = scrambler.scramble(u);
            v = scrambler.scramble(v);
        }
        out.push(Edge::new(u, v));
    }
    out
}

/// Generate the whole edge list (small scales / tests).
pub fn generate_edges(params: &RmatParams) -> Vec<Edge> {
    generate_range(params, 0, params.num_edges())
}

/// Generate chunk `chunk_id` of `num_chunks` (the slice a simulated rank
/// owns). Chunks partition the edge list evenly; the union over all
/// chunk ids equals [`generate_edges`].
pub fn generate_chunk(params: &RmatParams, chunk_id: u64, num_chunks: u64) -> Vec<Edge> {
    assert!(chunk_id < num_chunks);
    let m = params.num_edges();
    let lo = m * chunk_id / num_chunks;
    let hi = m * (chunk_id + 1) / num_chunks;
    generate_range(params, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one `f64` draw per level, branched on.
    fn rmat_edge_f64(params: &RmatParams, rng: &mut SplitMix64) -> (u64, u64) {
        let mut u = 0u64;
        let mut v = 0u64;
        let ab = params.a + params.b;
        let abc = ab + params.c;
        for _ in 0..params.scale {
            u <<= 1;
            v <<= 1;
            let r = rng.next_f64();
            if r < params.a {
                // top-left: neither bit set
            } else if r < ab {
                v |= 1; // top-right: column bit
            } else if r < abc {
                u |= 1; // bottom-left: row bit
            } else {
                u |= 1;
                v |= 1; // bottom-right
            }
        }
        (u, v)
    }

    #[test]
    fn integer_cut_points_equal_the_f64_definition() {
        // Graph 500's quadrants at four scales, a skew whose boundaries
        // are not dyadic in any sense (thirds and sevenths), and the
        // degenerate corners: a boundary at 0, at 1, and a negative `b`
        // that makes the boundaries non-monotone.
        let mut cases: Vec<RmatParams> = [10, 16, 18, 22]
            .into_iter()
            .map(|scale| RmatParams::graph500(scale, 5))
            .collect();
        for (a, b, c) in [
            (1.0 / 3.0, 2.0 / 7.0, 1.0 / 7.0),
            (0.0, 0.5, 0.5),
            (0.25, 0.25, 0.5),
            (1.0, 0.0, 0.0),
            (0.6, -0.2, 0.3),
        ] {
            cases.push(RmatParams {
                a,
                b,
                c,
                ..RmatParams::graph500(20, 9)
            });
        }
        for params in &cases {
            let root = SplitMix64::new(params.seed);
            let cuts = quadrant_cuts(params);
            for i in 0..300_000 {
                let fast = rmat_edge(params.scale, cuts, &mut root.split(i));
                let oracle = rmat_edge_f64(params, &mut root.split(i));
                assert_eq!(fast, oracle, "edge {i} of {params:?}");
            }
        }
    }

    #[test]
    fn determinism_full_vs_chunked() {
        let p = RmatParams::graph500(8, 12345);
        let full = generate_edges(&p);
        assert_eq!(full.len() as u64, p.num_edges());
        let mut chunked = Vec::new();
        for c in 0..7 {
            chunked.extend(generate_chunk(&p, c, 7));
        }
        assert_eq!(full, chunked);
    }

    #[test]
    fn labels_in_range() {
        let p = RmatParams::graph500(10, 7);
        for e in generate_edges(&p) {
            assert!(e.u < p.num_vertices());
            assert!(e.v < p.num_vertices());
        }
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = generate_edges(&RmatParams::graph500(8, 1));
        let b = generate_edges(&RmatParams::graph500(8, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // R-MAT with Graph 500 parameters must produce a heavy tail:
        // max degree far above the mean (which is 2*edge_factor = 32).
        let p = RmatParams::graph500(12, 42);
        let deg = degree::degrees(p.num_vertices(), &generate_edges(&p));
        let max = *deg.iter().max().unwrap();
        assert!(max > 200, "max degree {max} not skewed enough for R-MAT");
        // ... and a sizable fraction of isolated vertices (R-MAT leaves
        // many labels untouched at edge factor 16).
        let isolated = deg.iter().filter(|&&d| d == 0).count();
        assert!(
            isolated > (p.num_vertices() / 20) as usize,
            "too few isolated vertices: {isolated}"
        );
    }

    #[test]
    fn scrambling_changes_labels_not_structure() {
        let mut p = RmatParams::graph500(8, 9);
        p.scramble = false;
        let plain = generate_edges(&p);
        p.scramble = true;
        let scrambled = generate_edges(&p);
        assert_ne!(plain, scrambled);
        // Scrambling is a relabeling: degree *multiset* is preserved.
        let mut d1 = degree::degrees(p.num_vertices(), &plain);
        let mut d2 = degree::degrees(p.num_vertices(), &scrambled);
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn unscrambled_rmat_biases_low_ids() {
        // With A=0.57 the mass concentrates toward low vertex ids before
        // scrambling — the defining R-MAT property.
        let mut p = RmatParams::graph500(10, 11);
        p.scramble = false;
        let deg = degree::degrees(p.num_vertices(), &generate_edges(&p));
        let n = deg.len();
        let low: u64 = deg[..n / 2].iter().map(|&d| d as u64).sum();
        let high: u64 = deg[n / 2..].iter().map(|&d| d as u64).sum();
        assert!(low > high * 2, "low-id half {low} vs high-id half {high}");
    }
}
