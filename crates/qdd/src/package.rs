//! The DD package: arenas, unique tables, normalisation, constructors.

use crate::edge::{MEdge, MNode, MNodeId, VEdge, VNode, VNodeId};
use bqsim_num::{CIdx, Complex, ComplexTable, FxHashMap};

/// Operation tags for the compute caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CacheOp {
    MatMul,
    Conjugate,
    Transpose,
}

/// Counters describing the package's current size and cache behaviour.
///
/// Returned by [`DdPackage::stats`]; the benches use these to report DD
/// compression (paper §2.2: "26 edges and six nodes, compared to 64").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DdStats {
    /// Matrix nodes allocated in the arena.
    pub matrix_nodes: usize,
    /// Vector nodes allocated in the arena.
    pub vector_nodes: usize,
    /// Distinct canonical complex values.
    pub complex_values: usize,
    /// Compute-cache hits since construction/reset.
    pub cache_hits: u64,
    /// Compute-cache misses since construction/reset.
    pub cache_misses: u64,
}

/// The QMDD package: owns node arenas, unique tables (for canonicity),
/// compute caches, and the canonical complex table.
///
/// All DD values ([`MEdge`], [`VEdge`]) are only meaningful relative to the
/// package that created them. The package never frees individual nodes;
/// [`DdPackage::reset`] reclaims everything at once (simulation working
/// sets are bounded per circuit, see DESIGN.md §8).
#[derive(Debug)]
pub struct DdPackage {
    pub(crate) ctab: ComplexTable,
    pub(crate) mnodes: Vec<MNode>,
    pub(crate) vnodes: Vec<VNode>,
    munique: FxHashMap<MNode, u32>,
    vunique: FxHashMap<VNode, u32>,
    pub(crate) cache_mm: FxHashMap<(CacheOp, u32, u32), MEdge>,
    pub(crate) cache_mv: FxHashMap<(u32, u32), VEdge>,
    pub(crate) cache_madd: FxHashMap<(u32, u32, u32), MEdge>,
    pub(crate) cache_vadd: FxHashMap<(u32, u32, u32), VEdge>,
    /// Cached identity edges: `identity[k]` spans levels `0..k`.
    identity: Vec<MEdge>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl DdPackage {
    /// Creates an empty package with the default tolerance.
    pub fn new() -> Self {
        DdPackage {
            ctab: ComplexTable::new(),
            mnodes: Vec::new(),
            vnodes: Vec::new(),
            munique: FxHashMap::default(),
            vunique: FxHashMap::default(),
            cache_mm: FxHashMap::default(),
            cache_mv: FxHashMap::default(),
            cache_madd: FxHashMap::default(),
            cache_vadd: FxHashMap::default(),
            identity: vec![MEdge::ONE],
            hits: 0,
            misses: 0,
        }
    }

    /// Clears all nodes, caches, and interned values.
    ///
    /// Every previously returned edge becomes invalid.
    pub fn reset(&mut self) {
        *self = DdPackage::new();
    }

    /// Current size/cache counters.
    pub fn stats(&self) -> DdStats {
        DdStats {
            matrix_nodes: self.mnodes.len(),
            vector_nodes: self.vnodes.len(),
            complex_values: self.ctab.len(),
            cache_hits: self.hits,
            cache_misses: self.misses,
        }
    }

    /// Read access to the canonical complex table.
    #[inline]
    pub fn ctab(&self) -> &ComplexTable {
        &self.ctab
    }

    /// Mutable access to the canonical complex table (for interning input
    /// amplitudes before building vectors by hand).
    #[inline]
    pub fn ctab_mut(&mut self) -> &mut ComplexTable {
        &mut self.ctab
    }

    /// The complex value denoted by a canonical index.
    #[inline]
    pub fn value(&self, w: CIdx) -> Complex {
        self.ctab.value(w)
    }

    // -- node accessors ------------------------------------------------------

    /// Number of matrix nodes in the arena (introspection for analyzers:
    /// a reachable-node census over all live roots can be compared against
    /// this to quantify garbage).
    #[inline]
    pub fn mat_node_count(&self) -> usize {
        self.mnodes.len()
    }

    /// Number of vector nodes in the arena. See
    /// [`DdPackage::mat_node_count`].
    #[inline]
    pub fn vec_node_count(&self) -> usize {
        self.vnodes.len()
    }

    /// The qubit level of a matrix node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal.
    #[inline]
    pub fn mat_level(&self, id: MNodeId) -> u8 {
        self.mnodes[id.index()].level
    }

    /// The four child edges of a matrix node in
    /// `[top-left, top-right, bottom-left, bottom-right]` order.
    ///
    /// # Panics
    ///
    /// Panics on the terminal.
    #[inline]
    pub fn mat_children(&self, id: MNodeId) -> [MEdge; 4] {
        self.mnodes[id.index()].children
    }

    /// The qubit level of a vector node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal.
    #[inline]
    pub fn vec_level(&self, id: VNodeId) -> u8 {
        self.vnodes[id.index()].level
    }

    /// The `[top, bottom]` child edges of a vector node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal.
    #[inline]
    pub fn vec_children(&self, id: VNodeId) -> [VEdge; 2] {
        self.vnodes[id.index()].children
    }

    /// The number of qubit levels spanned by a matrix edge (terminal = 0).
    #[inline]
    pub fn mat_span(&self, e: MEdge) -> usize {
        if e.node.is_terminal() {
            0
        } else {
            self.mat_level(e.node) as usize + 1
        }
    }

    // -- node construction ---------------------------------------------------

    /// Builds (or reuses) the canonical matrix node at `level` with the
    /// given children, returning the normalised edge.
    ///
    /// Normalisation divides all child weights by the child weight of
    /// largest magnitude (lowest index on ties) and moves that factor onto
    /// the returned edge, giving each node a unique representative (§2.2:
    /// "all edge weights are uniquely determined via normalization").
    ///
    /// # Panics
    ///
    /// Panics (debug) if a non-terminal child is not exactly one level
    /// below `level` — this package does not skip levels.
    pub fn make_mat_node(&mut self, level: u8, mut children: [MEdge; 4]) -> MEdge {
        for c in &children {
            debug_assert!(
                c.is_zero() || c.node.is_terminal() || self.mat_level(c.node) + 1 == level,
                "child level mismatch in make_mat_node"
            );
            debug_assert!(
                level == 0 || c.is_zero() || !c.node.is_terminal(),
                "terminal child under level {level} > 0"
            );
        }
        // Normalise.
        let norm_idx = match self.pick_norm_index(children.iter().map(|c| c.w)) {
            Some(i) => i,
            None => return MEdge::ZERO, // all children zero
        };
        let norm_w = children[norm_idx].w;
        for c in &mut children {
            if !c.is_zero() {
                c.w = self.ctab.div(c.w, norm_w);
            }
        }
        let node = MNode { level, children };
        let id = match self.munique.get(&node) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.mnodes.len()).expect("matrix arena overflow");
                self.mnodes.push(node);
                self.munique.insert(node, id);
                id
            }
        };
        MEdge {
            node: MNodeId(id),
            w: norm_w,
        }
    }

    /// Builds (or reuses) the canonical vector node at `level`. See
    /// [`DdPackage::make_mat_node`] for normalisation rules.
    pub fn make_vec_node(&mut self, level: u8, mut children: [VEdge; 2]) -> VEdge {
        for c in &children {
            debug_assert!(
                c.is_zero() || c.node.is_terminal() || self.vec_level(c.node) + 1 == level,
                "child level mismatch in make_vec_node"
            );
            debug_assert!(
                level == 0 || c.is_zero() || !c.node.is_terminal(),
                "terminal child under level {level} > 0"
            );
        }
        let norm_idx = match self.pick_norm_index(children.iter().map(|c| c.w)) {
            Some(i) => i,
            None => return VEdge::ZERO,
        };
        let norm_w = children[norm_idx].w;
        for c in &mut children {
            if !c.is_zero() {
                c.w = self.ctab.div(c.w, norm_w);
            }
        }
        let node = VNode { level, children };
        let id = match self.vunique.get(&node) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.vnodes.len()).expect("vector arena overflow");
                self.vnodes.push(node);
                self.vunique.insert(node, id);
                id
            }
        };
        VEdge {
            node: VNodeId(id),
            w: norm_w,
        }
    }

    // -- garbage-collection support (see `gc.rs`) ---------------------------

    /// Removes and returns the identity-edge cache (index 0 excluded: the
    /// terminal edge needs no remapping).
    pub(crate) fn take_identity_cache(&mut self) -> Vec<MEdge> {
        let mut cache = std::mem::take(&mut self.identity);
        cache.remove(0); // MEdge::ONE, terminal
        cache
    }

    /// Restores a (remapped) identity cache taken by
    /// [`DdPackage::take_identity_cache`].
    pub(crate) fn restore_identity_cache(&mut self, remapped: Vec<MEdge>) {
        self.identity = std::iter::once(MEdge::ONE).chain(remapped).collect();
    }

    /// Clears every compute cache (their keys reference arena indices).
    pub(crate) fn clear_compute_caches(&mut self) {
        self.cache_mm.clear();
        self.cache_mv.clear();
        self.cache_madd.clear();
        self.cache_vadd.clear();
    }

    /// Rebuilds the matrix unique table from the (compacted) arena.
    pub(crate) fn rebuild_matrix_unique_table(&mut self) {
        self.munique = self
            .mnodes
            .iter()
            .enumerate()
            .map(|(i, node)| (*node, i as u32))
            .collect();
    }

    /// Rebuilds the vector unique table from the (compacted) arena.
    pub(crate) fn rebuild_vector_unique_table(&mut self) {
        self.vunique = self
            .vnodes
            .iter()
            .enumerate()
            .map(|(i, node)| (*node, i as u32))
            .collect();
    }

    /// Picks the normalisation child: largest magnitude, lowest index on
    /// (tolerance-aware) ties. `None` if all weights are zero.
    fn pick_norm_index(&self, weights: impl Iterator<Item = CIdx>) -> Option<usize> {
        let mags: Vec<f64> = weights
            .map(|w| {
                if w.is_zero() {
                    0.0
                } else {
                    self.ctab.value(w).abs()
                }
            })
            .collect();
        let max = mags.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return None;
        }
        let tol = self.ctab.tolerance();
        mags.iter().position(|&m| m >= max - tol)
    }

    // -- common constructors ---------------------------------------------------

    /// The identity matrix DD over `levels` qubit levels.
    ///
    /// `identity(0)` is the terminal one-edge.
    pub fn identity(&mut self, levels: usize) -> MEdge {
        while self.identity.len() <= levels {
            let below = *self.identity.last().expect("identity[0] always present");
            let level = (self.identity.len() - 1) as u8;
            let e = self.make_mat_node(level, [below, MEdge::ZERO, MEdge::ZERO, below]);
            self.identity.push(e);
        }
        self.identity[levels]
    }

    /// The computational basis state `|index⟩` over `n` qubits as a vector
    /// DD.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn vec_basis(&mut self, n: usize, index: usize) -> VEdge {
        assert!(index < (1usize << n), "basis index out of range");
        let mut e = VEdge::ONE;
        for level in 0..n {
            let bit = (index >> level) & 1;
            let children = if bit == 0 {
                [e, VEdge::ZERO]
            } else {
                [VEdge::ZERO, e]
            };
            e = self.make_vec_node(level as u8, children);
        }
        e
    }

    /// Imports a dense amplitude vector (length `2^n`) as a vector DD.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn vec_from_dense(&mut self, amps: &[Complex]) -> VEdge {
        assert!(
            amps.len().is_power_of_two(),
            "amplitude count must be a power of two"
        );
        let n = amps.len().trailing_zeros() as usize;
        self.vec_from_dense_rec(amps, n)
    }

    fn vec_from_dense_rec(&mut self, amps: &[Complex], levels: usize) -> VEdge {
        if levels == 0 {
            let w = self.ctab.intern(amps[0]);
            return VEdge::terminal(w);
        }
        let half = amps.len() / 2;
        let top = self.vec_from_dense_rec(&amps[..half], levels - 1);
        let bottom = self.vec_from_dense_rec(&amps[half..], levels - 1);
        self.make_vec_node((levels - 1) as u8, [top, bottom])
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::vector_to_dense;

    #[test]
    fn make_mat_node_is_canonical() {
        let mut dd = DdPackage::new();
        let h = dd
            .ctab
            .intern(Complex::real(std::f64::consts::FRAC_1_SQRT_2));
        let hneg = dd.ctab.neg(h);
        let e1 = dd.make_mat_node(
            0,
            [
                MEdge::terminal(h),
                MEdge::terminal(h),
                MEdge::terminal(h),
                MEdge::terminal(hneg),
            ],
        );
        let e2 = dd.make_mat_node(
            0,
            [
                MEdge::terminal(h),
                MEdge::terminal(h),
                MEdge::terminal(h),
                MEdge::terminal(hneg),
            ],
        );
        assert_eq!(e1, e2);
        assert_eq!(dd.mnodes.len(), 1, "unique table must share the node");
        // Normalisation pulled out 1/√2.
        assert!(dd
            .value(e1.w)
            .approx_eq(Complex::real(std::f64::consts::FRAC_1_SQRT_2), 1e-12));
    }

    #[test]
    fn all_zero_children_collapse_to_zero_edge() {
        let mut dd = DdPackage::new();
        let e = dd.make_mat_node(0, [MEdge::ZERO; 4]);
        assert_eq!(e, MEdge::ZERO);
        assert!(dd.mnodes.is_empty());
    }

    #[test]
    fn identity_shares_structure() {
        let mut dd = DdPackage::new();
        let i3 = dd.identity(3);
        let i2 = dd.identity(2);
        assert_eq!(dd.mat_children(i3.node)[0], i2);
        assert_eq!(dd.mat_children(i3.node)[3], i2);
        assert!(dd.mat_children(i3.node)[1].is_zero());
        // n-level identity uses exactly n nodes.
        assert_eq!(dd.mnodes.len(), 3);
    }

    #[test]
    fn vec_basis_roundtrip() {
        let mut dd = DdPackage::new();
        for idx in 0..8 {
            let e = dd.vec_basis(3, idx);
            let dense = vector_to_dense(&dd, e, 3);
            for (i, a) in dense.iter().enumerate() {
                let want = if i == idx { 1.0 } else { 0.0 };
                assert!((a.re - want).abs() < 1e-12 && a.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn vec_from_dense_roundtrip() {
        let mut dd = DdPackage::new();
        let amps = vec![
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
            Complex::ZERO,
            Complex::ZERO,
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
            Complex::ZERO,
            Complex::ZERO,
        ];
        let e = dd.vec_from_dense(&amps);
        let back = vector_to_dense(&dd, e, 3);
        assert!(bqsim_num::approx::vectors_eq(&amps, &back, 1e-12));
        // The paper's Fig. 1b example: this vector needs only 3 nodes.
        assert_eq!(dd.vnodes.len(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut dd = DdPackage::new();
        dd.identity(4);
        dd.vec_basis(4, 7);
        assert!(dd.stats().matrix_nodes > 0);
        dd.reset();
        let s = dd.stats();
        assert_eq!(s.matrix_nodes, 0);
        assert_eq!(s.vector_nodes, 0);
    }

    #[test]
    #[should_panic(expected = "basis index out of range")]
    fn basis_out_of_range_panics() {
        let mut dd = DdPackage::new();
        dd.vec_basis(2, 4);
    }
}
