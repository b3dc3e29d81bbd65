//! The paper's NZRV algorithm (Fig. 3) and derived classifications.
//!
//! The **BQCS cost** of a gate matrix is its maximum number of non-zeros
//! per row (max NZR): in ELL-based spMM every output amplitude costs
//! exactly `maxNZR` multiply-accumulates (§3.1.1). Scanning all `2^n` rows
//! is infeasible, so the paper computes the *NZR vector* (NZRV) natively on
//! the DD: each matrix node's NZRV is derived from its children's NZRVs via
//! `DDAdd` (top/bottom row-block sums) and `DDConcatenate` (stacking),
//! memoised in a map `T` keyed by node.

use crate::edge::{MEdge, MNodeId, VEdge, VNodeId};
use crate::DdPackage;
use bqsim_num::{Complex, FxHashMap};

/// Computes the NZRV of a matrix DD spanning `n` levels as a vector DD with
/// non-negative integer (real) weights: entry `r` is the number of
/// non-zeros in row `r`.
///
/// This is the paper's Fig. 3 algorithm. The zero matrix yields the zero
/// edge; a 1×1 non-zero matrix yields the terminal one-edge (count 1).
pub fn nzrv(dd: &mut DdPackage, e: MEdge, n: usize) -> VEdge {
    let mut memo: FxHashMap<MNodeId, VEdge> = FxHashMap::default();
    nzrv_edge(dd, e, n, &mut memo)
}

fn nzrv_edge(
    dd: &mut DdPackage,
    e: MEdge,
    span: usize,
    memo: &mut FxHashMap<MNodeId, VEdge>,
) -> VEdge {
    if e.is_zero() {
        return VEdge::ZERO;
    }
    if e.is_terminal() {
        debug_assert_eq!(span, 0);
        return VEdge::ONE; // one non-zero entry in this 1×1 block
    }
    if let Some(&hit) = memo.get(&e.node) {
        return hit;
    }
    let level = dd.mat_level(e.node) as usize;
    debug_assert_eq!(level + 1, span);
    let c = dd.mat_children(e.node);
    // Row block r of [[c0, c1], [c2, c3]] has NZRV(c_{2r}) + NZRV(c_{2r+1}).
    let t0 = nzrv_edge(dd, c[0], level, memo);
    let t1 = nzrv_edge(dd, c[1], level, memo);
    let top = dd.vec_add(t0, t1);
    let b0 = nzrv_edge(dd, c[2], level, memo);
    let b1 = nzrv_edge(dd, c[3], level, memo);
    let bottom = dd.vec_add(b0, b1);
    let result = dd.vec_concat(top, bottom, level);
    memo.insert(e.node, result);
    result
}

/// Computes the NZCV (non-zeros per **column**) of a matrix DD — the
/// column-wise dual of [`nzrv`], used to detect permutation matrices.
pub fn nzcv(dd: &mut DdPackage, e: MEdge, n: usize) -> VEdge {
    let mut memo: FxHashMap<MNodeId, VEdge> = FxHashMap::default();
    nzcv_edge(dd, e, n, &mut memo)
}

fn nzcv_edge(
    dd: &mut DdPackage,
    e: MEdge,
    span: usize,
    memo: &mut FxHashMap<MNodeId, VEdge>,
) -> VEdge {
    if e.is_zero() {
        return VEdge::ZERO;
    }
    if e.is_terminal() {
        debug_assert_eq!(span, 0);
        return VEdge::ONE;
    }
    if let Some(&hit) = memo.get(&e.node) {
        return hit;
    }
    let level = dd.mat_level(e.node) as usize;
    let c = dd.mat_children(e.node);
    // Column block c of [[c0, c1], [c2, c3]] has NZCV(c_c) + NZCV(c_{c+2}).
    let l0 = nzcv_edge(dd, c[0], level, memo);
    let l1 = nzcv_edge(dd, c[2], level, memo);
    let left = dd.vec_add(l0, l1);
    let r0 = nzcv_edge(dd, c[1], level, memo);
    let r1 = nzcv_edge(dd, c[3], level, memo);
    let right = dd.vec_add(r0, r1);
    let result = dd.vec_concat(left, right, level);
    memo.insert(e.node, result);
    result
}

/// The maximum entry of a non-negative integer-weighted vector DD,
/// extracted by DFS over the DD (not the dense vector).
pub fn max_entry(dd: &DdPackage, v: VEdge) -> usize {
    if v.is_zero() {
        return 0;
    }
    let mut memo: FxHashMap<VNodeId, f64> = FxHashMap::default();
    let node_max = max_entry_node(dd, v.node, &mut memo);
    (dd.value(v.w).re * node_max).round() as usize
}

fn max_entry_node(dd: &DdPackage, id: VNodeId, memo: &mut FxHashMap<VNodeId, f64>) -> f64 {
    if id.is_terminal() {
        return 1.0;
    }
    if let Some(&hit) = memo.get(&id) {
        return hit;
    }
    let c = dd.vec_children(id);
    let mut best = 0.0f64;
    for e in c {
        if e.is_zero() {
            continue;
        }
        let sub = max_entry_node(dd, e.node, memo);
        best = best.max(dd.value(e.w).re * sub);
    }
    memo.insert(id, best);
    best
}

/// The paper's BQCS cost of a gate matrix: its maximum NZR (§3.1.1).
///
/// Diagonal and permutation gates have cost 1; a dense `k`-qubit block has
/// cost `2^k`.
pub fn bqcs_cost(dd: &mut DdPackage, e: MEdge, n: usize) -> usize {
    let v = nzrv(dd, e, n);
    max_entry(dd, v)
}

/// Sum and sum-of-squares of the entries of a non-negative integer vector
/// DD spanning `n` levels, computed by DFS with memoisation.
fn moments(dd: &DdPackage, v: VEdge) -> (f64, f64) {
    if v.is_zero() {
        return (0.0, 0.0);
    }
    let mut memo: FxHashMap<VNodeId, (f64, f64)> = FxHashMap::default();
    let (s, s2) = moments_node(dd, v.node, &mut memo);
    let w = dd.value(v.w).re;
    (w * s, w * w * s2)
}

fn moments_node(
    dd: &DdPackage,
    id: VNodeId,
    memo: &mut FxHashMap<VNodeId, (f64, f64)>,
) -> (f64, f64) {
    if id.is_terminal() {
        return (1.0, 1.0);
    }
    if let Some(&hit) = memo.get(&id) {
        return hit;
    }
    let c = dd.vec_children(id);
    let mut sum = 0.0;
    let mut sumsq = 0.0;
    for e in c {
        if e.is_zero() {
            continue;
        }
        let (s, s2) = moments_node(dd, e.node, memo);
        let w = dd.value(e.w).re;
        sum += w * s;
        sumsq += w * w * s2;
    }
    memo.insert(id, (sum, sumsq));
    (sum, sumsq)
}

/// Coefficient of variation (σ/μ) of the NZR values of a matrix DD —
/// the uniformity metric of the paper's Table 1. Lower means the rows are
/// more uniform, which is what justifies the ELL format (§3.2).
///
/// Returns 0 for the zero matrix.
pub fn nzr_coefficient_of_variation(dd: &mut DdPackage, e: MEdge, n: usize) -> f64 {
    let v = nzrv(dd, e, n);
    if v.is_zero() {
        return 0.0;
    }
    let rows = (1usize << n) as f64;
    let (sum, sumsq) = moments(dd, v);
    let mean = sum / rows;
    if mean == 0.0 {
        return 0.0;
    }
    let var = (sumsq / rows - mean * mean).max(0.0);
    var.sqrt() / mean
}

/// Whether a matrix DD is diagonal (all off-diagonal blocks zero).
pub fn is_diagonal_dd(dd: &DdPackage, e: MEdge) -> bool {
    let mut memo: FxHashMap<MNodeId, bool> = FxHashMap::default();
    diag_rec(dd, e, &mut memo)
}

fn diag_rec(dd: &DdPackage, e: MEdge, memo: &mut FxHashMap<MNodeId, bool>) -> bool {
    if e.is_zero() || e.is_terminal() {
        return true;
    }
    if let Some(&hit) = memo.get(&e.node) {
        return hit;
    }
    let c = dd.mat_children(e.node);
    let ok =
        c[1].is_zero() && c[2].is_zero() && diag_rec(dd, c[0], memo) && diag_rec(dd, c[3], memo);
    memo.insert(e.node, ok);
    ok
}

/// Whether a matrix DD is a weighted permutation matrix: exactly one
/// non-zero per row **and** per column (max NZR = max NZC = 1).
///
/// Diagonal matrices with full support satisfy this; so do `X`-like and
/// `CX`-like patterns. This is the membership test of fusion step ①.
pub fn is_permutation_dd(dd: &mut DdPackage, e: MEdge, n: usize) -> bool {
    if e.is_zero() {
        return false;
    }
    let r = nzrv(dd, e, n);
    if max_entry(dd, r) != 1 {
        return false;
    }
    // All rows must have exactly one entry: total entries == 2^n.
    let (sum, _) = moments(dd, r);
    if (sum - (1usize << n) as f64).abs() > 0.5 {
        return false;
    }
    let c = nzcv(dd, e, n);
    max_entry(dd, c) == 1
}

/// Dense export of an integer vector DD, for tests and reports.
pub fn counts_to_dense(dd: &DdPackage, v: VEdge, n: usize) -> Vec<usize> {
    crate::convert::vector_to_dense(dd, v, n)
        .into_iter()
        .map(|z: Complex| z.re.round() as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::matrix_from_dense;
    use crate::gates::{gate_dd, LoweredGate};
    use bqsim_num::Complex;
    use bqsim_qcir::{CMatrix, GateKind};

    /// The exact 8×8 matrix of the paper's Fig. 3.
    fn figure3_matrix() -> CMatrix {
        let rows: [[i32; 8]; 8] = [
            [1, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
        ];
        let mut m = CMatrix::zeros(8);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, Complex::real(v as f64));
            }
        }
        m
    }

    #[test]
    fn figure3_nzrv_matches_paper() {
        let mut dd = DdPackage::new();
        let m = figure3_matrix();
        let e = matrix_from_dense(&mut dd, &m);
        let v = nzrv(&mut dd, e, 3);
        assert_eq!(counts_to_dense(&dd, v, 3), vec![2, 1, 2, 1, 2, 1, 2, 1]);
        assert_eq!(max_entry(&dd, v), 2);
        assert_eq!(bqcs_cost(&mut dd, e, 3), 2);
    }

    #[test]
    fn nzrv_matches_dense_oracle_on_gates() {
        let mut dd = DdPackage::new();
        let cases: Vec<(CMatrix, usize)> = vec![
            (GateKind::H.matrix().kron(&GateKind::H.matrix()), 2),
            (GateKind::Cx.matrix().kron(&GateKind::T.matrix()), 3),
            (GateKind::Swap.matrix(), 2),
            (GateKind::Rzz(0.3).matrix().kron(&GateKind::H.matrix()), 3),
            (GateKind::Ccx.matrix(), 3),
        ];
        for (m, n) in cases {
            let e = matrix_from_dense(&mut dd, &m);
            let v = nzrv(&mut dd, e, n);
            assert_eq!(
                counts_to_dense(&dd, v, n),
                m.nzr_per_row(1e-12),
                "NZRV mismatch"
            );
            assert_eq!(max_entry(&dd, v), m.max_nzr(1e-12));
        }
    }

    #[test]
    fn nzcv_matches_dense_oracle() {
        let mut dd = DdPackage::new();
        let m = figure3_matrix();
        let e = matrix_from_dense(&mut dd, &m);
        let v = nzcv(&mut dd, e, 3);
        // Column counts of the Fig. 3 matrix.
        let mut want = vec![0usize; 8];
        #[allow(clippy::needless_range_loop)] // c is a column index
        for c in 0..8 {
            for r in 0..8 {
                if !m.get(r, c).is_zero(1e-12) {
                    want[c] += 1;
                }
            }
        }
        assert_eq!(counts_to_dense(&dd, v, 3), want);
    }

    #[test]
    fn bqcs_costs_of_standard_gates() {
        let mut dd = DdPackage::new();
        let n = 4;
        let cost = |dd: &mut DdPackage, kind: &GateKind, t: usize, c: Vec<usize>| {
            let g = LoweredGate {
                matrix: {
                    let m = kind.matrix();
                    [m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1)]
                },
                target: t,
                controls: c,
                name: kind.name(),
                origin: 0,
            };
            let e = gate_dd(dd, n, &g);
            bqcs_cost(dd, e, n)
        };
        assert_eq!(cost(&mut dd, &GateKind::Rz(0.3), 1, vec![]), 1); // diagonal
        assert_eq!(cost(&mut dd, &GateKind::X, 2, vec![0]), 1); // permutation
        assert_eq!(cost(&mut dd, &GateKind::H, 0, vec![]), 2); // rotation
        assert_eq!(cost(&mut dd, &GateKind::Ry(0.9), 3, vec![]), 2);
        assert_eq!(cost(&mut dd, &GateKind::H, 0, vec![1]), 2); // controlled-H
    }

    #[test]
    fn permutation_detection() {
        let mut dd = DdPackage::new();
        let cx = matrix_from_dense(&mut dd, &GateKind::Cx.matrix());
        assert!(is_permutation_dd(&mut dd, cx, 2));
        assert!(!is_diagonal_dd(&dd, cx));
        let rzz = matrix_from_dense(&mut dd, &GateKind::Rzz(0.4).matrix());
        assert!(is_diagonal_dd(&dd, rzz));
        assert!(is_permutation_dd(&mut dd, rzz, 2));
        let h = matrix_from_dense(&mut dd, &GateKind::H.matrix());
        assert!(!is_permutation_dd(&mut dd, h, 1));
        // A projector (one zero row) is not a permutation even though its
        // max NZR is 1.
        let proj = matrix_from_dense(
            &mut dd,
            &CMatrix::from_rows(
                2,
                &[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO],
            ),
        );
        assert!(!is_permutation_dd(&mut dd, proj, 1));
    }

    #[test]
    fn cv_is_zero_for_uniform_rows() {
        let mut dd = DdPackage::new();
        let m = GateKind::H.matrix().kron(&GateKind::H.matrix());
        let e = matrix_from_dense(&mut dd, &m);
        assert!(nzr_coefficient_of_variation(&mut dd, e, 2).abs() < 1e-12);
    }

    #[test]
    fn cv_positive_for_nonuniform_rows() {
        let mut dd = DdPackage::new();
        let e = matrix_from_dense(&mut dd, &figure3_matrix());
        let cv = nzr_coefficient_of_variation(&mut dd, e, 3);
        // Rows alternate 2 and 1 → mean 1.5, σ = 0.5, CV = 1/3.
        assert!((cv - 1.0 / 3.0).abs() < 1e-9, "cv = {cv}");
    }

    #[test]
    fn zero_matrix_edge_cases() {
        let mut dd = DdPackage::new();
        assert_eq!(bqcs_cost(&mut dd, MEdge::ZERO, 3), 0);
        assert_eq!(nzr_coefficient_of_variation(&mut dd, MEdge::ZERO, 3), 0.0);
        assert!(!is_permutation_dd(&mut dd, MEdge::ZERO, 3));
    }
}
