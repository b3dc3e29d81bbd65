//! BQCS-aware gate fusion (paper §3.1, Fig. 4).
//!
//! Gates are decision diagrams; the **BQCS cost** of a gate is its max NZR
//! (the #MAC every output amplitude costs in ELL spMM). Fusion proceeds in
//! three steps:
//!
//! 1. Fuse runs of consecutive diagonal/permutation gates (cost 1); the
//!    product stays cost 1, collapsing whole sub-circuits into one cheap
//!    gate.
//! 2. Fuse consecutive pairs of cost-2 gates into cost-4 gates: the #MAC is
//!    unchanged but half the state-vector loads/stores remain.
//! 3. FlatDD-style greedy fusion: fuse an adjacent pair whenever the fused
//!    gate costs less than the pair combined.

use bqsim_num::FxHashSet;
use bqsim_qdd::gates::{gate_dd, LoweredGate};
use bqsim_qdd::{nzrv, DdPackage, MEdge};

/// A fused gate: a matrix DD plus its BQCS cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedGate {
    /// The gate matrix as a DD in the owning [`DdPackage`].
    pub edge: MEdge,
    /// BQCS cost = max NZR (§3.1.1).
    pub cost: usize,
    /// Whether the matrix is a weighted permutation (cost-1 class, fusion
    /// step ① candidates).
    pub permutation: bool,
    /// How many lowered source gates were fused into this one.
    pub source_gates: usize,
    /// Bitmask of qubits the gate (conservatively) acts on — the union of
    /// its source gates' qubits. Dense-format baselines (cuQuantum's
    /// batched API, Table 4) pay `2^popcount` per amplitude for it.
    pub support_mask: u64,
}

impl FusedGate {
    /// Wraps a gate DD, computing its cost and class. The support mask
    /// defaults to all `n` qubits; [`FusedGate::with_support`] narrows it.
    pub fn classify(dd: &mut DdPackage, edge: MEdge, n: usize, source_gates: usize) -> Self {
        Self::with_support(dd, edge, n, source_gates, mask_all(n))
    }

    /// Like [`FusedGate::classify`] with an explicit qubit-support mask.
    pub fn with_support(
        dd: &mut DdPackage,
        edge: MEdge,
        n: usize,
        source_gates: usize,
        support_mask: u64,
    ) -> Self {
        let cost = nzrv::bqcs_cost(dd, edge, n);
        let permutation = cost == 1 && nzrv::is_permutation_dd(dd, edge, n);
        FusedGate {
            edge,
            cost,
            permutation,
            source_gates,
            support_mask,
        }
    }

    /// Number of qubits in the support (dense baselines pay `2^k` MACs per
    /// amplitude for a `k`-qubit dense gate).
    pub fn support_qubits(&self) -> u32 {
        self.support_mask.count_ones()
    }

    /// #MAC this gate contributes per simulated input: `2^n × cost`.
    pub fn mac_per_input(&self, n: usize) -> u64 {
        (1u64 << n) * self.cost as u64
    }
}

/// Builds the per-gate DDs of a lowered circuit, classifying each.
pub fn classify_gates(dd: &mut DdPackage, n: usize, gates: &[LoweredGate]) -> Vec<FusedGate> {
    gates
        .iter()
        .map(|g| {
            let e = gate_dd(dd, n, g);
            let mask = g
                .controls
                .iter()
                .copied()
                .chain([g.target])
                .fold(0u64, |m, q| m | (1 << q));
            FusedGate::with_support(dd, e, n, 1, mask)
        })
        .collect()
}

/// Mask selecting all `n` qubits.
fn mask_all(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Arena size at which fusion triggers a DD garbage collection. Long
/// fusion chains leave every intermediate product in the arena; without
/// collection, circuits like deep supremacy sweeps can run the host out of
/// memory (DESIGN.md §8).
pub const GC_NODE_THRESHOLD: usize = 1 << 21;

/// Collects DD garbage if the arena exceeds `threshold` nodes, keeping
/// (and remapping) the given gates' DDs as roots.
pub fn gc_if_needed(dd: &mut DdPackage, gates: &mut [FusedGate], threshold: usize) -> bool {
    if dd.stats().matrix_nodes <= threshold {
        return false;
    }
    let mut roots: Vec<MEdge> = gates.iter().map(|g| g.edge).collect();
    dd.collect_garbage(&mut roots, &mut []);
    for (g, e) in gates.iter_mut().zip(roots) {
        g.edge = e;
    }
    true
}

/// Fuses `later · earlier` (gate application order) and reclassifies.
fn fuse_pair(dd: &mut DdPackage, earlier: &FusedGate, later: &FusedGate, n: usize) -> FusedGate {
    let product = dd.mat_mul(later.edge, earlier.edge);
    FusedGate::with_support(
        dd,
        product,
        n,
        earlier.source_gates + later.source_gates,
        earlier.support_mask | later.support_mask,
    )
}

/// Step ①: fuse maximal runs of consecutive cost-1 (diagonal/permutation)
/// gates. Their products remain cost-1, so each run collapses to one gate.
///
/// The product of two weighted permutations is a weighted permutation, so
/// it is classified by construction instead of by re-running NZRV/NZCV on
/// it. Skipping that pass changes no output: the NZRV of a permutation
/// interns only 0 and 1, so the complex table is the same either way.
pub fn fuse_step1(dd: &mut DdPackage, gates: Vec<FusedGate>, n: usize) -> Vec<FusedGate> {
    let mut out: Vec<FusedGate> = Vec::with_capacity(gates.len());
    for g in gates {
        match out.last_mut() {
            Some(prev) if prev.permutation && g.permutation => {
                *prev = FusedGate {
                    edge: dd.mat_mul(g.edge, prev.edge),
                    cost: 1,
                    permutation: true,
                    source_gates: prev.source_gates + g.source_gates,
                    support_mask: prev.support_mask | g.support_mask,
                };
                debug_assert_eq!(
                    *prev,
                    FusedGate::with_support(dd, prev.edge, n, prev.source_gates, prev.support_mask),
                    "perm · perm must stay a cost-1 permutation"
                );
            }
            _ => out.push(g),
        }
    }
    out
}

/// Step ②: fuse every two consecutive cost-2 gates into one cost-≤4 gate
/// (same #MAC, half the memory traffic).
pub fn fuse_step2(dd: &mut DdPackage, gates: Vec<FusedGate>, n: usize) -> Vec<FusedGate> {
    let mut out: Vec<FusedGate> = Vec::with_capacity(gates.len());
    let mut iter = gates.into_iter().peekable();
    while let Some(g) = iter.next() {
        if g.cost == 2 {
            if let Some(next) = iter.peek() {
                if next.cost == 2 {
                    let next = iter.next().expect("peeked");
                    out.push(fuse_pair(dd, &g, &next, n));
                    continue;
                }
            }
        }
        out.push(g);
    }
    out
}

/// Step ③: FlatDD's greedy fusion — repeatedly fuse an adjacent pair when
/// the fused gate's cost is strictly below the pair's combined cost, until
/// a fixpoint.
///
/// A rejected `(earlier, later)` pair is remembered across rounds: its
/// verdict depends only on the two DDs, so a later round would only
/// re-multiply it (a compute-cache hit) to reject it again. The memory is
/// dropped whenever a collection remaps edge ids.
pub fn greedy_fusion(dd: &mut DdPackage, mut gates: Vec<FusedGate>, n: usize) -> Vec<FusedGate> {
    let mut rejected: FxHashSet<(MEdge, MEdge)> = FxHashSet::default();
    loop {
        let mut changed = false;
        let mut out: Vec<FusedGate> = Vec::with_capacity(gates.len());
        let mut iter = gates.into_iter().peekable();
        while let Some(g) = iter.next() {
            if let Some(&next) = iter.peek() {
                if !rejected.contains(&(g.edge, next.edge)) {
                    let fused = fuse_pair(dd, &g, &next, n);
                    if fused.cost < g.cost + next.cost {
                        iter.next();
                        out.push(fused);
                        changed = true;
                        continue;
                    }
                    rejected.insert((g.edge, next.edge));
                }
            }
            out.push(g);
        }
        gates = out;
        if gc_if_needed(dd, &mut gates, GC_NODE_THRESHOLD) {
            rejected.clear();
        }
        if !changed {
            return gates;
        }
    }
}

/// The full BQCS-aware fusion pipeline (steps ① → ② → ③) over a lowered
/// circuit.
///
/// Returns the fused gates in application order; their DDs live in `dd`.
pub fn bqcs_aware_fusion(dd: &mut DdPackage, n: usize, gates: &[LoweredGate]) -> Vec<FusedGate> {
    let classified = classify_gates(dd, n, gates);
    let mut s1 = fuse_step1(dd, classified, n);
    gc_if_needed(dd, &mut s1, GC_NODE_THRESHOLD);
    let mut s2 = fuse_step2(dd, s1, n);
    gc_if_needed(dd, &mut s2, GC_NODE_THRESHOLD);
    greedy_fusion(dd, s2, n)
}

/// Total #MAC per simulated input of a fused gate sequence:
/// `Σ 2^n · cost_i` — the quantity of the paper's Table 3.
pub fn total_mac_per_input(gates: &[FusedGate], n: usize) -> u64 {
    gates.iter().map(|g| g.mac_per_input(n)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqsim_num::approx::vectors_eq;
    use bqsim_qcir::{dense, generators, Circuit};
    use bqsim_qdd::convert::vector_to_dense;
    use bqsim_qdd::gates::lower_circuit;

    /// Applying the fused gates must equal applying the original circuit.
    fn assert_semantics_preserved(c: &Circuit, fused: &[FusedGate], dd: &mut DdPackage) {
        let n = c.num_qubits();
        let mut state = dd.vec_basis(n, 0);
        for g in fused {
            state = dd.mat_vec(g.edge, state);
        }
        let got = vector_to_dense(dd, state, n);
        let want = dense::simulate(c);
        assert!(
            vectors_eq(&got, &want, 1e-9),
            "fusion changed circuit semantics for {}",
            c.name()
        );
    }

    #[test]
    fn figure4_style_vqe_fusion() {
        // Fig. 4 input: ry/cx alternation like the VQE ansatz. Step ① fuses
        // cx runs, step ② pairs the rys, step ③ mops up.
        let mut c = Circuit::new(3);
        c.ry(3.5902 * std::f64::consts::PI, 0)
            .ry(3.5478 * std::f64::consts::PI, 1)
            .cx(1, 2)
            .cx(0, 1)
            .ry(0.4724 * std::f64::consts::PI, 2)
            .ry(0.6389 * std::f64::consts::PI, 0)
            .cx(1, 2)
            .cx(0, 1);
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&c);
        let gates = classify_gates(&mut dd, 3, &lowered);
        assert_eq!(
            gates.iter().map(|g| g.cost).collect::<Vec<_>>(),
            vec![2, 2, 1, 1, 2, 2, 1, 1],
            "per-gate BQCS costs of Fig. 4"
        );
        let s1 = fuse_step1(&mut dd, gates, 3);
        assert_eq!(
            s1.iter().map(|g| g.cost).collect::<Vec<_>>(),
            vec![2, 2, 1, 2, 2, 1],
            "step 1 fuses the cx pairs"
        );
        let s2 = fuse_step2(&mut dd, s1, 3);
        assert_eq!(
            s2.iter().map(|g| g.cost).collect::<Vec<_>>(),
            vec![4, 1, 4, 1],
            "step 2 pairs the cost-2 rotations"
        );
        let s3 = greedy_fusion(&mut dd, s2, 3);
        // Greedy folds the cost-1 gates into their cost-4 neighbours
        // whenever the product stays at cost 4 (4 < 4+1), reaching the
        // paper's single fused gate when the final product stays cheap.
        let total: usize = s3.iter().map(|g| g.cost).sum();
        assert!(total <= 8, "total cost after greedy = {total}");
        assert_semantics_preserved(&c, &s3, &mut dd);
    }

    #[test]
    fn fusion_preserves_semantics_on_families() {
        let circuits = vec![
            generators::vqe(5, 1),
            generators::qnn(4, 1),
            generators::portfolio_opt(4, 1),
            generators::graph_state(5),
            generators::tsp(4, 1),
            generators::routing(5, 1),
            generators::supremacy(4, 6, 1),
            generators::qft(4),
        ];
        for c in circuits {
            let mut dd = DdPackage::new();
            let lowered = lower_circuit(&c);
            let fused = bqcs_aware_fusion(&mut dd, c.num_qubits(), &lowered);
            assert!(!fused.is_empty());
            assert_semantics_preserved(&c, &fused, &mut dd);
        }
    }

    #[test]
    fn fusion_never_increases_total_mac() {
        for seed in 0..4u64 {
            let c = generators::random_circuit(5, 30, seed);
            let mut dd = DdPackage::new();
            let lowered = lower_circuit(&c);
            let before = classify_gates(&mut dd, 5, &lowered);
            let mac_before = total_mac_per_input(&before, 5);
            let fused = bqcs_aware_fusion(&mut dd, 5, &lowered);
            let mac_after = total_mac_per_input(&fused, 5);
            assert!(
                mac_after <= mac_before,
                "seed {seed}: fusion increased #MAC {mac_before} -> {mac_after}"
            );
        }
    }

    #[test]
    fn graph_state_fuses_to_single_cost2_chain() {
        // H layer (cost 2 each) + CZ ring (cost 1 each): step ① folds the
        // whole CZ ring into one diagonal gate.
        let c = generators::graph_state(6);
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&c);
        let fused = bqcs_aware_fusion(&mut dd, 6, &lowered);
        let mac = total_mac_per_input(&fused, 6);
        // Paper Table 3: graph state → BQSim #MAC per input = 2^n · 2n
        // (n=16: 2_097_152 = 2^16 · 32). The n Hadamards pair into n/2
        // cost-4 gates and the CZ ring folds into them: total cost 2n.
        assert_eq!(
            mac,
            (1 << 6) * 12,
            "graph state fused #MAC must match the paper's 2^n·2n"
        );
        assert_semantics_preserved(&c, &fused, &mut dd);
    }

    #[test]
    fn diagonal_run_fuses_to_cost_one() {
        let mut c = Circuit::new(4);
        c.rz(0.1, 0)
            .cz(0, 1)
            .rzz(0.7, 1, 2)
            .t(3)
            .cx(2, 3)
            .s(1)
            .cp(0.3, 0, 3);
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&c);
        let fused = bqcs_aware_fusion(&mut dd, 4, &lowered);
        assert_eq!(fused.len(), 1, "an all-cheap circuit collapses to 1 gate");
        assert_eq!(fused[0].cost, 1);
        assert_semantics_preserved(&c, &fused, &mut dd);
    }

    #[test]
    fn gc_during_fusion_preserves_semantics() {
        let c = generators::supremacy(5, 8, 2);
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&c);
        let mut gates = classify_gates(&mut dd, 5, &lowered);
        // Force a collection with threshold 0 mid-pipeline.
        assert!(gc_if_needed(&mut dd, &mut gates, 0));
        let gates = fuse_step1(&mut dd, gates, 5);
        let mut gates = fuse_step2(&mut dd, gates, 5);
        assert!(gc_if_needed(&mut dd, &mut gates, 0));
        let fused = greedy_fusion(&mut dd, gates, 5);
        assert_semantics_preserved(&c, &fused, &mut dd);
    }

    #[test]
    fn classify_costs_match_kinds() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(0.5, 1).ry(0.5, 0);
        let mut dd = DdPackage::new();
        let lowered = lower_circuit(&c);
        let gates = classify_gates(&mut dd, 2, &lowered);
        assert_eq!(
            gates.iter().map(|g| g.cost).collect::<Vec<_>>(),
            vec![2, 1, 1, 2]
        );
        assert!(gates[1].permutation);
        assert!(!gates[0].permutation);
    }
}
