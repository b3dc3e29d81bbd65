//! Oracles for the compile fast paths. Each shortcut the compiler takes
//! is checked here against the slow computation it replaces, in release
//! test runs as well as in the debug builds where the same comparisons
//! run as `debug_assert`s:
//! - Algorithm-1 work counted on the DD vs. replaying every row;
//! - step-① products classified by construction vs. NZRV/NZCV;
//! - greedy step ③ skipping rejected pairs vs. re-trying them.

use bqsim_core::fusion::{self, classify_gates, fuse_step1, fuse_step2, greedy_fusion, FusedGate};
use bqsim_ell::convert::{algorithm1_work, ell_from_gpu_dd};
use bqsim_ell::GpuDd;
use bqsim_num::Complex;
use bqsim_qcir::{generators, CMatrix, Circuit};
use bqsim_qdd::convert::matrix_from_dense;
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::{nzrv, DdPackage, MEdge};
use proptest::prelude::*;

/// The nine generator families the CLI and the service accept.
fn family(name: &str, n: usize) -> Circuit {
    match name {
        "qnn" => generators::qnn(n, 1),
        "vqe" => generators::vqe(n, 1),
        "portfolio" => generators::portfolio_opt(n, 1),
        "graph" => generators::graph_state(n),
        "tsp" => generators::tsp(n, 1),
        "routing" => generators::routing(n, 1),
        "supremacy" => generators::supremacy(n, 8, 1),
        "ghz" => generators::ghz(n),
        "qft" => generators::qft(n),
        other => panic!("unknown family {other}"),
    }
}

const FAMILIES: [&str; 9] = [
    "qnn",
    "vqe",
    "portfolio",
    "graph",
    "tsp",
    "routing",
    "supremacy",
    "ghz",
    "qft",
];

/// Asserts the DD-counted work equals the row replay's for one matrix DD.
fn assert_work_matches_replay(dd: &mut DdPackage, e: MEdge, n: usize, what: &str) {
    let gdd = GpuDd::from_dd(dd, e, n);
    let max_nzr = nzrv::bqcs_cost(dd, e, n);
    let (_, replayed) = ell_from_gpu_dd(&gdd, max_nzr);
    assert_eq!(algorithm1_work(&gdd), replayed, "{what}");
}

/// Every distinct fused gate of the circuit, in first-use order, with the
/// package that owns them.
fn distinct_fused_gates(c: &Circuit) -> (DdPackage, Vec<FusedGate>) {
    let mut dd = DdPackage::new();
    let mut fused = fusion::bqcs_aware_fusion(&mut dd, c.num_qubits(), &lower_circuit(c));
    let mut seen = std::collections::HashSet::new();
    fused.retain(|g| seen.insert(g.edge));
    (dd, fused)
}

#[test]
fn algorithm1_work_matches_the_row_replay_on_every_family() {
    for name in FAMILIES {
        for n in [6, 9, 12] {
            let (mut dd, gates) = distinct_fused_gates(&family(name, n));
            for (i, g) in gates.iter().enumerate() {
                assert_work_matches_replay(&mut dd, g.edge, n, &format!("{name}-{n} gate {i}"));
            }
        }
    }
}

#[test]
fn algorithm1_work_matches_the_row_replay_on_the_figure3_matrix() {
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
            m.set(r, c, Complex::real(f64::from(v)));
        }
    }
    let mut dd = DdPackage::new();
    let e = matrix_from_dense(&mut dd, &m);
    assert_work_matches_replay(&mut dd, e, 3, "Fig. 3 matrix");

    // The 1×1 matrix: a terminal root, one step for its single row.
    let one = dd.identity(0);
    let gdd = GpuDd::from_dd(&dd, one, 0);
    assert_eq!(algorithm1_work(&gdd), ell_from_gpu_dd(&gdd, 1).1);
    assert_eq!(algorithm1_work(&gdd).total_steps, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits: every fused gate, and the unfused whole-circuit
    /// product, count the same Algorithm-1 work on the DD as replayed.
    #[test]
    fn algorithm1_work_matches_the_row_replay_on_random_circuits(
        seed in 0u64..10_000,
        n in 2usize..8,
        gates in 5usize..40,
    ) {
        let c = generators::random_circuit(n, gates, seed);
        let (mut dd, fused) = distinct_fused_gates(&c);
        for g in &fused {
            assert_work_matches_replay(&mut dd, g.edge, n, &format!("seed {seed}"));
        }
        let mut product = dd.identity(n);
        for g in lower_circuit(&c) {
            let e = bqsim_qdd::gates::gate_dd(&mut dd, n, &g);
            product = dd.mat_mul(e, product);
        }
        assert_work_matches_replay(&mut dd, product, n, &format!("seed {seed} product"));
    }
}

#[test]
fn step1_products_equal_their_full_reclassification() {
    for name in ["qnn", "portfolio", "qft"] {
        for n in [4, 6, 8, 10] {
            let c = family(name, n);
            let mut dd = DdPackage::new();
            let classified = classify_gates(&mut dd, n, &lower_circuit(&c));
            let step1 = fuse_step1(&mut dd, classified, n);
            let products: Vec<_> = step1.iter().filter(|g| g.source_gates > 1).collect();
            assert!(!products.is_empty(), "{name}-{n} has no step-1 products");
            for g in products {
                let full =
                    FusedGate::with_support(&mut dd, g.edge, n, g.source_gates, g.support_mask);
                assert_eq!(*g, full, "{name}-{n}");
            }
        }
    }
}

/// Step ③ as it was written before it remembered rejected pairs: every
/// round re-tries every adjacent pair.
fn greedy_retrying_every_pair(
    dd: &mut DdPackage,
    mut gates: Vec<FusedGate>,
    n: usize,
) -> Vec<FusedGate> {
    loop {
        let mut changed = false;
        let mut out = Vec::with_capacity(gates.len());
        let mut iter = gates.into_iter().peekable();
        while let Some(g) = iter.next() {
            if let Some(&next) = iter.peek() {
                let product = dd.mat_mul(next.edge, g.edge);
                let fused = FusedGate::with_support(
                    dd,
                    product,
                    n,
                    g.source_gates + next.source_gates,
                    g.support_mask | next.support_mask,
                );
                if fused.cost < g.cost + next.cost {
                    iter.next();
                    out.push(fused);
                    changed = true;
                    continue;
                }
            }
            out.push(g);
        }
        gates = out;
        if !changed {
            return gates;
        }
    }
}

/// A fused-gate list as package-independent data: per gate its class and
/// its flattened DD (structure and weight values).
fn fingerprint(
    dd: &DdPackage,
    gates: &[FusedGate],
    n: usize,
) -> Vec<(usize, bool, usize, u64, GpuDd)> {
    gates
        .iter()
        .map(|g| {
            (
                g.cost,
                g.permutation,
                g.source_gates,
                g.support_mask,
                GpuDd::from_dd(dd, g.edge, n),
            )
        })
        .collect()
}

#[test]
fn greedy_skipping_rejected_pairs_matches_retrying_them() {
    let circuits = FAMILIES
        .iter()
        .map(|name| family(name, 8))
        .chain((0..6).map(|seed| generators::random_circuit(6, 40, seed)));
    for c in circuits {
        let n = c.num_qubits();
        let lowered = lower_circuit(&c);
        let run = |greedy: fn(&mut DdPackage, Vec<FusedGate>, usize) -> Vec<FusedGate>| {
            let mut dd = DdPackage::new();
            let classified = classify_gates(&mut dd, n, &lowered);
            let s1 = fuse_step1(&mut dd, classified, n);
            let s2 = fuse_step2(&mut dd, s1, n);
            let out = greedy(&mut dd, s2, n);
            (fingerprint(&dd, &out, n), dd.stats().complex_values)
        };
        assert_eq!(
            run(greedy_fusion),
            run(greedy_retrying_every_pair),
            "{}",
            c.name()
        );
    }
}
