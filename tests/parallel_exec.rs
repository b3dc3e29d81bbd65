//! Parallel-executor properties: the worker-pool task-graph executor and
//! the row-partitioned spMM launches must be **bit-identical** to the
//! serial path — for clean runs, for fault-recovered runs replayed through
//! the effect log, and for every thread count — while `bqsim-analyze`
//! certifies every executed parallel schedule race-free. Also covers the
//! compile-level ELL conversion cache: a layered circuit converts each
//! distinct fused gate exactly once.

use bqsim_core::{
    analyze_parallel_execution, random_input_batch, BqSimOptions, BqSimulator, EllCache,
    HybridConverter, RunRequest,
};
use bqsim_faults::{FaultBudget, FaultPlan, RecoveryPolicy};
use bqsim_gpu::{DeviceMemory, DeviceSpec, Kernel};
use bqsim_num::Complex;
use bqsim_qcir::{generators, Circuit};
use proptest::prelude::*;
use std::sync::Arc;

fn opts_with_threads(threads: usize) -> BqSimOptions {
    BqSimOptions {
        threads,
        ..BqSimOptions::default()
    }
}

fn run_outputs(
    circuit: &Circuit,
    threads: usize,
    batches: &[Vec<Vec<Complex>>],
) -> Vec<Vec<Vec<Complex>>> {
    let sim = BqSimulator::compile(circuit, opts_with_threads(threads)).expect("compile");
    sim.run_batches(batches).expect("run").outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole acceptance property: for random circuits, batch counts, and
    /// thread counts, the parallel executor's outputs are bit-identical to
    /// the serial path (`==` on `f64` bits, no tolerance).
    #[test]
    fn parallel_execution_is_bit_identical_to_serial(
        circuit_seed in 0u64..500,
        n in 3usize..6,
        gates in 5usize..20,
        num_batches in 1usize..5,
    ) {
        let circuit = generators::random_circuit(n, gates, circuit_seed);
        let batches: Vec<_> = (0..num_batches)
            .map(|b| random_input_batch(n, 3, circuit_seed ^ b as u64))
            .collect();
        let serial = run_outputs(&circuit, 1, &batches);
        for threads in [2usize, 7] {
            let parallel = run_outputs(&circuit, threads, &batches);
            prop_assert_eq!(
                &parallel, &serial,
                "{} threads diverged from serial", threads
            );
        }
    }

    /// Fault replay: under a seeded transient plan the parallel executor
    /// replays the engine's effect log (poisons included) and still lands
    /// bit-identically on the serial recovered outputs.
    #[test]
    fn parallel_fault_recovery_is_bit_identical_to_serial(
        circuit_seed in 0u64..200,
        fault_seed in 0u64..200,
        n in 3usize..5,
    ) {
        let circuit = generators::random_circuit(n, 12, circuit_seed);
        let batches: Vec<_> = (0..3)
            .map(|b| random_input_batch(n, 2, circuit_seed ^ b as u64))
            .collect();
        let serial_sim = BqSimulator::compile(&circuit, opts_with_threads(1)).unwrap();
        let tasks = batches.len() * (serial_sim.gates().len() + 2);
        let plan = FaultPlan::seeded(fault_seed, 1, tasks, 5, &FaultBudget::transient(2, 1, 1));
        let policy = RecoveryPolicy::default();
        let serial = serial_sim
            .run(&RunRequest { faults: Some((&plan, &policy)), ..RunRequest::new(&batches) })
            .unwrap();
        for threads in [2usize, 7] {
            let sim = BqSimulator::compile(&circuit, opts_with_threads(threads)).unwrap();
            let rec = sim.run(&RunRequest { faults: Some((&plan, &policy)), ..RunRequest::new(&batches) }).unwrap();
            prop_assert_eq!(
                &rec.run.outputs, &serial.run.outputs,
                "{} threads diverged from serial under fault replay", threads
            );
            prop_assert_eq!(rec.health.fault_count(), serial.health.fault_count());
        }
    }

    /// Every executed parallel schedule passes the static conformance
    /// check: dependency order preserved on the logical clock and no
    /// buffer-conflicting tasks overlapping.
    #[test]
    fn parallel_schedules_are_race_free(
        circuit_seed in 0u64..200,
        n in 3usize..5,
        threads in 2usize..8,
    ) {
        let circuit = generators::random_circuit(n, 10, circuit_seed);
        let diags = analyze_parallel_execution(
            &circuit,
            &opts_with_threads(threads),
            3,
            4,
            &FaultPlan::new(),
            &RecoveryPolicy::default(),
        )
        .unwrap();
        prop_assert!(diags.is_clean(), "{} threads:\n{}", threads, diags);
    }
}

/// Compile cache: a layered circuit (same gates repeated per layer,
/// fusion disabled so repetition survives) converts each **distinct**
/// canonical DD edge exactly once; every repeat is a cache hit.
#[test]
fn layered_circuit_converts_each_distinct_gate_once() {
    let layers = 5;
    let mut circuit = Circuit::new(5);
    for _ in 0..layers {
        for q in 0..5 {
            circuit.h(q);
        }
        for q in 0..4 {
            circuit.cx(q, q + 1);
        }
    }
    let opts = BqSimOptions {
        skip_fusion: true,
        ..BqSimOptions::default()
    };
    let sim = BqSimulator::compile(&circuit, opts).unwrap();
    let stats = sim.conversion_cache_stats();
    let total = (5 + 4) * layers as u64;
    let distinct = 5 + 4; // one H per qubit + one CX per pair
    assert_eq!(
        stats.misses, distinct,
        "each distinct gate converts exactly once"
    );
    assert_eq!(
        stats.hits,
        total - distinct,
        "every repeat must hit the cache"
    );
    assert_eq!(stats.evictions, 0, "well under the default capacity bound");
    assert_eq!(sim.gates().len() as u64, total);
}

/// The cache is purely a compile-time artifact: cached and uncached
/// compilations simulate to identical amplitudes.
#[test]
fn cached_compilation_is_functionally_inert() {
    let circuit = generators::qft(5);
    let mut dd = bqsim_qdd::DdPackage::new();
    let lowered = bqsim_qdd::gates::lower_circuit(&circuit);
    let fused = bqsim_core::bqcs_aware_fusion(&mut dd, 5, &lowered);
    let converter = HybridConverter::default();
    let mut cache = EllCache::new();
    for g in &fused {
        let cached = converter.convert_cached(&mut cache, &mut dd, g, 5);
        let twice = converter.convert_cached(&mut cache, &mut dd, g, 5);
        assert_eq!(cached.ell, twice.ell);
        assert_eq!(cached.conversion_ns, twice.conversion_ns);
    }
    assert_eq!(cache.misses(), fused.len() as u64);
    assert!(cache.unique_conversion_ns() > 0);
}

/// Forced row-partitioned spMM: an `EllSpmmKernel` with several lanes
/// produces exactly the bytes of the single-lane launch, and the generic
/// ablation loop agrees too.
#[test]
fn row_partitioned_spmm_matches_single_lane() {
    use bqsim_core::kernels::EllSpmmKernel;
    let n = 7usize;
    let batch = 64usize; // 128 rows × 64 = 8192 elems → 2+ lanes admitted
    let circuit = generators::qft(n);
    let sim = BqSimulator::compile(&circuit, BqSimOptions::default()).unwrap();
    let gate = Arc::clone(&sim.gates()[0].ell);
    let elems = (1usize << n) * batch;
    let input: Vec<Complex> = bqsim_ell::pack_batch(&random_input_batch(n, batch, 9));

    let run = |kernel: &dyn Kernel, mem: &DeviceMemory| {
        kernel.execute(mem);
    };
    let mut outs: Vec<Vec<Complex>> = Vec::new();
    for lanes in [1usize, 2, 4, 7] {
        let mut mem = DeviceMemory::new(&DeviceSpec::rtx_a6000());
        let src = mem.alloc(elems).unwrap();
        let dst = mem.alloc(elems).unwrap();
        mem.buffer_mut(src).copy_from_slice(&input);
        let k = EllSpmmKernel::with_lanes(Arc::clone(&gate), src, dst, batch, lanes);
        run(&k, &mem);
        outs.push(mem.buffer(dst).to_vec());
    }
    for (i, o) in outs.iter().enumerate().skip(1) {
        assert_eq!(o, &outs[0], "lane config {i} diverged from single lane");
    }

    // Generic ablation loop: same bytes as the fast paths here too.
    let mut mem = DeviceMemory::new(&DeviceSpec::rtx_a6000());
    let src = mem.alloc(elems).unwrap();
    let dst = mem.alloc(elems).unwrap();
    mem.buffer_mut(src).copy_from_slice(&input);
    let k = EllSpmmKernel::with_mode(Arc::clone(&gate), src, dst, batch, 1, true);
    run(&k, &mem);
    assert_eq!(&*mem.buffer(dst), outs[0].as_slice());
}

/// `BQSIM_THREADS` seeds the default; an explicit `threads` value wins.
#[test]
fn default_threads_is_at_least_one() {
    assert!(bqsim_core::default_threads() >= 1);
    let opts = BqSimOptions::default();
    assert!(opts.threads >= 1);
    assert!(!opts.generic_spmm);
}
