//! The three workloads and the layer calls they share.
//!
//! Every operation is closed-loop with one client, in-process against
//! the library's public API. Output checks run after the operation's
//! timed interval closes.

pub(crate) mod campaign;
pub(crate) mod qft;
pub(crate) mod qnn;

use crate::trace::Recorder;
use bqsim_baselines::reference::simulate_batches;
use bqsim_campaign::{run_campaign, CampaignOptions, CampaignResult, IntegrityBudget};
use bqsim_core::fusion::{
    classify_gates, fuse_step1, fuse_step2, gc_if_needed, greedy_fusion, GC_NODE_THRESHOLD,
};
use bqsim_core::{
    artifact_key, precision_tolerance, tune_or_stored, ArtifactStore, BqSimOptions, BqSimulator,
    ConversionMethod, EllCache, HybridConverter, Layout, PoolStats, Precision, RunResult,
};
use bqsim_ell::{pack_batch, AmpBuffer};
use bqsim_gpu::{AmpStore, HostMemory};
use bqsim_num::{Complex, DEFAULT_TOLERANCE};
use bqsim_qcir::{qasm, Circuit};
use bqsim_qdd::gates::lower_circuit;
use bqsim_qdd::DdPackage;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Settings shared by every workload of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Worker threads of the simulators (`nproc`).
    pub threads: usize,
    /// Scratch directory for stores and journals, inside the checkout.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// Library options pinned explicitly (no environment overrides):
    /// f64 planar execution on `threads` workers, everything else
    /// default.
    pub fn options(&self) -> BqSimOptions {
        BqSimOptions {
            threads: self.threads,
            layout: Layout::Planar,
            precision: Precision::F64,
            ..BqSimOptions::default()
        }
    }
}

/// What one operation did.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Wall time of the operation's timed interval.
    pub ns: u64,
    /// Input states the operation simulated.
    pub states: u64,
    /// `Err` with the reason when the operation returned an error or its
    /// output check failed.
    pub check: Result<(), String>,
}

/// A workload after set-up: runs operation `i`, traced when `rec` is
/// enabled, and fills any per-layer metric its operations do not reach.
pub trait Workload {
    /// Runs operation `i` and checks its output.
    fn op(&mut self, i: usize, rec: &mut Recorder) -> OpOutcome;

    /// Traced run only: measures the layers the operations did not reach,
    /// on this workload's own circuits, outside any operation.
    fn probe(&mut self, rec: &mut Recorder);
}

/// SplitMix64: derives independent 64-bit values from `(seed, i)`.
pub(crate) fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nanoseconds since `t`.
pub(crate) fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Relative L2 distance `‖got − want‖ / ‖want‖`.
pub(crate) fn rel_l2(got: &[Complex], want: &[Complex]) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (g, w) in got.iter().zip(want) {
        let d = *g - *w;
        num += d.re * d.re + d.im * d.im;
        den += w.re * w.re + w.im * w.im;
    }
    (num / den).sqrt()
}

/// Accuracy the compile stage itself guarantees after `depth` fused
/// gates: the DD package identifies complex values within
/// [`DEFAULT_TOLERANCE`], so compiled gate entries may sit that far from
/// the exact ones (seen: 2.1e-11 relative on a 12-qubit ansatz at f64).
/// Same root-sum model as `precision_tolerance`.
pub(crate) fn compile_tolerance(depth: usize) -> f64 {
    DEFAULT_TOLERANCE * ((depth + 1) as f64).sqrt()
}

/// Compares one output state against the dense oracle: it must have the
/// right length and lie within `precision_tolerance(depth, precision)`
/// plus [`compile_tolerance`] of the oracle's state, in relative L2
/// distance.
pub(crate) fn check_against_oracle(
    circuit: &Circuit,
    input: &[Complex],
    got: &[Complex],
    depth: usize,
    precision: Precision,
) -> Result<(), String> {
    let want = simulate_batches(circuit, &[vec![input.to_vec()]]);
    let want = &want[0][0];
    if got.len() != want.len() {
        return Err(format!(
            "state has {} amplitudes, expected {}",
            got.len(),
            want.len()
        ));
    }
    let err = rel_l2(got, want);
    let tol = precision_tolerance(depth, precision) + compile_tolerance(depth);
    if err.is_finite() && err <= tol {
        Ok(())
    } else {
        Err(format!(
            "sampled state deviates from the dense oracle: {err:.3e} > {tol:.3e} ({precision})"
        ))
    }
}

/// Per-layer counters of one `run_batches` call: computed MACs and
/// bytes, operations per byte, modelled device time, and the buffer
/// pool's hit ratio over the call (`pool_before` is the pool's state
/// when it began).
pub(crate) fn record_run(
    rec: &mut Recorder,
    sim: &BqSimulator,
    run: &RunResult,
    states: u64,
    pool_before: PoolStats,
) {
    let macs = sim.mac_per_input() as f64 * states as f64;
    let bytes = run.timeline.kernel_bytes() as f64;
    rec.sample("exec.macs", macs);
    rec.sample("exec.bytes_computed", bytes);
    rec.sample("exec.ops_per_byte", macs / bytes);
    rec.sample("gpu.virtual_ms", run.timeline.total_ms());
    let pool = sim.pool_stats();
    let hits = pool.hits - pool_before.hits;
    let checkouts = hits + pool.misses - pool_before.misses;
    rec.sample("exec.pool_hit_ratio", hits as f64 / checkouts.max(1) as f64);
}

/// Replays one batch through the compiled gates single-threaded, outside
/// any operation: the planar staging copies (host transpose, H2D, D2H,
/// unpack) and each gate's `spmm_planar`, timed separately. Both are
/// *computed* figures, not a split of `exec.run_ms`.
pub(crate) fn replay_exec(rec: &mut Recorder, sim: &BqSimulator, batch: &[Vec<Complex>]) {
    let b = batch.len();
    let len = batch[0].len() * b;

    let span = rec.begin("exec.staging");
    let mut host = HostMemory::new();
    let staged = host.alloc_staged_from(batch, Layout::Planar);
    let mut device = AmpStore::zeroed(len, Layout::Planar);
    device.copy_store_from(host.buffer(staged).store());
    let mut back = AmpStore::zeroed(len, Layout::Planar);
    back.copy_store_from(&device);
    let states = std::hint::black_box(back.unpack_states(b));
    let ms = rec.end(span);
    rec.sample("exec.staging_ms", ms);
    drop(states);

    let mut input = AmpBuffer::from_aos(&pack_batch(batch));
    let mut output = AmpBuffer::zeroed(len);
    let span = rec.begin("exec.kernel");
    for g in sim.gates() {
        g.ell.spmm_planar(&input, &mut output, b);
        std::mem::swap(&mut input, &mut output);
    }
    std::hint::black_box(&input);
    let ms = rec.end(span);
    rec.sample("exec.kernel_ms", ms);
}

/// Replays `BqSimulator::compile` stage by stage with the same public
/// calls — `lower_circuit`, the three fusion steps of
/// `bqcs_aware_fusion` with their garbage collections, and
/// `convert_cached` over the fused gates — recording a span and the DD
/// package and conversion counters for each. Returns the summed wall
/// time of the stages in milliseconds.
pub(crate) fn decompose_compile(rec: &mut Recorder, circuit: &Circuit, opts: &BqSimOptions) -> f64 {
    let n = circuit.num_qubits();
    let root = rec.begin("compile.replay");
    let mut dd = DdPackage::new();

    let span = rec.begin("qdd.lower");
    let lowered = lower_circuit(circuit);
    let lower_ms = rec.end(span);

    let span = rec.begin("fusion.classify");
    let classified = classify_gates(&mut dd, n, &lowered);
    let classify_ms = rec.end(span);

    let span = rec.begin("fusion.step1");
    let mut s1 = fuse_step1(&mut dd, classified, n);
    gc_if_needed(&mut dd, &mut s1, GC_NODE_THRESHOLD);
    let step1_ms = rec.end(span);

    let span = rec.begin("fusion.step2");
    let mut s2 = fuse_step2(&mut dd, s1, n);
    gc_if_needed(&mut dd, &mut s2, GC_NODE_THRESHOLD);
    let step2_ms = rec.end(span);

    let span = rec.begin("fusion.greedy");
    let fused = greedy_fusion(&mut dd, s2, n);
    let greedy_ms = rec.end(span);

    let stats = dd.stats();
    let span = rec.begin("convert");
    let converter = HybridConverter::new(opts.tau, opts.device.clone(), opts.cpu.clone());
    let mut cache = EllCache::new();
    let gates: Vec<_> = fused
        .iter()
        .map(|g| converter.convert_cached(&mut cache, &mut dd, g, n))
        .collect();
    let convert_ms = rec.end(span);
    rec.end(root);

    rec.sample("qdd.lower_ms", lower_ms);
    rec.sample("fusion.classify_ms", classify_ms);
    rec.sample("fusion.step1_ms", step1_ms);
    rec.sample("fusion.step2_ms", step2_ms);
    rec.sample("fusion.greedy_ms", greedy_ms);
    rec.sample("fusion.gates_out", fused.len() as f64);
    let lookups = stats.cache_hits + stats.cache_misses;
    rec.sample(
        "qdd.cache_hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
    );
    rec.sample("qdd.matrix_nodes", stats.matrix_nodes as f64);
    rec.sample("qdd.complex_values", stats.complex_values as f64);
    rec.sample("convert.ms", convert_ms);
    let cs = cache.stats();
    rec.sample(
        "convert.cache_hit_ratio",
        cs.hits as f64 / (cs.hits + cs.misses).max(1) as f64,
    );
    let cpu = gates
        .iter()
        .filter(|g| g.method == ConversionMethod::Cpu)
        .count();
    rec.sample("convert.cpu_gates", cpu as f64);
    rec.sample("convert.gpu_gates", (gates.len() - cpu) as f64);
    lower_ms + classify_ms + step1_ms + step2_ms + greedy_ms + convert_ms
}

/// Times one `BqSimulator::compile` of `circuit`, then its stage-by-stage
/// replay, and records the replay's share of the timed compile.
pub(crate) fn sample_decomp_ratio(rec: &mut Recorder, circuit: &Circuit, opts: &BqSimOptions) {
    let started = Instant::now();
    let compiled = BqSimulator::compile(circuit, opts.clone());
    let compile_ms = ns_since(started) as f64 / 1e6;
    drop(compiled);
    let replay_ms = decompose_compile(rec, circuit, opts);
    rec.sample("trace.decomp_ratio", replay_ms / compile_ms);
}

/// Times `qasm::parse` of `circuit`'s QASM text, outside any operation.
pub(crate) fn probe_parse(rec: &mut Recorder, circuit: &Circuit) {
    let text = qasm::write(circuit);
    let span = rec.begin("qcir.parse");
    let parsed = qasm::parse(&text);
    let ms = rec.end(span);
    if parsed.is_ok() {
        rec.sample("qcir.parse_ms", ms);
    }
}

/// Result of one durable-campaign operation.
pub(crate) struct CampaignOp {
    /// The compiled, tuned simulator (for the bare-execution replay).
    pub(crate) sim: BqSimulator,
    /// The campaign's result.
    pub(crate) result: CampaignResult,
    /// Whether the artifact came warm from the store.
    pub(crate) warm: bool,
    /// Store loads this operation made (its own handle and the
    /// campaign's).
    pub(crate) loads: u64,
    /// Tuner probe executions.
    pub(crate) probes: u64,
    /// Wall time of `run_campaign`, in milliseconds.
    pub(crate) campaign_ms: f64,
}

/// The library sequence behind `bqsim run --precision auto
/// --artifact-dir D --journal J`: `compile_or_load`, `tune_or_stored`
/// with an f32 floor and the default integrity budget, then a journaled
/// full-state `run_campaign` over `batches` with the same store.
///
/// # Errors
///
/// Returns the first library error, rendered.
pub(crate) fn campaign_op(
    rec: &mut Recorder,
    circuit: &Circuit,
    opts: &BqSimOptions,
    store: &ArtifactStore,
    journal: &Path,
    batches: &[Vec<Vec<Complex>>],
) -> Result<CampaignOp, String> {
    let budget = IntegrityBudget::default().max_norm_drift;
    let key = artifact_key(circuit, opts);
    let before = store.stats();

    let span = rec.begin("artifact.compile_or_load");
    let (mut sim, source) =
        BqSimulator::compile_or_load(circuit, opts.clone(), store).map_err(|e| e.to_string())?;
    let load_ms = rec.end(span);
    let warm = source.is_warm();
    let name = if warm {
        "artifact.warm_load_ms"
    } else {
        "artifact.cold_ms"
    };
    rec.sample(name, load_ms);

    let span = rec.begin("tune");
    let outcome = tune_or_stored(&mut sim, Precision::F32, Some(budget), Some((store, key)))
        .map_err(|e| e.to_string())?;
    let tune_ms = rec.end(span);
    if outcome.probes > 0 {
        rec.sample("tune.ms", tune_ms);
    }

    let tuned = BqSimOptions {
        precision: outcome.record.precision,
        layout: outcome.record.layout,
        threads: outcome.record.threads.max(1),
        use_pattern: outcome.record.use_pattern,
        ..opts.clone()
    };
    let copts = CampaignOptions {
        journal_path: Some(journal.to_path_buf()),
        persist_state: true,
        artifact_dir: Some(store.dir().to_path_buf()),
        ..CampaignOptions::default()
    };
    let span = rec.begin("campaign.run");
    let started = Instant::now();
    let result = run_campaign(circuit, tuned, batches, &copts).map_err(|e| e.to_string())?;
    let campaign_ms = ns_since(started) as f64 / 1e6;
    rec.end(span);
    rec.sample("campaign.ms", campaign_ms);

    let after = store.stats();
    let inner = result.store_stats.unwrap_or_default();
    let loads = (after.hits + after.misses + after.corrupt)
        - (before.hits + before.misses + before.corrupt)
        + inner.hits
        + inner.misses
        + inner.corrupt;
    Ok(CampaignOp {
        sim,
        result,
        warm,
        loads,
        probes: outcome.probes,
        campaign_ms,
    })
}

/// Checks a campaign ended complete — no quarantined or pending batch —
/// and that sampled state `(b, s)` matches the dense oracle.
pub(crate) fn check_campaign(
    op: &CampaignOp,
    circuit: &Circuit,
    batches: &[Vec<Vec<Complex>>],
    (b, s): (usize, usize),
) -> Result<(), String> {
    let r = &op.result;
    if !r.is_complete() || !r.quarantined.is_empty() || r.next_pending().is_some() {
        return Err(format!(
            "campaign incomplete: {} quarantined, pending from {:?}",
            r.quarantined.len(),
            r.next_pending()
        ));
    }
    let got = r.outputs[b]
        .as_ref()
        .ok_or("completed batch has no output")?;
    check_against_oracle(
        circuit,
        &batches[b][s],
        &got[s],
        op.sim.gates().len(),
        op.sim.resolved_options().precision,
    )
}

/// Bytes of a journal and its state sidecar, in MiB.
pub(crate) fn journal_mb(journal: &Path) -> f64 {
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    (size(journal) + size(&bqsim_campaign::journal::state_path(journal))) as f64 / (1024.0 * 1024.0)
}

/// Deletes a journal and its state sidecar.
pub(crate) fn remove_journal(journal: &Path) {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(bqsim_campaign::journal::state_path(journal));
}

/// Total size of the `.bqc` artifacts in a store directory, in MiB.
pub(crate) fn store_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "bqc"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / (1024.0 * 1024.0)
}

/// Traced run only: runs the durable-campaign operation twice on
/// `circuit` — cold into a fresh store, then warm — for workloads whose
/// own operations never reach the artifact, tuner and campaign layers.
pub(crate) fn probe_campaign(
    rec: &mut Recorder,
    circuit: &Circuit,
    opts: &BqSimOptions,
    scratch: &Path,
    batches: &[Vec<Vec<Complex>>],
) {
    let dir = scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let Ok(store) = ArtifactStore::open(&dir) else {
        return;
    };
    let journal = scratch.join("probe.journal");
    // The workload's own operations already measured execution; the
    // probe's bare run only serves `campaign.non_exec_ms`.
    let exec_metrics = !rec.has("exec.run_ms");
    let (mut loads, mut probes, mut warm) = (0, 0, 0);
    for _ in 0..2 {
        if let Ok(op) = campaign_op(rec, circuit, opts, &store, &journal, batches) {
            record_campaign_extras(rec, &op, &journal, batches, exec_metrics);
            loads += op.loads;
            probes += op.probes;
            warm += u64::from(op.warm);
        }
        remove_journal(&journal);
    }
    rec.sample("artifact.loads_per_op", loads as f64 / 2.0);
    rec.sample("tune.probes_per_op", probes as f64 / 2.0);
    rec.sample("artifact.warm_ratio", warm as f64 / 2.0);
    rec.sample("artifact.store_mb", store_mb(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// After a traced campaign operation: journal bytes, and a bare
/// `run_batches` of the same batches on the same tuned simulator, whose
/// time the campaign's non-execution share is computed against. With
/// `exec_metrics` the bare run also supplies the `exec.*` and `gpu.*`
/// samples.
pub(crate) fn record_campaign_extras(
    rec: &mut Recorder,
    op: &CampaignOp,
    journal: &Path,
    batches: &[Vec<Vec<Complex>>],
    exec_metrics: bool,
) {
    rec.sample("campaign.journal_mb", journal_mb(journal));
    let pool_before = op.sim.pool_stats();
    let span = rec.begin("campaign.bare_run");
    let bare = op.sim.run_batches(batches);
    let run_ms = rec.end(span);
    if let Ok(run) = bare {
        rec.sample("campaign.non_exec_ms", op.campaign_ms - run_ms);
        if exec_metrics {
            rec.sample("exec.run_ms", run_ms);
            let states = batches.iter().map(|b| b.len() as u64).sum();
            record_run(rec, &op.sim, &run, states, pool_before);
        }
    }
}
