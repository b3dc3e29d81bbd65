//! PR 10 adaptive-precision report: planar kernel + end-to-end deltas
//! per precision, and cold-probe vs warm-tuned start latency, in **real
//! host wall-clock** (the spMM sweeps and the probe sweep both run on
//! the host, so `Instant` is the honest meter).
//!
//! Two sweeps per workload:
//!
//! * **Precision matrix** — every round times f64 and f32
//!   back-to-back on the same precompiled planar gates (interleaved so
//!   minute-scale host load drift hits every arm equally). Two meters:
//!   `exec` is the batched spMM chain alone (the kernel-level delta the
//!   narrow sweeps buy); `e2e` additionally pays the compile, showing
//!   how the kernel win dilutes against precision-independent work.
//!   Absolute times are per-arm minima across rounds; headline speedups
//!   additionally use the paired-delta estimator from `report_pr5`.
//!   The narrow arm's worst relative L2 error against f64 and worst
//!   norm drift are measured and reported — a speedup whose error
//!   escaped its depth-derived tolerance is a defect, not a win, so the
//!   report asserts the bound before printing any number.
//! * **Auto-tuner start latency** — every round evicts the artifact,
//!   then times `--precision auto`'s two start paths back-to-back:
//!   cold (compile + full probe sweep + republish + first batch) and
//!   warm (load + stored record + first batch). The warm side is
//!   asserted to run **zero** probes — that is the contract that makes
//!   the probe sweep a one-time cost per circuit.
//!
//! The acceptance target for this PR is a narrow (f32) planar
//! kernel ≥ 1.4× faster than the f64 planar kernel on at least one
//! workload family.

use bqsim_bench::table::Table;
use bqsim_core::{
    artifact_key, precision_tolerance, random_input_batch, tune_or_stored, ArtifactStore,
    BqSimOptions, BqSimulator, Precision, TuningSource,
};
use bqsim_num::approx::l2_norm;
use bqsim_num::Complex;
use bqsim_qcir::{generators, Circuit};
use std::fmt::Write as _;
use std::time::Instant;

/// The precision arms, f64 first (it anchors the error columns).
const ARMS: [Precision; 2] = [Precision::F64, Precision::F32];

struct ArmResult {
    precision: Precision,
    exec_ns: u128,
    e2e_ns: u128,
    paired_exec_speedup: f64,
    max_rel_error: f64,
    max_norm_drift: f64,
}

struct TunedResult {
    record: String,
    cold_probes: u64,
    cold_ttfb_ns: u128,
    warm_ttfb_ns: u128,
}

struct WorkloadResult {
    name: String,
    qubits: usize,
    gates: usize,
    batches: usize,
    batch_size: usize,
    arms: Vec<ArmResult>,
    tuned: TunedResult,
}

/// Paired-delta speedup estimator (shared with `report_pr5`/`report_pr8`):
/// per-round deltas cancel load drift; the median delta against the
/// median baseline gives `baseline / candidate`.
fn paired_speedup(baseline: &[u128], candidate: &[u128]) -> f64 {
    let mut deltas: Vec<i128> = baseline
        .iter()
        .zip(candidate)
        .map(|(&b, &c)| b as i128 - c as i128)
        .collect();
    deltas.sort_unstable();
    let mut base: Vec<u128> = baseline.to_vec();
    base.sort_unstable();
    let saved = deltas[deltas.len() / 2] as f64;
    let base = base[base.len() / 2] as f64;
    base / (base - saved).max(1.0)
}

/// Worst relative L2 error of `got` against `want`, and worst per-state
/// norm drift of `got` against `inputs` — the two honesty meters every
/// narrow arm must pass before its speedup is reported.
fn batch_errors(
    inputs: &[Vec<Vec<Complex>>],
    want: &[Vec<Vec<Complex>>],
    got: &[Vec<Vec<Complex>>],
) -> (f64, f64) {
    let mut rel = 0.0f64;
    let mut drift = 0.0f64;
    for ((inb, wb), gb) in inputs.iter().zip(want).zip(got) {
        for ((input, w), g) in inb.iter().zip(wb).zip(gb) {
            drift = drift.max((l2_norm(g) - l2_norm(input)).abs());
            let dist = w
                .iter()
                .zip(g)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
                .sqrt();
            rel = rel.max(dist / l2_norm(w).max(f64::MIN_POSITIVE));
        }
    }
    (rel, drift)
}

fn measure(
    name: &str,
    circuit: &Circuit,
    num_batches: usize,
    batch_size: usize,
    reps: usize,
) -> WorkloadResult {
    let n = circuit.num_qubits();
    let batches: Vec<_> = (0..num_batches)
        .map(|b| random_input_batch(n, batch_size, 42 ^ b as u64))
        .collect();
    let opts_for = |precision: Precision| BqSimOptions {
        precision,
        threads: 1, // serial arms: the kernel delta, not partitioning noise
        ..BqSimOptions::default()
    };

    // Precompile one simulator per arm; the precision matrix times
    // execution on fixed gates, e2e re-pays the compile each round.
    let sims: Vec<BqSimulator> = ARMS
        .iter()
        .map(|&p| BqSimulator::compile(circuit, opts_for(p)).expect("compile"))
        .collect();
    let gates = sims[0].gates().len();
    let reference = sims[0]
        .run_batches(&batches)
        .expect("f64 reference")
        .outputs;

    let mut exec_ns: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); ARMS.len()];
    let mut e2e_ns: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); ARMS.len()];
    let mut max_rel = vec![0.0f64; ARMS.len()];
    let mut max_drift = vec![0.0f64; ARMS.len()];
    for _ in 0..reps {
        for (a, sim) in sims.iter().enumerate() {
            let t = Instant::now();
            let run = sim.run_batches(&batches).expect("exec");
            exec_ns[a].push(t.elapsed().as_nanos());
            let (rel, drift) = batch_errors(&batches, &reference, &run.outputs);
            max_rel[a] = max_rel[a].max(rel);
            max_drift[a] = max_drift[a].max(drift);

            let t = Instant::now();
            let fresh = BqSimulator::compile(circuit, opts_for(ARMS[a])).expect("compile");
            fresh.run_batches(&batches).expect("e2e");
            e2e_ns[a].push(t.elapsed().as_nanos());
        }
    }
    for (a, &p) in ARMS.iter().enumerate() {
        let tol = 64.0 * precision_tolerance(gates, p);
        assert!(
            max_rel[a] <= tol,
            "{name}/{}: rel error {:.3e} escaped tolerance {:.3e} — \
             a speedup at that error is a defect, not a result",
            p.token(),
            max_rel[a],
            tol,
        );
    }

    let arms = ARMS
        .iter()
        .enumerate()
        .map(|(a, &p)| ArmResult {
            precision: p,
            exec_ns: *exec_ns[a].iter().min().expect("reps > 0"),
            e2e_ns: *e2e_ns[a].iter().min().expect("reps > 0"),
            paired_exec_speedup: paired_speedup(&exec_ns[0], &exec_ns[a]),
            max_rel_error: max_rel[a],
            max_norm_drift: max_drift[a],
        })
        .collect();

    // Auto-tuner start latency: cold probe sweep vs warm stored record.
    let dir = std::env::temp_dir().join(format!("bqsim-pr10-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tune_opts = BqSimOptions::default();
    let key = artifact_key(circuit, &tune_opts);
    let timed_tuned_start = |expect_stored: bool| -> (u128, u64, String) {
        let t = Instant::now();
        let store = ArtifactStore::open(&dir).expect("open store");
        let (mut sim, _) =
            BqSimulator::compile_or_load(circuit, tune_opts.clone(), &store).expect("compile");
        let outcome =
            tune_or_stored(&mut sim, Precision::F32, None, Some((&store, key))).expect("tune");
        sim.run_batches(&batches[..1]).expect("first batch");
        let ttfb = t.elapsed().as_nanos();
        if expect_stored {
            assert_eq!(
                outcome.source,
                TuningSource::Stored,
                "{name}: warm tuned start must use the stored record"
            );
            assert_eq!(outcome.probes, 0, "{name}: warm tuned start must not probe");
        }
        (ttfb, outcome.probes, outcome.record.to_string())
    };

    let mut cold_ttfb = Vec::with_capacity(reps);
    let mut warm_ttfb = Vec::with_capacity(reps);
    let mut cold_probes = 0u64;
    let mut record = String::new();
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(&dir);
        let (ttfb, probes, rec) = timed_tuned_start(false);
        assert!(probes > 0, "{name}: evicted tuned start must probe");
        cold_ttfb.push(ttfb);
        cold_probes = probes;
        record = rec;
        let (ttfb, _, _) = timed_tuned_start(true);
        warm_ttfb.push(ttfb);
    }
    let _ = std::fs::remove_dir_all(&dir);

    WorkloadResult {
        name: name.to_string(),
        qubits: n,
        gates,
        batches: num_batches,
        batch_size,
        arms,
        tuned: TunedResult {
            record,
            cold_probes,
            cold_ttfb_ns: *cold_ttfb.iter().min().expect("reps > 0"),
            warm_ttfb_ns: *warm_ttfb.iter().min().expect("reps > 0"),
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 7 };

    // qft-14: deep fused gates over 16k-row planes — the bandwidth-bound
    // shape where halving amplitude bytes pays most; ansatz-8 is the
    // PR 3/5/8 headline workload carried forward; routing-6 at campaign
    // shape shows the delta on many cheap batches.
    let (routing_batches, qft_batches) = if quick { (4, 2) } else { (16, 3) };
    let workloads = vec![
        measure("qft-14", &generators::qft(14), qft_batches, 32, reps),
        measure(
            "ansatz-8",
            &generators::real_amplitudes(8, 3, 42),
            4,
            64,
            reps,
        ),
        measure(
            "routing-6",
            &generators::routing(6, 42),
            routing_batches,
            64,
            reps,
        ),
    ];

    println!("# PR 10 — adaptive precision + auto-tuner (host wall-clock)\n");
    let mut t = Table::new(&[
        "workload",
        "n",
        "gates",
        "N x B",
        "precision",
        "exec ms",
        "exec x",
        "e2e ms",
        "e2e x",
        "rel err",
        "drift",
    ]);
    for r in &workloads {
        let f64_exec = r.arms[0].exec_ns;
        let f64_e2e = r.arms[0].e2e_ns;
        for a in &r.arms {
            t.add(vec![
                r.name.clone(),
                r.qubits.to_string(),
                r.gates.to_string(),
                format!("{} x {}", r.batches, r.batch_size),
                a.precision.token().to_string(),
                format!("{:.3}", a.exec_ns as f64 / 1e6),
                format!("{:.2}", f64_exec as f64 / a.exec_ns as f64),
                format!("{:.3}", a.e2e_ns as f64 / 1e6),
                format!("{:.2}", f64_e2e as f64 / a.e2e_ns as f64),
                format!("{:.1e}", a.max_rel_error),
                format!("{:.1e}", a.max_norm_drift),
            ]);
        }
    }
    println!("{}", t.render());

    let mut tt = Table::new(&[
        "workload",
        "tuned record",
        "probes",
        "cold ttfb ms",
        "warm ttfb ms",
        "ttfb x",
    ]);
    for r in &workloads {
        tt.add(vec![
            r.name.clone(),
            r.tuned.record.clone(),
            r.tuned.cold_probes.to_string(),
            format!("{:.3}", r.tuned.cold_ttfb_ns as f64 / 1e6),
            format!("{:.3}", r.tuned.warm_ttfb_ns as f64 / 1e6),
            format!(
                "{:.2}",
                r.tuned.cold_ttfb_ns as f64 / r.tuned.warm_ttfb_ns as f64
            ),
        ]);
    }
    println!("{}", tt.render());

    let best = workloads
        .iter()
        .flat_map(|r| {
            r.arms[1..].iter().map(move |a| {
                (
                    r.name.as_str(),
                    a.precision,
                    r.arms[0].exec_ns as f64 / a.exec_ns as f64,
                )
            })
        })
        .max_by(|x, y| x.2.total_cmp(&y.2))
        .expect("narrow arms measured");
    println!(
        "best narrow kernel: {} {} at {:.2}x over f64 planar \
         (acceptance target >= 1.4x on at least one family)",
        best.0,
        best.1.token(),
        best.2
    );

    // Hand-formatted JSON artifact (no serde in the bench crate).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"report\": \"pr10\",");
    let _ = writeln!(json, "  \"unit\": \"ns_wall_clock\",");
    let _ = writeln!(json, "  \"kernel_speedup_target\": 1.4,");
    let _ = writeln!(
        json,
        "  \"best_narrow_kernel\": {{ \"workload\": \"{}\", \"precision\": \"{}\", \"speedup\": {:.4} }},",
        best.0,
        best.1.token(),
        best.2
    );
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, r) in workloads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"qubits\": {},", r.qubits);
        let _ = writeln!(json, "      \"gates\": {},", r.gates);
        let _ = writeln!(json, "      \"batches\": {},", r.batches);
        let _ = writeln!(json, "      \"batch_size\": {},", r.batch_size);
        let _ = writeln!(json, "      \"precisions\": [");
        let f64_exec = r.arms[0].exec_ns;
        let f64_e2e = r.arms[0].e2e_ns;
        for (j, a) in r.arms.iter().enumerate() {
            let _ = writeln!(json, "        {{");
            let _ = writeln!(
                json,
                "          \"precision\": \"{}\",",
                a.precision.token()
            );
            let _ = writeln!(json, "          \"exec_ns\": {},", a.exec_ns);
            let _ = writeln!(json, "          \"e2e_ns\": {},", a.e2e_ns);
            let _ = writeln!(
                json,
                "          \"kernel_speedup_vs_f64\": {:.4},",
                f64_exec as f64 / a.exec_ns as f64
            );
            let _ = writeln!(
                json,
                "          \"e2e_speedup_vs_f64\": {:.4},",
                f64_e2e as f64 / a.e2e_ns as f64
            );
            let _ = writeln!(
                json,
                "          \"paired_kernel_speedup_vs_f64\": {:.4},",
                a.paired_exec_speedup
            );
            let _ = writeln!(
                json,
                "          \"max_rel_error\": {:.6e},",
                a.max_rel_error
            );
            let _ = writeln!(
                json,
                "          \"max_norm_drift\": {:.6e}",
                a.max_norm_drift
            );
            let _ = writeln!(
                json,
                "        }}{}",
                if j + 1 < r.arms.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(json, "      \"auto_tuner\": {{");
        let _ = writeln!(json, "        \"record\": \"{}\",", r.tuned.record);
        let _ = writeln!(json, "        \"cold_probes\": {},", r.tuned.cold_probes);
        let _ = writeln!(json, "        \"warm_probes\": 0,");
        let _ = writeln!(
            json,
            "        \"cold_time_to_first_batch_ns\": {},",
            r.tuned.cold_ttfb_ns
        );
        let _ = writeln!(
            json,
            "        \"warm_time_to_first_batch_ns\": {},",
            r.tuned.warm_ttfb_ns
        );
        let _ = writeln!(
            json,
            "        \"time_to_first_batch_speedup\": {:.4}",
            r.tuned.cold_ttfb_ns as f64 / r.tuned.warm_ttfb_ns as f64
        );
        let _ = writeln!(json, "      }}");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = std::env::args()
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr10.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_pr10.json");
    println!("\nwrote {path}");
}
