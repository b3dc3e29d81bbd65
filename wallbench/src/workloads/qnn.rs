//! `qnn-sweep`: a QML parameter sweep. Each operation is one parameter
//! point — a new circuit, so a new content key — parsed from QASM text,
//! compiled with default options and no artifact store, and run on one
//! batch of 32 states.

use super::{
    check_against_oracle, decompose_compile, mix, ns_since, probe_campaign, record_run,
    replay_exec, OpOutcome, RunConfig, Workload,
};
use crate::trace::Recorder;
use bqsim_core::{random_input_batch, BqSimOptions, BqSimulator, PoolStats, Precision};
use bqsim_num::Complex;
use bqsim_qcir::{generators, qasm};
use std::time::Instant;

/// Circuit width of every sweep point.
pub const QUBITS: usize = 11;
/// States per operation.
pub const BATCH: usize = 32;
/// Distinct parameter points generated in set-up (operations cycle).
const POINTS: usize = 96;
/// Distinct input batches generated in set-up (operations cycle).
const BANK: usize = 8;

/// The sweep's inputs, generated before timing.
pub struct QnnSweep {
    cfg: RunConfig,
    opts: BqSimOptions,
    texts: Vec<String>,
    bank: Vec<Vec<Vec<Complex>>>,
}

impl QnnSweep {
    /// Set-up: the QASM text of every point and the input batches.
    pub fn setup(cfg: &RunConfig) -> QnnSweep {
        let texts = (0..POINTS)
            .map(|i| qasm::write(&generators::qnn(QUBITS, mix(cfg.seed, i as u64))))
            .collect();
        let bank = (0..BANK)
            .map(|j| random_input_batch(QUBITS, BATCH, mix(cfg.seed ^ 0xba7c, j as u64)))
            .collect();
        QnnSweep {
            cfg: cfg.clone(),
            opts: cfg.options(),
            texts,
            bank,
        }
    }
}

impl Workload for QnnSweep {
    fn op(&mut self, i: usize, rec: &mut Recorder) -> OpOutcome {
        let text = &self.texts[i % POINTS];
        let batch = &self.bank[i % BANK];
        let started = Instant::now();
        let root = rec.begin("op");
        let span = rec.begin("qcir.parse");
        let parsed = qasm::parse(text);
        let parse_ms = rec.end(span);
        let circuit = match parsed {
            Ok(c) => c,
            Err(e) => return fail(started, rec, root, format!("parse: {e}")),
        };
        let span = rec.begin("compile");
        let compiled = BqSimulator::compile(&circuit, self.opts.clone());
        let compile_ms = rec.end(span);
        let sim = match compiled {
            Ok(s) => s,
            Err(e) => return fail(started, rec, root, format!("compile: {e}")),
        };
        let span = rec.begin("exec.run");
        let run = sim.run_batches(std::slice::from_ref(batch));
        let run_ms = rec.end(span);
        rec.end(root);
        let ns = ns_since(started);
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                return OpOutcome {
                    ns,
                    states: BATCH as u64,
                    check: Err(format!("run_batches: {e}")),
                }
            }
        };

        let s = (mix(self.cfg.seed ^ 0x5a, i as u64) % BATCH as u64) as usize;
        let check = match run.outputs.first().and_then(|b| b.get(s)) {
            Some(got) => {
                check_against_oracle(&circuit, &batch[s], got, sim.gates().len(), Precision::F64)
            }
            None => Err("run_batches returned no output for the sampled state".into()),
        };

        if rec.enabled() {
            rec.sample("qcir.parse_ms", parse_ms);
            rec.sample("exec.run_ms", run_ms);
            record_run(rec, &sim, &run, BATCH as u64, PoolStats::default());
            drop(run);
            let replay_ms = decompose_compile(rec, &circuit, &self.opts);
            rec.sample("trace.decomp_ratio", replay_ms / compile_ms);
            replay_exec(rec, &sim, batch);
        }
        OpOutcome {
            ns,
            states: BATCH as u64,
            check,
        }
    }

    fn probe(&mut self, rec: &mut Recorder) {
        if let Ok(circuit) = qasm::parse(&self.texts[0]) {
            let batches = std::slice::from_ref(&self.bank[0]);
            probe_campaign(rec, &circuit, &self.opts, &self.cfg.scratch, batches);
        }
    }
}

/// An operation that failed before producing output.
fn fail(started: Instant, rec: &mut Recorder, root: u32, reason: String) -> OpOutcome {
    rec.end(root);
    OpOutcome {
        ns: ns_since(started),
        states: BATCH as u64,
        check: Err(reason),
    }
}
