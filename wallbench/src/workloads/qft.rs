//! `qft-stream`: the paper's steady state. Set-up compiles qft-14 once;
//! each operation is one `run_batches` call over 4 batches × 64 states —
//! one double-buffered task-graph launch over 16 MiB amplitude buffers.

use super::{
    check_against_oracle, mix, ns_since, probe_campaign, probe_parse, record_run, replay_exec,
    sample_decomp_ratio, OpOutcome, RunConfig, Workload,
};
use crate::trace::Recorder;
use bqsim_core::{random_input_batch, BqSimOptions, BqSimulator, BqsimError, Precision};
use bqsim_num::Complex;
use bqsim_qcir::{generators, Circuit};
use std::time::Instant;

/// Circuit width.
pub const QUBITS: usize = 14;
/// Batches per operation.
pub const BATCHES: usize = 4;
/// States per batch.
pub const BATCH: usize = 64;

/// The compiled circuit, its inputs, and the reference outputs every
/// operation must reproduce bit for bit.
pub struct QftStream {
    cfg: RunConfig,
    opts: BqSimOptions,
    circuit: Circuit,
    sim: BqSimulator,
    inputs: Vec<Vec<Vec<Complex>>>,
    reference: Vec<Vec<Vec<Complex>>>,
}

impl QftStream {
    /// Set-up: inputs, the one-time compile, and the reference pass.
    ///
    /// # Errors
    ///
    /// Returns the library error of the compile or the reference pass.
    pub fn setup(cfg: &RunConfig) -> Result<QftStream, BqsimError> {
        let circuit = generators::qft(QUBITS);
        let inputs: Vec<_> = (0..BATCHES)
            .map(|b| random_input_batch(QUBITS, BATCH, mix(cfg.seed ^ 0x9f7, b as u64)))
            .collect();
        let opts = cfg.options();
        let sim = BqSimulator::compile(&circuit, opts.clone())?;
        let reference = sim.run_batches(&inputs)?.outputs;
        Ok(QftStream {
            cfg: cfg.clone(),
            opts,
            circuit,
            sim,
            inputs,
            reference,
        })
    }
}

/// Whether two batch sets are bit-identical.
fn bit_identical(a: &[Vec<Vec<Complex>>], b: &[Vec<Vec<Complex>>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| {
                    u.len() == v.len()
                        && u.iter().zip(v).all(|(p, q)| {
                            p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
                        })
                })
        })
}

impl Workload for QftStream {
    fn op(&mut self, i: usize, rec: &mut Recorder) -> OpOutcome {
        let states = (BATCHES * BATCH) as u64;
        let pool_before = self.sim.pool_stats();
        let started = Instant::now();
        let root = rec.begin("op");
        let span = rec.begin("exec.run");
        let run = self.sim.run_batches(&self.inputs);
        let run_ms = rec.end(span);
        rec.end(root);
        let ns = ns_since(started);
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                return OpOutcome {
                    ns,
                    states,
                    check: Err(format!("run_batches: {e}")),
                }
            }
        };

        let check = if !bit_identical(&run.outputs, &self.reference) {
            Err("outputs differ from the set-up reference pass".to_string())
        } else {
            let r = mix(self.cfg.seed ^ 0x5a, i as u64) as usize;
            let (b, s) = (r % BATCHES, (r / BATCHES) % BATCH);
            check_against_oracle(
                &self.circuit,
                &self.inputs[b][s],
                &run.outputs[b][s],
                self.sim.gates().len(),
                Precision::F64,
            )
        };

        if rec.enabled() {
            rec.sample("exec.run_ms", run_ms);
            record_run(rec, &self.sim, &run, states, pool_before);
            drop(run);
            replay_exec(rec, &self.sim, &self.inputs[i % BATCHES]);
        }
        OpOutcome { ns, states, check }
    }

    fn probe(&mut self, rec: &mut Recorder) {
        probe_parse(rec, &self.circuit);
        sample_decomp_ratio(rec, &self.circuit, &self.opts);
        let batches = &self.inputs[..1];
        probe_campaign(rec, &self.circuit, &self.opts, &self.cfg.scratch, batches);
    }
}
