//! `campaign-mix`: durable `--precision auto` campaigns over a recurring
//! pool of 12-qubit `vqe`, `routing` and `tsp` circuits. About one
//! operation in four draws a first-seen circuit (cold: compile, probes,
//! publish); the rest repeat earlier ones (warm: load plus the stored
//! tuning record). Every run starts with an empty store.

use super::{
    campaign_op, check_campaign, decompose_compile, mix, probe_parse, record_campaign_extras,
    remove_journal, replay_exec, sample_decomp_ratio, store_mb, OpOutcome, RunConfig, Workload,
};
use crate::trace::Recorder;
use bqsim_core::{random_input_batch, ArtifactStore, BqSimOptions};
use bqsim_num::Complex;
use bqsim_qcir::{generators, Circuit};
use std::path::PathBuf;
use std::time::Instant;

/// Circuit width.
pub const QUBITS: usize = 12;
/// Batches per campaign.
pub const BATCHES: usize = 8;
/// States per batch.
pub const BATCH: usize = 64;
/// Length of the pre-drawn operation sequence (operations cycle past it,
/// warm).
const DRAWS: usize = 512;
/// One draw in this many is a first-seen circuit.
const COLD_ONE_IN: u64 = 4;
/// Operations whose counts define the count metrics, so they repeat
/// exactly for a seed however many operations a run reaches.
const COUNT_WINDOW: usize = 16;

/// The circuit pool, the draw order, the input batches and the store.
pub struct CampaignMix {
    cfg: RunConfig,
    opts: BqSimOptions,
    circuits: Vec<Circuit>,
    draws: Vec<usize>,
    batches: Vec<Vec<Vec<Complex>>>,
    store_dir: PathBuf,
    store: ArtifactStore,
    warm: Vec<bool>,
    loads: Vec<u64>,
    probes: Vec<u64>,
}

impl CampaignMix {
    /// Set-up: draws the circuit sequence, builds the circuits and the
    /// input batches, and opens a fresh, empty artifact store.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the store directory.
    pub fn setup(cfg: &RunConfig) -> std::io::Result<CampaignMix> {
        // Draws come in blocks of `COLD_ONE_IN` with exactly one
        // first-seen circuit per block, at a seeded position; draw `j`
        // uses family `j % 3`, so every run has the same cold share and
        // family mix. A repeat picks a seeded earlier circuit of its
        // family (a family's first draw is necessarily first-seen).
        let mut circuits: Vec<Circuit> = Vec::new();
        let mut by_family: [Vec<usize>; 3] = Default::default();
        let mut draws = Vec::with_capacity(DRAWS);
        for j in 0..DRAWS as u64 {
            let block = j / COLD_ONE_IN;
            let cold_at = mix(cfg.seed ^ 0xc01d, block) % COLD_ONE_IN;
            let family = (j % 3) as usize;
            let seen = &mut by_family[family];
            if j % COLD_ONE_IN == cold_at || seen.is_empty() {
                let param_seed = mix(cfg.seed ^ 0xfa3, j);
                seen.push(circuits.len());
                draws.push(circuits.len());
                circuits.push(match family {
                    0 => generators::vqe(QUBITS, param_seed),
                    1 => generators::routing(QUBITS, param_seed),
                    _ => generators::tsp(QUBITS, param_seed),
                });
            } else {
                let r = mix(cfg.seed ^ 0xca3, j) as usize;
                draws.push(seen[r % seen.len()]);
            }
        }
        let batches = (0..BATCHES)
            .map(|b| random_input_batch(QUBITS, BATCH, mix(cfg.seed ^ 0xb47, b as u64)))
            .collect();
        let store_dir = cfg.scratch.join("store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = ArtifactStore::open(&store_dir)?;
        Ok(CampaignMix {
            cfg: cfg.clone(),
            opts: cfg.options(),
            circuits,
            draws,
            batches,
            store_dir,
            store,
            warm: Vec::new(),
            loads: Vec::new(),
            probes: Vec::new(),
        })
    }
}

impl Workload for CampaignMix {
    fn op(&mut self, i: usize, rec: &mut Recorder) -> OpOutcome {
        let states = (BATCHES * BATCH) as u64;
        let circuit = &self.circuits[self.draws[i % DRAWS]];
        let journal = self.cfg.scratch.join("campaign.journal");
        remove_journal(&journal);

        let started = Instant::now();
        let root = rec.begin("op");
        let outcome = campaign_op(
            rec,
            circuit,
            &self.opts,
            &self.store,
            &journal,
            &self.batches,
        );
        rec.end(root);
        let ns = (started.elapsed().as_nanos()) as u64;
        let op = match outcome {
            Ok(op) => op,
            Err(e) => {
                remove_journal(&journal);
                return OpOutcome {
                    ns,
                    states,
                    check: Err(e),
                };
            }
        };

        let r = mix(self.cfg.seed ^ 0x5a, i as u64) as usize;
        let check = check_campaign(
            &op,
            circuit,
            &self.batches,
            (r % BATCHES, (r / BATCHES) % BATCH),
        );
        self.warm.push(op.warm);
        self.loads.push(op.loads);
        self.probes.push(op.probes);

        if rec.enabled() {
            record_campaign_extras(rec, &op, &journal, &self.batches, true);
            replay_exec(rec, &op.sim, &self.batches[0]);
            if !op.warm {
                decompose_compile(rec, circuit, &self.opts);
            }
        }
        remove_journal(&journal);
        OpOutcome { ns, states, check }
    }

    fn probe(&mut self, rec: &mut Recorder) {
        let n = self.warm.len().clamp(1, COUNT_WINDOW) as f64;
        let window = |xs: &[u64]| xs.iter().take(COUNT_WINDOW).sum::<u64>() as f64 / n;
        let warm: Vec<u64> = self.warm.iter().map(|&w| u64::from(w)).collect();
        rec.sample("artifact.warm_ratio", window(&warm));
        rec.sample("artifact.loads_per_op", window(&self.loads));
        rec.sample("tune.probes_per_op", window(&self.probes));
        rec.sample("artifact.store_mb", store_mb(&self.store_dir));
        for circuit in self.circuits.iter().take(4) {
            probe_parse(rec, circuit);
            sample_decomp_ratio(rec, circuit, &self.opts);
        }
    }
}
