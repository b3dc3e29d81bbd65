//! Multi-GPU batch partitioning — the scaling extension sketched in the
//! paper's §4.2: "the batch of state vectors can be partitioned across
//! multiple GPUs … the circuit is optimized once into a reusable simulation
//! task graph that can run different batches on multiple GPUs".
//!
//! The compiled pipeline (fused ELL gates) is shared; batches are dealt
//! round-robin to per-device engines that run independently, so the
//! makespan is the slowest device's schedule.

use crate::simulator::{check_nonempty, BqSimOptions, BqSimulator, RunRequest, RunResult};
use crate::BqsimError;
use bqsim_faults::{RecoveryPolicy, RunHealth};
use bqsim_gpu::{DeviceSpec, Timeline};
use bqsim_num::Complex;
use bqsim_qcir::Circuit;

/// A batch simulation spread over several (simulated) GPUs.
#[derive(Debug)]
pub struct MultiGpuRunner {
    sims: Vec<BqSimulator>,
}

/// The result of a multi-GPU run.
#[derive(Debug)]
pub struct MultiGpuRun {
    /// Output states per batch, in original batch order. Empty in
    /// timing-only mode.
    pub outputs: Vec<Vec<Vec<Complex>>>,
    /// Per-device run results, in device order; a device that ran a
    /// requeue wave has it appended to its timeline.
    pub per_device: Vec<RunResult>,
    /// The makespan: the slowest device's virtual time, requeue waves
    /// included.
    pub makespan_ns: u64,
    /// Merged health account across all devices and waves.
    pub health: RunHealth,
}

impl MultiGpuRunner {
    /// Compiles the circuit once per device (sharing the same options
    /// except the device spec).
    ///
    /// # Errors
    ///
    /// Propagates compile errors; `devices` must be non-empty.
    pub fn compile(
        circuit: &Circuit,
        base: &BqSimOptions,
        devices: Vec<DeviceSpec>,
    ) -> Result<Self, BqsimError> {
        assert!(!devices.is_empty(), "need at least one device");
        let sims = devices
            .into_iter()
            .map(|device| {
                let opts = BqSimOptions {
                    device,
                    ..base.clone()
                };
                BqSimulator::compile(circuit, opts)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiGpuRunner { sims })
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.sims.len()
    }

    /// Runs a request's batches, dealing batch `b` to device `b % k`.
    ///
    /// Wave one runs each device with the request's fault plan and
    /// retry/degradation policy but **without** the host fallback:
    /// batches a device cannot finish (lost device, exhausted retries)
    /// are collected instead. Wave two requeues those batches round-robin
    /// over the surviving devices, fault-free, and appends the extra work
    /// to each survivor's timeline so the makespan stays truthful. The
    /// cancel token is polled at every task boundary of every device.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::AllDevicesLost`] when batches need requeueing
    /// but no device survived, and [`BqsimError::Cancelled`] when the
    /// token fires — devices that already completed their share are
    /// discarded with the rest (campaign-level durability journals per
    /// *batch*, not per device, so nothing is lost by the discard).
    /// Otherwise propagates empty-run, input-shape and unrecoverable-OOM
    /// errors.
    pub fn run(&self, req: &RunRequest) -> Result<MultiGpuRun, BqsimError> {
        let batches = req.batches;
        self.sims[0].validate_batches(batches)?;
        let k = self.sims.len();
        let wave_faults = req.faults.map(|(plan, policy)| {
            let no_fallback = RecoveryPolicy {
                host_fallback: false,
                ..*policy
            };
            (plan, no_fallback)
        });
        let mut per_device_batches: Vec<Vec<Vec<Vec<Complex>>>> = vec![Vec::new(); k];
        let mut per_device_orig: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (b, batch) in batches.iter().enumerate() {
            per_device_batches[b % k].push(batch.clone());
            per_device_orig[b % k].push(b);
        }

        let mut health = RunHealth::new();
        let mut per_device = Vec::with_capacity(k);
        let mut outputs: Vec<Vec<Vec<Complex>>> = vec![Vec::new(); batches.len()];
        let mut requeue: Vec<usize> = Vec::new();
        let mut lost = vec![false; k];

        for d in 0..k {
            if per_device_batches[d].is_empty() {
                per_device.push(RunResult {
                    outputs: Vec::new(),
                    timeline: Timeline::default(),
                    breakdown: self.sims[d].compile_breakdown(),
                    power: bqsim_gpu::power::PowerReport {
                        cpu_w: 0.0,
                        gpu_w: 0.0,
                        duration_ns: 0,
                    },
                });
                continue;
            }
            let rec = self.sims[d].run_on_device(
                d,
                &RunRequest {
                    batches: &per_device_batches[d],
                    cancel: req.cancel,
                    faults: wave_faults.as_ref().map(|(plan, policy)| (*plan, policy)),
                },
            )?;
            lost[d] = rec.health.lost_devices.contains(&d);
            for (local, &orig) in per_device_orig[d].iter().enumerate() {
                if !rec.health.failed_batches.contains(&local) && !rec.run.outputs.is_empty() {
                    outputs[orig] = rec.run.outputs[local].clone();
                }
            }
            requeue.extend(
                rec.health
                    .failed_batches
                    .iter()
                    .map(|&local| per_device_orig[d][local]),
            );
            let mut h = rec.health;
            h.failed_batches.clear(); // requeued below, not failed
            health.merge(h);
            per_device.push(rec.run);
        }

        if !requeue.is_empty() {
            let survivors: Vec<usize> = (0..k).filter(|&d| !lost[d]).collect();
            if survivors.is_empty() {
                return Err(BqsimError::AllDevicesLost);
            }
            requeue.sort_unstable();
            let mut wave2: Vec<Vec<usize>> = vec![Vec::new(); survivors.len()];
            for (i, &orig) in requeue.iter().enumerate() {
                wave2[i % survivors.len()].push(orig);
            }
            for (s, origs) in survivors.iter().zip(&wave2) {
                if origs.is_empty() {
                    continue;
                }
                let wave_batches: Vec<_> = origs.iter().map(|&b| batches[b].clone()).collect();
                let run2 = self.sims[*s]
                    .run(&RunRequest {
                        cancel: req.cancel,
                        ..RunRequest::new(&wave_batches)
                    })?
                    .run;
                for (local, &orig) in origs.iter().enumerate() {
                    if !run2.outputs.is_empty() {
                        outputs[orig] = run2.outputs[local].clone();
                    }
                }
                per_device[*s].timeline.extend_after(&run2.timeline);
                per_device[*s].breakdown.simulation_ns += run2.breakdown.simulation_ns;
            }
            health.requeued_batches = requeue;
        }

        let makespan_ns = per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .max()
            .unwrap_or(0);
        Ok(MultiGpuRun {
            outputs,
            per_device,
            makespan_ns,
            health,
        })
    }

    /// Timing-only run of `num_batches × batch_size` synthetic inputs.
    ///
    /// # Errors
    ///
    /// Returns [`BqsimError::EmptyRun`] if either count is zero and
    /// propagates device OOM errors.
    pub fn run_synthetic(
        &self,
        num_batches: usize,
        batch_size: usize,
    ) -> Result<MultiGpuRun, BqsimError> {
        check_nonempty(num_batches, batch_size)?;
        let k = self.sims.len();
        let mut per_device = Vec::with_capacity(k);
        for (d, sim) in self.sims.iter().enumerate() {
            let share = num_batches / k + usize::from(d < num_batches % k);
            if share == 0 {
                continue;
            }
            per_device.push(sim.run_synthetic(share, batch_size)?);
        }
        let makespan_ns = per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .max()
            .unwrap_or(0);
        Ok(MultiGpuRun {
            outputs: Vec::new(),
            per_device,
            makespan_ns,
            health: RunHealth::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_input_batch;
    use bqsim_num::approx::vectors_eq;
    use bqsim_qcir::{dense, generators};

    #[test]
    fn two_gpus_nearly_halve_the_makespan() {
        let circuit = generators::vqe(8, 3);
        let one = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let two = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let t1 = one.run_synthetic(40, 64).unwrap().makespan_ns;
        let t2 = two.run_synthetic(40, 64).unwrap().makespan_ns;
        let ratio = t1 as f64 / t2 as f64;
        assert!(
            (1.6..=2.1).contains(&ratio),
            "2-GPU speed-up out of range: {ratio}"
        );
    }

    #[test]
    fn outputs_match_single_device_and_oracle() {
        let circuit = generators::qnn(4, 3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..5).map(|b| random_input_batch(4, 3, b)).collect();
        let run = runner.run(&RunRequest::new(&batches)).unwrap();
        for (batch_in, batch_out) in batches.iter().zip(&run.outputs) {
            for (input, got) in batch_in.iter().zip(batch_out) {
                let mut want = input.clone();
                dense::apply_circuit(&mut want, &circuit);
                assert!(vectors_eq(got, &want, 1e-9));
            }
        }
    }

    #[test]
    fn device_loss_requeues_batches_to_the_survivor() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::qnn(4, 3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..6).map(|b| random_input_batch(4, 3, b)).collect();
        let clean = runner.run(&RunRequest::new(&batches)).unwrap();

        let mut plan = FaultPlan::new();
        plan.push(1, FaultKind::DeviceLoss { at_task: 0 });
        let rec = runner
            .run(&RunRequest {
                faults: Some((&plan, &RecoveryPolicy::default())),
                ..RunRequest::new(&batches)
            })
            .unwrap();
        assert_eq!(rec.health.lost_devices, vec![1]);
        assert_eq!(
            rec.health.requeued_batches,
            vec![1, 3, 5],
            "device 1's batches move to the survivor:\n{}",
            rec.health
        );
        assert_eq!(rec.health.count_of("device-loss"), 1);
        assert_eq!(
            rec.outputs, clean.outputs,
            "requeued outputs must be bit-identical to the fault-free run"
        );
        assert!(
            rec.makespan_ns > clean.makespan_ns,
            "the survivor pays for the requeued wave"
        );
    }

    #[test]
    fn losing_every_device_is_an_error() {
        use bqsim_faults::{FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::ghz(3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..2).map(|b| random_input_batch(3, 2, b)).collect();
        let mut plan = FaultPlan::new();
        plan.push(0, FaultKind::DeviceLoss { at_task: 0 });
        match runner.run(&RunRequest {
            faults: Some((&plan, &RecoveryPolicy::default())),
            ..RunRequest::new(&batches)
        }) {
            Err(BqsimError::AllDevicesLost) => {}
            other => panic!("expected AllDevicesLost, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_with_and_without_faults() {
        use bqsim_faults::{CancelToken, FaultKind, FaultPlan, RecoveryPolicy};
        let circuit = generators::ghz(3);
        let runner = MultiGpuRunner::compile(
            &circuit,
            &BqSimOptions::default(),
            vec![DeviceSpec::rtx_a6000(), DeviceSpec::rtx_a6000()],
        )
        .unwrap();
        let batches: Vec<_> = (0..4).map(|b| random_input_batch(3, 2, b)).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut plan = FaultPlan::new();
        plan.push(1, FaultKind::DeviceLoss { at_task: 0 });
        let policy = RecoveryPolicy::default();
        for faults in [None, Some((&plan, &policy))] {
            let req = RunRequest {
                batches: &batches,
                cancel: Some(&cancel),
                faults,
            };
            match runner.run(&req) {
                Err(BqsimError::Cancelled) => {}
                other => panic!(
                    "expected Cancelled (faults: {}), got {other:?}",
                    faults.is_some()
                ),
            }
        }
    }

    #[test]
    fn heterogeneous_devices_bound_makespan_by_slowest() {
        let circuit = generators::routing(6, 1);
        let fast = DeviceSpec::rtx_a6000();
        let slow = DeviceSpec::tiny_test_gpu();
        let runner =
            MultiGpuRunner::compile(&circuit, &BqSimOptions::default(), vec![fast, slow]).unwrap();
        let run = runner.run_synthetic(10, 16).unwrap();
        let per: Vec<u64> = run
            .per_device
            .iter()
            .map(|r| r.timeline.total_ns())
            .collect();
        assert_eq!(run.makespan_ns, *per.iter().max().unwrap());
        assert!(per[1] > per[0], "tiny GPU must be the straggler");
    }
}
