//! One benchmark run: repeated set-up, the timed closed loop, and the
//! metrics it yields.

use crate::catalog::{self, LayerMetric, Workload as Spec, LAYER_METRICS};
use crate::env::peak_rss_mb;
use crate::stats::{median, min_samples_for, percentile};
use crate::trace::Recorder;
use crate::workloads::{campaign::CampaignMix, qft::QftStream, qnn::QnnSweep, RunConfig, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up repeats at least this many times per run; `setup_s` is the
/// median of all repeats.
pub const MIN_SETUP_REPS: usize = 3;

/// Cheap set-ups keep repeating until this much set-up time has
/// accumulated (or [`MAX_SETUP_REPS`]), so their median is steady.
const SETUP_BUDGET_S: f64 = 2.0;

/// Upper bound on set-up repeats.
const MAX_SETUP_REPS: usize = 50;

/// Operations a traced run makes at least, so every count window fills.
const MIN_TRACED_RUN_OPS: usize = 16;

/// Count-like per-layer metrics are the median of this many first
/// occurrences, so they repeat exactly for a seed.
const COUNT_SAMPLES: usize = 5;

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted in the measured loop.
    pub attempted: usize,
    /// Operations that returned an error or failed their output check.
    pub failed: usize,
    /// Why operations or run-level checks failed (first few).
    pub failures: Vec<String>,
    /// Run-level checks that failed (a metric missing, the compile
    /// decomposition disagreeing), beyond the operations themselves.
    pub run_errors: Vec<String>,
    /// Name, value and unit of every metric printed.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The trace recorder (empty when untraced).
    pub recorder: Recorder,
}

impl Report {
    /// Whether every operation and run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_errors.is_empty()
    }
}

fn build(name: &str, cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "qnn-sweep" => Box::new(QnnSweep::setup(cfg)),
        "qft-stream" => Box::new(QftStream::setup(cfg).map_err(|e| format!("set-up: {e}"))?),
        "campaign-mix" => Box::new(CampaignMix::setup(cfg).map_err(|e| format!("set-up: {e}"))?),
        other => return Err(format!("unknown workload {other}")),
    })
}

struct Loop {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    states_ok: u64,
    op_ns: u64,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

impl Loop {
    fn new() -> Loop {
        Loop {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            states_ok: 0,
            op_ns: 0,
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
        }
    }

    fn step(&mut self, wl: &mut dyn Workload, rec: &mut Recorder) {
        let i = self.attempted;
        let out = wl.op(i, rec);
        self.attempted += 1;
        self.op_ns += out.ns;
        let ms = out.ns as f64 / 1e6;
        if rec.enabled() {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
        match out.check {
            Ok(()) => self.states_ok += out.states,
            Err(reason) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("op {i}: {reason}"));
                }
            }
        }
    }
}

/// Runs workload `spec` for `seconds` of operation time (untraced) or of
/// wall time (traced) and returns its metrics.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(spec: &Spec, cfg: &RunConfig, seconds: f64, traced: bool) -> Result<Report, String> {
    let setup_s = if traced {
        Vec::new()
    } else {
        setup_times(spec, cfg)?
    };
    let mut wl = build(spec.name, cfg)?;

    let mut lp = Loop::new();
    let mut rec = Recorder::new(false);
    if traced {
        // Alternate untraced and traced operations until the wall clock
        // runs out, so the two latency medians share conditions.
        let started = Instant::now();
        while lp.attempted < MIN_TRACED_RUN_OPS || started.elapsed().as_secs_f64() < seconds {
            rec.set_enabled(lp.attempted % 2 == 1);
            lp.step(wl.as_mut(), &mut rec);
        }
        rec.set_enabled(true);
        wl.probe(&mut rec);
    } else {
        // Measure until `seconds` of operation time have passed and the
        // tail percentile has ten samples beyond it; stop at three times
        // the budget whatever the count.
        let min_n = min_samples_for(spec.tail_pct);
        let budget = (seconds * 1e9) as u64;
        while (lp.op_ns < budget || lp.attempted < min_n) && lp.op_ns < 3 * budget {
            lp.step(wl.as_mut(), &mut rec);
        }
    }
    drop(wl);

    let mut report = Report {
        attempted: lp.attempted,
        failed: lp.failed,
        failures: std::mem::take(&mut lp.failures),
        run_errors: Vec::new(),
        metrics: Vec::new(),
        recorder: Recorder::new(false),
    };
    if traced {
        layer_metrics(spec, &lp, &rec, &mut report);
        report.recorder = rec;
    } else {
        let lat = &lp.untraced_ms;
        let secs = lp.op_ns as f64 / 1e9;
        report.metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("latency_p50_ms", median(lat), "ms"),
            ("latency_tail_ms", percentile(lat, spec.tail_pct), "ms"),
            ("states_per_s", lp.states_ok as f64 / secs, "1/s"),
            (
                "ok_ratio",
                (lp.attempted - lp.failed) as f64 / lp.attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        if lp.untraced_ms.len() < min_samples_for(spec.tail_pct) {
            report.run_errors.push(format!(
                "only {} operations: p{} needs {}",
                lp.untraced_ms.len(),
                spec.tail_pct,
                min_samples_for(spec.tail_pct)
            ));
        }
    }
    Ok(report)
}

/// Times one set-up of workload `spec`, in seconds.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn time_setup(spec: &Spec, cfg: &RunConfig) -> Result<f64, String> {
    let started = Instant::now();
    let built = build(spec.name, cfg)?;
    let secs = started.elapsed().as_secs_f64();
    drop(built);
    Ok(secs)
}

/// Set-up times of fresh processes: each repeat runs this executable with
/// `--setup-only` and waits for it. A repeat inside this process would
/// reuse the heap a previous repeat freed, and whether it can — hence
/// whether the inputs' pages fault in again — depends on the heap layout
/// the seed happens to produce, which made in-process repeats bimodal
/// across seeds. A fresh process pays the first-touch cost a user's
/// single set-up pays.
fn setup_times(spec: &Spec, cfg: &RunConfig) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times: Vec<f64> = Vec::new();
    while times.len() < MIN_SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < MAX_SETUP_REPS)
    {
        let out = Command::new(&exe)
            .args([
                "--workload",
                spec.name,
                "--seed",
                &cfg.seed.to_string(),
                "--setup-only",
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|s| out.status.success() && s.is_finite())
            .ok_or_else(|| format!("set-up process failed: {} {}", out.status, text.trim()))?;
        times.push(secs);
    }
    Ok(times)
}

/// Whether a metric counts work (and so must repeat exactly for a seed)
/// rather than timing it.
fn is_count(m: &LayerMetric) -> bool {
    matches!(m.unit, "count" | "bytes" | "ratio") && m.layer() != "trace"
}

fn layer_metrics(spec: &Spec, lp: &Loop, rec: &Recorder, report: &mut Report) {
    for m in LAYER_METRICS {
        let value = match m.name {
            "trace.unattributed_ms" => {
                let own: Vec<f64> = rec
                    .spans()
                    .iter()
                    .filter(|s| s.name == "op")
                    .map(|s| rec.self_ms(s.id))
                    .collect();
                median(&own)
            }
            "trace.overhead_pct" => (median(&lp.traced_ms) / median(&lp.untraced_ms) - 1.0) * 100.0,
            name if is_count(m) => {
                let xs = rec.samples(name);
                median(&xs[..xs.len().min(COUNT_SAMPLES)])
            }
            name => median(rec.samples(name)),
        };
        if !value.is_finite() {
            report
                .run_errors
                .push(format!("per-layer metric {} was not measured", m.name));
        }
        report.metrics.push((m.name, value, m.unit));
    }
    // The compile decomposition must add up to the timed compile: the
    // replayed stages are the same calls, so their sum agrees with
    // `BqSimulator::compile` within the latency bound.
    if spec.name == "qnn-sweep" {
        let ratio = median(rec.samples("trace.decomp_ratio"));
        let bound = catalog::e2e("latency_p50_ms").bound;
        if (ratio - 1.0).abs() > bound {
            report.run_errors.push(format!(
                "compile decomposition sums to {ratio:.3} of the timed compile (bound {bound})"
            ));
        }
    }
}
