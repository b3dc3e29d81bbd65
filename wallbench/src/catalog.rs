//! Every workload and metric the benchmark knows, in one place.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`wallbench --manifest`), and a test keeps the two identical.
//! The manifest format admits only `name`/`why` for a workload and
//! `name`/`unit`/`better`(/`bound`) for a metric, so the extra facts —
//! each workload's tail percentile, each layer metric's layer and the
//! end-to-end metric it should move — live here and in the trace file.

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// Manifest token.
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Percentile reported as `latency_tail_ms`: chosen so a run on the
    /// reference host has at least ten samples beyond it.
    pub tail_pct: f64,
}

/// One end-to-end metric (printed with `--trace 0`).
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric (printed with `--trace 1`).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// What the metric should move, and on which workload.
    pub moves: &'static str,
}

impl LayerMetric {
    /// The layer this metric belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The workloads, in manifest order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "qnn-sweep",
        why: "QML parameter sweep: each op parses, compiles and runs a new qnn-11 point, so \
              the artifact store cannot help and fusion dominates; tail = p70",
        tail_pct: 70.0,
    },
    Workload {
        name: "qft-stream",
        why: "steady state of the paper: qft-14 compiled once in set-up, each op is one \
              4x64-state run_batches, so only execution layers move it; tail = p90",
        tail_pct: 90.0,
    },
    Workload {
        name: "campaign-mix",
        why: "durable --precision auto campaigns over a recurring 12-qubit pool, ~1/4 cold: \
              store writes and reads, tuner, journal fsync; tail = p80",
        tail_pct: 80.0,
    },
];

/// The end-to-end metrics, in manifest order.
pub const E2E_METRICS: &[E2eMetric] = &[
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eMetric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eMetric {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eMetric {
        name: "states_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2eMetric {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The per-layer metrics, in manifest order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    LayerMetric {
        name: "qcir.parse_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "nothing (under 0.1% of a qnn-sweep op); listed so a regression shows",
    },
    LayerMetric {
        name: "qdd.lower_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_* on qnn-sweep (first step of the compile decomposition)",
    },
    LayerMetric {
        name: "fusion.classify_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_*, states_per_s on qnn-sweep; nothing on qft-stream; cold ops only on campaign-mix",
    },
    LayerMetric {
        name: "fusion.step1_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_*, states_per_s on qnn-sweep; nothing on qft-stream; cold ops only on campaign-mix",
    },
    LayerMetric {
        name: "fusion.step2_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_*, states_per_s on qnn-sweep; nothing on qft-stream; cold ops only on campaign-mix",
    },
    LayerMetric {
        name: "fusion.greedy_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_*, states_per_s on qnn-sweep; nothing on qft-stream; cold ops only on campaign-mix",
    },
    LayerMetric {
        name: "fusion.gates_out",
        unit: "count",
        better: Better::Lower,
        moves: "must repeat exactly for a seed: if it moves, the executed program changed",
    },
    LayerMetric {
        name: "qdd.cache_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "explains fusion.step1_ms on qnn-sweep",
    },
    LayerMetric {
        name: "qdd.matrix_nodes",
        unit: "count",
        better: Better::Lower,
        moves: "explains fusion.step1_ms on qnn-sweep",
    },
    LayerMetric {
        name: "qdd.complex_values",
        unit: "count",
        better: Better::Lower,
        moves: "explains fusion.step1_ms on qnn-sweep",
    },
    LayerMetric {
        name: "convert.ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_tail_ms on campaign-mix (cold ops), ~7% of qnn-sweep; nothing on qft-stream",
    },
    LayerMetric {
        name: "convert.cache_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "explains convert.ms",
    },
    LayerMetric {
        name: "convert.cpu_gates",
        unit: "count",
        better: Better::Lower,
        moves: "explains convert.ms; must repeat exactly for a seed",
    },
    LayerMetric {
        name: "convert.gpu_gates",
        unit: "count",
        better: Better::Higher,
        moves: "explains convert.ms; must repeat exactly for a seed",
    },
    LayerMetric {
        name: "artifact.warm_load_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_* on campaign-mix",
    },
    LayerMetric {
        name: "artifact.cold_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_tail_ms on campaign-mix",
    },
    LayerMetric {
        name: "artifact.loads_per_op",
        unit: "count",
        better: Better::Lower,
        moves: "latency_p50_ms on campaign-mix (2 store loads per op at the benchmark's first commit)",
    },
    LayerMetric {
        name: "artifact.warm_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "a workload property: must repeat exactly for a seed",
    },
    LayerMetric {
        name: "artifact.store_mb",
        unit: "MiB",
        better: Better::Lower,
        moves: "artifact.warm_load_ms on campaign-mix",
    },
    LayerMetric {
        name: "tune.ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_tail_ms on campaign-mix (tune_or_stored calls that ran the probe sweep)",
    },
    LayerMetric {
        name: "tune.probes_per_op",
        unit: "count",
        better: Better::Lower,
        moves: "explains tune.ms on campaign-mix",
    },
    LayerMetric {
        name: "exec.run_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_*, states_per_s on qft-stream; ~1% of qnn-sweep",
    },
    LayerMetric {
        name: "exec.kernel_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "states_per_s on qft-stream (computed: single-thread spMM replay of one batch)",
    },
    LayerMetric {
        name: "exec.staging_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "states_per_s on qft-stream (computed: single-thread staging replay of one batch)",
    },
    LayerMetric {
        name: "exec.macs",
        unit: "count",
        better: Better::Lower,
        moves: "explains exec.* on qft-stream; must repeat exactly",
    },
    LayerMetric {
        name: "exec.bytes_computed",
        unit: "bytes",
        better: Better::Lower,
        moves: "explains exec.* on qft-stream; must repeat exactly",
    },
    LayerMetric {
        name: "exec.ops_per_byte",
        unit: "ratio",
        better: Better::Higher,
        moves: "explains exec.* on qft-stream; must repeat exactly",
    },
    LayerMetric {
        name: "exec.pool_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "explains exec.run_ms on qft-stream",
    },
    LayerMetric {
        name: "gpu.virtual_ms",
        unit: "virtual_ms",
        better: Better::Lower,
        moves: "modelled device time, a separate axis: no move from host-only changes",
    },
    LayerMetric {
        name: "campaign.ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_* on campaign-mix; nothing elsewhere",
    },
    LayerMetric {
        name: "campaign.non_exec_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "latency_* on campaign-mix (computed: campaign.ms minus a bare run_batches)",
    },
    LayerMetric {
        name: "campaign.journal_mb",
        unit: "MiB",
        better: Better::Lower,
        moves: "campaign.non_exec_ms on campaign-mix",
    },
    LayerMetric {
        name: "trace.unattributed_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "coverage of the traced run: op wall time outside every child span",
    },
    LayerMetric {
        name: "trace.overhead_pct",
        unit: "%",
        better: Better::Lower,
        moves: "cost of tracing: traced vs untraced latency_p50_ms",
    },
    LayerMetric {
        name: "trace.decomp_ratio",
        unit: "ratio",
        better: Better::Lower,
        moves: "lower+fusion+convert replay over a timed compile of the same circuit; must stay within latency_p50_ms's bound of 1",
    },
];

/// The workload named `name`, if any.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metric named `name`.
///
/// # Panics
///
/// Panics when the catalogue has no such metric (a bug in this crate).
pub fn e2e(name: &str) -> &'static E2eMetric {
    E2E_METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
}

/// Whether `name` is a valid workload or metric name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit token: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the whole catalogue against the manifest rules: valid and
/// unique names, valid units, one-line `why`s of at most 200 characters,
/// bounds in `(0, 0.25]`, and a `setup_s` metric in seconds, lower
/// better. Returns every violation found.
pub fn validate() -> Vec<String> {
    let mut errors = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(E2E_METRICS.iter().map(|m| m.name))
        .chain(LAYER_METRICS.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            errors.push(format!("invalid name {name:?}"));
        }
        if !seen.insert(name) {
            errors.push(format!("duplicate name {name:?}"));
        }
    }
    for w in WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            errors.push(format!(
                "workload {}: why must be one line of <= 200 chars",
                w.name
            ));
        }
        if !(0.0..100.0).contains(&w.tail_pct) {
            errors.push(format!("workload {}: tail percentile out of range", w.name));
        }
    }
    for m in E2E_METRICS {
        if !valid_unit(m.unit) {
            errors.push(format!("metric {}: invalid unit {:?}", m.name, m.unit));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            errors.push(format!("metric {}: bound must be in (0, 0.25]", m.name));
        }
    }
    for m in LAYER_METRICS {
        if !valid_unit(m.unit) {
            errors.push(format!("metric {}: invalid unit {:?}", m.name, m.unit));
        }
    }
    match E2E_METRICS.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {
            if E2E_METRICS.iter().any(|o| o.bound > m.bound) {
                errors.push("setup_s must have the largest bound".into());
            }
        }
        _ => errors.push("setup_s must exist with unit s, lower better".into()),
    }
    if !(2..=8).contains(&WORKLOADS.len()) {
        errors.push("2 to 8 workloads".into());
    }
    if !(1..=16).contains(&E2E_METRICS.len()) || !(1..=128).contains(&LAYER_METRICS.len()) {
        errors.push("metric counts out of range".into());
    }
    errors
}

/// Renders the catalogue as Markdown tables: workloads with their tail
/// percentile, end-to-end metrics with their bounds, and per-layer
/// metrics with their layer and what they should move.
pub fn catalog_markdown() -> String {
    let mut s = String::from("| workload | tail | why |\n|---|---|---|\n");
    for w in WORKLOADS {
        s.push_str(&format!("| `{}` | p{} | {} |\n", w.name, w.tail_pct, w.why));
    }
    s.push_str("\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in E2E_METRICS {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.token(),
            m.bound
        ));
    }
    s.push_str(
        "\n| per-layer metric | layer | unit | better | should move |\n|---|---|---|---|---|\n",
    );
    for m in LAYER_METRICS {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.layer(),
            m.unit,
            m.better.token(),
            m.moves
        ));
    }
    s
}

/// Renders `BENCHMARK.json` from the tables.
pub fn manifest_json() -> String {
    use crate::json::quote;
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"wallbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"wallbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = E2E_METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.token()),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = LAYER_METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.token())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn repo_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn catalogue_obeys_the_manifest_rules() {
        assert_eq!(validate(), Vec::<String>::new());
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("fusion.step1_ms"));
        assert!(valid_name("qnn-sweep"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name(".dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("-lead"));
        assert!(!valid_name("caf\u{e9}"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(valid_unit("virtual_ms"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_is_generated_from_the_catalogue() {
        assert_eq!(repo_file("../BENCHMARK.json"), manifest_json());
    }

    #[test]
    fn readme_carries_the_catalogue() {
        assert!(
            repo_file("README.md").contains(&catalog_markdown()),
            "regenerate the README tables with `wallbench --catalog`"
        );
    }

    #[test]
    fn every_workload_and_metric_is_looked_up_by_name() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(workload("nope").is_none());
        for m in E2E_METRICS {
            assert_eq!(e2e(m.name).name, m.name);
        }
    }
}
