//! Artifact-store round-trip properties (the PR 8 compile-once
//! contract): a circuit executable published by one compile and loaded
//! by a later one must run **bit-identically** — `f64::to_bits`
//! equality over every output amplitude — across both amplitude
//! layouts and across worker-thread counts (the content key excludes
//! execution-only options, so one artifact serves every `threads`
//! setting). Corrupt artifacts must degrade to a recompile that
//! republishes and still matches, never to an error.

use bqsim_campaign::{campaign_digest, run_campaign, CampaignOptions};
use bqsim_core::{
    artifact_key, audit_store, random_input_batch, tune_or_stored, ArtifactStore, AuditVerdict,
    BqSimOptions, BqSimulator, CompileSource, Layout, Precision, TuningSource,
};
use bqsim_num::Complex;
use bqsim_qcir::generators;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn store_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("bqsim-artifact-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Folds every output amplitude into an exact bit pattern: equality here
/// is `to_bits` equality, with no tolerance.
fn output_bits(outputs: &[Vec<Vec<Complex>>]) -> Vec<(u64, u64)> {
    outputs
        .iter()
        .flatten()
        .flatten()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Same, over a campaign's per-batch optional outputs.
fn campaign_bits(outputs: &[Option<Vec<Vec<Complex>>>]) -> Vec<(u64, u64)> {
    outputs
        .iter()
        .flatten()
        .flatten()
        .flatten()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// compile → store → load → execute is bit-identical to the direct
    /// compile across {aos, planar} × threads {1, 4}. The very first
    /// compile publishes; every later combination loads it warm — the
    /// content key excludes execution-only options, so **one** artifact
    /// serves every layout and thread count (which is also what keeps
    /// the auto-tuner's layout moves from forking artifacts).
    #[test]
    fn store_round_trip_is_bit_identical_across_layouts_and_threads(
        seed in 0u64..1_000,
        n in 3usize..6,
        gates in 5usize..30,
    ) {
        let circuit = generators::random_circuit(n, gates, seed);
        let batches = vec![random_input_batch(n, 3, seed ^ 0x5eed)];
        let dir = store_dir("roundtrip");
        let mut bits = Vec::new();
        let mut first = true;
        for layout in [Layout::Aos, Layout::Planar] {
            for threads in [1usize, 4] {
                let opts = BqSimOptions { threads, layout, ..BqSimOptions::default() };
                // Direct compile, no store: the reference output.
                let reference = BqSimulator::compile(&circuit, opts.clone()).unwrap()
                    .run_batches(&batches).unwrap();
                let store = ArtifactStore::open(&dir).unwrap();
                let (sim, source) = BqSimulator::compile_or_load(&circuit, opts, &store).unwrap();
                if first {
                    prop_assert!(
                        matches!(source, CompileSource::Cold { published: true }),
                        "the first compile must publish, got {source:?}"
                    );
                    first = false;
                } else {
                    prop_assert!(
                        source.is_warm(),
                        "layout {layout:?} threads {threads} must reuse the one artifact, \
                         got {source:?}"
                    );
                }
                let run = sim.run_batches(&batches).unwrap();
                prop_assert_eq!(output_bits(&run.outputs), output_bits(&reference.outputs));
                bits.push(output_bits(&run.outputs));
            }
        }
        // Every layout × thread combination agrees bit for bit over one
        // artifact.
        for other in &bits[1..] {
            prop_assert_eq!(&bits[0], other);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A byte flip at a random offset anywhere in the stored file makes
    /// the next campaign recompile with a warning — and its digest and
    /// amplitudes still match the cold run exactly.
    #[test]
    fn seeded_corruption_degrades_to_a_bit_identical_recompile(
        seed in 0u64..1_000,
        offset_frac in 0.0f64..1.0,
    ) {
        let circuit = generators::qft(4);
        let batches = vec![
            random_input_batch(4, 2, seed),
            random_input_batch(4, 2, seed ^ 1),
        ];
        let dir = store_dir("corrupt");
        let copts = CampaignOptions {
            artifact_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        let opts = BqSimOptions::default();
        let cold = run_campaign(&circuit, opts.clone(), &batches, &copts).unwrap();
        prop_assert!(matches!(
            cold.compile_source,
            Some(CompileSource::Cold { published: true })
        ));

        // Flip one byte at a seeded offset of the published file.
        let entries = ArtifactStore::open(&dir).unwrap().entries().unwrap();
        prop_assert_eq!(entries.len(), 1);
        let path = &entries[0].path;
        let mut bytes = std::fs::read(path).unwrap();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let at = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[at] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();

        let warm = run_campaign(&circuit, opts.clone(), &batches, &copts).unwrap();
        prop_assert!(
            matches!(warm.compile_source, Some(CompileSource::RecompiledCorrupt { .. })),
            "flipping byte {at} must be detected, got {:?}",
            warm.compile_source
        );
        prop_assert_eq!(
            campaign_digest(&warm.checksums),
            campaign_digest(&cold.checksums)
        );
        prop_assert_eq!(campaign_bits(&warm.outputs), campaign_bits(&cold.outputs));

        // The recompile republished a valid artifact: round three is warm.
        let third = run_campaign(&circuit, opts, &batches, &copts).unwrap();
        prop_assert!(matches!(third.compile_source, Some(CompileSource::Warm)));
        prop_assert_eq!(
            campaign_digest(&third.checksums),
            campaign_digest(&cold.checksums)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checked-in `.bqc` written by the version-1 (pre-tuning) build loads
/// warm under the *same* content key — the key schema is pinned
/// independently of the format version — carries no tuning record
/// (probe-on-load, not corruption), and executes bit-identically to a
/// fresh compile. Tuning it republishes a version-2 file in place.
#[test]
fn version1_fixture_loads_warm_and_upgrades_in_place() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/ghz3_v1.bqc");
    let circuit = generators::ghz(3);
    let opts = BqSimOptions::default();
    let key = artifact_key(&circuit, &opts);
    assert_eq!(
        key, 0x84a7_7614_d7c4_4155,
        "the artifact key schema moved: version-1 stores would recompile everything"
    );

    let dir = store_dir("v1-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&fixture, dir.join(format!("{key:016x}.bqc"))).unwrap();
    let store = ArtifactStore::open(&dir).unwrap();
    let entries = store.entries().unwrap();
    assert_eq!((entries.len(), entries[0].version), (1, 1));

    let (mut sim, source) = BqSimulator::compile_or_load(&circuit, opts.clone(), &store).unwrap();
    assert!(source.is_warm(), "v1 file must load warm, got {source:?}");
    assert_eq!(sim.stored_tuning(), None, "v1 carries no tuning record");

    let batches = vec![random_input_batch(3, 4, 21)];
    let cold = BqSimulator::compile(&circuit, opts.clone()).unwrap();
    assert_eq!(
        output_bits(&sim.run_batches(&batches).unwrap().outputs),
        output_bits(&cold.run_batches(&batches).unwrap().outputs),
        "v1 artifact must execute bit-identically to a fresh compile"
    );

    // No stored record → the tuner probes, then upgrades the file to
    // version 2 in place, still under the seed key.
    let outcome =
        tune_or_stored(&mut sim, Precision::F32, Some(1e-9), Some((&store, key))).unwrap();
    assert_eq!(outcome.source, TuningSource::Probed);
    assert!(outcome.probes > 0);
    let entries = store.entries().unwrap();
    assert_eq!(
        (entries.len(), entries[0].version, entries[0].key),
        (1, 2, key)
    );

    let (warm, source) = BqSimulator::compile_or_load(&circuit, opts, &store).unwrap();
    assert!(source.is_warm());
    assert_eq!(warm.stored_tuning(), Some(outcome.record));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A qnn-6 store compiled before the compile fast paths (step-① products
/// classified by construction, Algorithm-1 work counted on the DD, the Fx
/// hasher in the DD tables) must still audit clean: every ELL value bit,
/// flattened DD, cost, method and work counter equals a fresh compile.
#[test]
fn qnn6_fixture_store_audits_bit_identical_to_a_fresh_compile() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/qnn6_store");
    let dir = store_dir("qnn6-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let audit = audit_store(&dir).unwrap();
    assert_eq!(audit.entries.len(), 1, "{audit:?}");
    assert!(
        matches!(
            audit.entries[0].verdict,
            AuditVerdict::Ok {
                gates: 12,
                num_qubits: 6
            }
        ),
        "{:?}",
        audit.entries[0].verdict
    );
    let _ = std::fs::remove_dir_all(&dir);
}
