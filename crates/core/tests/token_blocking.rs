//! The blocker and matcher over the shared tokenize-and-intern kernel.
//!
//! On the sequential, pool and fused backends, Token Blocking is the kernel
//! followed by a counting-sort CSR build. These tests pin that its blocks
//! equal the string-keyed reference at every worker count and budget, and
//! that the engine blocker shuffles nothing (the 2.7× work inflation of the
//! old shuffle-based pool blocker must not come back).

use proptest::prelude::*;
use sparker_blocking::{purge_by_comparison_level, token_blocking_string};
use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig, PurgeConfig};
use sparker_dataflow::{Context, MemBudget};
use sparker_datasets::{generate, generate_dirty, DatasetConfig, GeneratedDataset};

fn dataset(entities: usize, seed: u64, dirty: bool) -> GeneratedDataset {
    let config = DatasetConfig {
        entities,
        unmatched_per_source: entities / 4,
        seed,
        ..DatasetConfig::default()
    };
    if dirty {
        generate_dirty(&config, 3)
    } else {
        generate(&config)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel-based token blocking on the pool backends equals the
    /// string-keyed oracle at workers {1, 2, 3, 8}, in RAM and under a
    /// 16-byte budget that spills every morsel.
    #[test]
    fn pool_token_blocking_equals_string_oracle(
        entities in 0usize..40,
        seed in any::<u64>(),
        dirty in any::<bool>(),
    ) {
        let ds = dataset(entities, seed, dirty);
        let oracle = token_blocking_string(&ds.collection);
        let sequential = ExecutionBackend::Sequential.build_blocks(
            &ds.collection,
            None,
            &MemBudget::limited(16),
        );
        prop_assert_eq!(sequential.blocks(), oracle.blocks());
        for workers in [1usize, 2, 3, 8] {
            for budget in [MemBudget::unlimited(), MemBudget::limited(16)] {
                for make in [ExecutionBackend::Pool, ExecutionBackend::FusedPool] {
                    let backend = make(Context::new(workers).with_budget(budget.clone()));
                    let got = backend.build_blocks(&ds.collection, None, &budget);
                    prop_assert_eq!(
                        got.blocks(),
                        oracle.blocks(),
                        "{} workers={} limited={}",
                        backend.name(),
                        workers,
                        budget.is_limited()
                    );
                }
            }
        }
    }
}

/// The work-inflation guard: on a dirty collection under the scaling
/// configuration, the pool backend's blocking and filtering stages record
/// zero shuffled records, while the kernel's stages do run on the pool.
/// Deterministic: counts records, never time.
#[test]
fn pool_blocker_shuffles_nothing_under_the_scaling_config() {
    let ds = dataset(300, 7, true);
    let config = PipelineConfig::scaling();
    let PurgeConfig::ComparisonLevel { smoothing } = config.blocking.purge else {
        panic!("the scaling config purges by comparison level");
    };
    let ratio = config
        .blocking
        .filter_ratio
        .expect("the scaling config filters blocks");
    for make in [ExecutionBackend::Pool, ExecutionBackend::FusedPool] {
        let ctx = Context::new(2);
        let backend = make(ctx.clone());
        let budget = backend.budget();
        let blocks = backend.build_blocks(&ds.collection, None, &budget);
        let blocks = purge_by_comparison_level(blocks, smoothing);
        let filtered = backend.filter_blocks(blocks, ratio);
        assert!(!filtered.is_empty(), "{}", backend.name());
        let metrics = ctx.metrics();
        assert_eq!(metrics.total_shuffle_records(), 0, "{}", backend.name());
        let names: Vec<&str> = metrics.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(
            names.contains(&"tokenize_intern") && names.contains(&"remap_token_ids"),
            "{}: kernel stages missing from {names:?}",
            backend.name()
        );
    }
}

/// A whole scaling-config run on the pool backends tokenizes once and
/// shuffles nothing, and the matcher adopts the blocker's token lists
/// instead of running the kernel again.
#[test]
fn pool_pipeline_tokenizes_once_and_shuffles_nothing() {
    let ds = dataset(300, 11, true);
    let pipeline = Pipeline::new(PipelineConfig::scaling());
    let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    for make in [ExecutionBackend::Pool, ExecutionBackend::FusedPool] {
        let ctx = Context::new(2);
        let backend = make(ctx.clone());
        let run = pipeline.run_on(&backend, &ds.collection);
        assert_eq!(run.clusters, reference.clusters, "{}", backend.name());
        assert_eq!(run.similarity, reference.similarity, "{}", backend.name());
        let metrics = ctx.metrics();
        assert_eq!(metrics.total_shuffle_records(), 0, "{}", backend.name());
        let kernel_runs = metrics
            .stages
            .iter()
            .filter(|s| s.name == "tokenize_intern")
            .count();
        assert_eq!(kernel_runs, 1, "{}", backend.name());
    }
}
