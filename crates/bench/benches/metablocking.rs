//! Criterion benches for meta-blocking: per weighting scheme, per pruning
//! strategy, the broadcast-join parallel implementation vs the sequential
//! driver (the ablations behind experiments E7/E8), pool worker scaling
//! on Zipf-skewed and uniform graphs, with per-worker busy times recorded
//! so the balance of the degree-cut morsels is visible, not asserted, and
//! the node-pass kernel's two halves on a clean–clean Blast graph.
//!
//! Run with `BENCH_JSON=BENCH_metablocking.json cargo bench -p
//! sparker-bench --bench metablocking` to dump every measurement as JSON.
//!
//! Note on the scaling numbers: wall-clock cannot speed up on a
//! single-core host, so alongside each wall time the bench records the
//! schedule's **critical path** (the slowest worker slot's busy time, the
//! wall-clock lower bound on a one-core-per-worker machine) and the full
//! per-worker busy spread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparker_bench::{abt_buy_like, skewed_dirty, uniform_dirty};
use sparker_blocking::{block_filtering, keyed_blocking, purge_oversized, token_blocking};
use sparker_dataflow::Context;
use sparker_looseschema::{loose_schema_keys, partition_attributes, LshConfig};
use sparker_metablocking::{
    block_entropies, meta_blocking_graph, parallel, BlockGraph, EdgeScorer, MetaBlockingConfig,
    PruningStrategy, StreamingMetaBlocking, WeightScheme,
};
use std::hint::black_box;
use std::sync::Arc;

fn graph() -> Arc<BlockGraph> {
    let ds = abt_buy_like(600);
    let blocks = purge_oversized(token_blocking(&ds.collection), ds.collection.len(), 0.5);
    let blocks = block_filtering(blocks, 0.8);
    Arc::new(BlockGraph::new(&blocks, None))
}

/// Graph for the worker-scaling benches: the standard purge + block-filtering
/// pipeline over [`skewed_dirty`] / [`uniform_dirty`]. Purging kills the
/// monster blocks (universal stop tokens and the top-rank hot blocks);
/// filtering keeps each profile's smallest blocks, which drains the tail's
/// background degree while hub profiles keep their dozens of mid-size hot
/// blocks. The surviving graph concentrates ~3/4 of the edge work in the
/// contiguous low-id hub — exactly the shape equal-count contiguous
/// partitioning would handle worst.
fn scaling_graph(skewed: bool) -> Arc<BlockGraph> {
    let ds = if skewed {
        skewed_dirty(3000)
    } else {
        uniform_dirty(3000)
    };
    let blocks = purge_oversized(token_blocking(&ds.collection), ds.collection.len(), 0.05);
    let blocks = block_filtering(blocks, 0.25);
    Arc::new(BlockGraph::new(&blocks, None))
}

fn bench_weight_schemes(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("metablocking/scheme");
    for scheme in WeightScheme::ALL {
        let config = MetaBlockingConfig {
            scorer: EdgeScorer::Classic(scheme),
            pruning: PruningStrategy::Wnp {
                factor: 1.0,
                reciprocal: false,
            },
            use_entropy: false,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &config,
            |b, cfg| b.iter(|| meta_blocking_graph(black_box(&g), cfg)),
        );
    }
    group.finish();
}

fn bench_pruning_strategies(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("metablocking/pruning");
    for pruning in [
        PruningStrategy::Wep { factor: 1.0 },
        PruningStrategy::Cep { retain: None },
        PruningStrategy::Wnp {
            factor: 1.0,
            reciprocal: false,
        },
        PruningStrategy::Cnp {
            k: None,
            reciprocal: false,
        },
        PruningStrategy::Blast { ratio: 0.35 },
    ] {
        let config = MetaBlockingConfig {
            scorer: EdgeScorer::Classic(WeightScheme::Cbs),
            pruning,
            use_entropy: false,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(pruning.name()),
            &config,
            |b, cfg| b.iter(|| meta_blocking_graph(black_box(&g), cfg)),
        );
    }
    group.finish();
}

fn bench_parallel_vs_sequential(c: &mut Criterion) {
    let g = graph();
    let config = MetaBlockingConfig::default();
    let mut group = c.benchmark_group("metablocking/parallelism");
    group.bench_function("sequential", |b| {
        b.iter(|| meta_blocking_graph(black_box(&g), &config))
    });
    for workers in [1usize, 2, 4] {
        let ctx = Context::new(workers);
        group.bench_with_input(
            BenchmarkId::new("broadcast-join", workers),
            &ctx,
            |b, ctx| b.iter(|| parallel::meta_blocking(ctx, black_box(&g), &config)),
        );
    }
    group.finish();
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Pool worker scaling of [`parallel::meta_blocking`] at 1/2/4/8 workers,
/// on a Zipf-skewed and a uniform graph. Wall times go through the normal
/// sample loop; a separate instrumented run per worker count exports the
/// critical path and the per-worker busy spread from the engine's own
/// stage metrics.
fn bench_worker_scaling(c: &mut Criterion) {
    let config = MetaBlockingConfig::default();
    for (kind, g) in [
        ("zipf", scaling_graph(true)),
        ("uniform", scaling_graph(false)),
    ] {
        let mut group = c.benchmark_group(format!("metablocking/worker-scaling/{kind}"));
        group.sample_size(8);
        for workers in WORKER_COUNTS {
            let ctx = Context::new(workers);
            group.bench_function(BenchmarkId::new("pool", workers), |b| {
                b.iter(|| parallel::meta_blocking(&ctx, black_box(&g), &config))
            });
        }
        group.finish();
        for workers in WORKER_COUNTS {
            let ctx = Context::new(workers);
            ctx.reset_metrics();
            let _ = parallel::meta_blocking(&ctx, &g, &config);
            let snap = ctx.metrics();
            let prefix = format!("metablocking/worker-scaling/{kind}/pool/{workers}");
            c.record(
                format!("{prefix}/critical-path"),
                1,
                snap.total_critical_path(),
            );
            for (slot, busy) in snap.stage_worker_busy().iter().enumerate() {
                c.record(format!("{prefix}/busy-worker-{slot}"), 1, *busy);
            }
        }
    }
}

/// The Blast graph of the pipeline: loose-schema keyed blocking over a
/// clean–clean products dataset, purged and filtered as
/// `BlockingConfig::blast()` does, with per-block entropies.
fn blast_clean_clean_graph() -> Arc<BlockGraph> {
    let ds = abt_buy_like(1500);
    let parts = partition_attributes(&ds.collection, &LshConfig::default());
    let blocks = keyed_blocking(&ds.collection, |p| loose_schema_keys(p, &parts));
    let blocks = block_filtering(purge_oversized(blocks, ds.collection.len(), 0.5), 0.8);
    let entropies = block_entropies(&blocks, &parts);
    Arc::new(BlockGraph::new(&blocks, Some(&entropies)))
}

/// The node-pass kernel's halves under the Blast configuration on a
/// clean–clean graph — the shape where dense neighborhoods, forward-only
/// pass B and the χ² table matter: pass A (`prepare`) at 1 and 2 workers,
/// pass B sequentially (`prune_all`) and on the pool (`prune_pool`) at 1
/// and 2 workers.
fn bench_blast_clean_clean(c: &mut Criterion) {
    let g = blast_clean_clean_graph();
    let config = MetaBlockingConfig::blast();
    let mut group = c.benchmark_group("metablocking/blast-clean-clean");
    group.sample_size(10);
    for workers in [1usize, 2] {
        let ctx = Context::new(workers);
        group.bench_function(BenchmarkId::new("pass-a", workers), |b| {
            b.iter(|| StreamingMetaBlocking::prepare(&ctx, black_box(&g), &config))
        });
    }
    let stream = StreamingMetaBlocking::prepare(&Context::new(1), &g, &config);
    group.bench_function("pass-b/sequential", |b| {
        b.iter(|| black_box(&stream).prune_all())
    });
    for workers in [1usize, 2] {
        let ctx = Context::new(workers);
        group.bench_function(BenchmarkId::new("pass-b", workers), |b| {
            b.iter(|| black_box(&stream).prune_pool(&ctx))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_weight_schemes,
    bench_pruning_strategies,
    bench_parallel_vs_sequential,
    bench_worker_scaling,
    bench_blast_clean_clean
);
criterion_main!(benches);
