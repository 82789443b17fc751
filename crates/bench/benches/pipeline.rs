//! Criterion benches for the end-to-end pipeline (experiment E9's cost
//! side): full runs under the schema-agnostic and Blast configurations,
//! the per-module split, and the `pipeline_10k` worker-scaling group for
//! the pool-parallel pipeline (matcher + clusterer on the persistent pool),
//! plus `profiles/load-jsonl`, the JSON-lines loading that precedes a CLI
//! run.
//!
//! Run with `BENCH_JSON=BENCH_pipeline.json cargo bench -p sparker-bench
//! --bench pipeline` to dump every measurement as JSON.
//!
//! Note on the scaling numbers: wall-clock cannot speed up on a
//! single-core host, so alongside each wall time the `pipeline_10k` group
//! records per-stage **critical paths** (the slowest worker slot's busy
//! time, the wall-clock lower bound on a one-core-per-worker machine) from
//! the engine's own stage metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparker_bench::{abt_buy_like, skewed_dirty};
use sparker_core::{
    BlockingConfig, ExecutionBackend, Pipeline, PipelineConfig, PipelineReport, PipelineStage,
};
use sparker_dataflow::{Context, MetricsSnapshot};
use sparker_datasets::{export_dataset, ExportFormat, Preset};
use sparker_matching::{CandidateGraph, ScoringMode, SimilarityMeasure, ThresholdMatcher};
use sparker_profiles::{profiles_from_json_lines, SourceId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_full_pipeline(c: &mut Criterion) {
    let ds = abt_buy_like(400);
    let mut group = c.benchmark_group("pipeline/full");
    group.sample_size(10);
    for (name, blocking) in [
        ("schema-agnostic", BlockingConfig::default()),
        ("blast", BlockingConfig::blast()),
    ] {
        let pipeline = Pipeline::new(PipelineConfig {
            blocking,
            ..PipelineConfig::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(name), &pipeline, |b, p| {
            b.iter(|| p.run(black_box(&ds.collection)))
        });
    }
    group.finish();
}

fn bench_blocker_only(c: &mut Criterion) {
    let ds = abt_buy_like(400);
    let pipeline = Pipeline::new(PipelineConfig::default());
    let mut group = c.benchmark_group("pipeline/blocker");
    group.sample_size(20);
    group.bench_function("default", |b| {
        b.iter(|| pipeline.run_blocker(black_box(&ds.collection)))
    });
    group.finish();
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `profiles/load-jsonl`: the JSON-lines loader on the `dirty_10k` and
/// `dirty_100k` presets as the exporter writes them, from text in memory to
/// profiles (reading the file is not timed).
fn bench_load_jsonl(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiles/load-jsonl");
    group.sample_size(10);
    for name in ["dirty_10k", "dirty_100k"] {
        let ds = Preset::by_name(name).expect("known preset").generate();
        let dir = std::env::temp_dir().join(format!(
            "sparker-bench-load-jsonl-{}-{name}",
            std::process::id()
        ));
        let files = export_dataset(&ds, &dir, ExportFormat::JsonLines).expect("export preset");
        let text = std::fs::read_to_string(&files.sources[0]).expect("read exported preset");
        std::fs::remove_dir_all(&dir).ok();
        group.bench_with_input(BenchmarkId::from_parameter(name), &text, |b, text| {
            b.iter(|| {
                profiles_from_json_lines(black_box(text), SourceId(0), "id")
                    .expect("exported presets load")
            })
        });
    }
    group.finish();
}

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty())
}

/// Summed critical path of every engine operator stage submitted inside
/// the named pipeline stage scope. Operator stages are attributed to the
/// `pipeline/<scope>` marker that *follows* them in the metrics stream
/// (the scope appends its marker at `finish`).
fn scope_critical_path(snap: &MetricsSnapshot, scope: &str) -> Duration {
    let mut acc = Duration::ZERO;
    let mut total = Duration::ZERO;
    for stage in &snap.stages {
        if let Some(name) = stage.name.strip_prefix("pipeline/") {
            if name == scope {
                total += acc;
            }
            acc = Duration::ZERO;
        } else {
            acc += stage.critical_path();
        }
    }
    total
}

/// Driver-serial time of the prune→score region: stage wall minus engine
/// busy, summed over the two stage rows. This is the slice of the region's
/// latency no worker count can overlap — on the staged path it holds the
/// global candidate sort and the CSR candidate-graph build, both of which
/// the fused path eliminates. The region's modeled latency on a
/// one-core-per-worker machine is this plus its engine critical path.
fn prune_score_driver_serial(report: &PipelineReport) -> Duration {
    report
        .stages
        .iter()
        .filter(|s| {
            matches!(
                s.stage,
                PipelineStage::PruneCandidates | PipelineStage::ScorePairs
            )
        })
        .map(|s| s.wall.saturating_sub(s.busy))
        .sum()
}

/// Worker-scaling of the pool-parallel pipeline on the skewed 10k-profile
/// preset (5k entities × dirty duplication). Wall times go through the
/// normal sample loop; a separate instrumented run per worker count exports
/// the matcher and clusterer stage critical paths, their combination (the
/// headline matcher+clusterer scaling number), and the step-timing split,
/// plus the sequential pipeline's step timings as the baseline.
fn bench_pipeline_scaling(c: &mut Criterion) {
    // 10k profiles in the real run; a few hundred under BENCH_SMOKE so CI
    // exercises the exporter without paying the full workload.
    let ds = if smoke() {
        skewed_dirty(200)
    } else {
        skewed_dirty(5_000)
    };
    let pipeline = Pipeline::new(PipelineConfig::default());

    let mut group = c.benchmark_group("pipeline_10k");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| pipeline.run(black_box(&ds.collection)))
    });
    for workers in WORKER_COUNTS {
        let ctx = Context::new(workers);
        group.bench_function(BenchmarkId::new("pool", workers), |b| {
            b.iter(|| pipeline.run_pipeline_parallel(&ctx, black_box(&ds.collection)))
        });
    }
    for workers in WORKER_COUNTS {
        let backend = ExecutionBackend::fused(workers);
        group.bench_function(BenchmarkId::new("fused", workers), |b| {
            b.iter(|| pipeline.run_on(&backend, black_box(&ds.collection)))
        });
    }
    group.finish();

    // Instrumented runs: per-stage critical paths out of the engine metrics
    // + the pipeline's own step-timing split.
    let mut candidate_cps: Vec<(usize, Duration)> = Vec::new();
    let mut pool_total_cps: Vec<(usize, Duration)> = Vec::new();
    let mut pool_modeled: Vec<(usize, Duration)> = Vec::new();
    for workers in WORKER_COUNTS {
        let ctx = Context::new(workers);
        ctx.reset_metrics();
        let result = pipeline.run_pipeline_parallel(&ctx, &ds.collection);
        let snap = ctx.metrics();
        let prefix = format!("pipeline_10k/pool/{workers}");
        let mut matcher = Duration::ZERO;
        let mut clusterer = Duration::ZERO;
        for stage in &snap.stages {
            match stage.name.as_str() {
                "match_candidates" => matcher += stage.critical_path(),
                "cluster_components" => clusterer += stage.critical_path(),
                _ => {}
            }
        }
        let candidates_cp = scope_critical_path(&snap, "prune_candidates");
        candidate_cps.push((workers, candidates_cp));
        c.record(
            format!("{prefix}/candidates/critical-path"),
            1,
            candidates_cp,
        );
        c.record(format!("{prefix}/matcher/critical-path"), 1, matcher);
        c.record(format!("{prefix}/clusterer/critical-path"), 1, clusterer);
        c.record(
            format!("{prefix}/matcher+clusterer/critical-path"),
            1,
            matcher + clusterer,
        );
        let total_cp = snap.total_critical_path();
        pool_total_cps.push((workers, total_cp));
        c.record(format!("{prefix}/total/critical-path"), 1, total_cp);
        let modeled = prune_score_driver_serial(&result.report) + candidates_cp + matcher;
        pool_modeled.push((workers, modeled));
        c.record(format!("{prefix}/prune+score/modeled-latency"), 1, modeled);
        c.record(
            format!("{prefix}/step/blocking"),
            1,
            result.timings.blocking,
        );
        c.record(
            format!("{prefix}/step/candidates"),
            1,
            result.timings.candidates,
        );
        c.record(
            format!("{prefix}/step/matching"),
            1,
            result.timings.matching,
        );
        c.record(
            format!("{prefix}/step/clustering"),
            1,
            result.timings.clustering,
        );
    }
    // The candidates step must actually scale now that its degree pass
    // runs node-parallel instead of serially on the driver: its engine
    // critical path (max per-worker-slot busy time — the wall-clock lower
    // bound with one core per worker) has to shrink from 1 to 4 workers.
    let cp = |w: usize| {
        candidate_cps
            .iter()
            .find(|(ws, _)| *ws == w)
            .expect("worker count benched")
            .1
    };
    assert!(
        cp(4) < cp(1),
        "candidates critical path did not scale: 1 worker {:?} vs 4 workers {:?}",
        cp(1),
        cp(4),
    );

    // Instrumented fused runs: the fused batch overlaps the pruning and
    // matching critical paths, so its headline number is the *total*
    // critical path against the staged pool at the same worker count. The
    // fused stage's busy/wall ratio is the measured overlap (busy ≫ wall
    // means pruning and scoring genuinely ran concurrently), exported as a
    // `value` row alongside the speedup ratio.
    for workers in WORKER_COUNTS {
        let backend = ExecutionBackend::fused(workers);
        let ctx = backend.context().unwrap();
        ctx.reset_metrics();
        let result = pipeline.run_on(&backend, &ds.collection);
        let snap = ctx.metrics();
        let prefix = format!("pipeline_10k/fused/{workers}");
        let total_cp = snap.total_critical_path();
        c.record(format!("{prefix}/total/critical-path"), 1, total_cp);
        if let Some(stage) = snap.stages.iter().find(|s| s.name == "fused_prune_score") {
            c.record(format!("{prefix}/fused-stage/wall"), 1, stage.wall_time);
            c.record(format!("{prefix}/fused-stage/busy"), 1, stage.busy_time);
            c.record(
                format!("{prefix}/fused-stage/queue-wait"),
                1,
                stage.queue_wait,
            );
            c.record(
                format!("{prefix}/fused-stage/critical-path"),
                1,
                stage.critical_path(),
            );
            c.record_value(
                format!("{prefix}/fused-stage/overlap"),
                stage.busy_time.as_secs_f64() / stage.wall_time.as_secs_f64().max(1e-9),
            );
        }
        let pool_cp = pool_total_cps
            .iter()
            .find(|(w, _)| *w == workers)
            .expect("worker count benched")
            .1;
        let speedup = pool_cp.as_secs_f64() / total_cp.as_secs_f64().max(1e-9);
        c.record_value(format!("{prefix}/speedup_vs_pool_total_cp"), speedup);
        // Modeled prune→score latency: engine critical paths alone are
        // work-conserving (the fused stage runs at its busy/workers floor,
        // so fusing two balanced stages barely moves their CP sum) — the
        // fused win is the *driver-serial* time it deletes: the staged
        // path's global candidate sort and CSR build. Wall minus busy per
        // stage plus the region's engine CP is the latency a
        // one-core-per-worker host would observe for the region.
        let region_cp = scope_critical_path(&snap, "prune_candidates")
            + scope_critical_path(&snap, "score_pairs");
        let modeled = prune_score_driver_serial(&result.report) + region_cp;
        c.record(format!("{prefix}/prune+score/modeled-latency"), 1, modeled);
        let pool_region = pool_modeled
            .iter()
            .find(|(w, _)| *w == workers)
            .expect("worker count benched")
            .1;
        let region_speedup = pool_region.as_secs_f64() / modeled.as_secs_f64().max(1e-9);
        c.record_value(
            format!("{prefix}/prune+score/modeled-speedup-vs-pool"),
            region_speedup,
        );
        eprintln!(
            "pipeline_10k/fused/{workers}: total critical path {total_cp:?} \
             vs pool {pool_cp:?} ({speedup:.2}x); prune+score modeled latency \
             {modeled:?} vs pool {pool_region:?} ({region_speedup:.2}x)"
        );
        c.record(
            format!("{prefix}/step/candidates"),
            1,
            result.timings.candidates,
        );
        c.record(
            format!("{prefix}/step/matching"),
            1,
            result.timings.matching,
        );
    }

    let seq = pipeline.run(&ds.collection);
    c.record(
        "pipeline_10k/sequential/step/blocking",
        1,
        seq.timings.blocking,
    );
    c.record(
        "pipeline_10k/sequential/step/candidates",
        1,
        seq.timings.candidates,
    );
    c.record(
        "pipeline_10k/sequential/step/matching",
        1,
        seq.timings.matching,
    );
    c.record(
        "pipeline_10k/sequential/step/clustering",
        1,
        seq.timings.clustering,
    );
    c.record(
        "pipeline_10k/sequential/matcher+clusterer/wall",
        1,
        seq.timings.matching + seq.timings.clustering,
    );
}

/// Filter–verify cascade vs the naive score-everything matcher on the
/// pool matcher at one worker, per similarity measure at the default
/// threshold: the wall ratio is the cascade's speedup on the matcher
/// critical path. A second instrumented pass exports the cascade's filter
/// statistics — how many pairs each tier disposed of (bound-rejected
/// without any token comparison, abandoned mid-kernel, fully verified,
/// kept) — as count entries whose `samples` field carries the count and
/// whose duration is zero.
fn bench_matcher_kernels(c: &mut Criterion) {
    // Smaller than the scaling preset: the edit-based naive kernels are
    // quadratic per pair, and every measure runs in both modes.
    let ds = if smoke() {
        skewed_dirty(200)
    } else {
        skewed_dirty(600)
    };
    let pipeline = Pipeline::new(PipelineConfig::default());
    let blocker = pipeline.run_blocker(&ds.collection);
    let graph = Arc::new(CandidateGraph::from_pairs(
        ds.collection.len(),
        blocker.candidates.iter().copied(),
    ));
    let threshold = PipelineConfig::default().matching.threshold;
    let ctx = Context::new(1);

    let mut group = c.benchmark_group("matcher_kernels");
    group.sample_size(3);
    for measure in SimilarityMeasure::ALL {
        for (mode_name, mode) in [
            ("naive", ScoringMode::Naive),
            ("cascade", ScoringMode::Cascade),
        ] {
            let matcher = ThresholdMatcher::with_mode(measure, threshold, mode);
            group.bench_with_input(
                BenchmarkId::new(measure.name(), mode_name),
                &matcher,
                |b, m| b.iter(|| m.match_candidates_pool(&ctx, black_box(&ds.collection), &graph)),
            );
        }
    }
    group.finish();

    for measure in SimilarityMeasure::ALL {
        let matcher = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Cascade);
        let (_, stats) = matcher.match_candidates_pool_stats(&ctx, &ds.collection, &graph);
        let prefix = format!("matcher_kernels/{}/filter", measure.name());
        for (name, count) in [
            ("pairs", stats.pairs),
            ("bound-rejected", stats.bound_rejected),
            ("abandoned", stats.abandoned),
            ("verified", stats.verified),
            ("kept", stats.kept),
        ] {
            c.record(format!("{prefix}/{name}"), count as usize, Duration::ZERO);
        }
    }
}

/// One instrumented `Pipeline::run_on` per execution backend, exporting
/// each run's structured `PipelineReport`: per-stage wall and busy time go
/// into the criterion measurement stream (so `BENCH_JSON` carries them),
/// and the raw report JSON documents land in the file named by the
/// `PIPELINE_REPORT_JSON` env var (one JSON array entry per backend —
/// `scripts/bench.sh` points it at `results/pipeline_reports.json`; the
/// schema is documented in the README).
fn bench_backend_reports(c: &mut Criterion) {
    let ds = if smoke() {
        skewed_dirty(200)
    } else {
        skewed_dirty(5_000)
    };
    let pipeline = Pipeline::new(PipelineConfig::default());
    let workers = 4;
    let backends = [
        ExecutionBackend::Sequential,
        ExecutionBackend::dataflow(workers),
        ExecutionBackend::pool(workers),
        ExecutionBackend::fused(workers),
    ];

    let mut reports = Vec::new();
    for backend in &backends {
        let result = pipeline.run_on(backend, &ds.collection);
        let report = &result.report;
        let prefix = format!("pipeline_report/{}/{}", report.backend, report.workers);
        for stage in &report.stages {
            c.record(
                format!("{prefix}/{}/wall", stage.stage.name()),
                1,
                stage.wall,
            );
            c.record(
                format!("{prefix}/{}/busy", stage.stage.name()),
                1,
                stage.busy,
            );
            c.record(
                format!("{prefix}/{}/queue-wait", stage.stage.name()),
                1,
                stage.queue_wait,
            );
        }
        c.record(format!("{prefix}/total/wall"), 1, report.total_wall());
        reports.push(report.to_json());
    }

    if let Ok(path) = std::env::var("PIPELINE_REPORT_JSON") {
        let json = format!("[\n{}\n]\n", reports.join(",\n"));
        std::fs::write(&path, json).expect("write PIPELINE_REPORT_JSON");
    }
}

criterion_group!(
    benches,
    bench_full_pipeline,
    bench_blocker_only,
    bench_pipeline_scaling,
    bench_matcher_kernels,
    bench_backend_reports,
    bench_load_jsonl
);
criterion_main!(benches);
