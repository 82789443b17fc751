//! Batch workloads: untraced timed runs (one process per timed run) and
//! the traced layer-by-layer run.

use crate::report::RunReport;
use crate::trace::Tracer;
use crate::workload::{load_collection, read_ground_truth, write_batch_input, Workload};
use crate::Env;
use sparker_blocking::{purge_by_comparison_level, purge_oversized, BlockCollection};
use sparker_clustering::EntityClusters;
use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig, PipelineResult, PurgeConfig};
use sparker_dataflow::{MemBudget, MetricsSnapshot};
use sparker_looseschema::{partition_attributes, AttributePartitioning};
use sparker_matching::{
    CandidateGraph, FilterStats, PreparedProfile, SimilarityGraph, ThresholdMatcher,
};
use sparker_metablocking::{
    block_entropies, BlockEntropies, BlockGraph, MetaBlockingConfig, StreamingMetaBlocking,
};
use sparker_profiles::{parse_json, GroundTruth, JsonValue, Pair, ProfileCollection, ProfileId};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// What the output gate compares between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub candidates: u64,
    pub matches: u64,
    pub entities: u64,
    /// FNV-1a over every profile's cluster label, in profile-id order.
    pub checksum: u64,
    pub recall: f64,
    pub f1: f64,
}

impl Outcome {
    pub fn of(result: &PipelineResult, collection: &ProfileCollection, gt: &GroundTruth) -> Self {
        let eval = result.evaluate(gt);
        Outcome {
            candidates: result.blocker.candidates.len() as u64,
            matches: result.similarity.len() as u64,
            entities: result.clusters.num_clusters() as u64,
            checksum: cluster_checksum(&result.clusters, collection.len()),
            recall: eval.blocking.recall,
            f1: eval.clustering.f1,
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut m = BTreeMap::new();
        let num = |v: u64| JsonValue::Number(v as f64);
        m.insert("candidates".to_string(), num(self.candidates));
        m.insert("matches".to_string(), num(self.matches));
        m.insert("entities".to_string(), num(self.entities));
        m.insert(
            "checksum".to_string(),
            JsonValue::String(format!("{:016x}", self.checksum)),
        );
        m.insert("recall".to_string(), JsonValue::Number(self.recall));
        m.insert("f1".to_string(), JsonValue::Number(self.f1));
        JsonValue::Object(m)
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        let JsonValue::Object(m) = v else { return None };
        let num = |k: &str| match m.get(k) {
            Some(JsonValue::Number(n)) => Some(*n),
            _ => None,
        };
        let checksum = match m.get("checksum") {
            Some(JsonValue::String(s)) => u64::from_str_radix(s, 16).ok()?,
            _ => return None,
        };
        Some(Outcome {
            candidates: num("candidates")? as u64,
            matches: num("matches")? as u64,
            entities: num("entities")? as u64,
            checksum,
            recall: num("recall")?,
            f1: num("f1")?,
        })
    }

    /// What must be identical across backends: counts and cluster checksum.
    pub fn key(&self) -> OutcomeKey {
        OutcomeKey {
            candidates: self.candidates,
            matches: self.matches,
            entities: self.entities,
            checksum: self.checksum,
        }
    }

    pub fn counts(&self) -> String {
        format!(
            "candidates={} matches={} entities={} checksum={:016x}",
            self.candidates, self.matches, self.entities, self.checksum
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeKey {
    candidates: u64,
    matches: u64,
    entities: u64,
    checksum: u64,
}

fn cluster_checksum(clusters: &EntityClusters, n: usize) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for i in 0..n {
        for byte in clusters.cluster_of(ProfileId(i as u32)).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The backend the CLI runs by default: the pool engine at one worker per
/// available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `perfbench child`: load the input, run the pipeline on one backend
/// ([`Workload::runs_per_process`] times) and print one JSON line with the
/// timings, peak RSS and outcome.
pub fn child_main(workload: Workload, backend: &str, dir: &Path) -> Result<(), String> {
    let started = Instant::now();
    let collection = load_collection(dir)?;
    let load_s = started.elapsed().as_secs_f64();
    let gt = read_ground_truth(&dir.join("truth.txt"))?;
    let backend = ExecutionBackend::parse(backend, workers())?;
    let pipeline = Pipeline::new(workload.config());
    let mut walls = Vec::new();
    let mut outcome: Option<Outcome> = None;
    for _ in 0..workload.runs_per_process() {
        let started = Instant::now();
        let result = pipeline.run_on(&backend, &collection);
        walls.push(started.elapsed().as_secs_f64());
        let o = Outcome::of(&result, &collection, &gt);
        if *outcome.get_or_insert_with(|| o.clone()) != o {
            return Err(format!("repeated runs disagree: {}", o.counts()));
        }
    }
    let wall_s = crate::stats::median(&walls);
    let outcome = outcome.expect("at least one run");
    let mut m = BTreeMap::new();
    m.insert("load_s".to_string(), JsonValue::Number(load_s));
    m.insert("wall_s".to_string(), JsonValue::Number(wall_s));
    m.insert(
        "peak_rss_mb".to_string(),
        JsonValue::Number(MemBudget::peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
    );
    m.insert("outcome".to_string(), outcome.to_json());
    println!("{}", JsonValue::Object(m));
    Ok(())
}

/// One child process's measurements.
pub struct ChildRun {
    pub load_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub outcome: Outcome,
}

/// Run the pipeline once on `backend` in a fresh process.
pub fn spawn_child(
    env: &Env,
    workload: Workload,
    backend: &str,
    dir: &Path,
) -> Result<ChildRun, String> {
    let out = Command::new(&env.self_exe)
        .args([
            "child",
            "--workload",
            workload.name(),
            "--backend",
            backend,
            "--input",
        ])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{backend} child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let v = parse_json(line).map_err(|e| format!("child output {line:?}: {e}"))?;
    let JsonValue::Object(m) = &v else {
        return Err(format!("child output {line:?} is not an object"));
    };
    let num = |k: &str| match m.get(k) {
        Some(JsonValue::Number(n)) => Ok(*n),
        _ => Err(format!("child output lacks {k}")),
    };
    Ok(ChildRun {
        load_s: num("load_s")?,
        wall_s: num("wall_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        outcome: m
            .get("outcome")
            .and_then(Outcome::from_json)
            .ok_or("child output lacks outcome")?,
    })
}

/// Generate the workload's input for `seed` under the work directory.
pub fn prepare_input(
    env: &Env,
    workload: Workload,
    seed: u64,
) -> Result<std::path::PathBuf, String> {
    let dir = env.workdir.join(format!("{}-{seed}", workload.name()));
    let ds = workload.batch_dataset(seed);
    write_batch_input(&ds, &dir).map_err(|e| format!("writing input: {e}"))?;
    Ok(dir)
}

/// Backends every batch run checks against the sequential reference.
const GATE_BACKENDS: [&str; 2] = ["fused", "dataflow"];

/// Timed, untraced runs: alternate sequential and pool processes until
/// `seconds` have passed, then run the other backends once; every process's
/// outcome must equal the first sequential one.
pub fn run_timed(
    env: &Env,
    workload: Workload,
    dir: &Path,
    seconds: f64,
    report: &mut RunReport,
) -> Result<(), String> {
    let started = Instant::now();
    let mut reference: Option<Outcome> = None;
    let (mut setup, mut seq, mut pool, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut check = |report: &mut RunReport, backend: &str, run: &ChildRun| {
        let reference = reference.get_or_insert_with(|| run.outcome.clone());
        report.check(run.outcome == *reference, || {
            format!(
                "{backend}: {} vs sequential {}",
                run.outcome.counts(),
                reference.counts()
            )
        });
    };
    while seq.is_empty() || started.elapsed().as_secs_f64() < seconds {
        for backend in ["sequential", "pool"] {
            let run = spawn_child(env, workload, backend, dir)?;
            check(report, backend, &run);
            setup.push(run.load_s);
            if backend == "pool" {
                pool.push(run.wall_s);
                rss.push(run.peak_rss_mb);
            } else {
                seq.push(run.wall_s);
            }
        }
    }
    for backend in GATE_BACKENDS {
        let run = spawn_child(env, workload, backend, dir)?;
        check(report, backend, &run);
    }
    let reference = reference.expect("at least one run");
    report.median("setup_s", "s", &setup);
    report.median("wall_s", "s", &pool);
    report.median("wall_seq_s", "s", &seq);
    report.median("peak_rss_mb", "MiB", &rss);
    report.value("candidate_recall", "ratio", reference.recall);
    report.value("cluster_f1", "ratio", reference.f1);
    report.note(format!("result counts: {}", reference.counts()));
    Ok(())
}

/// Per-block entropies exactly as the pipeline driver derives them.
fn entropies_for(
    mb: &MetaBlockingConfig,
    partitioning: Option<&AttributePartitioning>,
    blocks: &BlockCollection,
    collection: &ProfileCollection,
) -> Option<BlockEntropies> {
    if !mb.use_entropy {
        return None;
    }
    Some(match partitioning {
        Some(parts) => block_entropies(blocks, parts),
        None => block_entropies(blocks, &AttributePartitioning::manual(collection, vec![])),
    })
}

/// Intermediate results of one traced run, kept for the sub-phase probes.
struct Tour {
    cleaned: BlockCollection,
    entropies: Option<BlockEntropies>,
    candidates: HashSet<Pair>,
    similarity: SimilarityGraph,
    clusters: EntityClusters,
}

/// The pipeline driver's five stages, called one layer at a time in
/// `Pipeline::run_on`'s order, each layer call inside its own span.
fn tour(
    t: &mut Tracer,
    tag: &str,
    backend: &ExecutionBackend,
    config: &PipelineConfig,
    c: &ProfileCollection,
) -> Tour {
    let budget = backend.budget();
    let bc = &config.blocking;
    let name = |layer: &str| format!("{layer}.{tag}");
    t.span(&name("run"), |t| {
        let (partitioning, blocks) = t.span(&name("stage.build_blocks"), |t| {
            let parts = bc.loose_schema.as_ref().map(|lsh| {
                t.span(&name("looseschema.partition_attributes"), |_| {
                    partition_attributes(c, lsh)
                })
            });
            let blocks = t.span(&name("blocking.build_blocks"), |_| {
                backend.build_blocks(c, parts.as_ref(), &budget)
            });
            (parts, blocks)
        });
        let cleaned = t.span(&name("stage.filter_blocks"), |t| {
            let blocks = t.span(&name("blocking.purge"), |_| match bc.purge {
                PurgeConfig::Off => blocks,
                PurgeConfig::Oversized { max_fraction } => {
                    purge_oversized(blocks, c.len(), max_fraction)
                }
                PurgeConfig::ComparisonLevel { smoothing } => {
                    purge_by_comparison_level(blocks, smoothing)
                }
            });
            match bc.filter_ratio {
                Some(ratio) => t.span(&name("blocking.filter_blocks"), |_| {
                    backend.filter_blocks(blocks, ratio)
                }),
                None => blocks,
            }
        });
        let (candidates, entropies) = t.span(&name("stage.prune_candidates"), |t| {
            match &bc.meta_blocking {
                None => (cleaned.candidate_pairs(), None),
                Some(mb) => {
                    let entropies = if mb.use_entropy {
                        t.span(&name("looseschema.block_entropies"), |_| {
                            entropies_for(mb, partitioning.as_ref(), &cleaned, c)
                        })
                    } else {
                        None
                    };
                    let retained = t.span(&name("metablocking.prune_candidates"), |_| {
                        backend.prune_candidates(&cleaned, entropies.as_ref(), mb, &budget)
                    });
                    let set: HashSet<Pair> = retained.iter().map(|(p, _)| *p).collect();
                    (set, entropies)
                }
            }
        });
        let similarity = t.span(&name("stage.score_pairs"), |t| {
            let matcher = ThresholdMatcher::new(config.matching.measure, config.matching.threshold);
            t.span(&name("matching.score_pairs"), |_| {
                backend.score_pairs(&matcher, c, &candidates, &budget)
            })
        });
        let clusters = t.span(&name("stage.cluster_edges"), |t| {
            t.span(&name("clustering.cluster_edges"), |_| {
                backend.cluster_edges(config.clustering, similarity.edges(), c)
            })
        });
        Tour {
            cleaned,
            entropies,
            candidates,
            similarity,
            clusters,
        }
    })
}

/// Ground-truth pairs that share at least one block of `blocks`.
fn gt_pairs_in_blocks(gt: &GroundTruth, blocks: &BlockCollection) -> usize {
    let index = blocks.profile_index();
    gt.iter()
        .filter(|p| {
            let a: HashSet<_> = index.blocks_of(p.first).iter().collect();
            index.blocks_of(p.second).iter().any(|b| a.contains(b))
        })
        .count()
}

/// Engine counters accumulated across one pool run's stage calls.
#[derive(Default)]
struct EngineDelta {
    busy_s: f64,
    queue_wait_s: f64,
    tasks: f64,
    shuffle_records: f64,
}

impl EngineDelta {
    fn of(snapshot: &MetricsSnapshot) -> Self {
        EngineDelta {
            busy_s: snapshot.total_busy_time().as_secs_f64(),
            queue_wait_s: snapshot.total_queue_wait().as_secs_f64(),
            tasks: snapshot.total_tasks() as f64,
            shuffle_records: snapshot.total_shuffle_records() as f64,
        }
    }
}

/// Samples of every per-layer metric of the batch layers, one per traced
/// iteration.
#[derive(Default)]
pub struct LayerSamples {
    samples: BTreeMap<&'static str, Vec<f64>>,
    units: BTreeMap<&'static str, &'static str>,
}

impl LayerSamples {
    /// The latest span called `span`, when the workload ran that call.
    fn span(&mut self, name: &'static str, t: &Tracer, span: &str) {
        if let Some(d) = last(t, span) {
            self.push(name, "s", d);
        }
    }

    fn push(&mut self, name: &'static str, unit: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
        self.units.insert(name, unit);
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn report_into(&self, report: &mut RunReport) {
        for (name, values) in &self.samples {
            report.median(name, self.units[name], values);
        }
    }
}

/// Duration of the latest span called `name`, if the workload ran it.
fn last(t: &Tracer, name: &str) -> Option<f64> {
    t.durations(name).last().copied()
}

/// One traced iteration over `collection`: a sequential and a pool run
/// called layer by layer, the sub-phase probes, and untraced `run_on`
/// calls on every backend for the tracing overhead and the driver's own
/// time. Every outcome is checked against `reference`.
pub fn traced_iteration(
    t: &mut Tracer,
    workload: Workload,
    collection: &ProfileCollection,
    gt: &GroundTruth,
    reference: &Outcome,
    samples: &mut LayerSamples,
    report: &mut RunReport,
) {
    let config = workload.config();
    let w = workers();
    let check = |report: &mut RunReport, what: &str, key: OutcomeKey| {
        report.check(key == reference.key(), || {
            format!("traced {what}: {key:?} vs {:?}", reference.key())
        });
    };
    let key_of = |tour: &Tour| OutcomeKey {
        candidates: tour.candidates.len() as u64,
        matches: tour.similarity.len() as u64,
        entities: tour.clusters.num_clusters() as u64,
        checksum: cluster_checksum(&tour.clusters, collection.len()),
    };

    // Sequential and pool, layer by layer.
    t.next_trace();
    let seq = tour(t, "seq", &ExecutionBackend::Sequential, &config, collection);
    check(report, "sequential", key_of(&seq));
    t.next_trace();
    let pool_backend = ExecutionBackend::pool(w);
    let ctx = pool_backend.context().expect("pool has a context").clone();
    let before = EngineDelta::of(&ctx.metrics());
    let pool = tour(t, "pool", &pool_backend, &config, collection);
    let after = EngineDelta::of(&ctx.metrics());
    check(report, "pool", key_of(&pool));

    // Sub-phases the backends' entry points run inside, called directly.
    t.next_trace();
    let budget = MemBudget::from_env();
    if config.blocking.loose_schema.is_none() {
        let (dict, compact) = t.span("blocking.tokenize_csr", |_| {
            sparker_blocking::token_blocking_with_dict_budgeted(collection, &budget)
        });
        t.span("blocking.materialize", |_| compact.materialize(&dict));
    }
    if let Some(mb) = &config.blocking.meta_blocking {
        let graph = t.span("metablocking.graph", |_| {
            Arc::new(BlockGraph::new_budgeted(
                &seq.cleaned,
                seq.entropies.as_ref(),
                &budget,
            ))
        });
        let stream = t.span("metablocking.pass_a", |_| {
            StreamingMetaBlocking::prepare(&ctx, &graph, mb)
        });
        let kept = t.span("metablocking.pass_b", |_| stream.prune_all()).len() as u64;
        report.check(kept == reference.candidates, || {
            format!(
                "streaming pass B kept {kept} pairs, pipeline {}",
                reference.candidates
            )
        });
    }
    t.span("matching.prepare_all", |_| {
        PreparedProfile::prepare_all(collection)
    });
    let matcher = ThresholdMatcher::new(config.matching.measure, config.matching.threshold);
    let (_, filter) = t.span("matching.pool_stats", |_| {
        let graph = Arc::new(CandidateGraph::from_pairs_budgeted(
            collection.len(),
            seq.candidates.iter().copied(),
            &budget,
        ));
        matcher.match_candidates_pool_stats(&ctx, collection, &graph)
    });
    let dataflow = ExecutionBackend::dataflow(w);
    t.span("clustering.cluster_edges.dataflow", |_| {
        dataflow.cluster_edges(config.clustering, seq.similarity.edges(), collection)
    });

    // Untraced runs on every backend.
    let pipeline = Pipeline::new(config.clone());
    let untraced = |backend: &ExecutionBackend| {
        let started = Instant::now();
        let result = pipeline.run_on(backend, collection);
        (started.elapsed().as_secs_f64(), result)
    };
    let (seq_wall, seq_result) = untraced(&ExecutionBackend::Sequential);
    check(
        report,
        "run_on sequential",
        Outcome::of(&seq_result, collection, gt).key(),
    );
    let (pool_wall, pool_result) = untraced(&ExecutionBackend::pool(w));
    check(
        report,
        "run_on pool",
        Outcome::of(&pool_result, collection, gt).key(),
    );
    let (fused_wall, fused_result) = untraced(&ExecutionBackend::fused(w));
    check(
        report,
        "run_on fused",
        Outcome::of(&fused_result, collection, gt).key(),
    );
    let (dataflow_wall, dataflow_result) = untraced(&ExecutionBackend::dataflow(w));
    check(
        report,
        "run_on dataflow",
        Outcome::of(&dataflow_result, collection, gt).key(),
    );

    let stages = [
        "build_blocks",
        "filter_blocks",
        "prune_candidates",
        "score_pairs",
        "cluster_edges",
    ];
    let top_level = |tag: &str| -> f64 {
        stages
            .iter()
            .filter_map(|s| last(t, &format!("stage.{s}.{tag}")))
            .sum()
    };
    let pool_layer_wall: f64 = [
        "blocking.build_blocks",
        "blocking.filter_blocks",
        "metablocking.prune_candidates",
        "matching.score_pairs",
        "clustering.cluster_edges",
    ]
    .iter()
    .filter_map(|l| last(t, &format!("{l}.pool")))
    .sum();

    let s = samples;
    s.span(
        "looseschema.partition_s",
        t,
        "looseschema.partition_attributes.seq",
    );
    s.span(
        "looseschema.entropy_s",
        t,
        "looseschema.block_entropies.seq",
    );
    s.span("blocking.tokenize_csr_s", t, "blocking.tokenize_csr");
    s.span("blocking.materialize_s", t, "blocking.materialize");
    s.span("blocking.build_s.seq", t, "blocking.build_blocks.seq");
    s.span("blocking.build_s.pool", t, "blocking.build_blocks.pool");
    s.span("blocking.purge_s", t, "blocking.purge.seq");
    s.span("blocking.filter_s.seq", t, "blocking.filter_blocks.seq");
    s.span("blocking.filter_s.pool", t, "blocking.filter_blocks.pool");
    s.push("blocking.blocks_out", "count", seq.cleaned.len() as f64);
    s.push(
        "blocking.comparisons_out",
        "count",
        seq.cleaned.total_comparisons() as f64,
    );
    s.span("metablocking.graph_s", t, "metablocking.graph");
    s.span("metablocking.pass_a_s", t, "metablocking.pass_a");
    s.span("metablocking.pass_b_s", t, "metablocking.pass_b");
    s.span(
        "metablocking.prune_s.seq",
        t,
        "metablocking.prune_candidates.seq",
    );
    s.span(
        "metablocking.prune_s.pool",
        t,
        "metablocking.prune_candidates.pool",
    );
    let comparisons = seq.cleaned.total_comparisons().max(1) as f64;
    s.push(
        "metablocking.retained_ratio",
        "ratio",
        seq.candidates.len() as f64 / comparisons,
    );
    let gt_in = gt_pairs_in_blocks(gt, &seq.cleaned).max(1) as f64;
    let gt_kept = gt.iter().filter(|p| seq.candidates.contains(p)).count() as f64;
    s.push("metablocking.gt_kept_ratio", "ratio", gt_kept / gt_in);
    s.span("matching.prepare_s", t, "matching.prepare_all");
    s.span("matching.score_s.seq", t, "matching.score_pairs.seq");
    s.span("matching.score_s.pool", t, "matching.score_pairs.pool");
    push_filter_stats(s, &filter);
    s.span("clustering.cc_s.seq", t, "clustering.cluster_edges.seq");
    s.span("clustering.cc_s.pool", t, "clustering.cluster_edges.pool");
    s.span(
        "clustering.cc_s.dataflow",
        t,
        "clustering.cluster_edges.dataflow",
    );
    s.push("dataflow.busy_s", "s", after.busy_s - before.busy_s);
    s.push(
        "dataflow.queue_wait_s",
        "s",
        after.queue_wait_s - before.queue_wait_s,
    );
    s.push("dataflow.tasks", "count", after.tasks - before.tasks);
    s.push(
        "dataflow.shuffle_records",
        "count",
        after.shuffle_records - before.shuffle_records,
    );
    s.push(
        "dataflow.utilization",
        "ratio",
        (after.busy_s - before.busy_s) / (pool_layer_wall * w as f64).max(1e-9),
    );
    let buffered = pool_result
        .report
        .stages
        .iter()
        .map(|st| st.buffered_bytes)
        .max()
        .unwrap_or(0);
    s.push(
        "dataflow.buffered_mb",
        "MiB",
        buffered as f64 / (1024.0 * 1024.0),
    );
    s.push(
        "core.driver_s",
        "s",
        pool_wall - pool_result.report.total_wall().as_secs_f64(),
    );
    s.push("core.wall_s.fused", "s", fused_wall);
    s.push("core.wall_s.dataflow", "s", dataflow_wall);
    s.push(
        "trace.overhead_ratio.seq",
        "ratio",
        top_level("seq") / seq_wall,
    );
    s.push(
        "trace.overhead_ratio.pool",
        "ratio",
        top_level("pool") / pool_wall,
    );
}

fn push_filter_stats(s: &mut LayerSamples, f: &FilterStats) {
    s.push("matching.bound_rejected", "count", f.bound_rejected as f64);
    s.push("matching.abandoned", "count", f.abandoned as f64);
    s.push("matching.verified", "count", f.verified as f64);
    s.push("matching.kept", "count", f.kept as f64);
    s.push(
        "matching.verify_ratio",
        "ratio",
        f.verified as f64 / f.pairs.max(1) as f64,
    );
}

/// The traced run of a batch workload: load through the CLI's loaders,
/// then traced iterations until `seconds` have passed.
pub fn run_traced(
    workload: Workload,
    dir: &Path,
    seconds: f64,
    t: &mut Tracer,
    report: &mut RunReport,
) -> Result<(), String> {
    let started = Instant::now();
    let gt = read_ground_truth(&dir.join("truth.txt"))?;
    let mut samples = LayerSamples::default();
    let mut loads = Vec::new();
    let mut reference: Option<Outcome> = None;
    while loads.is_empty() || started.elapsed().as_secs_f64() < seconds {
        t.next_trace();
        let collection = t.span("profiles.load", |_| load_collection(dir))?;
        loads.extend(last(t, "profiles.load"));
        let reference = reference.get_or_insert_with(|| {
            let result = Pipeline::new(workload.config()).run(&collection);
            Outcome::of(&result, &collection, &gt)
        });
        traced_iteration(
            t,
            workload,
            &collection,
            &gt,
            reference,
            &mut samples,
            report,
        );
    }
    report.median("profiles.load_s", "s", &loads);
    samples.report_into(report);
    Ok(())
}
