//! The meta-blocking node pass — the one kernel every backend prunes
//! through.
//!
//! SparkER parallelizes meta-blocking as a node-centric pass: broadcast
//! the compact block index, materialize one node's neighborhood at a time,
//! prune locally. [`StreamingMetaBlocking`] is that pass, in two halves:
//!
//! * **pass A** (`pass_a_range`) weighs every edge of a node range and
//!   summarizes it — per-node [`NodeStats`] for the node-centric rules, the
//!   forward (`node < j`) weight pool for the global ones, node degrees for
//!   morsel cuts — after which the retention rule is resolved once;
//! * **pass B** ([`StreamingMetaBlocking::prune_range`]) re-materializes
//!   each neighborhood of a node range and emits the retained forward
//!   edges — a pure function of the range, safe to call concurrently in
//!   any order.
//!
//! The backends differ only in how they drive the two halves:
//!
//! * sequential ([`crate::meta_blocking_graph`]):
//!   [`StreamingMetaBlocking::sequential`] runs pass A over `0..n` on the
//!   calling thread, then [`StreamingMetaBlocking::prune_all`];
//! * pool and dataflow ([`crate::parallel::meta_blocking`]):
//!   [`StreamingMetaBlocking::prepare`] runs pass A as morsels on the
//!   worker pool, then [`StreamingMetaBlocking::prune_pool`];
//! * fused: `prepare`, then `prune_range` per morsel, fed straight into the
//!   matcher so range `k` is scored while range `k+1` is still pruning.
//!
//! ## Determinism
//!
//! Pass A is a pure function per node, and morsel outputs concatenate in
//! node order, so the forward weight pool reaches rule resolution in the
//! same order (hence the same f64 reduction) on every driver and at every
//! worker count. Each range's pass-B emissions are already sorted by pair:
//! nodes ascend, and [`BlockGraph::neighborhood_buffered`] returns
//! neighbors in ascending id order, so the forward emissions of
//! consecutive nodes concatenate sorted — any disjoint ascending cover of
//! `0..num_profiles` yields the same sorted pair list, which is what lets
//! the fused matcher feed its shards straight into
//! `SimilarityGraph::from_sorted_shards` without a global re-sort. An
//! independent naive oracle in the crate's proptests pins every driver.

use crate::graph::{BlockGraph, NeighborhoodScratch};
use crate::parallel::{degrees_parallel, morsel_grain};
use crate::pruning::{
    cnp_budget, resolve_rule, MetaBlockingConfig, NodeStats, PruningStrategy, RetentionRule,
};
use crate::scorer::ScoringContext;
use sparker_dataflow::{Context, WorkerLocal};
use sparker_profiles::{Pair, ProfileId};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A prepared, immutable pruning plan: everything meta-blocking computes
/// *before* the per-edge retention decisions, packaged so pruned pairs
/// can be emitted range by range (see the module docs).
///
/// `G` is how the plan holds its block graph: a shared `Arc` when built by
/// [`StreamingMetaBlocking::prepare`] (the default), a plain borrow when
/// built by the sequential driver ([`crate::meta_blocking_graph`]).
pub struct StreamingMetaBlocking<G = Arc<BlockGraph>> {
    graph: G,
    scoring: ScoringContext,
    /// Per-node retention statistics; empty for the global-threshold rules
    /// (WEP/CEP), whose [`RetentionRule::keeps`] ignores them.
    node_stats: Vec<NodeStats>,
    rule: RetentionRule,
    /// Node degrees observed during pass A, for degree-cost morsel cuts.
    degrees: Vec<u32>,
}

/// Pass-A output of one node range; outputs of consecutive ranges
/// concatenate into the whole graph's.
#[derive(Clone, Default)]
struct PassA {
    node_stats: Vec<NodeStats>,
    /// Forward (`node < j`) edge weights, global rules only.
    forward: Vec<f64>,
    degrees: Vec<u32>,
}

impl PassA {
    /// Concatenate range outputs given in node order.
    fn concat(parts: impl IntoIterator<Item = PassA>) -> PassA {
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        for part in parts {
            all.node_stats.extend(part.node_stats);
            all.forward.extend(part.forward);
            all.degrees.extend(part.degrees);
        }
        all
    }
}

/// Do WEP/CEP's global thresholds apply (instead of per-node statistics)?
fn uses_global_rule(pruning: PruningStrategy) -> bool {
    matches!(
        pruning,
        PruningStrategy::Wep { .. } | PruningStrategy::Cep { .. }
    )
}

/// Pass A over the ascending node ids `nodes`: materialize each node's
/// neighborhood, weigh its edges and summarize them. This is the unit of
/// work SparkER distributes, so it is the hot loop of meta-blocking —
/// after warm-up it performs **zero heap allocation per node**: the
/// neighborhood lives in `scratch`, the edge weights in the caller's
/// reusable `weights` buffer.
///
/// The global rules (WEP/CEP) never read [`NodeStats`], so for them
/// (`global`) only the forward edges are weighed — each edge once — and
/// collected into the weight pool; the node-centric rules weigh the whole
/// neighborhood and keep its [`NodeStats`] summary.
fn pass_a_range(
    graph: &BlockGraph,
    scoring: &ScoringContext,
    cnp_k: usize,
    global: bool,
    nodes: impl IntoIterator<Item = u32>,
    scratch: &mut NeighborhoodScratch,
    weights: &mut Vec<f64>,
) -> PassA {
    let mut out = PassA::default();
    for i in nodes {
        let node = ProfileId(i);
        let blocks_node = graph.blocks_of(node).len();
        let neighborhood = graph.neighborhood_buffered(node, scratch);
        out.degrees.push(neighborhood.len() as u32);
        let sink = if global {
            &mut out.forward
        } else {
            weights.clear();
            &mut *weights
        };
        for &(j, ref acc) in neighborhood {
            if !global || node < j {
                sink.push(scoring.weigh(node, j, acc, blocks_node, graph.blocks_of(j).len()));
            }
        }
        if !global {
            out.node_stats.push(NodeStats::from_weights(weights, cnp_k));
        }
    }
    out
}

impl StreamingMetaBlocking {
    /// Run pass A as morsels on the context's worker pool — the graph is
    /// broadcast, each claimed morsel is one `pass_a_range` call with the
    /// worker slot's reusable buffers — and resolve the retention rule.
    pub fn prepare(ctx: &Context, graph: &Arc<BlockGraph>, config: &MetaBlockingConfig) -> Self {
        // Scorers that read node degrees (EJS, supervised) need them
        // *before* pass A can weigh anything; compute them node-parallel.
        // Every other scorer gets degrees for free out of pass A itself.
        let scoring = if config.scorer.needs_degrees() {
            let (degrees, num_edges) = degrees_parallel(ctx, graph);
            ScoringContext::with_degrees(
                graph,
                config.scorer,
                config.use_entropy,
                degrees,
                num_edges,
            )
        } else {
            config.scoring_context(graph)
        };
        let cnp_k = cnp_budget(config.pruning, graph);
        let global = uses_global_rule(config.pruning);
        let num_nodes = graph.num_profiles();
        let b_graph = ctx.broadcast(Arc::clone(graph));
        let scratches = WorkerLocal::new(ctx.workers(), || (graph.scratch(), Vec::new()));
        let pass_a = ctx
            .parallelize_default((0..num_nodes as u32).collect())
            .map_morsels_named(
                "metablocking_pass_a",
                morsel_grain(num_nodes, ctx),
                |worker, nodes| {
                    scratches.with(worker, |(scratch, weights)| {
                        let ids = nodes.iter().copied();
                        vec![pass_a_range(
                            &b_graph, &scoring, cnp_k, global, ids, scratch, weights,
                        )]
                    })
                },
            )
            .into_partitions()
            .into_iter()
            .flatten();
        Self::resolve(Arc::clone(graph), scoring, config.pruning, pass_a)
    }
}

impl<'g> StreamingMetaBlocking<&'g BlockGraph> {
    /// Run pass A over every node on the calling thread — one
    /// `pass_a_range` call over `0..num_profiles` — and resolve the
    /// retention rule. The sequential backend's plan.
    pub(crate) fn sequential(graph: &'g BlockGraph, config: &MetaBlockingConfig) -> Self {
        let scoring = config.scoring_context(graph);
        let pass_a = pass_a_range(
            graph,
            &scoring,
            cnp_budget(config.pruning, graph),
            uses_global_rule(config.pruning),
            0..graph.num_profiles() as u32,
            &mut graph.scratch(),
            &mut Vec::new(),
        );
        Self::resolve(graph, scoring, config.pruning, [pass_a])
    }
}

impl<G: Deref<Target = BlockGraph>> StreamingMetaBlocking<G> {
    /// Concatenate the pass-A outputs (given in node order) and resolve
    /// the retention rule from them.
    fn resolve(
        graph: G,
        scoring: ScoringContext,
        pruning: PruningStrategy,
        pass_a: impl IntoIterator<Item = PassA>,
    ) -> Self {
        let PassA {
            node_stats,
            mut forward,
            degrees,
        } = PassA::concat(pass_a);
        let rule = resolve_rule(pruning, &graph, &mut forward);
        StreamingMetaBlocking {
            graph,
            scoring,
            node_stats,
            rule,
            degrees,
        }
    }

    /// Number of nodes in the underlying blocking graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_profiles()
    }

    /// Total forward edges observed in pass A (Σ degree / 2) — an upper
    /// bound on emitted pairs, used to size fused channel payloads.
    pub fn total_edges(&self) -> u64 {
        self.degrees.iter().map(|&d| u64::from(d)).sum::<u64>() / 2
    }

    /// A reusable neighborhood buffer for [`StreamingMetaBlocking::prune_range`].
    pub fn make_scratch(&self) -> NeighborhoodScratch {
        self.graph.scratch()
    }

    /// Cut `0..num_nodes` into contiguous ranges of roughly equal *degree*
    /// cost (degree + 1 per node, so isolated nodes still advance), about
    /// `target_tasks` of them. Real blocking graphs are power-law skewed,
    /// so equal-*count* ranges would strand a hub-heavy slice on one
    /// worker. Boundaries are schedule-only: concatenating
    /// [`StreamingMetaBlocking::prune_range`] over any disjoint ascending
    /// cover yields the same pairs.
    pub fn cost_morsels(&self, target_tasks: usize) -> Vec<Range<u32>> {
        let n = self.num_nodes() as u32;
        if n == 0 {
            return Vec::new();
        }
        let total: u64 = self.degrees.iter().map(|&d| u64::from(d) + 1).sum();
        let per_task = (total / target_tasks.max(1) as u64).max(1);
        let mut cuts = Vec::new();
        let mut start = 0u32;
        let mut acc = 0u64;
        for i in 0..n {
            acc += u64::from(self.degrees[i as usize]) + 1;
            if acc >= per_task {
                cuts.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < n {
            cuts.push(start..n);
        }
        cuts
    }

    /// Pass B over a contiguous node range: re-materialize each node's
    /// neighborhood, weigh its forward (`node < j`) edges and apply the
    /// resolved retention rule. Output is sorted by pair (see the module
    /// docs); disjoint ranges are independent, so fused producers call
    /// this concurrently.
    pub fn prune_range(
        &self,
        range: Range<u32>,
        scratch: &mut NeighborhoodScratch,
    ) -> Vec<(Pair, f64)> {
        let default_stats = NodeStats::default();
        let mut out = Vec::new();
        for i in range {
            let node = ProfileId(i);
            let blocks_node = self.graph.blocks_of(node).len();
            for &(j, ref acc) in self.graph.neighborhood_buffered(node, scratch) {
                if node >= j {
                    continue;
                }
                let w =
                    self.scoring
                        .weigh(node, j, acc, blocks_node, self.graph.blocks_of(j).len());
                let (sa, sb) = if self.node_stats.is_empty() {
                    (&default_stats, &default_stats)
                } else {
                    (&self.node_stats[i as usize], &self.node_stats[j.index()])
                };
                if self.rule.keeps(w, sa, sb) {
                    out.push((Pair::new(node, j), w));
                }
            }
        }
        out
    }

    /// Pass B over every node on the calling thread.
    pub fn prune_all(&self) -> Vec<(Pair, f64)> {
        let mut scratch = self.make_scratch();
        self.prune_range(0..self.num_nodes() as u32, &mut scratch)
    }

    /// Pass B on the context's worker pool: `prune_range` over
    /// `cost_morsels(workers × 32)`, one dynamically claimed task per
    /// range with the worker slot's reusable scratch, concatenated in
    /// node order — the same sorted pairs as [`StreamingMetaBlocking::prune_all`].
    pub(crate) fn prune_pool(&self, ctx: &Context) -> Vec<(Pair, f64)>
    where
        G: Sync,
    {
        let scratches = WorkerLocal::new(ctx.workers(), || self.make_scratch());
        ctx.parallelize_default(self.cost_morsels(ctx.workers() * 32))
            .map_morsels_named("metablocking_pass_b", 1, |worker, ranges| {
                // Grain 1: a task holds at most one range.
                let Some(range) = ranges.first() else {
                    return Vec::new();
                };
                scratches.with(worker, |scratch| self.prune_range(range.clone(), scratch))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::BlockEntropies;
    use crate::pruning::meta_blocking_graph;
    use crate::scorer::EdgeScorer;
    use crate::weights::WeightScheme;
    use sparker_blocking::token_blocking;
    use sparker_dataflow::Context;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};

    fn skewed_collection(n: usize) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    let mut b = Profile::builder(SourceId(0), i.to_string());
                    if i < n / 10 {
                        b = b.attr("hot", "hub0 hub1 hub2");
                    }
                    b.attr("name", format!("tok{} tok{}", i % 9, (i + 4) % 9))
                        .build()
                })
                .collect(),
        )
    }

    const ALL_PRUNINGS: [PruningStrategy; 5] = [
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
    ];

    #[test]
    fn streamed_ranges_match_staged_for_all_configs() {
        let coll = skewed_collection(80);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(4);
        for scheme in WeightScheme::ALL {
            for pruning in ALL_PRUNINGS {
                let config = MetaBlockingConfig {
                    scorer: EdgeScorer::Classic(scheme),
                    pruning,
                    use_entropy: false,
                };
                let staged = meta_blocking_graph(&graph, &config);
                let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
                // Whole-graph emission…
                assert_eq!(
                    stream.prune_all(),
                    staged,
                    "{}+{} prune_all diverged",
                    scheme.name(),
                    pruning.name()
                );
                // …and any disjoint ascending cover concatenates to it.
                let mut scratch = stream.make_scratch();
                let streamed: Vec<_> = stream
                    .cost_morsels(7)
                    .into_iter()
                    .flat_map(|r| stream.prune_range(r, &mut scratch))
                    .collect();
                assert_eq!(
                    streamed,
                    staged,
                    "{}+{} morsel cover diverged",
                    scheme.name(),
                    pruning.name()
                );
            }
        }
    }

    #[test]
    fn streamed_matches_staged_with_entropy() {
        let coll = skewed_collection(60);
        let blocks = token_blocking(&coll);
        let entropies = BlockEntropies::new(
            (0..blocks.len())
                .map(|b| 0.1 + (b % 5) as f64 * 0.3)
                .collect(),
        );
        let graph = Arc::new(BlockGraph::new(&blocks, Some(&entropies)));
        let ctx = Context::new(2);
        let config = MetaBlockingConfig::blast();
        let staged = meta_blocking_graph(&graph, &config);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
        assert_eq!(stream.prune_all(), staged);
    }

    #[test]
    fn streamed_matches_staged_with_supervised_scorer() {
        let coll = skewed_collection(60);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(3);
        let mut model = crate::LinearModel::zero();
        model.weights[0] = 0.6; // shared blocks
        model.weights[4] = 1.5; // dice
        model.bias = -0.5;
        for pruning in ALL_PRUNINGS {
            let config = MetaBlockingConfig {
                scorer: EdgeScorer::Supervised(model),
                pruning,
                use_entropy: false,
            };
            let staged = meta_blocking_graph(&graph, &config);
            let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
            assert_eq!(
                stream.prune_all(),
                staged,
                "supervised {} diverged",
                pruning.name()
            );
        }
    }

    #[test]
    fn prepare_is_worker_count_invariant() {
        let coll = skewed_collection(50);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let config = MetaBlockingConfig::default();
        let base = StreamingMetaBlocking::prepare(&Context::new(1), &graph, &config).prune_all();
        for w in [2, 4, 8] {
            let got = StreamingMetaBlocking::prepare(&Context::new(w), &graph, &config).prune_all();
            assert_eq!(got, base, "diverged at {w} workers");
        }
    }

    #[test]
    fn range_emissions_are_sorted_by_pair() {
        let coll = skewed_collection(70);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &MetaBlockingConfig::default());
        let mut scratch = stream.make_scratch();
        let mut last = None;
        for range in stream.cost_morsels(5) {
            for (p, _) in stream.prune_range(range, &mut scratch) {
                assert!(last.is_none_or(|prev| prev < p), "pairs not ascending");
                last = Some(p);
            }
        }
        assert!(last.is_some(), "expected at least one retained pair");
    }

    #[test]
    fn cost_morsels_cover_all_nodes_exactly_once() {
        let coll = skewed_collection(90);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &MetaBlockingConfig::default());
        for target in [1, 3, 16, 1000] {
            let morsels = stream.cost_morsels(target);
            let mut expect = 0u32;
            for r in &morsels {
                assert_eq!(r.start, expect, "gap or overlap at target {target}");
                assert!(r.end > r.start);
                expect = r.end;
            }
            assert_eq!(expect, stream.num_nodes() as u32);
        }
    }

    #[test]
    fn empty_graph_streams_nothing() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, Vec::new());
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &MetaBlockingConfig::default());
        assert!(stream.prune_all().is_empty());
        assert!(stream.cost_morsels(4).is_empty());
        assert_eq!(stream.total_edges(), 0);
    }
}
