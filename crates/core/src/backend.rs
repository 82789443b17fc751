//! Pluggable execution substrates for the unified pipeline driver.
//!
//! SparkER's defining claim is that *one* ER pipeline runs unchanged on a
//! parallel substrate. [`ExecutionBackend`] is that seam in this
//! reproduction: the single driver ([`crate::Pipeline::run_on`]) owns stage
//! ordering, timing and result assembly, and delegates each stage —
//! [`build_blocks`](ExecutionBackend::build_blocks),
//! [`filter_blocks`](ExecutionBackend::filter_blocks),
//! [`prune_candidates`](ExecutionBackend::prune_candidates),
//! [`score_pairs`](ExecutionBackend::score_pairs),
//! [`cluster_edges`](ExecutionBackend::cluster_edges) — to the selected
//! backend. Adding a new substrate means implementing these five entry
//! points, not writing a fourth driver.

use sparker_blocking::{block_filtering, compact_token_blocks, keyed_blocking, BlockCollection};
use sparker_clustering::{
    cluster_edges, ClusteringAlgorithm, CollectionShape, ComponentsMode, EntityClusters,
};
use sparker_dataflow::{Context, MemBudget};
use sparker_looseschema::{loose_schema_keys, AttributePartitioning};
use sparker_matching::{
    CandidateGraph, Matcher, PreparedProfile, SimilarityGraph, ThresholdMatcher,
};
use sparker_metablocking::{
    meta_blocking_graph, parallel, BlockEntropies, BlockGraph, MetaBlockingConfig,
};
use sparker_profiles::{InternedProfiles, Pair, ProfileCollection};
use std::collections::HashSet;
use std::sync::Arc;

/// An execution substrate for the ER pipeline.
///
/// Each variant is a thin strategy over a pre-existing implementation; the
/// three correspond to the historical drivers `Pipeline::run`,
/// `Pipeline::run_dataflow` and `Pipeline::run_pipeline_parallel`, which
/// are now one-line wrappers over [`crate::Pipeline::run_on`] with the
/// matching backend. All backends produce byte-identical results at any
/// worker count (pinned by the backend-matrix parity suite).
#[derive(Debug, Clone)]
pub enum ExecutionBackend {
    /// Single-threaded driver loops.
    Sequential,
    /// Every data-parallel stage as dataflow operators: shuffle-based
    /// blocking and filtering, broadcast-join meta-blocking, broadcast
    /// matching, label-propagation connected components (the GraphX path).
    Dataflow(Context),
    /// Morsel-driven persistent worker pool: the parallel
    /// tokenize-and-intern kernel feeding a counting-sort CSR blocker (no
    /// shuffle), sequential block filtering, CSR candidate streaming with
    /// degree-cost morsels in the matcher (over the blocker's token
    /// lists), per-worker union–find forests in the clusterer.
    Pool(Context),
    /// The pool backend with the prune→score stages fused: meta-blocking
    /// emits pruned pairs through a bounded morsel channel and the matcher
    /// scores them concurrently on the same pool, so the candidates and
    /// matching critical paths overlap and no `CandidateGraph` is ever
    /// materialized. Byte-identical to [`ExecutionBackend::Pool`] (pinned
    /// by the parity matrix); stage entry points called individually
    /// behave exactly as the pool backend — the fusion lives in
    /// [`crate::Pipeline::run_on`]'s driver.
    FusedPool(Context),
}

impl ExecutionBackend {
    /// The dataflow backend on a fresh engine context with `workers`
    /// workers.
    pub fn dataflow(workers: usize) -> Self {
        ExecutionBackend::Dataflow(Context::new(workers))
    }

    /// The pool backend on a fresh engine context with `workers` workers.
    pub fn pool(workers: usize) -> Self {
        ExecutionBackend::Pool(Context::new(workers))
    }

    /// The fused pool backend on a fresh engine context with `workers`
    /// workers.
    pub fn fused(workers: usize) -> Self {
        ExecutionBackend::FusedPool(Context::new(workers))
    }

    /// Parse a backend name (`"sequential"`, `"dataflow"`, `"pool"`,
    /// `"fused"`), attaching a `workers`-sized engine context where one is
    /// needed.
    pub fn parse(name: &str, workers: usize) -> Result<Self, String> {
        match name {
            "sequential" => Ok(ExecutionBackend::Sequential),
            "dataflow" => Ok(ExecutionBackend::dataflow(workers)),
            "pool" => Ok(ExecutionBackend::pool(workers)),
            "fused" => Ok(ExecutionBackend::fused(workers)),
            other => Err(format!(
                "unknown backend {other:?}; expected sequential, dataflow, pool or fused"
            )),
        }
    }

    /// Stable backend name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionBackend::Sequential => "sequential",
            ExecutionBackend::Dataflow(_) => "dataflow",
            ExecutionBackend::Pool(_) => "pool",
            ExecutionBackend::FusedPool(_) => "fused",
        }
    }

    /// The engine context of an engine-backed variant (`None` for
    /// [`ExecutionBackend::Sequential`]).
    pub fn context(&self) -> Option<&Context> {
        match self {
            ExecutionBackend::Sequential => None,
            ExecutionBackend::Dataflow(ctx)
            | ExecutionBackend::Pool(ctx)
            | ExecutionBackend::FusedPool(ctx) => Some(ctx),
        }
    }

    /// Worker count (1 for the sequential backend).
    pub fn workers(&self) -> usize {
        self.context().map_or(1, Context::workers)
    }

    /// The memory budget the backend runs under: the engine context's
    /// budget on engine backends (set via [`Context::with_budget`] or the
    /// `SPARKER_MEM_BUDGET_MB` environment variable), a fresh
    /// [`MemBudget::from_env`] on the sequential backend. Clones share
    /// counters with the source, so spill statistics accumulated during a
    /// run are visible through any clone.
    pub fn budget(&self) -> MemBudget {
        match self {
            ExecutionBackend::Sequential => MemBudget::from_env(),
            ExecutionBackend::Dataflow(ctx)
            | ExecutionBackend::Pool(ctx)
            | ExecutionBackend::FusedPool(ctx) => ctx.budget().clone(),
        }
    }

    /// Stage 1 — (token / loose-schema-keyed) blocking.
    ///
    /// Loose-schema generation itself stays on the driver (it reduces over
    /// a handful of attributes — SparkER does the same); this entry point
    /// turns the collection into blocks on the backend's substrate.
    pub fn build_blocks(
        &self,
        collection: &ProfileCollection,
        partitioning: Option<&AttributePartitioning>,
        budget: &MemBudget,
    ) -> BlockCollection {
        self.build_blocks_interned(collection, partitioning, budget)
            .0
    }

    /// [`ExecutionBackend::build_blocks`] plus the tokenize-and-intern
    /// kernel's output, when the backend ran it, for the matcher to reuse.
    ///
    /// Token Blocking on the sequential, pool and fused backends is the
    /// kernel ([`InternedProfiles::build`]: on the calling thread, or as
    /// parallel morsels on the pool) followed by the counting-sort CSR
    /// build and materialization — no shuffle. The dataflow backend keeps
    /// the paper's shuffle-based operator; keyed (loose-schema) blocking
    /// keeps its own path on every backend.
    pub(crate) fn build_blocks_interned(
        &self,
        collection: &ProfileCollection,
        partitioning: Option<&AttributePartitioning>,
        budget: &MemBudget,
    ) -> (BlockCollection, Option<InternedProfiles>) {
        match (self, partitioning) {
            (ExecutionBackend::Sequential, Some(parts)) => (
                keyed_blocking(collection, |p| loose_schema_keys(p, parts)),
                None,
            ),
            (
                ExecutionBackend::Dataflow(ctx)
                | ExecutionBackend::Pool(ctx)
                | ExecutionBackend::FusedPool(ctx),
                Some(parts),
            ) => (
                sparker_blocking::dataflow::keyed_blocking(ctx, collection, |p| {
                    loose_schema_keys(p, parts)
                }),
                None,
            ),
            (ExecutionBackend::Dataflow(ctx), None) => (
                sparker_blocking::dataflow::token_blocking(ctx, collection),
                None,
            ),
            (
                ExecutionBackend::Sequential
                | ExecutionBackend::Pool(_)
                | ExecutionBackend::FusedPool(_),
                None,
            ) => {
                let interned = InternedProfiles::build(collection, self.context(), budget);
                let blocks = compact_token_blocks(collection, &interned, budget)
                    .materialize(interned.dict());
                (blocks, Some(interned))
            }
        }
    }

    /// Stage 2 (second half) — block filtering at `ratio`.
    ///
    /// Block *purging* is a metadata-level filter over block statistics —
    /// cheap on the driver on every backend (SparkER's purging likewise
    /// reduces tiny per-block stats) — so the driver applies it directly;
    /// only filtering is a backend entry point. The pool backends run the
    /// sequential kernel, which beats the two-shuffle dataflow operator;
    /// the dataflow backend keeps the operator.
    pub fn filter_blocks(&self, blocks: BlockCollection, ratio: f64) -> BlockCollection {
        match self {
            ExecutionBackend::Dataflow(ctx) => {
                sparker_blocking::dataflow::block_filtering(ctx, blocks, ratio)
            }
            ExecutionBackend::Sequential
            | ExecutionBackend::Pool(_)
            | ExecutionBackend::FusedPool(_) => block_filtering(blocks, ratio),
        }
    }

    /// Stage 3 — meta-blocking: build the block graph and prune it to the
    /// retained weighted candidate edges.
    pub fn prune_candidates(
        &self,
        blocks: &BlockCollection,
        entropies: Option<&BlockEntropies>,
        config: &MetaBlockingConfig,
        budget: &MemBudget,
    ) -> Vec<(Pair, f64)> {
        match self {
            ExecutionBackend::Sequential => {
                let graph = BlockGraph::new_budgeted(blocks, entropies, budget);
                meta_blocking_graph(&graph, config)
            }
            ExecutionBackend::Dataflow(ctx)
            | ExecutionBackend::Pool(ctx)
            | ExecutionBackend::FusedPool(ctx) => {
                let graph = Arc::new(BlockGraph::new_budgeted(blocks, entropies, budget));
                parallel::meta_blocking(ctx, &graph, config)
            }
        }
    }

    /// Stage 4 — entity matching: score every candidate pair, keep those
    /// at or above the matcher's threshold.
    pub fn score_pairs(
        &self,
        matcher: &ThresholdMatcher,
        collection: &ProfileCollection,
        candidates: &HashSet<Pair>,
        budget: &MemBudget,
    ) -> SimilarityGraph {
        self.score_pairs_interned(matcher, collection, None, candidates, budget)
    }

    /// [`ExecutionBackend::score_pairs`] over the run's kernel output, so
    /// no profile is tokenized a second time (see
    /// [`ExecutionBackend::prepared_views`]).
    pub(crate) fn score_pairs_interned(
        &self,
        matcher: &ThresholdMatcher,
        collection: &ProfileCollection,
        interned: Option<InternedProfiles>,
        candidates: &HashSet<Pair>,
        budget: &MemBudget,
    ) -> SimilarityGraph {
        match self {
            ExecutionBackend::Sequential => {
                let prepared = self.prepared_views(collection, interned, budget);
                matcher.match_prepared(&prepared, candidates.iter().copied())
            }
            ExecutionBackend::Dataflow(ctx) => {
                let mut pairs: Vec<Pair> = candidates.iter().copied().collect();
                pairs.sort_unstable();
                matcher.match_pairs_dataflow(ctx, collection, pairs)
            }
            ExecutionBackend::Pool(ctx) | ExecutionBackend::FusedPool(ctx) => {
                let prepared = self.prepared_views(collection, interned, budget);
                let graph = Arc::new(CandidateGraph::from_pairs_budgeted(
                    collection.len(),
                    candidates.iter().copied(),
                    budget,
                ));
                matcher
                    .match_candidates_pool_prepared(ctx, Arc::new(prepared), &graph)
                    .0
            }
        }
    }

    /// The matcher's profile views on this backend's substrate: adopted
    /// from the kernel output the blocker kept, or from a fresh kernel run
    /// when there is none (keyed blocking, the dataflow blocker, or a
    /// direct stage call). The kernel output is dropped once adopted.
    pub(crate) fn prepared_views(
        &self,
        collection: &ProfileCollection,
        interned: Option<InternedProfiles>,
        budget: &MemBudget,
    ) -> Vec<PreparedProfile> {
        match interned {
            Some(interned) => PreparedProfile::from_interned(self.context(), collection, &interned),
            None => PreparedProfile::prepare_on(self.context(), collection, budget),
        }
    }

    /// Stage 5 — entity clustering of the similarity graph.
    ///
    /// Delegates to the workspace's single [`cluster_edges`] dispatch; the
    /// backend only selects the [`ComponentsMode`] for connected
    /// components.
    pub fn cluster_edges(
        &self,
        algorithm: ClusteringAlgorithm,
        edges: &[(Pair, f64)],
        collection: &ProfileCollection,
    ) -> EntityClusters {
        let mode = match self {
            ExecutionBackend::Sequential => ComponentsMode::Sequential,
            ExecutionBackend::Dataflow(ctx) => ComponentsMode::Dataflow(ctx),
            ExecutionBackend::Pool(ctx) | ExecutionBackend::FusedPool(ctx) => {
                ComponentsMode::Pool(ctx)
            }
        };
        cluster_edges(
            algorithm,
            mode,
            edges,
            CollectionShape {
                num_profiles: collection.len(),
                kind: collection.kind(),
                separator: collection.separator(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_backend() {
        for name in ["sequential", "dataflow", "pool", "fused"] {
            let backend = ExecutionBackend::parse(name, 3).unwrap();
            assert_eq!(backend.name(), name);
            if name == "sequential" {
                assert!(backend.context().is_none());
                assert_eq!(backend.workers(), 1);
            } else {
                assert_eq!(backend.workers(), 3);
            }
        }
        assert!(ExecutionBackend::parse("spark", 2).is_err());
    }
}
