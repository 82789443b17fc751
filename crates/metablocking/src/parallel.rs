//! Parallel meta-blocking: the paper's broadcast-join formulation.
//!
//! "The parallel meta-blocking, implemented on Apache Spark, is inspired by
//! the broadcast join: it partitions the nodes of the blocking graph and
//! sends in broadcast (i.e., to each partition) all the information needed
//! to materialize the neighborhood of each node one at a time. Once the
//! neighborhood of a node is materialized, the pruning function is
//! applied."
//!
//! Concretely: the compact [`BlockGraph`] is broadcast and the node-pass
//! kernel ([`StreamingMetaBlocking`]) runs its two node-parallel stages on
//! the worker pool — pass A computes per-node statistics (means / maxima /
//! k-th weights, or the global weight pool for the edge-centric
//! strategies), pass B re-materializes each neighborhood and applies the
//! retention rule. Both stages execute as small contiguous morsels claimed
//! dynamically off the pool's task counter, with one reusable scratch per
//! worker slot ([`WorkerLocal`]); pass B cuts its morsels by node degree,
//! so the hub region of a power-law graph is spread over many tasks.
//! Morsel outputs concatenate in node order, so results are identical to
//! the sequential driver at every worker count.

use crate::graph::BlockGraph;
use crate::pruning::MetaBlockingConfig;
use crate::streaming::StreamingMetaBlocking;
use sparker_dataflow::{Broadcast, Context, WorkerLocal};
use sparker_profiles::{Pair, ProfileId};
use std::sync::Arc;

/// Morsel grain for node-parallel stages: roughly `32 × workers` claimable
/// tasks overall, so dynamic claiming absorbs degree skew without drowning
/// in task bookkeeping.
pub(crate) fn morsel_grain(num_nodes: usize, ctx: &Context) -> usize {
    (num_nodes / (ctx.workers() * 32)).max(1)
}

/// Node-parallel [`BlockGraph::degrees`]: each worker counts the distinct
/// neighbors of its claimed nodes with a per-slot epoch-marked seen array
/// ([`BlockGraph::degree_of`]). The degree-reading scorers (EJS,
/// supervised) need these global statistics before pass A can weigh any
/// edge.
///
/// Counts are emitted in node order (morsel outputs concatenate in input
/// order), and each count is a pure function of its node, so the result is
/// byte-identical to the serial pass at any worker count.
pub fn degrees_parallel(ctx: &Context, graph: &Arc<BlockGraph>) -> (Vec<u32>, u64) {
    let num_nodes = graph.num_profiles();
    if num_nodes == 0 {
        return (Vec::new(), 0);
    }
    let b_graph: Broadcast<BlockGraph> = ctx.broadcast(Arc::clone(graph));
    let seen = Arc::new(WorkerLocal::new(ctx.workers(), || {
        vec![u32::MAX; num_nodes]
    }));
    let grain = morsel_grain(num_nodes, ctx);
    let ids: Vec<u32> = (0..num_nodes as u32).collect();
    let degrees: Vec<u32> = ctx
        .parallelize_default(ids)
        .map_morsels_named("degree_count", grain, move |worker, nodes| {
            seen.with(worker, |seen| {
                nodes
                    .iter()
                    .map(|&i| b_graph.degree_of(ProfileId(i), seen))
                    .collect()
            })
        })
        .collect();
    let edges: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
    (degrees, edges / 2)
}

/// Parallel meta-blocking over a prebuilt [`BlockGraph`]; equivalent to
/// [`crate::meta_blocking_graph`]: [`StreamingMetaBlocking::prepare`]
/// (pass A) followed by the kernel's pool pass B, which prunes
/// degree-balanced node ranges as dynamically claimed tasks.
///
/// The graph is taken as an `Arc` so the broadcast adopts the driver's
/// shared handle instead of deep-cloning the whole structure — exactly the
/// "ship one copy per executor" semantics of Spark's broadcast join.
pub fn meta_blocking(
    ctx: &Context,
    graph: &Arc<BlockGraph>,
    config: &MetaBlockingConfig,
) -> Vec<(Pair, f64)> {
    StreamingMetaBlocking::prepare(ctx, graph, config).prune_pool(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_blocking::token_blocking;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};

    // Parity of `meta_blocking` with the sequential driver — every scheme ×
    // pruning, supervised and entropy scorers, 1/2/8 workers, uniform and
    // hub-skewed graphs — is pinned against an independent naive oracle in
    // the crate's proptests.

    fn noisy_collection(n: usize) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr(
                            "name",
                            format!(
                                "prod{} brand{} shared tok{} tok{}",
                                i % 10,
                                i % 4,
                                i % 7,
                                (i + 3) % 7,
                            ),
                        )
                        .build()
                })
                .collect(),
        )
    }

    /// A dirty collection with a contiguous hub region: the first tenth of
    /// the profiles share a dedicated hot token, so low ids are far more
    /// connected than the tail.
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

    #[test]
    fn parallel_degrees_match_serial() {
        // The parallel degree pass is the serial one distributed: same
        // counts in the same node order, same edge total, at any worker
        // count — on both a uniform and a hub-skewed graph.
        for coll in [noisy_collection(120), skewed_collection(120)] {
            let blocks = token_blocking(&coll);
            let graph = Arc::new(BlockGraph::new(&blocks, None));
            let (serial, serial_edges) = graph.degrees();
            for w in [1, 2, 4, 8] {
                let (par, par_edges) = degrees_parallel(&Context::new(w), &graph);
                assert_eq!(par, serial, "degrees diverged at {w} workers");
                assert_eq!(
                    par_edges, serial_edges,
                    "edge count diverged at {w} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_degrees_empty_graph() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, Vec::new());
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let (degrees, edges) = degrees_parallel(&Context::new(2), &graph);
        assert!(degrees.is_empty());
        assert_eq!(edges, 0);
    }

    #[test]
    fn passes_are_broadcast_morsel_stages() {
        // The graph is broadcast, and both node passes run as morsel stages
        // with per-worker time accounting; on a graph larger than
        // workers × 32 they split into more tasks than there are
        // partitions.
        let coll = noisy_collection(200);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        meta_blocking(&ctx, &graph, &crate::MetaBlockingConfig::default());
        let snap = ctx.metrics();
        assert!(snap.broadcasts >= 1, "graph broadcast");
        for name in ["metablocking_pass_a", "metablocking_pass_b"] {
            let stage = snap
                .stages
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} is not an engine stage"));
            assert!(
                stage.tasks > ctx.default_partitions(),
                "{name}: expected > {} tasks, got {}",
                ctx.default_partitions(),
                stage.tasks,
            );
            assert!(!stage.per_worker_busy.is_empty());
        }
        assert!(snap.total_busy_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn empty_graph_parallel() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, vec![]);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        assert!(meta_blocking(&ctx, &graph, &crate::MetaBlockingConfig::default()).is_empty());
    }
}
