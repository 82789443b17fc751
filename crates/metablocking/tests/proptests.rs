//! Property-based tests of meta-blocking: pruning soundness (retained ⊆
//! implicit edges), every driver of the node-pass kernel against an
//! independent naive oracle, weight invariants.

use proptest::prelude::*;
use sparker_blocking::token_blocking;
use sparker_dataflow::Context;
use sparker_metablocking::{
    derived_cnp_k, meta_blocking_graph, parallel, BlockEntropies, BlockGraph, EdgeAccumulator,
    EdgeScorer, LinearModel, MetaBlockingConfig, NodeStats, PruningStrategy, RetentionRule,
    ScoringContext, StreamingMetaBlocking, WeightScheme, NUM_FEATURES,
};
use sparker_profiles::{Pair, Profile, ProfileCollection, ProfileId, SourceId};
use std::collections::HashSet;
use std::sync::Arc;

fn collection_strategy() -> impl Strategy<Value = ProfileCollection> {
    let profile = prop::collection::vec(0usize..10, 1..5).prop_map(|words| {
        words
            .into_iter()
            .map(|w| format!("tok{w}"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    prop::collection::vec(profile, 2..20).prop_map(|values| {
        ProfileCollection::dirty(
            values
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("text", v)
                        .build()
                })
                .collect(),
        )
    })
}

/// Collections with a contiguous Zipfian hub prefix: the first profiles
/// all share `hub0` (plus a rank-biased second hub token), so low ids form
/// a dense hub region — the skew shape the cost-morsel scheduler targets.
fn skewed_collection_strategy() -> impl Strategy<Value = ProfileCollection> {
    let hub = (0usize..4, 0usize..10).prop_map(|(r, w)| format!("hub0 hub{r} tok{w}"));
    let cold = prop::collection::vec(0usize..10, 1..4).prop_map(|ws| {
        ws.into_iter()
            .map(|w| format!("tok{w}"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    (
        prop::collection::vec(hub, 2..12),
        prop::collection::vec(cold, 4..30),
    )
        .prop_map(|(hubs, colds)| {
            ProfileCollection::dirty(
                hubs.into_iter()
                    .chain(colds)
                    .enumerate()
                    .map(|(i, v)| {
                        Profile::builder(SourceId(0), i.to_string())
                            .attr("text", v)
                            .build()
                    })
                    .collect(),
            )
        })
}

/// Naive reference meta-blocking, written independently of the node-pass
/// kernel: an owned neighborhood `Vec` and a fresh weights `Vec` per node,
/// a full descending sort for the CNP k-th weight, the global weight pool
/// collected alongside the per-node statistics, and a separate pass B.
/// It shares only the per-edge weight function with the crate.
fn oracle(graph: &BlockGraph, config: &MetaBlockingConfig) -> Vec<(Pair, f64)> {
    let scoring = config.scoring_context(graph);
    let descending = |a: &f64, b: &f64| b.partial_cmp(a).expect("weights are finite");
    let weigh = |node: ProfileId, j: ProfileId, acc: &EdgeAccumulator| {
        let (bn, bj) = (graph.blocks_of(node).len(), graph.blocks_of(j).len());
        scoring.weigh(node, j, acc, bn, bj)
    };
    let n = graph.num_profiles();
    let mut scratch = graph.scratch();

    // Pass A: every node's statistics, every edge's weight once (i < j).
    let cnp_k = match config.pruning {
        PruningStrategy::Cnp { k, .. } => {
            k.unwrap_or_else(|| derived_cnp_k(graph.total_assignments(), n))
        }
        _ => 1,
    };
    let mut stats = Vec::with_capacity(n);
    let mut all_weights = Vec::new();
    for i in 0..n {
        let node = ProfileId(i as u32);
        let neighborhood = graph.neighborhood_with(node, &mut scratch);
        let mut weights: Vec<f64> = Vec::with_capacity(neighborhood.len());
        for (j, acc) in &neighborhood {
            let w = weigh(node, *j, acc);
            weights.push(w);
            if node < *j {
                all_weights.push(w);
            }
        }
        if weights.is_empty() {
            stats.push(NodeStats {
                mean: 0.0,
                max: 0.0,
                kth: f64::INFINITY,
            });
            continue;
        }
        let sum: f64 = weights.iter().sum();
        let max = weights.iter().fold(0.0f64, |a, &b| a.max(b));
        let mut sorted = weights.clone();
        sorted.sort_by(descending);
        stats.push(NodeStats {
            mean: sum / weights.len() as f64,
            max,
            kth: sorted[(cnp_k.min(sorted.len())).saturating_sub(1)],
        });
    }

    let rule = match config.pruning {
        PruningStrategy::Wep { factor } => {
            let mean = if all_weights.is_empty() {
                0.0
            } else {
                all_weights.iter().sum::<f64>() / all_weights.len() as f64
            };
            RetentionRule::GlobalThreshold(factor * mean)
        }
        PruningStrategy::Cep { retain } => {
            let budget = retain.unwrap_or(graph.total_assignments() / 2).max(1) as usize;
            all_weights.sort_by(descending);
            let threshold = all_weights
                .get((budget.min(all_weights.len())).saturating_sub(1))
                .copied()
                .unwrap_or(0.0);
            RetentionRule::GlobalThreshold(threshold)
        }
        PruningStrategy::Wnp { factor, reciprocal } => {
            RetentionRule::NodeMean { factor, reciprocal }
        }
        PruningStrategy::Cnp { reciprocal, .. } => RetentionRule::NodeKth { reciprocal },
        PruningStrategy::Blast { ratio } => RetentionRule::BlastMaxima { ratio },
    };

    // Pass B: re-materialize, keep each retained edge once.
    let mut retained = Vec::new();
    for i in 0..n {
        let node = ProfileId(i as u32);
        for (j, acc) in graph.neighborhood_with(node, &mut scratch) {
            if node < j {
                let w = weigh(node, j, &acc);
                if rule.keeps(w, &stats[i], &stats[j.index()]) {
                    retained.push((Pair::new(node, j), w));
                }
            }
        }
    }
    retained.sort_by_key(|(p, _)| *p);
    retained
}

/// Every driver of the node-pass kernel against [`oracle`]: the sequential
/// `meta_blocking_graph`, `parallel::meta_blocking` at each worker count,
/// and the concatenation of `prune_range` over a `cost_morsels` cover.
fn check_against_oracle(
    graph: &Arc<BlockGraph>,
    config: &MetaBlockingConfig,
    workers: &[usize],
) -> Result<(), String> {
    let want = oracle(graph, config);
    let label = format!(
        "{}+{}{}",
        config.scorer.name(),
        config.pruning.name(),
        if config.use_entropy { "+entropy" } else { "" }
    );
    if meta_blocking_graph(graph, config) != want {
        return Err(format!(
            "{label}: meta_blocking_graph diverged from the oracle"
        ));
    }
    for &w in workers {
        let ctx = Context::new(w);
        if parallel::meta_blocking(&ctx, graph, config) != want {
            return Err(format!(
                "{label}: parallel::meta_blocking diverged at {w} workers"
            ));
        }
        let stream = StreamingMetaBlocking::prepare(&ctx, graph, config);
        let mut scratch = stream.make_scratch();
        let cover: Vec<_> = stream
            .cost_morsels(7)
            .into_iter()
            .flat_map(|r| stream.prune_range(r, &mut scratch))
            .collect();
        if cover != want {
            return Err(format!(
                "{label}: cost_morsels cover diverged at {w} workers"
            ));
        }
    }
    Ok(())
}

/// The block graph of `coll`, with varied per-block entropies when
/// `use_entropy` asks for them.
fn graph_of(coll: &ProfileCollection, use_entropy: bool) -> Arc<BlockGraph> {
    let blocks = token_blocking(coll);
    let entropies = use_entropy.then(|| {
        BlockEntropies::new(
            (0..blocks.len())
                .map(|b| 0.1 + (b % 5) as f64 * 0.3)
                .collect(),
        )
    });
    Arc::new(BlockGraph::new(&blocks, entropies.as_ref()))
}

/// A supervised model over shared blocks, Jaccard and the max-degree
/// feature, so the degree statistics feed the weights.
fn supervised_model(shared: f64, jaccard: f64, max_degree: f64, bias: f64) -> LinearModel {
    let mut model = LinearModel::zero();
    model.weights[0] = shared;
    model.weights[3] = jaccard;
    model.weights[11] = max_degree;
    model.bias = bias;
    model
}

fn pruning_strategy() -> impl Strategy<Value = PruningStrategy> {
    prop_oneof![
        (0.3f64..1.6).prop_map(|factor| PruningStrategy::Wep { factor }),
        prop::option::of(1u64..40).prop_map(|retain| PruningStrategy::Cep { retain }),
        (0.3f64..1.6, proptest::bool::ANY)
            .prop_map(|(factor, reciprocal)| PruningStrategy::Wnp { factor, reciprocal }),
        (prop::option::of(1usize..5), proptest::bool::ANY)
            .prop_map(|(k, reciprocal)| PruningStrategy::Cnp { k, reciprocal }),
        (0.05f64..1.0).prop_map(|ratio| PruningStrategy::Blast { ratio }),
    ]
}

/// Classic and supervised scorers, with and without entropy weighting.
fn oracle_config_strategy() -> impl Strategy<Value = MetaBlockingConfig> {
    let scorer = prop_oneof![
        prop::sample::select(WeightScheme::ALL.to_vec()).prop_map(EdgeScorer::Classic),
        (-1.0f64..1.0, 0.0f64..3.0, -0.05f64..0.05, -1.5f64..0.5)
            .prop_map(|(s, j, d, b)| { EdgeScorer::Supervised(supervised_model(s, j, d, b)) }),
    ];
    (scorer, pruning_strategy(), proptest::bool::ANY).prop_map(|(scorer, pruning, use_entropy)| {
        MetaBlockingConfig {
            scorer,
            pruning,
            use_entropy,
        }
    })
}

fn config_strategy() -> impl Strategy<Value = MetaBlockingConfig> {
    let scheme = prop::sample::select(WeightScheme::ALL.to_vec());
    (scheme, pruning_strategy()).prop_map(|(scheme, pruning)| MetaBlockingConfig {
        scorer: EdgeScorer::Classic(scheme),
        pruning,
        use_entropy: false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn retained_edges_are_a_subset_of_block_pairs(
        coll in collection_strategy(),
        config in config_strategy(),
    ) {
        let blocks = token_blocking(&coll);
        let all_pairs: HashSet<Pair> = blocks.candidate_pairs();
        let graph = BlockGraph::new(&blocks, None);
        let retained = meta_blocking_graph(&graph, &config);
        for (pair, weight) in &retained {
            prop_assert!(all_pairs.contains(pair), "invented edge {pair}");
            prop_assert!(weight.is_finite() && *weight >= 0.0);
        }
        // Output sorted and duplicate-free.
        for w in retained.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn parallel_equals_sequential(
        coll in collection_strategy(),
        config in oracle_config_strategy(),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = graph_of(&coll, config.use_entropy);
        check_against_oracle(&graph, &config, &[workers]).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn scheduled_parallel_equals_sequential(
        coll in prop_oneof![collection_strategy(), skewed_collection_strategy()],
        config in oracle_config_strategy(),
    ) {
        // Hub-heavy graphs as well as uniform ones: the degree-cut pass-B
        // morsels and the pass-A morsels must not change a bit at any
        // worker count.
        let graph = graph_of(&coll, config.use_entropy);
        check_against_oracle(&graph, &config, &[1, 2, 8]).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn wep_threshold_monotone(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let count = |factor: f64| {
            meta_blocking_graph(&graph, &MetaBlockingConfig {
                pruning: PruningStrategy::Wep { factor },
                ..MetaBlockingConfig::default()
            }).len()
        };
        prop_assert!(count(0.5) >= count(1.0));
        prop_assert!(count(1.0) >= count(1.5));
    }

    #[test]
    fn uniform_entropies_do_not_change_cbs_ordering(coll in collection_strategy()) {
        // With identical per-block entropies e, CBS-with-entropy weights are
        // exactly e × CBS weights, so WEP-at-mean retains identical pairs.
        // Use a power of two so the scaling is exact in floating point
        // (ties at the mean must not flip).
        let blocks = token_blocking(&coll);
        let graph_plain = BlockGraph::new(&blocks, None);
        let entropies = BlockEntropies::new(vec![0.5; blocks.len()]);
        let graph_e = BlockGraph::new(&blocks, Some(&entropies));
        let base = MetaBlockingConfig::default();
        let with_e = MetaBlockingConfig { use_entropy: true, ..base };
        let plain: Vec<Pair> = meta_blocking_graph(&graph_plain, &base).into_iter().map(|(p, _)| p).collect();
        let weighted: Vec<Pair> = meta_blocking_graph(&graph_e, &with_e).into_iter().map(|(p, _)| p).collect();
        prop_assert_eq!(plain, weighted);
    }

    #[test]
    fn neighborhoods_symmetric_and_positive(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        for i in 0..graph.num_profiles() as u32 {
            let node = sparker_profiles::ProfileId(i);
            for (j, acc) in graph.neighborhood(node) {
                prop_assert!(acc.shared_blocks >= 1);
                prop_assert!(acc.arcs > 0.0);
                let back = graph.neighborhood(j);
                let reverse = back.iter().find(|(p, _)| *p == node);
                prop_assert!(reverse.is_some(), "asymmetric edge {node}-{j}");
                prop_assert_eq!(reverse.unwrap().1, acc);
            }
        }
    }

    #[test]
    fn edge_features_finite_and_in_range(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        // A supervised scorer requests degrees, exercising every feature.
        let scoring =
            ScoringContext::new(&graph, EdgeScorer::Supervised(LinearModel::zero()), false);
        let mut scratch = graph.scratch();
        for i in 0..graph.num_profiles() as u32 {
            let node = sparker_profiles::ProfileId(i);
            let blocks_node = graph.blocks_of(node).len();
            for (j, acc) in graph.neighborhood_with(node, &mut scratch) {
                if node >= j {
                    continue;
                }
                let f = scoring.features(node, j, &acc, blocks_node, graph.blocks_of(j).len());
                let vals = f.as_array();
                prop_assert_eq!(vals.len(), NUM_FEATURES);
                for (k, v) in vals.iter().enumerate() {
                    prop_assert!(v.is_finite() && *v >= 0.0, "feature {} = {}", k, v);
                }
                // The ratio features (jaccard/dice/cosine, normalized block
                // counts) are bounded by 1; the min/max pairs are ordered.
                for k in [3usize, 4, 5, 8, 9] {
                    prop_assert!(vals[k] <= 1.0 + 1e-12, "ratio feature {} = {}", k, vals[k]);
                }
                prop_assert!(vals[6] <= vals[7], "block-count min > max");
                prop_assert!(vals[10] <= vals[11], "degree min > max");
            }
        }
    }

    #[test]
    fn one_hot_cbs_model_ranks_edges_like_cbs(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let cbs = ScoringContext::new(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false);
        let one_hot =
            ScoringContext::new(&graph, EdgeScorer::Supervised(LinearModel::one_hot(0)), false);
        let mut scratch = graph.scratch();
        let mut scores = Vec::new();
        for i in 0..graph.num_profiles() as u32 {
            let node = sparker_profiles::ProfileId(i);
            let bn = graph.blocks_of(node).len();
            for (j, acc) in graph.neighborhood_with(node, &mut scratch) {
                if node >= j {
                    continue;
                }
                let bj = graph.blocks_of(j).len();
                scores.push((
                    cbs.weigh(node, j, &acc, bn, bj),
                    one_hot.weigh(node, j, &acc, bn, bj),
                ));
            }
        }
        // The sigmoid is strictly monotone, so the pairwise ordering of the
        // one-hot CBS model must agree with raw CBS everywhere.
        for a in &scores {
            for b in &scores {
                prop_assert_eq!(
                    a.0.partial_cmp(&b.0),
                    a.1.partial_cmp(&b.1),
                    "order flip: CBS ({}, {}) vs model ({}, {})",
                    a.0, b.0, a.1, b.1
                );
            }
        }
    }

    #[test]
    fn cep_budget_respected_up_to_ties(coll in collection_strategy(), budget in 1u64..30) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let retained = meta_blocking_graph(&graph, &MetaBlockingConfig {
            pruning: PruningStrategy::Cep { retain: Some(budget) },
            ..MetaBlockingConfig::default()
        });
        // Ties at the threshold may exceed the budget, but the (budget+1)-th
        // distinct weight must not appear.
        if retained.len() as u64 > budget {
            let min = retained.iter().map(|(_, w)| *w).fold(f64::INFINITY, f64::min);
            let at_min = retained.iter().filter(|(_, w)| *w == min).count() as u64;
            prop_assert!(retained.len() as u64 - at_min < budget, "non-tie overflow");
        }
    }
}

/// Deterministic exhaustive companion to `scheduled_parallel_equals_sequential`:
/// every scorer (each classic scheme and a supervised model) × pruning
/// strategy, with and without entropy weighting, at 1/2/8 workers, on one
/// fixed hub-skewed and one fixed uniform collection.
#[test]
fn full_matrix_matches_oracle_at_1_2_8_workers() {
    let make = |skewed: bool| -> ProfileCollection {
        let profiles = (0..60)
            .map(|i| {
                let mut text = format!("tok{} tok{}", i % 9, (i * 7 + 3) % 9);
                if skewed && i < 8 {
                    text.push_str(" hub0 hub1");
                }
                Profile::builder(SourceId(0), i.to_string())
                    .attr("text", text)
                    .build()
            })
            .collect();
        ProfileCollection::dirty(profiles)
    };
    let prunings = [
        PruningStrategy::Wep { factor: 1.0 },
        PruningStrategy::Cep { retain: Some(25) },
        PruningStrategy::Wnp {
            factor: 1.0,
            reciprocal: true,
        },
        PruningStrategy::Cnp {
            k: Some(3),
            reciprocal: false,
        },
        PruningStrategy::Cnp {
            k: None,
            reciprocal: true,
        },
        PruningStrategy::Blast { ratio: 0.35 },
    ];
    let scorers = WeightScheme::ALL
        .into_iter()
        .map(EdgeScorer::Classic)
        .chain([EdgeScorer::Supervised(supervised_model(
            0.4, 2.5, -0.01, -1.0,
        ))]);
    let scorers: Vec<EdgeScorer> = scorers.collect();
    for coll in [make(true), make(false)] {
        for use_entropy in [false, true] {
            let graph = graph_of(&coll, use_entropy);
            for &scorer in &scorers {
                for pruning in prunings {
                    let config = MetaBlockingConfig {
                        scorer,
                        pruning,
                        use_entropy,
                    };
                    if let Err(e) = check_against_oracle(&graph, &config, &[1, 2, 8]) {
                        panic!("{e}");
                    }
                }
            }
        }
    }
}
