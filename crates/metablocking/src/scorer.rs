//! The pluggable edge-scoring seam.
//!
//! Every execution path of meta-blocking — the node-pass kernel
//! ([`crate::StreamingMetaBlocking`]) that the sequential
//! ([`crate::meta_blocking_graph`]), broadcast-join parallel
//! ([`crate::parallel::meta_blocking`]) and fused drivers all run,
//! progressive ([`crate::progressive_global`] /
//! [`crate::progressive_node_first`]) and the online resolver's batch
//! refresh — weighs a candidate edge the same way: it materializes the
//! edge's [`EdgeAccumulator`] and asks a [`ScoringContext`] for the
//! weight. The context owns everything global (block count, node degrees
//! when the scorer reads them, the entropy precondition) so the drivers
//! carry no weighting logic of their own.
//!
//! Two scorer families plug into the seam:
//!
//! * [`EdgeScorer::Classic`] — the literature's closed-form schemes
//!   ([`WeightScheme`]). The context delegates verbatim to
//!   [`WeightScheme`]'s own weight function, so classic runs are
//!   **bit-identical** to the pre-seam implementation (pinned by the
//!   scheme × pruning × backend parity matrix and proptests).
//! * [`EdgeScorer::Supervised`] — *Generalized Supervised Meta-blocking*:
//!   the co-occurrence statistics are treated as a feature vector
//!   ([`EdgeFeatures`]) and scored by a logistic [`LinearModel`] trained
//!   in-repo against synthetic ground truth (see [`crate::train_supervised`]).
//!   Model weights serialize to/from a one-line JSON object so CLI runs
//!   are reproducible.
//!
//! ## The base-weight table
//!
//! ECBS, JS and χ² are *count schemes*: before the entropy finish, their
//! weight is a function of four integers — shared blocks `s`, the two
//! endpoints' block counts `a` and `b`, and the total block count `|B|`
//! (`WeightScheme::count_weight`). After block filtering no profile sits
//! in more than a handful of blocks, so for these schemes the context
//! fills a table `[a][b][s]` over `0 ≤ a, b, s ≤ m`, `m` the graph's
//! largest block count per profile, by calling that same function: a
//! lookup returns the exact bits of the direct evaluation and replaces a
//! logarithm pair (ECBS) or a 2×2 χ² statistic per edge. The table is
//! built only when its `(m + 1)³` entries do not outnumber the graph's
//! profile→block assignments, so it never outgrows the index it
//! summarizes; without it, and for inputs outside it, CBS, ARCS, EJS and
//! supervised scorers, weights take the direct path.

use crate::graph::{BlockGraph, EdgeAccumulator};
use crate::weights::{GlobalStats, WeightScheme};
use sparker_profiles::ProfileId;

/// Number of features in an [`EdgeFeatures`] vector.
pub const NUM_FEATURES: usize = 12;

/// Stable feature names, index-aligned with [`EdgeFeatures::as_array`].
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "shared_blocks",
    "arcs",
    "entropy_sum",
    "jaccard",
    "dice",
    "cosine",
    "blocks_min",
    "blocks_max",
    "norm_blocks_min",
    "norm_blocks_max",
    "degree_min",
    "degree_max",
];

/// The full per-edge feature vector, extracted in one pass from the same
/// [`EdgeAccumulator`] the classic schemes consume.
///
/// Features are **symmetric** in the two endpoints (min/max instead of
/// (a, b) order): the node-centric passes weigh every edge from both
/// endpoints, and the two evaluations must agree bit for bit.
///
/// | index | feature | range |
/// |---|---|---|
/// | 0 | shared blocks (CBS) | ≥ 1 |
/// | 1 | ARCS mass Σ 1/‖b‖ | > 0 |
/// | 2 | summed block entropy (= shared when the graph has none) | ≥ 0 |
/// | 3 | Jaccard of the block sets | (0, 1] |
/// | 4 | Dice 2s/(‖Bᵢ‖+‖Bⱼ‖) | (0, 1] |
/// | 5 | cosine s/√(‖Bᵢ‖·‖Bⱼ‖) | (0, 1] |
/// | 6 | min block count | ≥ 1 |
/// | 7 | max block count | ≥ 1 |
/// | 8 | min block count / total blocks | (0, 1] |
/// | 9 | max block count / total blocks | (0, 1] |
/// | 10 | min node degree | ≥ 0 |
/// | 11 | max node degree | ≥ 0 |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFeatures([f64; NUM_FEATURES]);

impl EdgeFeatures {
    /// Extract the feature vector from one edge's accumulator and both
    /// endpoints' global statistics.
    pub fn extract(
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
        num_blocks: u64,
        degree_a: u32,
        degree_b: u32,
    ) -> EdgeFeatures {
        let shared = acc.shared_blocks as f64;
        debug_assert!(acc.shared_blocks > 0, "edges require ≥1 shared block");
        let (ba, bb) = (blocks_a.max(1) as f64, blocks_b.max(1) as f64);
        let (bmin, bmax) = if ba <= bb { (ba, bb) } else { (bb, ba) };
        let nb = num_blocks.max(1) as f64;
        let (da, db) = (degree_a as f64, degree_b as f64);
        let (dmin, dmax) = if da <= db { (da, db) } else { (db, da) };
        EdgeFeatures([
            shared,
            acc.arcs,
            acc.entropy_sum,
            shared / (ba + bb - shared),
            2.0 * shared / (ba + bb),
            shared / (ba * bb).sqrt(),
            bmin,
            bmax,
            bmin / nb,
            bmax / nb,
            dmin,
            dmax,
        ])
    }

    /// The features as a fixed array, index-aligned with [`FEATURE_NAMES`].
    pub fn as_array(&self) -> &[f64; NUM_FEATURES] {
        &self.0
    }
}

/// A linear (logistic) model over [`EdgeFeatures`]: the supervised edge
/// scorer's weights, `score = σ(bias + w · features)`.
///
/// The sigmoid is strictly monotone, so a model with a single non-zero
/// weight ranks edges exactly as that raw feature does — a one-hot model
/// over the CBS feature reproduces CBS's edge ordering (pinned by
/// proptest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Per-feature coefficients, index-aligned with [`FEATURE_NAMES`].
    pub weights: [f64; NUM_FEATURES],
    /// Intercept.
    pub bias: f64,
}

impl LinearModel {
    /// The all-zero model (scores every edge 0.5).
    pub fn zero() -> LinearModel {
        LinearModel {
            weights: [0.0; NUM_FEATURES],
            bias: 0.0,
        }
    }

    /// A model reading a single raw feature with unit weight.
    pub fn one_hot(feature: usize) -> LinearModel {
        let mut m = LinearModel::zero();
        m.weights[feature] = 1.0;
        m
    }

    /// Score a feature vector: `σ(bias + w · f)` ∈ (0, 1).
    pub fn score(&self, features: &EdgeFeatures) -> f64 {
        let mut z = self.bias;
        for (w, f) in self.weights.iter().zip(features.as_array()) {
            z += w * f;
        }
        sigmoid(z)
    }

    /// Serialize to a one-line JSON object:
    /// `{"bias":…,"weights":[…12 floats…]}`. Floats use Rust's shortest
    /// round-trip formatting, so [`LinearModel::from_json`] restores the
    /// exact bits.
    pub fn to_json(&self) -> String {
        let ws: Vec<String> = self.weights.iter().map(|w| format!("{w:?}")).collect();
        format!(
            "{{\"bias\":{:?},\"weights\":[{}]}}",
            self.bias,
            ws.join(",")
        )
    }

    /// Parse the JSON produced by [`LinearModel::to_json`] (whitespace and
    /// key order are flexible).
    pub fn from_json(text: &str) -> Result<LinearModel, String> {
        let bias = json_number_field(text, "bias")?;
        let list = json_array_field(text, "weights")?;
        let mut weights = [0.0f64; NUM_FEATURES];
        let parts: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect();
        if parts.len() != NUM_FEATURES {
            return Err(format!(
                "\"weights\" needs exactly {NUM_FEATURES} entries, got {}",
                parts.len()
            ));
        }
        for (slot, part) in weights.iter_mut().zip(&parts) {
            *slot = part
                .parse::<f64>()
                .map_err(|_| format!("invalid weight {part:?}"))?;
        }
        if !bias.is_finite() || weights.iter().any(|w| !w.is_finite()) {
            return Err("model coefficients must be finite".to_string());
        }
        Ok(LinearModel { weights, bias })
    }
}

/// Locate `"key":` in `text` and return the byte offset just past the colon.
fn json_value_start(text: &str, key: &str) -> Result<usize, String> {
    let pat = format!("\"{key}\"");
    let at = text
        .find(&pat)
        .ok_or_else(|| format!("missing \"{key}\" field"))?;
    let rest = &text[at + pat.len()..];
    let colon = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("expected ':' after \"{key}\""))?;
    Ok(text.len() - colon.len())
}

/// Parse a bare JSON number field.
fn json_number_field(text: &str, key: &str) -> Result<f64, String> {
    let start = json_value_start(text, key)?;
    let rest = text[start..].trim_start();
    let end = rest
        .find([',', '}', ']'])
        .ok_or_else(|| format!("unterminated \"{key}\" value"))?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("invalid number for \"{key}\": {:?}", rest[..end].trim()))
}

/// Return the contents of a JSON array field (between `[` and `]`).
fn json_array_field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let start = json_value_start(text, key)?;
    let rest = text[start..].trim_start();
    let inner = rest
        .strip_prefix('[')
        .ok_or_else(|| format!("\"{key}\" must be an array"))?;
    let close = inner
        .find(']')
        .ok_or_else(|| format!("unterminated \"{key}\" array"))?;
    Ok(&inner[..close])
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// The pluggable edge scorer: which function maps an edge's co-occurrence
/// statistics to its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeScorer {
    /// A closed-form scheme from the meta-blocking literature; routed
    /// verbatim through [`WeightScheme`], bit-identical to the pre-seam
    /// code.
    Classic(WeightScheme),
    /// A trained logistic model over [`EdgeFeatures`] (Generalized
    /// Supervised Meta-blocking).
    Supervised(LinearModel),
}

impl EdgeScorer {
    /// Stable name for reports and experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeScorer::Classic(scheme) => scheme.name(),
            EdgeScorer::Supervised(_) => "SUPERVISED",
        }
    }

    /// Does weighing an edge read node degrees? True for EJS (its
    /// discounting terms) and every supervised model (the degree
    /// features) — the drivers use this to decide whether a degree pass
    /// must run before pass A.
    pub fn needs_degrees(&self) -> bool {
        matches!(
            self,
            EdgeScorer::Classic(WeightScheme::Ejs) | EdgeScorer::Supervised(_)
        )
    }

    /// The classic scheme, if this is one.
    pub fn classic(&self) -> Option<WeightScheme> {
        match self {
            EdgeScorer::Classic(scheme) => Some(*scheme),
            EdgeScorer::Supervised(_) => None,
        }
    }
}

impl Default for EdgeScorer {
    /// CBS — the default of [`crate::MetaBlockingConfig`].
    fn default() -> Self {
        EdgeScorer::Classic(WeightScheme::Cbs)
    }
}

/// Everything global an edge weight depends on, checked and computed once
/// per graph: the scorer, the entropy flag, block count and (when the
/// scorer reads them) node degrees.
///
/// This is the single home of the `use_entropy` precondition that used to
/// be asserted separately by every driver: both constructors reject a
/// graph built without [`crate::BlockEntropies`] when entropy weighting is
/// requested.
#[derive(Debug, Clone)]
pub struct ScoringContext {
    scorer: EdgeScorer,
    use_entropy: bool,
    stats: GlobalStats,
    /// Count-scheme base weights, when tabulated (see the module docs).
    table: Option<BaseTable>,
}

/// `WeightScheme::count_weight` tabulated over `[a][b][s]`,
/// `0 ≤ a, b, s ≤ max`.
#[derive(Debug, Clone)]
struct BaseTable {
    max: usize,
    values: Vec<f64>,
}

impl BaseTable {
    /// The table of `scheme` for `graph`, or `None` when the scheme is not
    /// a count scheme or the table would have more entries than the graph
    /// has profile→block assignments.
    fn build(graph: &BlockGraph, scheme: WeightScheme) -> Option<BaseTable> {
        let max = graph.max_blocks_per_profile();
        let side = max + 1;
        let entries = (side as u64).checked_pow(3)?;
        if entries > graph.total_assignments() {
            return None;
        }
        let num_blocks = graph.num_blocks() as u64;
        let mut values = Vec::with_capacity(side.pow(3));
        for a in 0..side {
            for b in 0..side {
                for s in 0..side {
                    values.push(scheme.count_weight(s as u32, a, b, num_blocks)?);
                }
            }
        }
        Some(BaseTable { max, values })
    }

    /// The tabulated base weight, `None` outside the table.
    fn get(&self, shared: u32, blocks_a: usize, blocks_b: usize) -> Option<f64> {
        let (m, s) = (self.max, shared as usize);
        (blocks_a <= m && blocks_b <= m && s <= m)
            .then(|| self.values[(blocks_a * (m + 1) + blocks_b) * (m + 1) + s])
    }
}

impl ScoringContext {
    /// Build a context, computing node degrees serially iff
    /// [`EdgeScorer::needs_degrees`].
    ///
    /// # Panics
    /// When `use_entropy` is set but `graph` was built without
    /// [`crate::BlockEntropies`].
    pub fn new(graph: &BlockGraph, scorer: EdgeScorer, use_entropy: bool) -> ScoringContext {
        let (degrees, num_edges) = if scorer.needs_degrees() {
            graph.degrees()
        } else {
            (Vec::new(), 0)
        };
        Self::with_degrees(graph, scorer, use_entropy, degrees, num_edges)
    }

    /// Build a context from a degree vector the caller already computed
    /// (e.g. by the node-parallel [`crate::parallel::degrees_parallel`]).
    /// Degrees are kept only when the scorer reads them, so the resulting
    /// context is identical to [`ScoringContext::new`].
    ///
    /// # Panics
    /// As [`ScoringContext::new`].
    pub fn with_degrees(
        graph: &BlockGraph,
        scorer: EdgeScorer,
        use_entropy: bool,
        degrees: Vec<u32>,
        num_edges: u64,
    ) -> ScoringContext {
        Self::check_entropy(graph, use_entropy);
        let (degrees, num_edges) = if scorer.needs_degrees() {
            (degrees, num_edges)
        } else {
            (Vec::new(), 0)
        };
        ScoringContext {
            scorer,
            use_entropy,
            stats: GlobalStats {
                num_blocks: graph.num_blocks() as u64,
                degrees,
                num_edges,
            },
            table: scorer
                .classic()
                .and_then(|scheme| BaseTable::build(graph, scheme)),
        }
    }

    /// The deduplicated entropy precondition (formerly copy-pasted into
    /// every driver).
    fn check_entropy(graph: &BlockGraph, use_entropy: bool) {
        if use_entropy {
            assert!(
                graph.has_entropies(),
                "use_entropy requires a BlockGraph built with BlockEntropies"
            );
        }
    }

    /// The scorer this context evaluates.
    pub fn scorer(&self) -> EdgeScorer {
        self.scorer
    }

    /// Is entropy re-weighting active?
    pub fn use_entropy(&self) -> bool {
        self.use_entropy
    }

    /// Weight the edge `(a, b)` from its accumulator and both endpoints'
    /// block counts — THE per-edge scoring function every execution path
    /// calls.
    pub fn weigh(
        &self,
        a: ProfileId,
        b: ProfileId,
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
    ) -> f64 {
        match &self.scorer {
            EdgeScorer::Classic(scheme) => {
                match self
                    .table
                    .as_ref()
                    .and_then(|t| t.get(acc.shared_blocks, blocks_a, blocks_b))
                {
                    Some(base) => scheme.finish(base, acc, self.use_entropy),
                    None => {
                        scheme.weight(a, b, acc, blocks_a, blocks_b, &self.stats, self.use_entropy)
                    }
                }
            }
            EdgeScorer::Supervised(model) => {
                model.score(&self.features(a, b, acc, blocks_a, blocks_b))
            }
        }
    }

    /// Extract the edge's full feature vector under this context's global
    /// statistics (degrees read 0 when the scorer did not request them).
    pub fn features(
        &self,
        a: ProfileId,
        b: ProfileId,
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
    ) -> EdgeFeatures {
        let degree = |p: ProfileId| self.stats.degrees.get(p.index()).copied().unwrap_or(0);
        EdgeFeatures::extract(
            acc,
            blocks_a,
            blocks_b,
            self.stats.num_blocks,
            degree(a),
            degree(b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(shared: u32, arcs: f64, entropy_sum: f64) -> EdgeAccumulator {
        EdgeAccumulator {
            shared_blocks: shared,
            arcs,
            entropy_sum,
        }
    }

    /// A dirty graph of `n` profiles that all sit in the same two blocks,
    /// with entropies: `|B| = 2`, every profile in 2 blocks, so χ²'s
    /// `n00 = |B| − a − b + s` goes negative and clamps to 0.
    fn two_block_graph(n: usize) -> BlockGraph {
        use sparker_blocking::token_blocking;
        use sparker_profiles::{Profile, ProfileCollection, SourceId};
        let coll = ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("t", "x y")
                        .build()
                })
                .collect(),
        );
        let blocks = token_blocking(&coll);
        let entropies = crate::BlockEntropies::new(vec![0.3, 0.9]);
        BlockGraph::new(&blocks, Some(&entropies))
    }

    /// A dirty graph with a spread of block counts per profile, with
    /// entropies.
    fn varied_graph() -> BlockGraph {
        use sparker_blocking::token_blocking;
        use sparker_profiles::{Profile, ProfileCollection, SourceId};
        let coll = ProfileCollection::dirty(
            (0..60)
                .map(|i| {
                    let words: Vec<String> = (0..1 + i % 4)
                        .map(|k| format!("w{}", (i + 3 * k) % 11))
                        .collect();
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("t", words.join(" "))
                        .build()
                })
                .collect(),
        );
        let blocks = token_blocking(&coll);
        let entropies =
            crate::BlockEntropies::new((0..blocks.len()).map(|b| 0.2 + b as f64 * 0.07).collect());
        BlockGraph::new(&blocks, Some(&entropies))
    }

    const COUNT_SCHEMES: [WeightScheme; 3] = [
        WeightScheme::Ecbs,
        WeightScheme::Js,
        WeightScheme::ChiSquare,
    ];

    #[test]
    fn table_entries_bit_equal_the_direct_weight() {
        for graph in [varied_graph(), two_block_graph(14)] {
            let m = graph.max_blocks_per_profile();
            assert!(m >= 2);
            for scheme in COUNT_SCHEMES {
                for use_entropy in [false, true] {
                    let ctx = ScoringContext::new(&graph, EdgeScorer::Classic(scheme), use_entropy);
                    let table = ctx.table.as_ref().expect("table fits the graph");
                    assert_eq!((table.max, table.values.len()), (m, (m + 1).pow(3)));
                    for a in 1..=m {
                        for b in 1..=m {
                            for s in 1..=a.min(b) as u32 {
                                let acc = acc(s, 0.125 * f64::from(s), 0.37 * f64::from(s));
                                let (pa, pb) = (ProfileId(0), ProfileId(1));
                                let direct =
                                    scheme.weight(pa, pb, &acc, a, b, &ctx.stats, use_entropy);
                                let looked_up = ctx.weigh(pa, pb, &acc, a, b);
                                assert_eq!(
                                    looked_up.to_bits(),
                                    direct.to_bits(),
                                    "{} entropy={use_entropy} a={a} b={b} s={s}",
                                    scheme.name()
                                );
                            }
                        }
                    }
                    // Outside the table the context falls back to the
                    // direct path.
                    assert_eq!(table.get(1, m + 1, 1), None);
                    let far = acc(1, 0.5, 0.6);
                    assert_eq!(
                        ctx.weigh(ProfileId(0), ProfileId(1), &far, m + 3, 1)
                            .to_bits(),
                        scheme
                            .weight(
                                ProfileId(0),
                                ProfileId(1),
                                &far,
                                m + 3,
                                1,
                                &ctx.stats,
                                use_entropy
                            )
                            .to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn chi_square_table_clamps_n00() {
        // |B| = 2, a = b = 2, s = 1: n00 = 2 − 2 − 2 + 1 = −1 clamps to 0,
        // so the cell is χ² of [[1, 1], [1, 0]] = 1/12 + 1/6 + 1/6 + 1/3.
        let scorer = EdgeScorer::Classic(WeightScheme::ChiSquare);
        let ctx = ScoringContext::new(&two_block_graph(14), scorer, false);
        let cell = ctx.table.as_ref().and_then(|t| t.get(1, 2, 2));
        let cell = cell.expect("27 entries ≤ 28 assignments");
        assert!((cell - 0.75).abs() < 1e-12, "{cell}");
    }

    #[test]
    fn table_is_skipped_when_it_would_outgrow_the_index() {
        // Every profile in 2 blocks: the table has 3³ = 27 entries, the
        // index 2 assignments per profile.
        let at_limit = two_block_graph(14); // 28 assignments
        let below = two_block_graph(13); // 26 assignments
        assert_eq!(at_limit.total_assignments(), 28);
        assert_eq!(below.total_assignments(), 26);
        for scheme in COUNT_SCHEMES {
            let scorer = EdgeScorer::Classic(scheme);
            assert!(ScoringContext::new(&at_limit, scorer, false)
                .table
                .is_some());
            assert!(ScoringContext::new(&below, scorer, false).table.is_none());
        }
        // Non-count schemes and supervised scorers never tabulate.
        for scorer in [
            EdgeScorer::Classic(WeightScheme::Cbs),
            EdgeScorer::Classic(WeightScheme::Arcs),
            EdgeScorer::Classic(WeightScheme::Ejs),
            EdgeScorer::Supervised(LinearModel::zero()),
        ] {
            assert!(ScoringContext::new(&at_limit, scorer, false)
                .table
                .is_none());
        }
    }

    #[test]
    fn features_are_symmetric_in_endpoints() {
        let a = EdgeFeatures::extract(&acc(2, 0.5, 2.0), 3, 7, 10, 4, 9);
        let b = EdgeFeatures::extract(&acc(2, 0.5, 2.0), 7, 3, 10, 9, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn feature_values_match_definitions() {
        let f = EdgeFeatures::extract(&acc(2, 0.75, 1.5), 4, 6, 20, 3, 8);
        let v = f.as_array();
        assert_eq!(v[0], 2.0); // shared
        assert_eq!(v[1], 0.75); // arcs
        assert_eq!(v[2], 1.5); // entropy_sum
        assert!((v[3] - 2.0 / 8.0).abs() < 1e-12); // jaccard
        assert!((v[4] - 4.0 / 10.0).abs() < 1e-12); // dice
        assert!((v[5] - 2.0 / 24.0f64.sqrt()).abs() < 1e-12); // cosine
        assert_eq!((v[6], v[7]), (4.0, 6.0)); // blocks min/max
        assert!((v[8] - 0.2).abs() < 1e-12 && (v[9] - 0.3).abs() < 1e-12);
        assert_eq!((v[10], v[11]), (3.0, 8.0)); // degree min/max
    }

    #[test]
    fn one_hot_cbs_score_is_monotone_in_shared_blocks() {
        let m = LinearModel::one_hot(0);
        let lo = m.score(&EdgeFeatures::extract(&acc(1, 0.0, 1.0), 5, 5, 10, 0, 0));
        let hi = m.score(&EdgeFeatures::extract(&acc(4, 0.0, 4.0), 5, 5, 10, 0, 0));
        assert!(hi > lo);
        assert!(lo > 0.0 && hi < 1.0);
    }

    #[test]
    fn model_json_roundtrips_exactly() {
        let mut m = LinearModel::zero();
        for (i, w) in m.weights.iter_mut().enumerate() {
            *w = (i as f64 + 1.0) * 0.317 - 2.0;
        }
        m.bias = -1.25e-3;
        let back = LinearModel::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn model_json_accepts_whitespace_and_key_order() {
        let text = r#" { "weights" : [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5] ,
                         "bias" : -2.0 } "#;
        let m = LinearModel::from_json(text).unwrap();
        assert_eq!(m.weights[0], 1.0);
        assert_eq!(m.weights[11], 0.5);
        assert_eq!(m.bias, -2.0);
    }

    #[test]
    fn malformed_model_json_is_rejected() {
        for (text, needle) in [
            ("{}", "missing \"bias\""),
            ("{\"bias\":0}", "missing \"weights\""),
            ("{\"bias\":x,\"weights\":[]}", "invalid number"),
            ("{\"bias\":0,\"weights\":[1,2]}", "exactly 12"),
            ("{\"bias\":0,\"weights\":0}", "must be an array"),
            ("{\"bias\":0,\"weights\":[1,2,3", "unterminated"),
            (
                // Rust's f64 parser accepts "nan", so this trips the
                // finiteness check rather than the parse.
                "{\"bias\":0,\"weights\":[1,2,3,4,5,6,7,8,9,10,11,nan]}",
                "must be finite",
            ),
            (
                "{\"bias\":0,\"weights\":[1,2,3,4,5,6,7,8,9,10,11,x]}",
                "invalid weight",
            ),
        ] {
            let err = LinearModel::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn scorer_names_and_degree_needs() {
        assert_eq!(EdgeScorer::default().name(), "CBS");
        assert_eq!(
            EdgeScorer::Supervised(LinearModel::zero()).name(),
            "SUPERVISED"
        );
        assert!(!EdgeScorer::Classic(WeightScheme::Cbs).needs_degrees());
        assert!(EdgeScorer::Classic(WeightScheme::Ejs).needs_degrees());
        assert!(EdgeScorer::Supervised(LinearModel::zero()).needs_degrees());
        assert_eq!(
            EdgeScorer::Classic(WeightScheme::Js).classic(),
            Some(WeightScheme::Js)
        );
        assert_eq!(EdgeScorer::Supervised(LinearModel::zero()).classic(), None);
    }
}
