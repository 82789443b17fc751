//! Edge weighting schemes for the blocking graph.

use crate::graph::EdgeAccumulator;
use sparker_profiles::ProfileId;

/// Global statistics some schemes need, computed once per graph.
#[derive(Debug, Clone)]
pub(crate) struct GlobalStats {
    /// Total number of blocks.
    pub num_blocks: u64,
    /// Node degrees (for EJS), empty unless the scheme needs them.
    pub degrees: Vec<u32>,
    /// Total number of distinct edges (for EJS).
    pub num_edges: u64,
}

/// The edge weighting schemes of the meta-blocking literature, plus
/// Blast's χ².
///
/// All weights grow with the evidence that the two profiles match; the
/// pruning strategies are scheme-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightScheme {
    /// Common Blocks Scheme: the number of shared blocks. The weighting of
    /// the paper's Figure 1(c) toy example.
    Cbs,
    /// Enhanced CBS: CBS × log(|B|/|Bᵢ|) × log(|B|/|Bⱼ|) — discounts
    /// profiles that appear in many blocks.
    Ecbs,
    /// Jaccard Scheme: |Bᵢ∩Bⱼ| / |Bᵢ∪Bⱼ|.
    Js,
    /// Enhanced JS: JS × log(|E|/vᵢ) × log(|E|/vⱼ) with v = node degree,
    /// |E| = total edges.
    Ejs,
    /// Aggregate Reciprocal Comparisons: Σ_b 1/‖b‖ — small blocks count
    /// more.
    Arcs,
    /// Pearson's χ² test of the co-occurrence contingency table — the
    /// weighting Blast introduces.
    ChiSquare,
}

impl WeightScheme {
    /// All schemes, for experiment sweeps.
    pub const ALL: [WeightScheme; 6] = [
        WeightScheme::Cbs,
        WeightScheme::Ecbs,
        WeightScheme::Js,
        WeightScheme::Ejs,
        WeightScheme::Arcs,
        WeightScheme::ChiSquare,
    ];

    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            WeightScheme::Cbs => "CBS",
            WeightScheme::Ecbs => "ECBS",
            WeightScheme::Js => "JS",
            WeightScheme::Ejs => "EJS",
            WeightScheme::Arcs => "ARCS",
            WeightScheme::ChiSquare => "CHI2",
        }
    }

    /// `true` when entropy re-weighting multiplies per-block contributions
    /// (CBS/ARCS) rather than the final weight.
    fn entropy_is_additive(&self) -> bool {
        matches!(self, WeightScheme::Cbs | WeightScheme::Arcs)
    }

    /// Weight of the edge `(a, b)` from its accumulator and both nodes'
    /// block counts.
    ///
    /// With `use_entropy`, CBS becomes Σ entropy(b) over shared blocks —
    /// the exact weighting of the paper's Figure 2(c) toy example — ARCS
    /// weights each reciprocal by the entropy, and the remaining schemes
    /// multiply their weight by the mean entropy of the shared blocks.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn weight(
        &self,
        a: ProfileId,
        b: ProfileId,
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
        stats: &GlobalStats,
        use_entropy: bool,
    ) -> f64 {
        let shared = acc.shared_blocks as f64;
        debug_assert!(acc.shared_blocks > 0, "edges require ≥1 shared block");
        let base = match self {
            WeightScheme::Cbs => {
                if use_entropy {
                    return acc.entropy_sum;
                }
                shared
            }
            WeightScheme::Arcs => {
                if use_entropy {
                    // Mean entropy scales the reciprocal-comparisons mass.
                    return acc.arcs * (acc.entropy_sum / shared);
                }
                acc.arcs
            }
            WeightScheme::Ecbs | WeightScheme::Js | WeightScheme::ChiSquare => self
                .count_weight(acc.shared_blocks, blocks_a, blocks_b, stats.num_blocks)
                .expect("ECBS, JS and χ² are count schemes"),
            WeightScheme::Ejs => {
                let js = WeightScheme::Js
                    .count_weight(acc.shared_blocks, blocks_a, blocks_b, stats.num_blocks)
                    .expect("JS is a count scheme");
                let e = stats.num_edges.max(1) as f64;
                let va = stats.degrees[a.index()].max(1) as f64;
                let vb = stats.degrees[b.index()].max(1) as f64;
                js * (e / va).ln().max(0.0) * (e / vb).ln().max(0.0)
            }
        };
        self.finish(base, acc, use_entropy)
    }

    /// The integer-input base weight of the *count schemes* — ECBS, JS and
    /// χ², whose weight before entropy re-weighting depends only on the
    /// shared block count, both endpoints' block counts and the total
    /// block count. `None` for the other schemes. The scorer tabulates
    /// this function ([`crate::ScoringContext`]), so table and direct path
    /// share one formula.
    pub(crate) fn count_weight(
        &self,
        shared: u32,
        blocks_a: usize,
        blocks_b: usize,
        num_blocks: u64,
    ) -> Option<f64> {
        let shared = shared as f64;
        Some(match self {
            WeightScheme::Ecbs => {
                let nb = num_blocks.max(1) as f64;
                shared
                    * (nb / (blocks_a.max(1)) as f64).ln().max(0.0)
                    * (nb / (blocks_b.max(1)) as f64).ln().max(0.0)
            }
            WeightScheme::Js => shared / (blocks_a as f64 + blocks_b as f64 - shared),
            WeightScheme::ChiSquare => {
                // 2×2 contingency table over blocks: does co-occurrence
                // exceed what the two profiles' block counts predict?
                let n = num_blocks.max(1) as f64;
                let n11 = shared;
                let n10 = blocks_a as f64 - shared;
                let n01 = blocks_b as f64 - shared;
                let n00 = (n - blocks_a as f64 - blocks_b as f64 + shared).max(0.0);
                chi_square_2x2(n11, n10, n01, n00)
            }
            WeightScheme::Cbs | WeightScheme::Arcs | WeightScheme::Ejs => return None,
        })
    }

    /// Entropy finish of a non-additive scheme's `base` weight: × the mean
    /// entropy of the shared blocks when `use_entropy`, unchanged
    /// otherwise.
    pub(crate) fn finish(&self, base: f64, acc: &EdgeAccumulator, use_entropy: bool) -> f64 {
        if use_entropy && !self.entropy_is_additive() {
            base * (acc.entropy_sum / acc.shared_blocks as f64)
        } else {
            base
        }
    }
}

/// Pearson χ² statistic of a 2×2 contingency table.
fn chi_square_2x2(n11: f64, n10: f64, n01: f64, n00: f64) -> f64 {
    let total = n11 + n10 + n01 + n00;
    if total == 0.0 {
        return 0.0;
    }
    let r1 = n11 + n10;
    let r0 = n01 + n00;
    let c1 = n11 + n01;
    let c0 = n10 + n00;
    let mut chi = 0.0;
    for (observed, row, col) in [(n11, r1, c1), (n10, r1, c0), (n01, r0, c1), (n00, r0, c0)] {
        let expected = row * col / total;
        if expected > 0.0 {
            let d = observed - expected;
            chi += d * d / expected;
        }
    }
    chi
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

    fn stats(num_blocks: u64) -> GlobalStats {
        GlobalStats {
            num_blocks,
            degrees: vec![2, 2, 2, 2],
            num_edges: 4,
        }
    }

    fn w(
        scheme: WeightScheme,
        a: &EdgeAccumulator,
        ba: usize,
        bb: usize,
        s: &GlobalStats,
        ent: bool,
    ) -> f64 {
        scheme.weight(ProfileId(0), ProfileId(2), a, ba, bb, s, ent)
    }

    #[test]
    fn cbs_counts_shared_blocks() {
        assert_eq!(
            w(WeightScheme::Cbs, &acc(3, 1.5, 1.2), 4, 4, &stats(5), false),
            3.0
        );
    }

    #[test]
    fn cbs_with_entropy_sums_entropies() {
        // Figure 2(c): w(p1,p3) = 0.4 + 0.8 + 0.4 = 1.6.
        assert!(
            (w(WeightScheme::Cbs, &acc(3, 1.5, 1.6), 4, 4, &stats(5), true) - 1.6).abs() < 1e-12
        );
    }

    #[test]
    fn js_is_jaccard_of_block_sets() {
        // 3 shared, 4+4 total → 3/5.
        assert!(
            (w(WeightScheme::Js, &acc(3, 0.0, 0.0), 4, 4, &stats(5), false) - 0.6).abs() < 1e-12
        );
    }

    #[test]
    fn arcs_passes_through_accumulator() {
        assert_eq!(
            w(
                WeightScheme::Arcs,
                &acc(2, 0.75, 0.0),
                4,
                4,
                &stats(5),
                false
            ),
            0.75
        );
    }

    #[test]
    fn ecbs_discounts_block_heavy_profiles() {
        let s = stats(100);
        let light = w(WeightScheme::Ecbs, &acc(2, 0.0, 0.0), 4, 4, &s, false);
        let heavy = w(WeightScheme::Ecbs, &acc(2, 0.0, 0.0), 50, 50, &s, false);
        assert!(light > heavy);
    }

    #[test]
    fn ejs_uses_degrees_and_edges() {
        let s = GlobalStats {
            num_blocks: 10,
            degrees: vec![1, 0, 4, 0],
            num_edges: 8,
        };
        let low_degree = WeightScheme::Ejs.weight(
            ProfileId(0),
            ProfileId(0),
            &acc(2, 0.0, 0.0),
            4,
            4,
            &s,
            false,
        );
        let high_degree = WeightScheme::Ejs.weight(
            ProfileId(2),
            ProfileId(2),
            &acc(2, 0.0, 0.0),
            4,
            4,
            &s,
            false,
        );
        assert!(low_degree > high_degree);
    }

    #[test]
    fn chi_square_detects_association() {
        // Perfect co-occurrence vs independence.
        let s = stats(100);
        let associated = w(
            WeightScheme::ChiSquare,
            &acc(10, 0.0, 0.0),
            10,
            10,
            &s,
            false,
        );
        let independent = w(
            WeightScheme::ChiSquare,
            &acc(1, 0.0, 0.0),
            10,
            10,
            &s,
            false,
        );
        assert!(associated > independent);
        assert!(associated > 0.0);
    }

    #[test]
    fn chi_square_2x2_known_value() {
        // Table [[10,0],[0,10]] → χ² = 20.
        assert!((chi_square_2x2(10.0, 0.0, 0.0, 10.0) - 20.0).abs() < 1e-9);
        assert_eq!(chi_square_2x2(0.0, 0.0, 0.0, 0.0), 0.0);
        // Independent table → χ² = 0.
        assert!(chi_square_2x2(25.0, 25.0, 25.0, 25.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_multiplies_ratio_schemes() {
        let a = acc(2, 0.0, 1.0); // mean entropy 0.5
        let plain = w(WeightScheme::Js, &a, 4, 4, &stats(5), false);
        let weighted = w(WeightScheme::Js, &a, 4, 4, &stats(5), true);
        assert!((weighted - plain * 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_schemes_nonnegative() {
        let s = stats(20);
        for scheme in WeightScheme::ALL {
            for ent in [false, true] {
                let v = w(scheme, &acc(1, 0.1, 0.3), 3, 7, &s, ent);
                assert!(v >= 0.0, "{} ({ent}) gave {v}", scheme.name());
            }
        }
    }
}
