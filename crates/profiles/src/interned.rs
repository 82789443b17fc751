//! The run's one tokenization: a parallel tokenize-and-intern kernel.
//!
//! Token Blocking keys profiles on their tokens and the matcher's set
//! measures compare the same token sets, so a run needs each profile's
//! schema-agnostic token set exactly once, as sorted [`TokenId`]s over one
//! [`TokenDict`]. [`InternedProfiles::build`] produces that: the
//! lexicographic dictionary plus every profile's sorted, deduplicated id
//! list in CSR form ([`ProfileKeys`]). The blocker counting-sorts the lists
//! into blocks and the matcher adopts them as its prepared token views.
//!
//! The kernel runs in three steps:
//!
//! 1. **Tokenize.** Contiguous profile morsels are claimed on the pool.
//!    Each morsel interns its tokens with its own [`DictBuilder`] and keeps
//!    its sorted local vocabulary plus its per-profile lists over local
//!    lexicographic ids.
//! 2. **Merge.** The driver k-way merges the sorted local vocabularies into
//!    the final dictionary. The same linear pass yields each morsel's
//!    local → final id map.
//! 3. **Remap.** The morsels are remapped in parallel and concatenated by
//!    offset. Local and final ids are both lexicographic, so each map is
//!    strictly increasing and a sorted list stays sorted: no re-sort.
//!
//! Without a [`Context`] the same kernel runs on the calling thread, as one
//! morsel when the budget is unlimited. Under a limited [`MemBudget`] the
//! morsels are budget-sized and each one reserves its id run and its
//! vocabulary bytes. A morsel whose reservation fails writes both as
//! [`SpillRun`]s, which steps 2 and 3 stream back. The output is identical
//! for every worker count and budget (pinned by proptests).

use crate::collection::ProfileCollection;
use crate::dict::{DictBuilder, TokenDict};
use crate::profile::Profile;
use crate::tokenize::Token;
use sparker_dataflow::{Context, MemBudget, SpillCodec, SpillRun};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Sizing estimate of a morsel's temporaries per profile (raw id run,
/// list lengths and a share of the local vocabulary), used to size
/// morsels under a limited budget.
const BYTES_PER_PROFILE: usize = 256;

/// Per-profile key-id lists in CSR form: the keys of profile `p` are
/// `ids[offsets[p]..offsets[p + 1]]`, each list sorted and deduplicated.
/// The kernel's per-profile output, and the input of the blocker's
/// counting-sort block construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileKeys {
    ids: Vec<u32>,
    offsets: Vec<u32>,
}

impl ProfileKeys {
    /// Collect per-profile key lists. `fill` appends the (unsorted,
    /// possibly duplicated) key ids of one profile into the buffer; the
    /// builder sorts and deduplicates each list.
    pub fn collect<P>(profiles: &[P], mut fill: impl FnMut(&P, &mut Vec<u32>)) -> Self {
        let mut keys = ProfileKeys::new();
        let mut buf: Vec<u32> = Vec::new();
        for p in profiles {
            fill(p, &mut buf);
            keys.push_keys(&mut buf);
        }
        keys
    }

    /// An empty key table to grow incrementally with
    /// [`ProfileKeys::push_keys`] — the streaming entry point used when
    /// profiles arrive in chunks instead of as one slice.
    pub fn new() -> Self {
        ProfileKeys {
            ids: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Append the next profile's key list. `buf` holds its (unsorted,
    /// possibly duplicated) key ids; the list is sorted, deduplicated and
    /// adopted, and `buf` is left cleared for reuse.
    pub fn push_keys(&mut self, buf: &mut Vec<u32>) {
        buf.sort_unstable();
        buf.dedup();
        self.ids.extend_from_slice(buf);
        self.offsets.push(self.ids.len() as u32);
        buf.clear();
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when no profiles were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key ids of profile `p`, deduplicated (sorted unless the lists were
    /// [`ProfileKeys::remap`]ped afterwards).
    pub fn keys_of(&self, p: usize) -> &[u32] {
        &self.ids[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Remap every key id through `perm` (`id ← perm[id]`) — how the
    /// provisional insertion-order ids a [`DictBuilder`] hands out become
    /// final lexicographic [`TokenId`](crate::TokenId)s. `perm` must be a
    /// bijection over the id space, so per-list dedup is preserved;
    /// per-list *order* is not, which counting-sort block construction
    /// never relies on.
    pub fn remap(&mut self, perm: &[u32]) {
        for id in &mut self.ids {
            *id = perm[*id as usize];
        }
    }
}

impl Default for ProfileKeys {
    fn default() -> Self {
        Self::new()
    }
}

/// A collection tokenized and interned once: the lexicographic
/// [`TokenDict`] plus every profile's sorted, deduplicated token-id list
/// (index = profile id). Built by [`InternedProfiles::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedProfiles {
    dict: TokenDict,
    keys: ProfileKeys,
}

impl InternedProfiles {
    /// Tokenize and intern every profile of `collection` (see the module
    /// docs): in parallel morsels on `ctx`, or on the calling thread when
    /// `ctx` is `None`, honouring `budget` either way. The result does not
    /// depend on the worker count or the budget.
    pub fn build(
        collection: &ProfileCollection,
        ctx: Option<&Context>,
        budget: &MemBudget,
    ) -> Self {
        let profiles = collection.profiles();
        let parallel = ctx.map_or(1, Context::default_partitions);
        let ranges = morsel_ranges(profiles.len(), parallel, budget);
        let morsels = map_items(ctx, "tokenize_intern", ranges, |r| {
            MorselTokens::tokenize(&profiles[r.clone()], budget)
        });
        let reserved: u64 = morsels.iter().map(|m| m.reserved).sum();
        let mut lens = Vec::with_capacity(morsels.len());
        let mut runs = Vec::with_capacity(morsels.len());
        let mut vocabs = Vec::with_capacity(morsels.len());
        for m in morsels {
            lens.push(m.lens);
            runs.push(m.ids);
            vocabs.push(m.vocab);
        }
        let (tokens, maps) = merge_vocabularies(vocabs);
        let remapped = map_items(
            ctx,
            "remap_token_ids",
            runs.into_iter().zip(maps).collect(),
            |(run, map)| remap_run(run, map),
        );
        // The held runs are gone with the remap step's input.
        budget.release(reserved);

        let total: usize = remapped.iter().map(Vec::len).sum();
        let mut ids = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(profiles.len() + 1);
        offsets.push(0u32);
        let mut end = 0usize;
        for (lens, run) in lens.iter().zip(&remapped) {
            ids.extend_from_slice(run);
            for &len in lens {
                end += len as usize;
                offsets.push(u32::try_from(end).expect("token-id lists fit u32 offsets"));
            }
        }
        InternedProfiles {
            dict: TokenDict::from_sorted(tokens),
            keys: ProfileKeys { ids, offsets },
        }
    }

    /// The dictionary the token ids index.
    pub fn dict(&self) -> &TokenDict {
        &self.dict
    }

    /// Every profile's sorted token-id list, in CSR form.
    pub fn keys(&self) -> &ProfileKeys {
        &self.keys
    }

    /// Sorted, deduplicated token ids of profile `p` (its schema-agnostic
    /// token set, interned).
    pub fn token_ids(&self, p: usize) -> &[u32] {
        self.keys.keys_of(p)
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the collection was empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Give up the per-profile lists and keep the dictionary.
    pub fn into_dict(self) -> TokenDict {
        self.dict
    }
}

/// Contiguous profile ranges: `parallel` equal morsels, each further capped
/// at a budget-derived length under a limited budget.
fn morsel_ranges(n: usize, parallel: usize, budget: &MemBudget) -> Vec<Range<usize>> {
    let per = n
        .div_ceil(parallel.max(1))
        .min(budget.chunk_len(n, BYTES_PER_PROFILE))
        .max(1);
    (0..n)
        .step_by(per)
        .map(|lo| lo..(lo + per).min(n))
        .collect()
}

/// Apply `f` to every item, as one pool task per item on `ctx` (recorded
/// as stage `name`) or in order on the calling thread. Results keep the
/// item order either way.
fn map_items<T, U>(
    ctx: Option<&Context>,
    name: &str,
    items: Vec<T>,
    f: impl Fn(&T) -> U + Send + Sync,
) -> Vec<U>
where
    T: Send + Sync,
    U: Send + Sync + Clone,
{
    match ctx {
        None => items.iter().map(f).collect(),
        Some(ctx) => {
            let tasks = items.len();
            ctx.parallelize(items, tasks)
                .map_morsels_named(name, 1, |_, slice| slice.iter().map(&f).collect())
                .into_partitions()
                .into_iter()
                .flatten()
                .collect()
        }
    }
}

/// Records a morsel keeps until the merge or remap step: in RAM when the
/// budget granted them, otherwise spilled.
#[derive(Debug, Clone)]
enum Held<T> {
    Ram(Vec<T>),
    Spilled(Arc<SpillRun>),
}

impl<T: SpillCodec + 'static> Held<T> {
    fn spill(budget: &MemBudget, records: &[T]) -> Self {
        Held::Spilled(Arc::new(
            SpillRun::write(budget, records).expect("spill tokenized morsel"),
        ))
    }

    /// Stream the records back in order, moving them out of RAM when held
    /// there.
    fn into_records(self) -> Box<dyn Iterator<Item = T>> {
        match self {
            Held::Ram(records) => Box::new(records.into_iter()),
            Held::Spilled(run) => {
                let mut cursor = run.cursor::<T>().expect("open tokenized morsel spill");
                Box::new(std::iter::from_fn(move || {
                    let _keep_run = &run;
                    cursor.next_record().expect("read tokenized morsel spill")
                }))
            }
        }
    }
}

/// One morsel's tokenization (step 1 of the kernel).
#[derive(Debug, Clone)]
struct MorselTokens {
    /// Per-profile list lengths.
    lens: Vec<u32>,
    /// The morsel's lists back to back, over local lexicographic ids.
    ids: Held<u32>,
    /// Sorted distinct tokens of the morsel; the index is the local id.
    vocab: Held<Token>,
    /// Bytes reserved against the budget for `ids` and `vocab` (0 when
    /// they were spilled).
    reserved: u64,
}

impl MorselTokens {
    fn tokenize(profiles: &[Profile], budget: &MemBudget) -> Self {
        let mut builder = DictBuilder::new();
        let mut scratch = String::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut lens = Vec::with_capacity(profiles.len());
        for p in profiles {
            let start = ids.len();
            for a in &p.attributes {
                builder.intern_tokens(&a.value, &mut scratch, &mut ids);
            }
            lens.push(ids.len() - start);
        }
        let (dict, perm) = builder.finish();

        // Remap each list to local lexicographic ids, then sort and
        // deduplicate it, compacting the run in place (`w ≤ r` throughout).
        let (mut r, mut w) = (0usize, 0usize);
        let lens: Vec<u32> = lens
            .into_iter()
            .map(|len| {
                let list = &mut ids[r..r + len];
                for id in list.iter_mut() {
                    *id = perm[*id as usize];
                }
                list.sort_unstable();
                let start = w;
                for i in r..r + len {
                    let id = ids[i];
                    if w == start || ids[w - 1] != id {
                        ids[w] = id;
                        w += 1;
                    }
                }
                r += len;
                u32::try_from(w - start).expect("profile token count fits u32")
            })
            .collect();
        ids.truncate(w);

        let vocab = dict.into_tokens();
        // The bytes the two buffers actually hold: capacities, not lengths.
        let bytes = (ids.capacity() * std::mem::size_of::<u32>()
            + vocab.capacity() * std::mem::size_of::<Token>()
            + vocab.iter().map(String::capacity).sum::<usize>()) as u64;
        if budget.try_reserve(bytes) {
            MorselTokens {
                lens,
                ids: Held::Ram(ids),
                vocab: Held::Ram(vocab),
                reserved: bytes,
            }
        } else {
            MorselTokens {
                lens,
                ids: Held::spill(budget, &ids),
                vocab: Held::spill(budget, &vocab),
                reserved: 0,
            }
        }
    }
}

/// K-way merge of the morsels' sorted vocabularies (step 2): the sorted
/// distinct tokens of the whole collection, plus for every morsel the map
/// from its local ids to final ids.
fn merge_vocabularies(vocabs: Vec<Held<Token>>) -> (Vec<Token>, Vec<Vec<u32>>) {
    let mut sources: Vec<_> = vocabs.into_iter().map(Held::into_records).collect();
    let mut maps = vec![Vec::new(); sources.len()];
    let mut heap = BinaryHeap::with_capacity(sources.len());
    for (m, source) in sources.iter_mut().enumerate() {
        if let Some(token) = source.next() {
            heap.push(Reverse((token, m)));
        }
    }
    let mut tokens: Vec<Token> = Vec::new();
    while let Some(Reverse((token, m))) = heap.pop() {
        if tokens.last() != Some(&token) {
            tokens.push(token);
        }
        let id = u32::try_from(tokens.len() - 1).expect("vocabulary fits u32 ids");
        maps[m].push(id);
        if let Some(next) = sources[m].next() {
            heap.push(Reverse((next, m)));
        }
    }
    (tokens, maps)
}

/// Remap one morsel's id run to final ids (step 3). `map` is strictly
/// increasing, so every list stays sorted.
fn remap_run(run: &Held<u32>, map: &[u32]) -> Vec<u32> {
    match run {
        Held::Ram(ids) => ids.iter().map(|&id| map[id as usize]).collect(),
        Held::Spilled(spilled) => {
            let mut out = Vec::with_capacity(spilled.len() as usize);
            let mut cursor = spilled
                .cursor::<u32>()
                .expect("open tokenized morsel spill");
            while let Some(id) = cursor.next_record().expect("read tokenized morsel spill") {
                out.push(map[id as usize]);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SourceId;
    use proptest::prelude::*;

    fn collection() -> ProfileCollection {
        ProfileCollection::dirty(vec![
            Profile::builder(SourceId(0), "a")
                .attr("name", "Sony BRAVIA tv")
                .attr("desc", "bravia Modène tv")
                .build(),
            Profile::builder(SourceId(0), "b")
                .attr("name", "samsung galaxy")
                .build(),
            Profile::builder(SourceId(0), "c").build(),
            Profile::builder(SourceId(0), "d")
                .attr("name", "Galaxy tv, sony")
                .build(),
        ])
    }

    /// The independent oracle: build-then-lookup over a sequential
    /// dictionary.
    fn oracle(coll: &ProfileCollection) -> (TokenDict, Vec<Vec<u32>>) {
        let dict = TokenDict::build(coll);
        let lists = coll
            .profiles()
            .iter()
            .map(|p| dict.token_ids(p).into_iter().map(|t| t.0).collect())
            .collect();
        (dict, lists)
    }

    fn assert_matches_oracle(got: &InternedProfiles, coll: &ProfileCollection) {
        let (dict, lists) = oracle(coll);
        assert_eq!(got.dict(), &dict);
        assert_eq!(got.len(), coll.len());
        for (p, list) in lists.iter().enumerate() {
            assert_eq!(got.token_ids(p), list.as_slice(), "profile {p}");
        }
    }

    #[test]
    fn sequential_kernel_matches_oracle() {
        let coll = collection();
        let got = InternedProfiles::build(&coll, None, &MemBudget::unlimited());
        assert_matches_oracle(&got, &coll);
        assert_eq!(got.token_ids(2), &[] as &[u32]);
    }

    #[test]
    fn parallel_kernel_equals_sequential() {
        let coll = collection();
        let seq = InternedProfiles::build(&coll, None, &MemBudget::unlimited());
        for workers in [1, 2, 4] {
            let ctx = Context::new(workers);
            let par = InternedProfiles::build(&coll, Some(&ctx), &MemBudget::unlimited());
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn empty_collection_empty_output() {
        let empty = ProfileCollection::dirty(vec![]);
        let ctx = Context::new(2);
        for ctx in [None, Some(&ctx)] {
            let got = InternedProfiles::build(&empty, ctx, &MemBudget::limited(16));
            assert!(got.is_empty());
            assert!(got.dict().is_empty());
        }
    }

    #[test]
    fn budget_reservations_are_released() {
        let coll = collection();
        let budget = MemBudget::unlimited();
        let ctx = Context::new(2);
        InternedProfiles::build(&coll, Some(&ctx), &budget);
        assert_eq!(budget.tracked_bytes(), 0);
        assert!(budget.run_high_water() > 0, "morsels reserve their runs");
    }

    #[test]
    fn morsel_ranges_cover_in_order() {
        for (n, parallel) in [(0, 4), (1, 4), (10, 3), (10, 1), (7, 8)] {
            let ranges = morsel_ranges(n, parallel, &MemBudget::unlimited());
            let flat: Vec<usize> = ranges.iter().flat_map(Clone::clone).collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>());
            assert!(ranges.len() <= parallel.max(1));
        }
    }

    fn arb_collection() -> impl Strategy<Value = ProfileCollection> {
        let value = proptest::collection::vec(
            prop_oneof![
                Just("alpha"),
                Just("Beta"),
                Just("gamma"),
                Just("delta"),
                Just("ÉPSILON"),
                Just("zeta"),
                Just("eta"),
                Just("x1"),
            ],
            0..6,
        )
        .prop_map(|words| words.join(" "));
        proptest::collection::vec(proptest::collection::vec(value, 0..3), 0..30).prop_map(
            |profiles| {
                ProfileCollection::dirty(
                    profiles
                        .into_iter()
                        .enumerate()
                        .map(|(i, values)| {
                            values
                                .into_iter()
                                .enumerate()
                                .fold(Profile::builder(SourceId(0), i.to_string()), |b, (j, v)| {
                                    b.attr(format!("a{j}"), v)
                                })
                                .build()
                        })
                        .collect(),
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The kernel's dictionary and lists are identical at every worker
        /// count and budget, equal the build-then-lookup oracle, and a
        /// 16-byte budget really spills.
        #[test]
        fn prop_kernel_identical_across_workers_and_budgets(coll in arb_collection()) {
            for workers in [1usize, 2, 3, 8] {
                let ctx = Context::new(workers);
                let unlimited = InternedProfiles::build(&coll, Some(&ctx), &MemBudget::unlimited());
                assert_matches_oracle(&unlimited, &coll);
                let budget = MemBudget::limited(16);
                let limited = InternedProfiles::build(&coll, Some(&ctx), &budget);
                prop_assert_eq!(&limited, &unlimited);
                if coll.profiles().iter().any(|p| !p.is_blank()) {
                    prop_assert!(budget.spill_batches() > 0, "workers={}", workers);
                }
            }
            let budget = MemBudget::limited(16);
            let sequential = InternedProfiles::build(&coll, None, &budget);
            assert_matches_oracle(&sequential, &coll);
        }
    }
}
