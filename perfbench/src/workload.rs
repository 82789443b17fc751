//! The three workloads: what each generates from its seed, and the
//! pipeline configuration it runs under.

use sparker_core::{BlockingConfig, PipelineConfig};
use sparker_datasets::{
    export_dataset, generate, generate_dirty, DatasetConfig, Domain, ExportFormat,
    GeneratedDataset, Preset,
};
use sparker_profiles::{
    profiles_from_json_lines, GroundTruth, Pair, Profile, ProfileCollection, ProfileId, SourceId,
};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dirty_100k` preset shape under the scaling configuration.
    Dirty100kScaling,
    /// Clean–clean products under Blast meta-blocking.
    BlastCc12k,
    /// Open-loop serving on a warm `dirty_10k`-shaped resolver.
    ServeMixed10k,
}

/// Extra entities generated for the serve workload's fresh inserts.
pub const SERVE_FRESH_ENTITIES: usize = 1_500;

impl Workload {
    pub const NAMES: [&'static str; 3] = ["dirty100k_scaling", "blast_cc12k", "serve_mixed10k"];

    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dirty100k_scaling" => Some(Workload::Dirty100kScaling),
            "blast_cc12k" => Some(Workload::BlastCc12k),
            "serve_mixed10k" => Some(Workload::ServeMixed10k),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dirty100kScaling => "dirty100k_scaling",
            Workload::BlastCc12k => "blast_cc12k",
            Workload::ServeMixed10k => "serve_mixed10k",
        }
    }

    /// The seed used when none is given: the preset seed, or the
    /// generator's default seed for the clean–clean demo shape.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Dirty100kScaling => preset("dirty_100k").config.seed,
            Workload::BlastCc12k => DatasetConfig::default().seed,
            Workload::ServeMixed10k => preset("dirty_10k").config.seed,
        }
    }

    /// A second seed, never used while the benchmark was tuned, for
    /// checking later claims.
    pub fn held_out_seed(self) -> u64 {
        self.default_seed() + 1
    }

    /// Timed `run_on` calls per child process; the child reports their
    /// median. The serve workload's cold batch runs take about 0.1 s, short
    /// enough for single calls to swing by a fifth from run to run.
    pub fn runs_per_process(self) -> usize {
        match self {
            Workload::Dirty100kScaling | Workload::BlastCc12k => 1,
            Workload::ServeMixed10k => 5,
        }
    }

    pub fn config(self) -> PipelineConfig {
        match self {
            Workload::Dirty100kScaling | Workload::ServeMixed10k => PipelineConfig::scaling(),
            Workload::BlastCc12k => PipelineConfig {
                blocking: BlockingConfig::blast(),
                ..PipelineConfig::default()
            },
        }
    }

    /// The generated batch dataset of a batch workload.
    pub fn batch_dataset(self, seed: u64) -> GeneratedDataset {
        match self {
            Workload::Dirty100kScaling => {
                let p = preset("dirty_100k");
                generate_dirty(&DatasetConfig { seed, ..p.config }, p.max_cluster)
            }
            Workload::BlastCc12k => generate(&DatasetConfig {
                entities: 5_000,
                unmatched_per_source: 1_250,
                domain: Domain::Products,
                seed,
                ..DatasetConfig::default()
            }),
            Workload::ServeMixed10k => panic!("serve_mixed10k has no batch dataset"),
        }
    }

    /// The serve workload's profiles: the `dirty_10k` preset followed by
    /// [`SERVE_FRESH_ENTITIES`] further entities of the same generator.
    /// Returns the dataset and the preset's profile count.
    pub fn serve_dataset() -> (GeneratedDataset, usize) {
        let p = preset("dirty_10k");
        let warm = p.generate();
        let all = generate_dirty(
            &DatasetConfig {
                entities: p.config.entities + SERVE_FRESH_ENTITIES,
                ..p.config.clone()
            },
            p.max_cluster,
        );
        let n = warm.collection.len();
        assert_eq!(
            all.collection.profiles()[..n],
            warm.collection.profiles()[..],
            "the extended generator run starts with the preset"
        );
        (all, n)
    }
}

fn preset(name: &str) -> Preset {
    Preset::by_name(name).expect("preset exists")
}

/// Write a batch dataset as the CLI's JSON-lines input plus the
/// benchmark's own ground-truth file (dense id pairs).
pub fn write_batch_input(ds: &GeneratedDataset, dir: &Path) -> std::io::Result<()> {
    export_dataset(ds, dir, ExportFormat::JsonLines)?;
    write_ground_truth(ds.ground_truth.iter().copied(), &dir.join("truth.txt"))
}

pub fn write_ground_truth(pairs: impl Iterator<Item = Pair>, path: &Path) -> std::io::Result<()> {
    let mut pairs: Vec<Pair> = pairs.collect();
    pairs.sort_unstable();
    let text: String = pairs
        .iter()
        .map(|p| format!("{} {}\n", p.first.0, p.second.0))
        .collect();
    std::fs::write(path, text)
}

pub fn read_ground_truth(path: &Path) -> Result<GroundTruth, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let mut pairs = Vec::new();
    for line in text.lines() {
        let mut it = line.split(' ').map(str::parse::<u32>);
        match (it.next(), it.next()) {
            (Some(Ok(a)), Some(Ok(b))) => pairs.push(Pair::new(ProfileId(a), ProfileId(b))),
            _ => return Err(format!("{path:?}: bad line {line:?}")),
        }
    }
    Ok(GroundTruth::from_pairs(pairs))
}

/// Load one JSON-lines source the way the CLI does.
pub fn load_source(path: &Path, source: SourceId) -> Result<Vec<Profile>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    profiles_from_json_lines(&text, source, "id").map_err(|e| format!("{path:?}: {e}"))
}

/// Load the input a batch workload wrote with [`write_batch_input`].
pub fn load_collection(dir: &Path) -> Result<ProfileCollection, String> {
    let a = load_source(&dir.join("source0.jsonl"), SourceId(0))?;
    let b_path = dir.join("source1.jsonl");
    Ok(if b_path.exists() {
        ProfileCollection::clean_clean(a, load_source(&b_path, SourceId(1))?)
    } else {
        ProfileCollection::dirty(a)
    })
}
