//! `perfbench` — the repository's benchmark: end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --sparker <path to the sparker CLI> --workdir <dir>
//! ```
//!
//! Prints every metric by name, unit and sample count, then one JSON
//! result line. Exits 1 when an output check failed, 2 on an error.

mod batch;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use report::RunReport;
use sparker_profiles::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::Workload;

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "wall_s",
    "wall_seq_s",
    "peak_rss_mb",
    "candidate_recall",
    "cluster_f1",
];

/// Per-layer metrics and their units, reported by the traced run of every workload. A
/// layer a workload does not run reports 0 with no samples.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("profiles.load_s", "s"),
    ("looseschema.partition_s", "s"),
    ("looseschema.entropy_s", "s"),
    ("blocking.tokenize_csr_s", "s"),
    ("blocking.materialize_s", "s"),
    ("blocking.build_s.seq", "s"),
    ("blocking.build_s.pool", "s"),
    ("blocking.purge_s", "s"),
    ("blocking.filter_s.seq", "s"),
    ("blocking.filter_s.pool", "s"),
    ("blocking.blocks_out", "count"),
    ("blocking.comparisons_out", "count"),
    ("metablocking.graph_s", "s"),
    ("metablocking.pass_a_s", "s"),
    ("metablocking.pass_b_s", "s"),
    ("metablocking.prune_s.seq", "s"),
    ("metablocking.prune_s.pool", "s"),
    ("metablocking.retained_ratio", "ratio"),
    ("metablocking.gt_kept_ratio", "ratio"),
    ("matching.prepare_s", "s"),
    ("matching.score_s.seq", "s"),
    ("matching.score_s.pool", "s"),
    ("matching.bound_rejected", "count"),
    ("matching.abandoned", "count"),
    ("matching.verified", "count"),
    ("matching.kept", "count"),
    ("matching.verify_ratio", "ratio"),
    ("clustering.cc_s.seq", "s"),
    ("clustering.cc_s.pool", "s"),
    ("clustering.cc_s.dataflow", "s"),
    ("dataflow.busy_s", "s"),
    ("dataflow.queue_wait_s", "s"),
    ("dataflow.tasks", "count"),
    ("dataflow.shuffle_records", "count"),
    ("dataflow.utilization", "ratio"),
    ("dataflow.buffered_mb", "MiB"),
    ("core.driver_s", "s"),
    ("core.wall_s.fused", "s"),
    ("core.wall_s.dataflow", "s"),
    ("serve.bulk_load_s", "s"),
    ("serve.upsert_p50_ms", "ms"),
    ("serve.upsert_p99_ms", "ms"),
    ("serve.refresh_p50_ms", "ms"),
    ("serve.refresh_p99_ms", "ms"),
    ("serve.resolver_query_p50_ms", "ms"),
    ("serve.http_p50_ms", "ms"),
    ("serve.refreshes_per_insert", "ratio"),
    ("serve.fallback_refreshes", "count"),
    ("serve.max_rate_ops_s", "ops/s"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.insert_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio.seq", "ratio"),
    ("trace.overhead_ratio.pool", "ratio"),
];

/// Where the benchmark finds the program and keeps its files.
pub struct Env {
    /// The `sparker` CLI binary.
    pub sparker: PathBuf,
    /// This binary, for the one-run child processes.
    pub self_exe: PathBuf,
    /// Generated inputs, run records and span files.
    pub workdir: PathBuf,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sparker: PathBuf,
    workdir: PathBuf,
    git_sha: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let take = |name: &str| flags.get(name).copied();
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--sparker",
        "--workdir",
        "--git-sha",
    ];
    if let Some(unknown) = flags.keys().find(|k| !known.contains(k)) {
        return Err(format!("unknown flag {unknown}"));
    }
    let name = take("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {}",
            Workload::NAMES.join(", ")
        )
    })?;
    let seed = match take("--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed needs an integer, got {s}"))?,
        None => workload.default_seed(),
    };
    let seconds: f64 = match take("--seconds") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seconds needs a number, got {s}"))?,
        None => 20.0,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match take("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        sparker: PathBuf::from(take("--sparker").ok_or("--sparker is required")?),
        workdir: PathBuf::from(take("--workdir").ok_or("--workdir is required")?),
        git_sha: take("--git-sha").unwrap_or("unknown").to_string(),
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let env = Env {
        sparker: args.sparker.clone(),
        self_exe: std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?,
        workdir: args.workdir.clone(),
    };
    if !env.sparker.is_file() {
        return Err(format!("sparker binary {:?} not found", env.sparker));
    }
    std::fs::create_dir_all(&env.workdir)
        .map_err(|e| format!("creating {:?}: {e}", env.workdir))?;
    let mut report = RunReport::default();
    let mut tracer = Tracer::new();
    match (args.workload, args.trace) {
        (Workload::ServeMixed10k, trace) => {
            let input = serve::ServeInput::prepare(&env, args.seed)?;
            if trace {
                serve::run_traced(
                    &env,
                    &input,
                    args.seed,
                    args.seconds,
                    &mut tracer,
                    &mut report,
                )?;
            } else {
                serve::run_timed(&env, &input, args.seed, args.seconds, &mut report)?;
            }
        }
        (w, false) => {
            let dir = batch::prepare_input(&env, w, args.seed)?;
            batch::run_timed(&env, w, &dir, args.seconds, &mut report)?;
        }
        (w, true) => {
            let dir = batch::prepare_input(&env, w, args.seed)?;
            batch::run_traced(w, &dir, args.seconds, &mut tracer, &mut report)?;
        }
    }

    let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let names: &[&str] = if args.trace {
        for (name, unit) in PER_LAYER {
            match report.get(name) {
                None => report.absent(name, unit),
                Some(m) if m.unit != unit => {
                    return Err(format!("{name} measured in {}, listed in {unit}", m.unit))
                }
                Some(_) => {}
            }
        }
        for (name, self_s) in tracer.self_times_by_name().iter().take(12) {
            report.note(format!("self time {name:<44} {self_s:.6} s"));
        }
        &per_layer
    } else {
        &END_TO_END
    };

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let path = env.workdir.join(format!("spans-{tag}.jsonl"));
        std::fs::write(&path, tracer.to_json_lines())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    let mut facts = BTreeMap::new();
    facts.insert(
        "workload".to_string(),
        JsonValue::String(args.workload.name().to_string()),
    );
    facts.insert("seed".to_string(), JsonValue::Number(args.seed as f64));
    facts.insert(
        "held_out_seed".to_string(),
        JsonValue::Number(args.workload.held_out_seed() as f64),
    );
    facts.insert("trace".to_string(), JsonValue::Bool(args.trace));
    facts.insert("seconds".to_string(), JsonValue::Number(args.seconds));
    facts.insert(
        "nproc".to_string(),
        JsonValue::Number(batch::workers() as f64),
    );
    facts.insert(
        "git_sha".to_string(),
        JsonValue::String(args.git_sha.clone()),
    );
    let record = env.workdir.join(format!("record-{tag}.json"));
    std::fs::write(&record, report.record_json(facts))
        .map_err(|e| format!("writing {record:?}: {e}"))?;

    print!("{}", report.render());
    println!(
        "workload {} seed {} (held-out seed {}), nproc {}, git {}",
        args.workload.name(),
        args.seed,
        args.workload.held_out_seed(),
        batch::workers(),
        args.git_sha
    );
    println!("{}", report.result_json(names)?);
    Ok(report.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "child") {
        return match child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(&argv).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `perfbench child --workload <name> --backend <name> --input <dir>`.
fn child(argv: &[String]) -> Result<(), String> {
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("{flag} is required"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    batch::child_main(
        workload,
        value("--backend")?,
        &PathBuf::from(value("--input")?),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_profiles::parse_json;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and workloads this binary reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let JsonValue::Object(root) = parse_json(&text).expect("valid JSON") else {
            panic!("BENCHMARK.json is not an object");
        };
        let names = |key: &str| -> Vec<String> {
            let Some(JsonValue::Array(items)) = root.get(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|i| match i {
                    JsonValue::Object(m) => match m.get("name") {
                        Some(JsonValue::String(s)) => s.clone(),
                        _ => panic!("{key} entry without a name"),
                    },
                    _ => panic!("{key} entry is not an object"),
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER.map(|(n, _)| n));
        assert_eq!(names("workloads"), Workload::NAMES);
    }
}
