//! The serve workload: a separate `sparker serve` process, warm-loaded
//! over HTTP, driven by an open-loop generator at a ladder of rates.

use crate::batch::{self, LayerSamples, Outcome};
use crate::report::RunReport;
use crate::stats::{self, OpTiming};
use crate::trace::Tracer;
use crate::workload::{load_source, write_ground_truth, Workload};
use crate::Env;
use sparker_core::PipelineConfig;
use sparker_datasets::{export_dataset, ExportFormat, GeneratedDataset};
use sparker_profiles::{
    parse_json, ErKind, GroundTruth, JsonValue, Pair, Profile, ProfileCollection, ProfileId,
    SourceId,
};
use sparker_serve::ResolverState;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rates of the ladder, in operations per second.
pub const LADDER: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
/// The rung whose latencies are reported.
pub const NOMINAL_RATE: f64 = 100.0;
/// Latency limit a rung's p99 must meet.
pub const P99_LIMIT_S: f64 = 0.025;
/// Share of operations that insert a fresh profile.
const INSERT_EVERY: u64 = 10;
/// Server starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Client connections (one per generator thread).
const CONNECTIONS: usize = 2;
/// Requests that take longer than this count as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `sparker serve` process. Dropping it kills the process and
/// waits for it.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    reader: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Start the server warm-loaded with the `dirty_10k` preset on an
    /// ephemeral port and wait for its address (printed once warm).
    pub fn start(env: &Env) -> Result<ServerProc, String> {
        let mut child = Command::new(&env.sparker)
            .args([
                "serve",
                "--preset",
                "dirty_10k",
                "--addr",
                "127.0.0.1:0",
                "--workers",
            ])
            .arg(batch::workers().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {:?}: {e}", env.sparker))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("serving on http://") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            reader: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "server did not report its address".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("server address {addr:?}: {e}"))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set size of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("server status lacks VmHWM")?;
        Ok(kb / 1024.0)
    }

    /// Ask the server to shut down and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        http(self.addr, "POST", "/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after /shutdown".to_string()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One HTTP/1.1 request on a fresh connection (the server closes every
/// connection after one reply). Returns the status and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {:?}", text.lines().next()))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// The HTTP API's profile object.
fn profile_json(p: &Profile) -> JsonValue {
    let mut attrs: BTreeMap<String, Vec<JsonValue>> = BTreeMap::new();
    for a in &p.attributes {
        attrs
            .entry(a.name.clone())
            .or_default()
            .push(JsonValue::String(a.value.clone()));
    }
    let attrs = attrs
        .into_iter()
        .map(|(k, mut v)| {
            (
                k,
                if v.len() == 1 {
                    v.pop().expect("one value")
                } else {
                    JsonValue::Array(v)
                },
            )
        })
        .collect();
    let mut m = BTreeMap::new();
    m.insert("id".to_string(), JsonValue::String(p.original_id.clone()));
    m.insert("attributes".to_string(), JsonValue::Object(attrs));
    JsonValue::Object(m)
}

/// Counts `/stats` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    pub profiles: u64,
    pub candidates: u64,
    pub matches: u64,
    pub entities: u64,
    pub inserts: u64,
    pub refreshes: u64,
}

fn get_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let (status, body) = http(addr, "GET", "/stats", "")?;
    if status != 200 {
        return Err(format!("/stats answered {status}: {body}"));
    }
    let v = parse_json(&body).map_err(|e| format!("/stats body: {e}"))?;
    let JsonValue::Object(m) = v else {
        return Err("/stats body is not an object".to_string());
    };
    let num = |k: &str| match m.get(k) {
        Some(JsonValue::Number(n)) => Ok(*n as u64),
        _ => Err(format!("/stats lacks {k}")),
    };
    Ok(ServerStats {
        profiles: num("profiles")?,
        candidates: num("candidates")?,
        matches: num("matches")?,
        entities: num("entities")?,
        inserts: num("inserts")?,
        refreshes: num("refreshes")?,
    })
}

/// The serve workload's inputs.
pub struct ServeInput {
    /// Directory holding the generated files.
    dir: PathBuf,
    /// The warm set, exactly as `sparker serve --preset dirty_10k` loads it.
    warm: Vec<Profile>,
    /// Fresh profiles in the seed's insertion order, as loaded from the
    /// generated file.
    fresh: Vec<Profile>,
    /// Ground truth over warm ids then fresh positions (`warm.len() + i`).
    truth: Vec<Pair>,
}

impl ServeInput {
    /// The warm set is the `dirty_10k` preset: `sparker serve` warm-loads
    /// only named presets, and warm-loading over `POST /profiles` replays
    /// per-profile index maintenance (about 50 s for 10k profiles). The
    /// fresh profiles are further entities of the same generator, written
    /// to a file, reloaded, and inserted in an order drawn from `seed`.
    pub fn prepare(env: &Env, seed: u64) -> Result<ServeInput, String> {
        let dir = env
            .workdir
            .join(format!("{}-{seed}", Workload::ServeMixed10k.name()));
        let (all, warm_len) = Workload::serve_dataset();
        let warm = all.collection.profiles()[..warm_len].to_vec();
        let fresh_generated = all.collection.profiles()[warm_len..].to_vec();
        let fresh_file = GeneratedDataset {
            collection: ProfileCollection::dirty(fresh_generated),
            ground_truth: GroundTruth::from_pairs(Vec::new()),
        };
        export_dataset(&fresh_file, &dir, ExportFormat::JsonLines)
            .map_err(|e| format!("writing input: {e}"))?;
        let loaded = load_source(&dir.join("source0.jsonl"), SourceId(0))?;
        // Seeded insertion order: position[i] is where generated fresh
        // profile i is inserted.
        let mut order: Vec<usize> = (0..loaded.len()).collect();
        let mut rng = Lcg(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next() as usize % (i + 1));
        }
        let mut position = vec![0; order.len()];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        let fresh: Vec<Profile> = order.iter().map(|&i| loaded[i].clone()).collect();
        let dense = |id: ProfileId| {
            let i = id.0 as usize;
            ProfileId(if i < warm_len {
                i
            } else {
                warm_len + position[i - warm_len]
            } as u32)
        };
        let truth = all
            .ground_truth
            .iter()
            .map(|p| Pair::new(dense(p.first), dense(p.second)))
            .collect();
        Ok(ServeInput {
            dir,
            warm,
            fresh,
            truth,
        })
    }

    /// The batch input equal to the server's profiles after `inserted`
    /// fresh inserts, written for the batch child processes.
    fn write_final_set(&self, inserted: usize) -> Result<PathBuf, String> {
        let n = self.warm.len() + inserted;
        let profiles: Vec<Profile> = self
            .warm
            .iter()
            .chain(&self.fresh[..inserted])
            .cloned()
            .collect();
        let ds = GeneratedDataset {
            collection: ProfileCollection::dirty(profiles),
            ground_truth: GroundTruth::from_pairs(Vec::new()),
        };
        let dir = self.dir.join("final");
        export_dataset(&ds, &dir, ExportFormat::JsonLines)
            .map_err(|e| format!("writing final set: {e}"))?;
        let pairs = self
            .truth
            .iter()
            .filter(|p| (p.first.0 as usize) < n && (p.second.0 as usize) < n)
            .copied();
        write_ground_truth(pairs, &dir.join("truth.txt")).map_err(|e| e.to_string())?;
        Ok(dir)
    }
}

/// Start a warm server and wait until `/stats` answers. Returns the server
/// and the set-up time.
fn start_warm(env: &Env, input: &ServeInput) -> Result<(ServerProc, f64), String> {
    let started = Instant::now();
    let server = ServerProc::start(env)?;
    let stats = get_stats(server.addr())?;
    let setup = started.elapsed().as_secs_f64();
    if stats.profiles != input.warm.len() as u64 {
        return Err(format!(
            "server holds {} profiles after warm load, expected {}",
            stats.profiles,
            input.warm.len()
        ));
    }
    Ok((server, setup))
}

/// A planned request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Query the cluster of warm profile `i`.
    Get(usize),
    /// Insert fresh profile `k` (0-based among the fresh profiles).
    Post(usize),
}

/// One rung's schedule, fixed before the phase starts.
struct Rung {
    rate: f64,
    ops: Vec<(f64, Op)>,
}

/// Deterministic generator for the op mix and query ids.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The whole ladder's schedule: uniform send times at each rung's rate,
/// 1 in [`INSERT_EVERY`] operations an insert of the next fresh profile.
fn plan(seed: u64, rung_seconds: f64, warm: usize, fresh: usize) -> Vec<Rung> {
    let mut rng = Lcg(seed ^ 0x5eed_5eed);
    let mut next_fresh = 0;
    LADDER
        .iter()
        .map(|&rate| {
            let n = (rate * rung_seconds).round() as usize;
            let ops = (0..n)
                .map(|i| {
                    let due = i as f64 / rate;
                    let op = if rng.next().is_multiple_of(INSERT_EVERY) && next_fresh < fresh {
                        next_fresh += 1;
                        Op::Post(next_fresh - 1)
                    } else {
                        Op::Get(rng.next() as usize % warm)
                    };
                    (due, op)
                })
                .collect();
            Rung { rate, ops }
        })
        .collect()
}

/// One executed request.
#[derive(Debug, Clone, Copy)]
struct Done {
    op: Op,
    timing: OpTiming,
    ok: bool,
}

/// Measured outcome of one rung.
pub struct RungResult {
    pub rate: f64,
    pub achieved: f64,
    pub get_latency: Vec<f64>,
    pub post_latency: Vec<f64>,
    pub lateness: Vec<f64>,
    pub failed: usize,
    pub attempted: usize,
    pub backlog_grows: bool,
}

impl RungResult {
    pub fn passes(&self) -> bool {
        let mut all: Vec<f64> = self
            .get_latency
            .iter()
            .chain(&self.post_latency)
            .copied()
            .collect();
        all.sort_by(f64::total_cmp);
        self.failed == 0
            && !all.is_empty()
            && stats::percentile(&all, 99.0) <= P99_LIMIT_S
            && !self.backlog_grows
    }
}

/// Inserts leave the generator in schedule order: a thread holding a
/// later insert waits for the earlier one to complete, so the server's
/// insertion order (and so its profile ids) is the schedule's.
struct PostGate {
    next: Mutex<usize>,
    turn: Condvar,
}

/// Run one rung open-loop from [`CONNECTIONS`] threads.
fn run_rung(addr: SocketAddr, rung: &Rung, input: &ServeInput, gate: &PostGate) -> RungResult {
    let warm_ids: Vec<&str> = input.warm.iter().map(|p| p.original_id.as_str()).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Done)>> = Mutex::new(Vec::with_capacity(rung.ops.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(due, op)) = rung.ops.get(i) else {
                    break;
                };
                let due_at = start + Duration::from_secs_f64(due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                if let Op::Post(k) = op {
                    let mut turn = gate.next.lock().expect("post gate");
                    while *turn != k {
                        turn = gate.turn.wait(turn).expect("post gate");
                    }
                }
                let sent = start.elapsed().as_secs_f64();
                let reply = match op {
                    Op::Get(w) => http(addr, "GET", &format!("/clusters/{}", warm_ids[w]), ""),
                    Op::Post(k) => {
                        let body = profile_json(&input.fresh[k]).to_string();
                        http(addr, "POST", "/profiles", &body)
                    }
                };
                let done = start.elapsed().as_secs_f64();
                if let Op::Post(_) = op {
                    *gate.next.lock().expect("post gate") += 1;
                    gate.turn.notify_all();
                }
                let ok = matches!(reply, Ok((200, _)));
                let timing = OpTiming { due, sent, done };
                results
                    .lock()
                    .expect("results")
                    .push((i, Done { op, timing, ok }));
            });
        }
    });
    let mut results = results.into_inner().expect("results");
    results.sort_by_key(|(i, _)| *i);
    let done: Vec<Done> = results.into_iter().map(|(_, d)| d).collect();
    let timings: Vec<OpTiming> = done.iter().map(|d| d.timing).collect();
    let elapsed = timings.iter().map(|t| t.done).fold(0.0, f64::max);
    let ok = done.iter().filter(|d| d.ok).count();
    RungResult {
        rate: rung.rate,
        achieved: ok as f64 / elapsed.max(1e-9),
        get_latency: done
            .iter()
            .filter(|d| matches!(d.op, Op::Get(_)))
            .map(|d| d.timing.latency())
            .collect(),
        post_latency: done
            .iter()
            .filter(|d| matches!(d.op, Op::Post(_)))
            .map(|d| d.timing.latency())
            .collect(),
        lateness: timings.iter().map(OpTiming::lateness).collect(),
        failed: done.len() - ok,
        attempted: done.len(),
        backlog_grows: stats::backlog_grows(&timings),
    }
}

/// What the ladder measured.
pub struct LadderResult {
    pub rungs: Vec<RungResult>,
    pub inserted: usize,
    pub stats: ServerStats,
    pub peak_rss_mb: f64,
}

impl LadderResult {
    pub fn nominal(&self) -> &RungResult {
        self.rungs
            .iter()
            .find(|r| r.rate == NOMINAL_RATE)
            .expect("nominal rung runs")
    }

    /// Achieved rate of the highest rung meeting the limit (0 when none
    /// does).
    pub fn max_rate(&self) -> f64 {
        self.rungs
            .iter()
            .filter(|r| r.passes())
            .map(|r| r.achieved)
            .fold(0.0, f64::max)
    }
}

/// Drive the ladder against a warm server, then read `/stats` and the
/// server's peak RSS and stop it.
fn run_ladder(
    server: ServerProc,
    input: &ServeInput,
    seed: u64,
    seconds: f64,
) -> Result<LadderResult, String> {
    let rungs = plan(
        seed,
        seconds / LADDER.len() as f64,
        input.warm.len(),
        input.fresh.len(),
    );
    let gate = PostGate {
        next: Mutex::new(0),
        turn: Condvar::new(),
    };
    let results: Vec<RungResult> = rungs
        .iter()
        .map(|r| run_rung(server.addr(), r, input, &gate))
        .collect();
    let inserted = *gate.next.lock().expect("post gate");
    let stats = get_stats(server.addr())?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;
    Ok(LadderResult {
        rungs: results,
        inserted,
        stats,
        peak_rss_mb,
    })
}

fn ms(v: f64) -> f64 {
    v * 1000.0
}

fn summary_line(what: &str, values_s: &[f64]) -> String {
    if values_s.is_empty() {
        return format!("{what}: no samples");
    }
    let s = stats::summarize(values_s);
    let tail = s
        .tail
        .map_or(String::new(), |(p, v)| format!(", p{p} {:.3} ms", ms(v)));
    format!("{what}: median {:.3} ms{tail}, n={}", ms(s.median), s.n)
}

/// Report the ladder and check that it ran clean.
fn report_ladder(ladder: &LadderResult, report: &mut RunReport) {
    for r in &ladder.rungs {
        report.note(format!(
            "rung {:>6.0} ops/s: achieved {:.1} ops/s, {} ok / {} sent, backlog {}, {}; {}; {}; pass={}",
            r.rate,
            r.achieved,
            r.attempted - r.failed,
            r.attempted,
            if r.backlog_grows { "grows" } else { "steady" },
            summary_line("GET", &r.get_latency),
            summary_line("POST", &r.post_latency),
            summary_line("late", &r.lateness),
            r.passes(),
        ));
    }
    for r in &ladder.rungs {
        report.attempted += r.attempted as u64;
        report.failed += r.failed as u64;
    }
}

/// The untraced serve run.
pub fn run_timed(
    env: &Env,
    input: &ServeInput,
    seed: u64,
    seconds: f64,
    report: &mut RunReport,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (s, setup) = start_warm(env, input)?;
        setups.push(setup);
        if i + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let ladder = run_ladder(server.expect("a server"), input, seed, seconds)?;
    report_ladder(&ladder, report);
    report.median("setup_s", "s", &setups);
    report.median("peak_rss_mb", "MiB", &[ladder.peak_rss_mb]);
    report_http(&ladder, "", report);
    cold_gate(env, input, &ladder, seconds, report)
}

fn to_ms(values_s: &[f64]) -> Vec<f64> {
    values_s.iter().map(|&x| ms(x)).collect()
}

/// The serve-only figures of the HTTP ladder, named with `prefix`: the
/// nominal rung's latencies and the highest rate meeting the limit.
fn report_http(ladder: &LadderResult, prefix: &str, report: &mut RunReport) {
    let nominal = ladder.nominal();
    let get = to_ms(&nominal.get_latency);
    report.value(
        &format!("{prefix}max_rate_ops_s"),
        "ops/s",
        ladder.max_rate(),
    );
    report.median(&format!("{prefix}query_p50_ms"), "ms", &get);
    report.percentile(&format!("{prefix}query_p99_ms"), "ms", &get, 99.0);
    let post = to_ms(&nominal.post_latency);
    report.percentile(&format!("{prefix}insert_p99_ms"), "ms", &post, 99.0);
    let late = to_ms(&nominal.lateness);
    report.percentile("loadgen.late_p99_ms", "ms", &late, 99.0);
}

/// Output gate: `/stats` must equal a cold batch run over the server's
/// final profile set, on every backend. The sequential and pool runs are
/// timed in their own processes and give `wall_s`, `wall_seq_s` and the
/// final state's quality.
fn cold_gate(
    env: &Env,
    input: &ServeInput,
    ladder: &LadderResult,
    seconds: f64,
    report: &mut RunReport,
) -> Result<(), String> {
    let dir = input.write_final_set(ladder.inserted)?;
    let s = ladder.stats;
    let expected = (input.warm.len() + ladder.inserted) as u64;
    report.check(s.profiles == expected, || {
        format!("server holds {} profiles, expected {expected}", s.profiles)
    });
    let started = Instant::now();
    let (mut seq, mut pool) = (Vec::new(), Vec::new());
    let mut reference: Option<Outcome> = None;
    let mut run = |backend: &str, report: &mut RunReport| -> Result<(), String> {
        let run = batch::spawn_child(env, Workload::ServeMixed10k, backend, &dir)?;
        let o = &run.outcome;
        report.check(
            (o.candidates, o.matches, o.entities) == (s.candidates, s.matches, s.entities),
            || {
                format!(
                    "{backend} cold run {} vs /stats candidates={} matches={} entities={}",
                    o.counts(),
                    s.candidates,
                    s.matches,
                    s.entities
                )
            },
        );
        let r = reference.get_or_insert_with(|| o.clone());
        report.check(o == r, || {
            format!(
                "{backend} cold run {} vs sequential {}",
                o.counts(),
                r.counts()
            )
        });
        match backend {
            "sequential" => seq.push(run.wall_s),
            "pool" => pool.push(run.wall_s),
            _ => {}
        }
        Ok(())
    };
    for backend in ["sequential", "pool", "fused", "dataflow"] {
        run(backend, report)?;
    }
    // The cold runs get half the run's measuring time: they are short, and the
    // host's speed drifts over seconds.
    while started.elapsed().as_secs_f64() < seconds / 2.0 {
        run("sequential", report)?;
        run("pool", report)?;
    }
    let r = reference.expect("cold runs ran");
    report.median("wall_s", "s", &pool);
    report.median("wall_seq_s", "s", &seq);
    report.value("candidate_recall", "ratio", r.recall);
    report.value("cluster_f1", "ratio", r.f1);
    report.note(format!(
        "result counts: candidates={} matches={} entities={} (server /stats after {} inserts)",
        s.candidates, s.matches, s.entities, ladder.inserted
    ));
    Ok(())
}

/// The traced serve run: one warm server and the ladder over HTTP, the
/// same operations replayed in process on `ResolverState`, then the batch
/// layers over the final profile set.
pub fn run_traced(
    env: &Env,
    input: &ServeInput,
    seed: u64,
    seconds: f64,
    t: &mut Tracer,
    report: &mut RunReport,
) -> Result<(), String> {
    let (server, _) = start_warm(env, input)?;
    let ladder = run_ladder(server, input, seed, seconds)?;
    report_ladder(&ladder, report);

    // In process: the same warm load and operations.
    t.next_trace();
    let warm = input.warm.clone();
    let mut resolver = ResolverState::new(PipelineConfig::scaling(), ErKind::Dirty);
    t.span("serve.bulk_load", |t| {
        t.span("serve.bulk_load.upserts", |_| resolver.bulk_load(warm))?;
        t.span("serve.bulk_load.first_refresh", |_| resolver.stats());
        Ok::<_, String>(())
    })?;
    let warm_counters = resolver.stats().ops;
    let rungs = plan(
        seed,
        seconds / LADDER.len() as f64,
        input.warm.len(),
        input.fresh.len(),
    );
    let mut pending = false;
    let mut inserts = 0u64;
    for rung in &rungs {
        for &(_, op) in &rung.ops {
            t.next_trace();
            match op {
                Op::Post(k) => {
                    let p = input.fresh[k].clone();
                    t.span("serve.upsert", |_| resolver.upsert(p))?;
                    pending = true;
                    inserts += 1;
                }
                Op::Get(w) => {
                    if pending {
                        t.span("serve.refresh", |_| resolver.refresh());
                        pending = false;
                    }
                    let id = &input.warm[w].original_id;
                    let found = t.span("serve.query", |_| resolver.query(0, id).is_some());
                    report.check(found, || format!("in-process query for {id} found nothing"));
                }
            }
        }
    }
    let stats = resolver.stats();
    report.check(
        (stats.candidates, stats.matches, stats.entities)
            == (
                ladder.stats.candidates as usize,
                ladder.stats.matches as usize,
                ladder.stats.entities as usize,
            ),
        || format!("in-process resolver {stats:?} vs server {:?}", ladder.stats),
    );
    report.median("serve.bulk_load_s", "s", &t.durations("serve.bulk_load"));
    for op in ["upsert", "refresh"] {
        let v = to_ms(&t.durations(&format!("serve.{op}")));
        report.percentile(&format!("serve.{op}_p50_ms"), "ms", &v, 50.0);
        report.percentile(&format!("serve.{op}_p99_ms"), "ms", &v, 99.0);
    }
    let resolver_p50 = stats::median(&to_ms(&t.durations("serve.query")));
    report.value("serve.resolver_query_p50_ms", "ms", resolver_p50);
    let http_p50 = stats::median(&to_ms(&ladder.nominal().get_latency));
    report.value("serve.http_p50_ms", "ms", http_p50 - resolver_p50);
    report.value(
        "serve.refreshes_per_insert",
        "ratio",
        (stats.ops.refreshes - warm_counters.refreshes) as f64 / inserts.max(1) as f64,
    );
    report.value(
        "serve.fallback_refreshes",
        "count",
        stats.ops.fallback_refreshes as f64,
    );
    report_http(&ladder, "serve.", report);
    report.note(format!(
        "server /stats: {} inserts, {} refreshes over HTTP",
        ladder.stats.inserts, ladder.stats.refreshes
    ));

    // The batch layers over the final profile set.
    let dir = input.write_final_set(ladder.inserted)?;
    let gt = crate::workload::read_ground_truth(&dir.join("truth.txt"))?;
    let started = Instant::now();
    let collection = t.span("profiles.load", |_| crate::workload::load_collection(&dir))?;
    report.median("profiles.load_s", "s", &t.durations("profiles.load"));
    let result = sparker_core::Pipeline::new(Workload::ServeMixed10k.config()).run(&collection);
    let reference = Outcome::of(&result, &collection, &gt);
    let mut samples = LayerSamples::default();
    while samples.is_empty() || started.elapsed().as_secs_f64() < seconds / 4.0 {
        batch::traced_iteration(
            t,
            Workload::ServeMixed10k,
            &collection,
            &gt,
            &reference,
            &mut samples,
            report,
        );
    }
    samples.report_into(report);
    Ok(())
}
