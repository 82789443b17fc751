//! Dependency-free HTTP/1.1 JSON front-end for [`ResolverState`].
//!
//! A thread-per-connection `std::net` server (the container is offline, so
//! no async runtime or HTTP crate is available — nor needed: the resolver
//! serializes on a mutex anyway, so a bounded thread pool per connection is
//! the right shape). One request per connection, `Connection: close`.
//!
//! # Endpoints
//!
//! * `POST /profiles` — body is one profile object or an array of them:
//!   `{"source": 0, "id": "p1", "attributes": {"name": "sony tv"}}`
//!   (`source` optional, default 0; attribute values are stringified with
//!   the same rules as the batch JSON loader). Responds
//!   `{"inserted": n, "updated": m}`.
//! * `GET /clusters/{id}` (dirty) or `GET /clusters/{source}/{id}` —
//!   the profile's cluster: `{"cluster": label, "members": [{"source": s,
//!   "id": "..."}]}`; 404 for unknown ids.
//! * `GET /stats` — aggregate counts, field-aligned with the batch CLI's
//!   `result counts:` line: `{"profiles": .., "candidates": ..,
//!   "matches": .., "entities": .., ...}`.
//! * `POST /shutdown` — begin graceful shutdown (in-flight requests
//!   drain; the accept loop exits).
//!
//! Malformed requests/bodies get 400, unknown routes/ids 404, bodies over
//! 8 MiB 413, a request or header line over 8 KiB or more than 100 header
//! lines 431 — always with a JSON `{"error": "..."}` body.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use sparker_profiles::{parse_json, JsonValue, Profile, SourceId};

use crate::resolver::{OpKind, ResolverState};

struct Shared {
    resolver: Mutex<ResolverState>,
    shutdown: AtomicBool,
    /// Bound address; `/shutdown` self-connects to it to unblock the
    /// accept loop.
    addr: SocketAddr,
    /// (in-flight handler count, available worker slots)
    gauge: Mutex<(usize, usize)>,
    gauge_cv: Condvar,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Handle to a running server: its bound address plus the levers for a
/// graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown: stop accepting, drain in-flight
    /// requests, join the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let mut gauge = self.shared.gauge.lock().expect("gauge lock");
        while gauge.0 > 0 {
            gauge = self.shared.gauge_cv.wait(gauge).expect("gauge wait");
        }
    }

    /// Run a closure against the resident resolver (e.g. to warm it or to
    /// verify equivalence from a test).
    pub fn with_resolver<T>(&self, f: impl FnOnce(&mut ResolverState) -> T) -> T {
        f(&mut self.shared.resolver.lock().expect("resolver lock"))
    }

    /// Block until the accept loop exits (i.e. until `/shutdown` or
    /// [`ServerHandle::shutdown`]), then drain in-flight requests.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let mut gauge = self.shared.gauge.lock().expect("gauge lock");
        while gauge.0 > 0 {
            gauge = self.shared.gauge_cv.wait(gauge).expect("gauge wait");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Boot the server on `addr` (use port 0 for an ephemeral port) with at
/// most `workers` concurrent connection handlers.
pub fn serve(
    resolver: ResolverState,
    addr: impl ToSocketAddrs,
    workers: usize,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let workers = workers.max(1);
    let shared = Arc::new(Shared {
        resolver: Mutex::new(resolver),
        shutdown: AtomicBool::new(false),
        addr,
        gauge: Mutex::new((0, workers)),
        gauge_cv: Condvar::new(),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("sparker-serve-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The connection that woke us (or a late client) gets dropped;
            // in-flight handlers keep draining.
            break;
        }
        // Reserve a worker slot (bounds handler concurrency) and count the
        // request as in-flight BEFORE the handler thread detaches, so a
        // shutdown triggered right after accept still waits for it.
        {
            let mut gauge = shared.gauge.lock().expect("gauge lock");
            while gauge.1 == 0 {
                gauge = shared.gauge_cv.wait(gauge).expect("gauge wait");
            }
            gauge.1 -= 1;
            gauge.0 += 1;
        }
        let handler_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("sparker-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &handler_shared);
                let mut gauge = handler_shared.gauge.lock().expect("gauge lock");
                gauge.1 += 1;
                gauge.0 -= 1;
                drop(gauge);
                handler_shared.gauge_cv.notify_all();
            });
        if spawned.is_err() {
            let mut gauge = shared.gauge.lock().expect("gauge lock");
            gauge.1 += 1;
            gauge.0 -= 1;
            drop(gauge);
            shared.gauge_cv.notify_all();
        }
    }
}

/// Largest request body the server accepts (8 MiB). A larger
/// `Content-Length` is answered with 413 before any body buffer is
/// allocated, so a client header cannot make the server reserve memory.
const MAX_BODY_BYTES: usize = 8 << 20;

/// Longest request line or header line the server reads (8 KiB, line
/// terminator included). A longer line is answered with 431 as soon as
/// its first 8 KiB + 1 bytes are in, so an endless line cannot grow the
/// server's memory.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines a request may carry; one more is answered with 431.
const MAX_HEADER_LINES: usize = 100;

struct Request {
    method: String,
    path: String,
    body: String,
}

enum Reply {
    Ok(JsonValue),
    BadRequest(String),
    NotFound(String),
}

/// A request the server refuses to read further: the status and message
/// it is answered with.
struct Refusal {
    status: u16,
    message: String,
}

impl From<io::Error> for Refusal {
    fn from(e: io::Error) -> Self {
        Refusal {
            status: 400,
            message: format!("malformed request: {e}"),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader) {
        Ok(r) => r,
        Err(refusal) => {
            return write_reply(&stream, refusal.status, &error_json(&refusal.message));
        }
    };
    let reply = route(&request, shared);
    match reply {
        Reply::Ok(v) => write_reply(&stream, 200, &v.to_string()),
        Reply::BadRequest(msg) => write_reply(&stream, 400, &error_json(&msg)),
        Reply::NotFound(msg) => write_reply(&stream, 404, &error_json(&msg)),
    }
}

/// Read one line of at most [`MAX_LINE_BYTES`] (empty at end of stream);
/// a longer line is refused with 431 before more of it is buffered.
fn read_line_capped(reader: &mut BufReader<TcpStream>) -> Result<String, Refusal> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if line.len() > MAX_LINE_BYTES {
        return Err(Refusal {
            status: 431,
            message: format!("request line or header line exceeds the {MAX_LINE_BYTES}-byte limit"),
        });
    }
    String::from_utf8(line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not UTF-8").into())
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, Refusal> {
    let line = read_line_capped(reader)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request path"))?
        .to_string();
    let mut content_length = 0usize;
    let mut header_lines = 0usize;
    loop {
        let header = read_line_capped(reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES {
            return Err(Refusal {
                status: 431,
                message: format!("request has more than {MAX_HEADER_LINES} header lines"),
            });
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Refusal {
            status: 413,
            message: format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

fn route(request: &Request, shared: &Shared) -> Reply {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["profiles"]) => post_profiles(&request.body, shared),
        ("GET", ["clusters", id]) => get_cluster(0, id, shared),
        ("GET", ["clusters", source, id]) => match source.parse::<u32>() {
            Ok(s) => get_cluster(s, id, shared),
            Err(_) => Reply::BadRequest(format!("source must be an integer, got {source:?}")),
        },
        ("GET", ["stats"]) => get_stats(shared),
        ("POST", ["shutdown"]) => {
            shared.begin_shutdown();
            let mut body = BTreeMap::new();
            body.insert("shutdown".to_string(), JsonValue::Bool(true));
            Reply::Ok(JsonValue::Object(body))
        }
        (_, _) => Reply::NotFound(format!("no route for {} {}", request.method, request.path)),
    }
}

/// Parse one profile object into a [`Profile`], mirroring the batch JSON
/// loader's stringification rules.
fn profile_from_json(value: &JsonValue) -> Result<Profile, String> {
    let JsonValue::Object(map) = value else {
        return Err("profile must be a JSON object".to_string());
    };
    let source = match map.get("source") {
        None => 0u8,
        Some(JsonValue::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= u8::MAX as f64 => {
            *n as u8
        }
        Some(other) => {
            return Err(format!(
                "source must be a small non-negative integer, got {other}"
            ))
        }
    };
    let id = match map.get("id") {
        Some(JsonValue::String(s)) if !s.is_empty() => s.clone(),
        Some(other) => return Err(format!("id must be a non-empty string, got {other}")),
        None => return Err("missing required field: id".to_string()),
    };
    let attributes = match map.get("attributes") {
        Some(JsonValue::Object(attrs)) => attrs,
        Some(other) => return Err(format!("attributes must be an object, got {other}")),
        None => return Err("missing required field: attributes".to_string()),
    };
    let mut builder = Profile::builder(SourceId(source), &id);
    for (name, v) in attributes {
        // Same convention as the batch JSON-lines loader: an array value
        // becomes one attribute instance per element.
        match v {
            JsonValue::Array(items) => {
                for item in items {
                    builder = builder.attr(name.clone(), item.to_text());
                }
            }
            other => builder = builder.attr(name.clone(), other.to_text()),
        }
    }
    Ok(builder.build())
}

fn post_profiles(body: &str, shared: &Shared) -> Reply {
    let value = match parse_json(body) {
        Ok(v) => v,
        Err(e) => return Reply::BadRequest(format!("invalid JSON body: {e}")),
    };
    let items: Vec<&JsonValue> = match &value {
        JsonValue::Array(items) => items.iter().collect(),
        obj @ JsonValue::Object(_) => vec![obj],
        other => {
            return Reply::BadRequest(format!(
                "body must be a profile object or an array of them, got {other}"
            ))
        }
    };
    let mut profiles = Vec::with_capacity(items.len());
    for item in items {
        match profile_from_json(item) {
            Ok(p) => profiles.push(p),
            Err(e) => return Reply::BadRequest(e),
        }
    }
    let mut resolver = shared.resolver.lock().expect("resolver lock");
    let mut inserted = 0u64;
    let mut updated = 0u64;
    for p in profiles {
        match resolver.upsert(p) {
            Ok(OpKind::Inserted) => inserted += 1,
            Ok(OpKind::Updated) => updated += 1,
            Err(e) => return Reply::BadRequest(e),
        }
    }
    let mut out = BTreeMap::new();
    out.insert("inserted".to_string(), JsonValue::Number(inserted as f64));
    out.insert("updated".to_string(), JsonValue::Number(updated as f64));
    Reply::Ok(JsonValue::Object(out))
}

fn get_cluster(source: u32, id: &str, shared: &Shared) -> Reply {
    let mut resolver = shared.resolver.lock().expect("resolver lock");
    match resolver.query(source, id) {
        None => Reply::NotFound(format!("unknown profile: source={source} id={id:?}")),
        Some(view) => {
            let members = view
                .members
                .iter()
                .map(|(s, oid)| {
                    let mut m = BTreeMap::new();
                    m.insert("source".to_string(), JsonValue::Number(*s as f64));
                    m.insert("id".to_string(), JsonValue::String(oid.clone()));
                    JsonValue::Object(m)
                })
                .collect();
            let mut out = BTreeMap::new();
            out.insert(
                "cluster".to_string(),
                JsonValue::Number(view.cluster as f64),
            );
            out.insert("members".to_string(), JsonValue::Array(members));
            Reply::Ok(JsonValue::Object(out))
        }
    }
}

fn get_stats(shared: &Shared) -> Reply {
    let mut resolver = shared.resolver.lock().expect("resolver lock");
    let s = resolver.stats();
    let num = |n: u64| JsonValue::Number(n as f64);
    let mut out = BTreeMap::new();
    out.insert("profiles".to_string(), num(s.profiles as u64));
    out.insert(
        "sources".to_string(),
        JsonValue::Array(vec![num(s.sources[0] as u64), num(s.sources[1] as u64)]),
    );
    out.insert("candidates".to_string(), num(s.candidates as u64));
    out.insert("matches".to_string(), num(s.matches as u64));
    out.insert("entities".to_string(), num(s.entities as u64));
    out.insert("fast_path".to_string(), JsonValue::Bool(s.fast_path));
    out.insert("inserts".to_string(), num(s.ops.inserts));
    out.insert("updates".to_string(), num(s.ops.updates));
    out.insert("queries".to_string(), num(s.ops.queries));
    out.insert("refreshes".to_string(), num(s.ops.refreshes));
    Reply::Ok(JsonValue::Object(out))
}

fn error_json(msg: &str) -> String {
    let mut out = BTreeMap::new();
    out.insert("error".to_string(), JsonValue::String(msg.to_string()));
    JsonValue::Object(out).to_string()
}

fn write_reply(mut stream: &TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
