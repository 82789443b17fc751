//! Integration tests for the HTTP front-end: ephemeral-port boot,
//! concurrent clients, JSON well-formedness, 400/404 behavior, and
//! graceful shutdown with no dropped in-flight requests.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sparker_core::PipelineConfig;
use sparker_profiles::{parse_json, ErKind, JsonValue};
use sparker_serve::{serve, ResolverState, ServerHandle};

fn boot(workers: usize) -> ServerHandle {
    let resolver = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
    serve(resolver, "127.0.0.1:0", workers).expect("bind ephemeral port")
}

/// Minimal HTTP/1.1 client: one request, read to EOF (the server closes),
/// return (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, JsonValue) {
    let (status, body) = request(addr, "GET", path, "");
    let json = parse_json(&body).expect("response body is well-formed JSON");
    (status, json)
}

fn field_u64(v: &JsonValue, key: &str) -> u64 {
    let JsonValue::Object(map) = v else {
        panic!("expected object, got {v}")
    };
    match map.get(key) {
        Some(JsonValue::Number(n)) => *n as u64,
        other => panic!("field {key}: expected number, got {other:?}"),
    }
}

#[test]
fn insert_query_stats_roundtrip() {
    let handle = boot(4);
    let addr = handle.addr();

    let (status, body) = request(
        addr,
        "POST",
        "/profiles",
        r#"[{"id":"a","attributes":{"name":"sony bravia tv"}},
            {"id":"b","attributes":{"name":"sony bravia tv 40"}},
            {"id":"c","attributes":{"name":"garmin gps watch"}}]"#,
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body).expect("well-formed JSON");
    assert_eq!(field_u64(&reply, "inserted"), 3);
    assert_eq!(field_u64(&reply, "updated"), 0);

    let (status, cluster) = get_json(addr, "/clusters/a");
    assert_eq!(status, 200);
    let JsonValue::Object(map) = &cluster else {
        panic!("expected object")
    };
    let JsonValue::Array(members) = &map["members"] else {
        panic!("members must be an array")
    };
    let ids: Vec<&str> = members
        .iter()
        .map(|m| {
            let JsonValue::Object(m) = m else {
                panic!("member must be an object")
            };
            m["id"].as_str().expect("member id is a string")
        })
        .collect();
    assert_eq!(ids, ["a", "b"]);

    let (status, stats) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(field_u64(&stats, "profiles"), 3);
    assert_eq!(field_u64(&stats, "entities"), 2);
    assert_eq!(field_u64(&stats, "inserts"), 3);

    // Updates are recognized by (source, id).
    let (status, body) = request(
        addr,
        "POST",
        "/profiles",
        r#"{"id":"a","attributes":{"name":"something else now"}}"#,
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body).expect("well-formed JSON");
    assert_eq!(field_u64(&reply, "inserted"), 0);
    assert_eq!(field_u64(&reply, "updated"), 1);
}

#[test]
fn malformed_bodies_get_400() {
    let handle = boot(2);
    let addr = handle.addr();
    let cases = [
        "not json at all",
        r#"{"id":"a"}"#,                                    // missing attributes
        r#"{"attributes":{"name":"x"}}"#,                   // missing id
        r#"{"id":"","attributes":{"name":"x"}}"#,           // empty id
        r#"{"id":"a","attributes":"flat"}"#,                // attributes not an object
        r#"{"id":"a","source":7,"attributes":{"n":"x"}}"#,  // source out of range (dirty)
        r#"{"id":"a","source":-1,"attributes":{"n":"x"}}"#, // negative source
        r#"[{"id":"a","attributes":{"n":"x"}}, 42]"#,       // non-object in array
        r#"{"id":"a","attributes":{"n":"x"}} trailing"#,    // trailing garbage
    ];
    for body in cases {
        let (status, reply) = request(addr, "POST", "/profiles", body);
        assert_eq!(status, 400, "body {body:?} must be rejected, got {reply}");
        let json = parse_json(&reply).expect("error body is well-formed JSON");
        let JsonValue::Object(map) = json else {
            panic!("error body must be an object")
        };
        assert!(map.contains_key("error"), "error body names the problem");
    }
    // A rejected batch is atomic: nothing from the mixed array landed.
    let (_, stats) = get_json(addr, "/stats");
    assert_eq!(field_u64(&stats, "profiles"), 0);
}

#[test]
fn oversized_content_length_gets_413_without_allocating() {
    let handle = boot(2);
    let addr = handle.addr();
    // A 1 TiB Content-Length and no body: the server must refuse from the
    // header alone instead of reserving (or waiting for) the body.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"POST /profiles HTTP/1.1\r\nHost: localhost\r\n\
              Content-Length: 1099511627776\r\nConnection: close\r\n\r\n",
        )
        .expect("send headers");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "expected 413, got {response:?}"
    );
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let JsonValue::Object(map) = parse_json(body).expect("error body is well-formed JSON") else {
        panic!("error body must be an object")
    };
    assert!(map.contains_key("error"), "error body names the problem");
    // The server is still up and answering.
    let (status, stats) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(field_u64(&stats, "profiles"), 0);
}

/// Send `raw` on a fresh connection and return whatever response bytes
/// arrive before the server closes it. The server may close before it has
/// read all of `raw`, so send and read errors end the exchange instead of
/// failing it.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        response.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn oversized_header_lines_get_431_and_the_server_keeps_answering() {
    let handle = boot(2);
    let addr = handle.addr();
    let long = "a".repeat(64 << 10);
    let many_headers: String = (0..101).map(|i| format!("X-Filler-{i}: y\r\n")).collect();
    for raw in [
        // An over-long request line…
        format!("GET /{long} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
        // …an over-long header line, never terminated…
        format!("GET /stats HTTP/1.1\r\nX-Long: {long}"),
        // …and one header line too many.
        format!("GET /stats HTTP/1.1\r\n{many_headers}\r\n"),
    ] {
        let response = raw_exchange(addr, raw.as_bytes());
        assert!(
            response.starts_with("HTTP/1.1 431 "),
            "expected 431, got {:?}",
            &response[..response.len().min(80)]
        );
        let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        let JsonValue::Object(map) = parse_json(body).expect("error body is well-formed JSON")
        else {
            panic!("error body must be an object")
        };
        assert!(map.contains_key("error"), "error body names the problem");
        // The server is still up and answering.
        let (status, stats) = get_json(addr, "/stats");
        assert_eq!(status, 200);
        assert_eq!(field_u64(&stats, "profiles"), 0);
    }
    // 100 header lines are still accepted.
    let hundred: String = (0..99).map(|i| format!("X-Filler-{i}: y\r\n")).collect();
    let response = raw_exchange(
        addr,
        format!("GET /stats HTTP/1.1\r\nHost: localhost\r\n{hundred}\r\n").as_bytes(),
    );
    assert!(response.starts_with("HTTP/1.1 200 "), "{response:?}");
}

#[test]
fn unknown_routes_and_ids_get_404() {
    let handle = boot(2);
    let addr = handle.addr();
    let (status, _) = get_json(addr, "/clusters/never-inserted");
    assert_eq!(status, 404);
    let (status, _) = get_json(addr, "/nope");
    assert_eq!(status, 404);
    let (status, body) = request(addr, "DELETE", "/profiles", "");
    assert_eq!(status, 404, "unsupported method on a known path: {body}");
    // Bad source segment is a 400, not a 404 (the route exists).
    let (status, _) = request(addr, "GET", "/clusters/xyz/a", "");
    assert_eq!(status, 400);
}

#[test]
fn concurrent_clients_see_consistent_state() {
    let handle = boot(8);
    let addr = handle.addr();
    let threads = 8usize;
    let per_thread = 12usize;
    let failures = Arc::new(AtomicUsize::new(0));
    let mut joins = Vec::new();
    for t in 0..threads {
        let failures = Arc::clone(&failures);
        joins.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let body = format!(
                    r#"{{"id":"t{t}-{i}","attributes":{{"name":"item {} common words"}}}}"#,
                    (t * per_thread + i) % 5
                );
                let (status, _) = request(addr, "POST", "/profiles", &body);
                if status != 200 {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
                // Interleave reads: every response must be parseable and
                // internally consistent.
                let (status, stats) = get_json(addr, "/stats");
                if status != 200 || field_u64(&stats, "entities") > field_u64(&stats, "profiles") {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    assert_eq!(failures.load(Ordering::SeqCst), 0);
    let (_, stats) = get_json(addr, "/stats");
    assert_eq!(field_u64(&stats, "profiles"), (threads * per_thread) as u64);
    assert_eq!(field_u64(&stats, "inserts"), (threads * per_thread) as u64);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut handle = boot(4);
    let addr = handle.addr();
    // Launch a wave of inserts, then shut down while they are in flight.
    // Every request that was accepted must complete with a valid response;
    // requests arriving after shutdown may be refused but must never hang.
    let clients: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let body =
                    format!(r#"{{"id":"g{i}","attributes":{{"name":"shutdown wave {i}"}}}}"#);
                // Late requests race the listener teardown; connection
                // errors are acceptable, half-written responses are not.
                let mut stream = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => return true,
                };
                let req = format!(
                    "POST /profiles HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                if stream.write_all(req.as_bytes()).is_err() {
                    return true;
                }
                let mut response = String::new();
                if stream.read_to_string(&mut response).is_err() {
                    return true;
                }
                // An accepted request must have gotten a complete reply.
                response.is_empty() || response.contains("200 OK")
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(5));
    handle.shutdown();
    for c in clients {
        assert!(
            c.join().expect("client thread"),
            "dropped in-flight request"
        );
    }
    // After shutdown the resolver state is still intact and queryable
    // in-process; whatever number of inserts landed must be clustered.
    handle.with_resolver(|r| {
        let stats = r.stats();
        assert_eq!(
            stats.entities, stats.profiles,
            "distinct texts stay singletons"
        );
    });
}

#[test]
fn http_shutdown_endpoint_stops_the_server() {
    let mut handle = boot(2);
    let addr = handle.addr();
    let (status, body) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("true"));
    // join() returns once the accept loop exits and in-flight work drains.
    handle.join();
    // New connections are now refused or dropped without a response.
    let late = TcpStream::connect(addr);
    if let Ok(mut s) = late {
        let _ = s.write_all(b"GET /stats HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.is_empty(), "no handler should answer after shutdown");
    }
}
