//! The protocol front end: line-delimited JSON over stdin or TCP.
//!
//! One request per line, one response per line, responses in strict
//! request order. Request objects:
//!
//! * `{"op":"run", ...scenario fields...}` — or any object without an
//!   `"op"` key, which is treated as a run request. Enqueued into the
//!   current batch.
//! * `{"op":"flush"}` — execute the pending batch now and emit its
//!   responses.
//! * `{"op":"stats"}` — flush, then emit the counter registry.
//! * `{"op":"shutdown"}` — flush, emit a final summary line, stop.
//!
//! Batches also flush when they reach `batch_max` or on end of input.
//! Unparseable lines occupy their response slot as error lines, so a
//! client can always match response *N* to request *N*.
//!
//! A flush streams: over stdin, each response line is written and
//! flushed as soon as it and every earlier response of its batch are
//! ready, so request 1 of a 32-request batch no longer waits for
//! requests 2–32 to simulate. Over TCP the fleet is shared, and a
//! connection writes its batch's lines only after it has released the
//! fleet lock, so a client that stops reading cannot stall the others.
//!
//! Responses:
//!
//! ```text
//! {"id":"r000001","key":"00a1…","cache":"miss","engine":"event","report":{…}}
//! {"id":"r000002","error":"cpu_fraction: expected a number in (0, 1)"}
//! {"op":"stats","counters":{…}}
//! {"op":"shutdown","requests":2}
//! ```

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ncpu_obs::export::json_string;
use ncpu_obs::json;
use ncpu_obs::Counters;

use crate::fleet::{Fleet, RunOutcome};
use crate::spec::ScenarioSpec;

/// Front-end configuration (the fleet itself is passed separately so
/// one fleet can outlive many connections).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests buffered before a forced flush.
    pub batch_max: usize,
    /// If set, every cache miss writes its `RUN_serve_<key>.json`
    /// artifact here (the trace_check-able sink). The multi-line form is
    /// rendered only for this sink; served bytes never depend on it.
    pub artifacts_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { batch_max: 32, artifacts_dir: None }
    }
}

fn write_artifact(dir: &std::path::Path, key: u64, artifact_json: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("RUN_serve_{key:016x}.json")), artifact_json)
}

/// How a front end reaches the fleet: exclusively (the stdin loop owns
/// it outright) or shared behind a mutex (one thread per TCP
/// connection). The lock is scoped to each call, so connections only
/// serialize on id assignment and batch execution — parsing and socket
/// I/O overlap freely, and one stalled client never blocks another's
/// accept. Counter updates happen entirely inside `run_batch` under the
/// lock, which is what keeps the registry's arithmetic exact no matter
/// how connections interleave. The shared form keeps
/// [`FleetAccess::stream_batch`]'s default, which emits only after
/// `run_batch` has returned and released the lock: a connection writes
/// to its socket with the fleet free, so a client that stops reading
/// never blocks another connection's batch.
pub trait FleetAccess {
    /// Next deterministic request id (see [`Fleet::assign_id`]).
    fn assign_id(&mut self) -> String;
    /// Executes one batch, one outcome per request in request order
    /// (see [`Fleet::run_batch`]).
    fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>>;
    /// Executes one batch, handing each outcome to `emit` in request
    /// order. This default runs the whole batch through
    /// [`run_batch`](FleetAccess::run_batch) and then emits, so a shared
    /// fleet's lock is released before the front end writes a line. An
    /// exclusive fleet (`&mut Fleet`) emits each outcome as soon as it
    /// and every earlier one of its batch are ready.
    fn stream_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
        emit: &mut dyn FnMut(Result<RunOutcome, (String, String)>),
    ) {
        for outcome in self.run_batch(requests) {
            emit(outcome);
        }
    }
    /// Counter snapshot (see [`Fleet::counters`]).
    fn counters(&mut self) -> Counters;
}

impl FleetAccess for &mut Fleet {
    fn assign_id(&mut self) -> String {
        Fleet::assign_id(self)
    }
    fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>> {
        Fleet::run_batch(self, requests)
    }
    fn stream_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
        emit: &mut dyn FnMut(Result<RunOutcome, (String, String)>),
    ) {
        Fleet::stream_batch(self, requests, emit);
    }
    fn counters(&mut self) -> Counters {
        Fleet::counters(self)
    }
}

/// Takes the fleet lock. A connection thread that panicked while
/// holding it poisons it; the fleet is still served — engine panics are
/// caught per job inside [`Fleet::run_batch`], so a poisoned lock means
/// at worst a request that was never answered, not a corrupted cache.
fn locked<'a, 'f>(fleet: &'a Mutex<&'f mut Fleet>) -> MutexGuard<'a, &'f mut Fleet> {
    fleet.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FleetAccess for &Mutex<&mut Fleet> {
    fn assign_id(&mut self) -> String {
        locked(self).assign_id()
    }
    fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>> {
        locked(self).run_batch(requests)
    }
    fn counters(&mut self) -> Counters {
        locked(self).counters()
    }
}

/// Runs the pending batch, writing and flushing each response line as
/// the fleet emits it. A write error stops the writing, not the batch:
/// the fleet still finishes it (its cache and counters stay exact), and
/// the first error is returned.
fn flush_batch<F: FleetAccess, W: Write>(
    fleet: &mut F,
    pending: &mut Vec<(String, Result<ScenarioSpec, String>)>,
    out: &mut W,
    cfg: &ServeConfig,
) -> std::io::Result<()> {
    let mut written = Ok(());
    fleet.stream_batch(std::mem::take(pending), &mut |outcome| {
        if written.is_ok() {
            written = write_outcome(out, cfg, outcome);
        }
    });
    written
}

/// Writes one response line (and, under `--artifacts`, a miss's
/// artifact file), then flushes it to the client.
fn write_outcome<W: Write>(
    out: &mut W,
    cfg: &ServeConfig,
    outcome: Result<RunOutcome, (String, String)>,
) -> std::io::Result<()> {
    match outcome {
        Ok(run) => {
            if let (Some(dir), Some(artifact)) = (&cfg.artifacts_dir, &run.artifact) {
                write_artifact(dir, run.key, &artifact.to_json())?;
            }
            writeln!(
                out,
                "{{\"id\":{},\"key\":\"{:016x}\",\"cache\":\"{}\",\"engine\":\"{}\",\"report\":{}}}",
                json_string(&run.id),
                run.key,
                run.cache,
                run.engine,
                run.report_json
            )?;
        }
        Err((id, msg)) => {
            writeln!(out, "{{\"id\":{},\"error\":{}}}", json_string(&id), json_string(&msg))?;
        }
    }
    out.flush()
}

/// Runs the full request/response loop over any line source and sink.
/// Returns the number of requests served. Exits on end of input or a
/// `shutdown` op (the latter also emits a summary line).
pub fn serve_lines<F: FleetAccess, R: BufRead, W: Write>(
    mut fleet: F,
    input: R,
    mut out: W,
    cfg: &ServeConfig,
) -> std::io::Result<u64> {
    let mut pending: Vec<(String, Result<ScenarioSpec, String>)> = Vec::new();
    let mut served: u64 = 0;
    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let doc = match json::parse(trimmed) {
            Ok(doc) => doc,
            Err(e) => {
                served += 1;
                pending.push((fleet.assign_id(), Err(format!("bad JSON: {e}"))));
                if pending.len() >= cfg.batch_max.max(1) {
                    flush_batch(&mut fleet, &mut pending, &mut out, cfg)?;
                }
                continue;
            }
        };
        match doc.get("op").and_then(json::Json::as_str) {
            None | Some("run") => {
                served += 1;
                pending.push((fleet.assign_id(), ScenarioSpec::parse(&doc)));
                if pending.len() >= cfg.batch_max.max(1) {
                    flush_batch(&mut fleet, &mut pending, &mut out, cfg)?;
                }
            }
            Some("flush") => flush_batch(&mut fleet, &mut pending, &mut out, cfg)?,
            Some("stats") => {
                flush_batch(&mut fleet, &mut pending, &mut out, cfg)?;
                writeln!(out, "{{\"op\":\"stats\",\"counters\":{}}}", fleet.counters().to_json())?;
                out.flush()?;
            }
            Some("shutdown") => {
                flush_batch(&mut fleet, &mut pending, &mut out, cfg)?;
                writeln!(out, "{{\"op\":\"shutdown\",\"requests\":{served}}}")?;
                out.flush()?;
                return Ok(served);
            }
            Some(other) => {
                served += 1;
                pending.push((fleet.assign_id(), Err(format!("unknown op {other:?}"))));
                if pending.len() >= cfg.batch_max.max(1) {
                    flush_batch(&mut fleet, &mut pending, &mut out, cfg)?;
                }
            }
        }
    }
    flush_batch(&mut fleet, &mut pending, &mut out, cfg)?;
    Ok(served)
}

/// Serves connections from `listener` concurrently, sharing one fleet
/// (and therefore one result cache and counter registry) across all of
/// them. Each accepted connection runs on its own scoped thread, so a
/// client that connects and stalls never blocks service to anyone else;
/// within a connection, responses still come back in strict request
/// order (each connection's loop is sequential). `max_conns` bounds the
/// accept loop for tests; `None` accepts forever. A connection sending
/// `{"op":"shutdown"}` ends that connection only.
///
/// Per-connection I/O errors (a client resetting mid-line, sending
/// non-UTF-8 bytes, or a failed socket clone) are logged on the
/// connection's thread and the loop keeps accepting — one misbehaving
/// client must never take the long-running service down for everyone
/// else. Accept-level errors are likewise transient (`ECONNABORTED`
/// and friends) and are logged without counting toward `max_conns`.
pub fn serve_tcp(
    listener: std::net::TcpListener,
    fleet: &mut Fleet,
    cfg: &ServeConfig,
    max_conns: Option<usize>,
) -> std::io::Result<u64> {
    let shared = Mutex::new(fleet);
    let served = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut conns = 0usize;
        for stream in listener.incoming() {
            match stream {
                Ok(stream) => {
                    conns += 1;
                    let (shared, served) = (&shared, &served);
                    scope.spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
                        let outcome = match stream.try_clone() {
                            Ok(clone) => {
                                serve_lines(shared, std::io::BufReader::new(clone), stream, cfg)
                            }
                            Err(e) => Err(e),
                        };
                        match outcome {
                            Ok(n) => {
                                served.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("ncpu serve: connection {peer} failed: {e}; continuing");
                            }
                        }
                    });
                }
                Err(e) => eprintln!("ncpu serve: accept failed: {e}; continuing"),
            }
            if max_conns.is_some_and(|max| conns >= max) {
                break;
            }
        }
    });
    Ok(served.load(std::sync::atomic::Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transcript(fleet: &mut Fleet, input: &str) -> String {
        let mut out = Vec::new();
        serve_lines(fleet, input.as_bytes(), &mut out, &ServeConfig::default())
            .expect("in-memory serve cannot fail");
        String::from_utf8(out).expect("responses are UTF-8")
    }

    #[test]
    fn responses_come_back_in_request_order_with_errors_in_place() {
        let mut fleet = Fleet::new(2, 64);
        let out = transcript(
            &mut fleet,
            "{\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n\
             this is not json\n\
             {\"op\":\"warp\"}\n\
             {\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n\
             {\"op\":\"shutdown\"}\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("{\"id\":\"r000001\"") && lines[0].contains("\"cache\":\"miss\""));
        assert!(lines[1].starts_with("{\"id\":\"r000002\"") && lines[1].contains("bad JSON"));
        assert!(lines[2].starts_with("{\"id\":\"r000003\"") && lines[2].contains("unknown op"));
        assert!(lines[3].starts_with("{\"id\":\"r000004\"") && lines[3].contains("\"cache\":\"hit\""));
        assert_eq!(lines[4], "{\"op\":\"shutdown\",\"requests\":4}");
        // Every response line is itself valid JSON.
        for line in &lines {
            json::parse(line).expect("response lines are well-formed JSON");
        }
    }

    /// A writer that records what each `flush` hands to the client.
    #[derive(Default)]
    struct Flushes {
        unflushed: Vec<u8>,
        flushed: Vec<String>,
    }

    impl Write for Flushes {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.unflushed.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let chunk = std::mem::take(&mut self.unflushed);
            self.flushed.push(String::from_utf8(chunk).expect("responses are UTF-8"));
            Ok(())
        }
    }

    /// Each response of a batch reaches the client on its own flush, as
    /// soon as it is ready, not with the rest of its batch.
    #[test]
    fn each_response_of_a_batch_is_flushed_as_it_is_ready() {
        let mut fleet = Fleet::new(1, 64);
        let mut out = Flushes::default();
        let input = "{\"cpu_fraction\":0.5,\"batch\":1,\"cores\":1}\n\
                     {\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n\
                     {\"cpu_fraction\":0.5,\"batch\":3,\"cores\":1}\n";
        serve_lines(&mut fleet, input.as_bytes(), &mut out, &ServeConfig::default())
            .expect("in-memory serve cannot fail");
        assert!(out.unflushed.is_empty(), "every line is flushed");
        let flushed: Vec<usize> = out.flushed.iter().map(|chunk| chunk.lines().count()).collect();
        assert_eq!(flushed, [1, 1, 1], "lines per flush");
        for (i, chunk) in out.flushed.iter().enumerate() {
            assert!(chunk.starts_with(&format!("{{\"id\":\"r{:06}\"", i + 1)), "{chunk}");
            assert!(chunk.contains("\"cache\":\"miss\""), "{chunk}");
        }
    }

    #[test]
    fn a_topology_scheduler_field_gets_one_typed_error_line() {
        let mut fleet = Fleet::new(1, 64);
        let out = transcript(
            &mut fleet,
            "{\"topology\":{\"cores\":[{},{}],\"scheduler\":\"work_stealing\"}}\n",
        );
        assert_eq!(
            out,
            "{\"id\":\"r000001\",\"error\":\"topology: unknown field \\\"scheduler\\\"\"}\n"
        );
    }

    #[test]
    fn duplicate_reports_are_byte_identical_in_the_transcript() {
        let mut fleet = Fleet::new(2, 64);
        let req = "{\"cpu_fraction\":0.25,\"batch\":2,\"cores\":2}\n";
        let out = transcript(&mut fleet, &format!("{req}{req}{req}{req}"));
        let reports: Vec<&str> = out
            .lines()
            .map(|l| l.split_once("\"report\":").expect("run response has a report").1)
            .collect();
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| *r == reports[0]), "dup reports must match byte-for-byte");
        assert_eq!(fleet.counters().get("serve.cache.hits"), 3);
        assert_eq!(fleet.counters().get("serve.cache.misses"), 1);
    }

    /// A thread that panicked while holding the fleet lock poisons it;
    /// every later connection is still served.
    #[test]
    fn a_poisoned_fleet_lock_still_serves() {
        let mut fleet = Fleet::new(1, 64);
        let shared = Mutex::new(&mut fleet);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock();
            panic!("a connection thread dies holding the lock");
        }));
        assert!(poisoner.is_err() && shared.is_poisoned());
        let mut access = &shared;
        let id = access.assign_id();
        let out = access.run_batch(vec![(
            id,
            ScenarioSpec::parse(&json::parse(r#"{"cpu_fraction":0.5,"batch":1}"#).unwrap()),
        )]);
        assert_eq!(out[0].as_ref().expect("served").cache, "miss");
        assert_eq!(access.counters().get("serve.requests"), 1);
    }

    #[test]
    fn stats_lines_carry_the_pinned_counters() {
        let mut fleet = Fleet::new(1, 64);
        let out = transcript(&mut fleet, "{\"op\":\"stats\"}\n");
        for name in crate::fleet::COUNTER_NAMES {
            assert!(out.contains(name), "stats must pin {name}: {out}");
        }
    }

    #[test]
    fn artifacts_land_on_disk_and_validate() {
        let dir = std::env::temp_dir().join(format!("ncpu_serve_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig { batch_max: 32, artifacts_dir: Some(dir.clone()) };
        let mut fleet = Fleet::new(1, 64);
        let mut out = Vec::new();
        serve_lines(
            &mut fleet,
            "{\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n".as_bytes(),
            &mut out,
            &cfg,
        )
        .expect("serve");
        let mut artifacts: Vec<_> = std::fs::read_dir(&dir)
            .expect("artifact dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        artifacts.sort();
        assert_eq!(artifacts.len(), 1);
        let doc = json::parse(&std::fs::read_to_string(&artifacts[0]).expect("read artifact"))
            .expect("artifact parses");
        json::validate_run_artifact(&doc).expect("artifact validates");
        // The file is the served report, pretty: it compacts to the
        // response line's report bytes.
        let out = String::from_utf8(out).expect("responses are UTF-8");
        let (_, report) = out.trim_end().split_once("\"report\":").expect("a run response");
        assert_eq!(json::render_compact(&doc), report.strip_suffix('}').expect("closing brace"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_misbehaving_connection_does_not_kill_the_service() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping TCP test: loopback bind not permitted");
            return;
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        let client = std::thread::spawn(move || {
            // Connection 1: invalid UTF-8 mid-stream makes `lines()`
            // error out inside serve_lines for this connection.
            let mut bad = std::net::TcpStream::connect(addr).expect("connect bad");
            bad.write_all(b"\xff\xfe garbage bytes \xff\n").expect("send garbage");
            drop(bad);
            // Connection 2: a well-formed client must still be served.
            let mut good = std::net::TcpStream::connect(addr).expect("connect good");
            good.write_all(b"{\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n{\"op\":\"shutdown\"}\n")
                .expect("send");
            let mut text = String::new();
            std::io::Read::read_to_string(&mut good, &mut text).expect("recv");
            text
        });
        let mut fleet = Fleet::new(1, 64);
        serve_tcp(listener, &mut fleet, &ServeConfig::default(), Some(2)).expect("serve survives");
        let reply = client.join().expect("client thread");
        assert!(reply.contains("\"cache\":\"miss\""), "second connection must be served: {reply}");
        assert!(reply.contains("\"op\":\"shutdown\""));
    }

    #[test]
    fn a_stalled_connection_does_not_block_later_ones() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping TCP test: loopback bind not permitted");
            return;
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        let client = std::thread::spawn(move || {
            // Connection 1 connects first, sends nothing, and stays
            // open. Under the old sequential accept loop this parked
            // the whole service; with one scoped thread per connection
            // the second client is served while the first idles.
            let stall = std::net::TcpStream::connect(addr).expect("connect stalled");
            let mut live = std::net::TcpStream::connect(addr).expect("connect live");
            live.write_all(
                b"{\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n\
                  {\"cpu_fraction\":0.5,\"batch\":3,\"cores\":1}\n\
                  {\"op\":\"shutdown\"}\n",
            )
            .expect("send");
            let mut text = String::new();
            std::io::Read::read_to_string(&mut live, &mut text).expect("recv");
            // Only once the live connection is fully answered does the
            // stalled one hang up, letting serve_tcp drain.
            drop(stall);
            text
        });
        let mut fleet = Fleet::new(1, 64);
        let served =
            serve_tcp(listener, &mut fleet, &ServeConfig::default(), Some(2)).expect("serve");
        let reply = client.join().expect("client thread");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines.len(), 3, "two answers plus the shutdown summary: {reply}");
        // In-order within the connection: ids are assigned as this
        // connection's lines are read, so they ascend down the reply.
        assert!(lines[0].contains("\"id\":\"r000001\"") && lines[0].contains("\"cache\":\"miss\""));
        assert!(lines[1].contains("\"id\":\"r000002\"") && lines[1].contains("\"cache\":\"miss\""));
        assert_eq!(lines[2], "{\"op\":\"shutdown\",\"requests\":2}");
        assert_eq!(served, 2);
        assert_eq!(fleet.counters().get("serve.requests"), 2);
        assert_eq!(fleet.counters().get("serve.cache.misses"), 2);
    }

    #[test]
    fn tcp_round_trip_shares_the_cache_across_connections() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping TCP test: loopback bind not permitted");
            return;
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        let client = std::thread::spawn(move || {
            let mut replies = Vec::new();
            for _ in 0..2 {
                let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                stream
                    .write_all(b"{\"cpu_fraction\":0.5,\"batch\":2,\"cores\":1}\n{\"op\":\"shutdown\"}\n")
                    .expect("send");
                let mut text = String::new();
                std::io::Read::read_to_string(&mut stream, &mut text).expect("recv");
                replies.push(text);
            }
            replies
        });
        let mut fleet = Fleet::new(1, 64);
        serve_tcp(listener, &mut fleet, &ServeConfig::default(), Some(2)).expect("serve");
        let replies = client.join().expect("client thread");
        assert!(replies[0].contains("\"cache\":\"miss\""));
        assert!(replies[1].contains("\"cache\":\"hit\""), "cache must persist across connections");
        let report = |t: &str| t.split_once("\"report\":").map(|(_, r)| r.to_string());
        assert_eq!(report(&replies[0]), report(&replies[1]));
    }
}
