//! The closed-loop client around `ncpu_serve::serve_lines`: a line
//! source that hands over one flush group at a time, a sink that
//! timestamps each response line, and the timing `FleetAccess` wrapper
//! of the traced pass.
//!
//! Both ends report to the checker over one channel, so it sees every
//! request before its response. The checker runs on its own thread and
//! keeps no response bytes beyond a digest per key, so a run's memory
//! does not grow with its request count.

use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::{Duration, Instant};

use ncpu_obs::Counters;
use ncpu_serve::{serve_lines, FleetAccess, RunOutcome, ScenarioSpec, ServeConfig};

use crate::check::{Checker, Msg};
use crate::gen::{Group, FLUSH_LINE};

/// Messages the checker may fall behind by. Bounded so that a checker
/// slowed by a busy host cannot pile response lines into the peak RSS;
/// large enough that a 32-line flush never waits for it.
const CHECKER_BACKLOG: usize = 256;

/// Where the feed takes its groups from.
pub enum Source<'a> {
    /// A fixed list of groups (warm-up and traced passes).
    Fixed(std::slice::Iter<'a, Group>),
    /// A live stream, stopped at the first group boundary after the
    /// deadline (the timed pass).
    Until(&'a mut crate::gen::Stream, Instant),
}

impl Source<'_> {
    fn next_group(&mut self) -> Option<Group> {
        match self {
            Source::Fixed(groups) => groups.next().cloned(),
            Source::Until(stream, deadline) => {
                (Instant::now() < *deadline).then(|| stream.next_group())
            }
        }
    }
}

/// The request side: a `BufRead` that yields one line per `fill_buf`.
/// A group's lines are handed over as `serve_lines` asks for them, and
/// the next group only after the previous flush has been answered.
struct Feed<'a> {
    source: Source<'a>,
    group: std::vec::IntoIter<crate::gen::Req>,
    flush_due: bool,
    buf: Vec<u8>,
    pos: usize,
    tx: SyncSender<Msg>,
}

impl Feed<'_> {
    fn advance(&mut self) {
        self.buf.clear();
        self.pos = 0;
        if let Some(req) = self.group.next() {
            self.buf.extend_from_slice(req.line.as_bytes());
            self.buf.push(b'\n');
            let candidate = req.candidate.then_some(req.line);
            // The receiver outlives the pass; a send error cannot occur.
            let _ = self.tx.send(Msg::Req {
                invalid: req.invalid,
                candidate,
                sent: Instant::now(),
            });
            return;
        }
        if self.flush_due {
            self.flush_due = false;
            self.buf.extend_from_slice(FLUSH_LINE.as_bytes());
            self.buf.push(b'\n');
            return;
        }
        if let Some(group) = self.source.next_group() {
            self.group = group.into_iter();
            self.flush_due = true;
            self.advance();
        }
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let available = self.fill_buf()?;
            let n = available.len().min(out.len());
            out[..n].copy_from_slice(&available[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.advance();
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
    }
}

/// The response side: stamps each line when its newline arrives.
struct Sink {
    line: Vec<u8>,
    tx: SyncSender<Msg>,
}

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut rest = bytes;
        while let Some(at) = rest.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&rest[..at]);
            let received = Instant::now();
            let line = String::from_utf8_lossy(&std::mem::take(&mut self.line)).into_owned();
            let _ = self.tx.send(Msg::Resp { line, received });
            rest = &rest[at + 1..];
        }
        self.line.extend_from_slice(rest);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    /// Wall time of the `serve_lines` call.
    pub wall: Duration,
    /// Requests it served.
    pub served: u64,
}

/// Serves `source` through `serve_lines` on `fleet`, with `checker`
/// checking every response on its own thread. Returns the checker with
/// every request accounted for.
pub fn serve_pass<F: FleetAccess>(
    fleet: F,
    source: Source<'_>,
    mut checker: Checker,
) -> (Checker, PassStats) {
    let (tx, rx) = sync_channel(CHECKER_BACKLOG);
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            for msg in rx {
                checker.handle(msg);
            }
            checker.finish();
            checker
        });
        let feed = Feed {
            source,
            group: Vec::new().into_iter(),
            flush_due: false,
            buf: Vec::new(),
            pos: 0,
            tx: tx.clone(),
        };
        let sink = Sink {
            line: Vec::new(),
            tx,
        };
        let start = Instant::now();
        let served = serve_lines(fleet, feed, sink, &ServeConfig::default())
            .expect("in-memory serving cannot fail");
        let wall = start.elapsed();
        // `serve_lines` dropped the feed and the sink, closing the channel.
        let checker = worker.join().expect("checker thread panicked");
        (checker, PassStats { wall, served })
    })
}

/// A `FleetAccess` that times every `run_batch` call of the fleet it
/// wraps and otherwise passes calls straight through.
pub struct Timed<F> {
    /// The wrapped fleet access.
    pub inner: F,
    /// Total wall time inside `run_batch`.
    pub run_batch: Duration,
}

impl<F> Timed<F> {
    /// Wraps `inner` with a zero total.
    pub fn new(inner: F) -> Timed<F> {
        Timed {
            inner,
            run_batch: Duration::ZERO,
        }
    }
}

impl<F: FleetAccess> FleetAccess for &mut Timed<F> {
    fn assign_id(&mut self) -> String {
        self.inner.assign_id()
    }

    fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>> {
        let start = Instant::now();
        let outcomes = self.inner.run_batch(requests);
        self.run_batch += start.elapsed();
        outcomes
    }

    fn counters(&mut self) -> Counters {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Stream, Workload};
    use ncpu_serve::Fleet;

    fn batches() -> Vec<Vec<(String, Result<ScenarioSpec, String>)>> {
        let mut stream = Stream::new(Workload::RepeatMix, 3);
        let mut next = 0u64;
        stream
            .groups_for(120)
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|req| {
                        next += 1;
                        let spec = ncpu_obs::json::parse(&req.line)
                            .map_err(|e| e.to_string())
                            .and_then(|doc| ScenarioSpec::parse(&doc));
                        (format!("r{next:06}"), spec)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn timed_wrapper_returns_the_bare_fleets_outcomes() {
        let mut bare = Fleet::new(1, 16);
        let mut wrapped_fleet = Fleet::new(1, 16);
        let mut timed = Timed::new(&mut wrapped_fleet);
        for batch in batches() {
            let want = FleetAccess::run_batch(&mut &mut bare, batch.clone());
            let got = FleetAccess::run_batch(&mut &mut timed, batch);
            assert_eq!(got, want);
        }
        assert!(timed.run_batch > Duration::ZERO);
        assert_eq!(
            FleetAccess::counters(&mut &mut timed).to_json(),
            bare.counters().to_json()
        );
    }

    #[test]
    fn a_pass_hands_every_group_over_and_checks_every_response() {
        let mut stream = Stream::new(Workload::RepeatMix, 9);
        let warm = stream.warmup();
        let timed = stream.groups_for(200);
        let requests: usize = timed.iter().map(Vec::len).sum();
        let mut fleet = Fleet::new(1, crate::gen::CACHE_CAPACITY);
        let (mut checker, _) =
            serve_pass(&mut fleet, Source::Fixed(warm.iter()), Checker::default());
        checker.counting = true;
        let (checker, stats) = serve_pass(&mut fleet, Source::Fixed(timed.iter()), checker);
        assert_eq!(stats.served, requests as u64);
        assert_eq!(checker.attempted, requests as u64);
        assert_eq!(checker.failed, 0, "{:?}", checker.messages);
        assert_eq!(checker.latencies.len(), requests);
        assert!(checker.hits > 0 && checker.misses > 0);
    }
}
