//! The output checker: pairs every response line with its request and
//! decides whether the request failed.
//!
//! A request fails unless its response line parses, carries the next id
//! in order, is an error line exactly when the request was generated
//! invalid, and — for a report — carries the same report bytes as every
//! earlier answer for the same key (so a hit must match the key's first
//! miss). Misses of seeded candidate requests are kept as the
//! recomputation sample, which [`recompute`] re-runs outside the timed
//! window on the twin engine and compares byte for byte.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use ncpu_obs::json::{self, Json};
use ncpu_serve::ScenarioSpec;
use ncpu_soc::{fnv1a_64, Engine};

/// Most misses kept for recomputation in a timed run.
pub const MAX_SAMPLES: usize = 6;

/// Failure messages kept for the report (all failures are counted).
const MAX_MESSAGES: usize = 8;

/// What the feed and the sink tell the checker, in the order it happened.
#[derive(Debug)]
pub enum Msg {
    /// A request line was handed to `serve_lines`.
    Req {
        /// Generated invalid.
        invalid: bool,
        /// The line, if the request is a recomputation candidate.
        candidate: Option<String>,
        /// When the line was handed over.
        sent: Instant,
    },
    /// A response line reached the sink.
    Resp {
        /// The line, without its newline.
        line: String,
        /// When its newline arrived.
        received: Instant,
    },
}

#[derive(Debug)]
struct Pending {
    invalid: bool,
    candidate: Option<String>,
    sent: Instant,
    counted: bool,
}

/// A miss kept for recomputation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request line.
    pub line: String,
    /// The key the response carried.
    pub key: u64,
    /// The engine the response named.
    pub engine: String,
    /// The served report bytes.
    pub report: String,
}

/// Model counters summed over the reports of missed requests, named by
/// layer (see [`layer_counter`]). `cosim` holds the lockstep and event
/// misses alone: the denominators of host time per simulated event.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Over every miss.
    pub all: BTreeMap<String, u64>,
    /// Over lockstep and event misses.
    pub cosim: BTreeMap<String, u64>,
}

/// The checker state; lives on its own thread during a pass.
#[derive(Debug)]
pub struct Checker {
    /// Whether requests handed over now count as attempted (the timed
    /// or traced pass) or only as warm-up.
    pub counting: bool,
    pending: VecDeque<Pending>,
    next_id: u64,
    seen: HashMap<u64, (u64, usize)>,
    /// Misses kept for recomputation.
    pub samples: Vec<Sample>,
    /// Most misses kept in `samples`.
    pub max_samples: usize,
    /// Counted requests.
    pub attempted: u64,
    /// Failed requests, warm-up failures included.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
    /// Per counted request, line handed over to response received.
    pub latencies: Vec<Duration>,
    /// Counted responses served from the cache / computed.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Model counters of counted misses.
    pub tally: Tally,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker {
            counting: false,
            pending: VecDeque::new(),
            next_id: 1,
            seen: HashMap::new(),
            samples: Vec::new(),
            max_samples: MAX_SAMPLES,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            latencies: Vec::new(),
            hits: 0,
            misses: 0,
            tally: Tally::default(),
        }
    }
}

impl Checker {
    /// Records one message from the feed or the sink.
    pub fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Req {
                invalid,
                candidate,
                sent,
            } => {
                self.attempted += u64::from(self.counting);
                self.pending.push_back(Pending {
                    invalid,
                    candidate,
                    sent,
                    counted: self.counting,
                });
            }
            Msg::Resp { line, received } => match self.pending.pop_front() {
                None => self.fail(format!("response without a request: {}", clip(&line))),
                Some(req) => {
                    if let Err(e) = self.check(&req, &line) {
                        self.fail(e);
                    }
                    if req.counted {
                        self.latencies
                            .push(received.saturating_duration_since(req.sent));
                    }
                }
            },
        }
    }

    /// Counts every request still waiting for a response as failed.
    pub fn finish(&mut self) {
        while self.pending.pop_front().is_some() {
            self.fail(format!("r{:06}: no response", self.next_id));
            self.next_id += 1;
        }
    }

    /// Counts one failed request, keeping the first messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    fn check(&mut self, req: &Pending, line: &str) -> Result<(), String> {
        let want = format!("r{:06}", self.next_id);
        self.next_id += 1;
        let doc = json::parse(line).map_err(|e| format!("{want}: unparseable response: {e}"))?;
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("<none>");
        if id != want {
            return Err(format!("{want}: response carries id {id}"));
        }
        match (doc.get("error"), req.invalid) {
            (Some(_), true) => return Ok(()),
            (Some(e), false) => return Err(format!("{want}: unexpected error line {e:?}")),
            (None, true) => return Err(format!("{want}: invalid request answered with a report")),
            (None, false) => {}
        }
        let key = doc
            .get("key")
            .and_then(Json::as_str)
            .and_then(|k| u64::from_str_radix(k, 16).ok())
            .ok_or_else(|| format!("{want}: no key"))?;
        let cache = doc.get("cache").and_then(Json::as_str).unwrap_or("");
        let engine = doc.get("engine").and_then(Json::as_str).unwrap_or("");
        if !["hit", "miss"].contains(&cache) || !["lockstep", "event", "analytic"].contains(&engine)
        {
            return Err(format!("{want}: cache {cache:?} engine {engine:?}"));
        }
        let report = report_bytes(line).ok_or_else(|| format!("{want}: no report field"))?;
        let digest = (fnv1a_64(report.as_bytes()), report.len());
        match self.seen.get(&key) {
            Some(first) if *first != digest => {
                return Err(format!(
                    "{want}: key {key:016x} answered with other bytes than before"
                ))
            }
            Some(_) => {}
            None if cache == "hit" => {
                return Err(format!(
                    "{want}: hit on key {key:016x} that was never computed"
                ))
            }
            None => {
                self.seen.insert(key, digest);
            }
        }
        if cache == "miss" {
            if let Some(line) = &req.candidate {
                if req.counted && self.samples.len() < self.max_samples {
                    self.samples.push(Sample {
                        line: line.clone(),
                        key,
                        engine: engine.to_string(),
                        report: report.to_string(),
                    });
                }
            }
        }
        if req.counted {
            if cache == "hit" {
                self.hits += 1;
            } else {
                self.misses += 1;
                let cosim = engine != "analytic";
                if let Some(report) = doc.get("report") {
                    self.tally.add(report, cosim);
                }
            }
        }
        Ok(())
    }
}

/// The report bytes of a response line: everything after `"report":`
/// up to the line's closing brace.
fn report_bytes(line: &str) -> Option<&str> {
    let start = line.find(",\"report\":")? + ",\"report\":".len();
    line.strip_suffix('}')
        .filter(|body| body.len() >= start)
        .map(|body| &body[start..])
}

fn clip(line: &str) -> &str {
    &line[..line.len().min(80)]
}

/// Maps a report counter to its layer metric name, summing per-core
/// counters (`core<i>.*` on the co-simulated fleet, `cpu.*` and
/// `accel.*` on the heterogeneous baseline).
pub fn layer_counter(name: &str) -> Option<String> {
    let unit = match name.split_once('.') {
        Some((core, rest)) if core.starts_with("core") && core[4..].parse::<u32>().is_ok() => rest,
        Some(("cpu", rest)) => rest,
        _ => name,
    };
    let layer = match unit {
        "retired" => "pipeline.retired",
        "cycles" => "pipeline.cycles",
        "images_inferred" | "accel.images_inferred" => "accel.images_inferred",
        "bnn_cycles" | "accel.busy_cycles" => "accel.bnn_cycles",
        "dma.bytes" => "dma.bytes",
        "dma.transfers" => "dma.transfers",
        "soc.l2_conflict_cycles" => "l2.conflict_cycles",
        "fault.retries" => "fault.retries",
        "run.makespan_cycles" => "model.makespan_cycles",
        _ if unit.starts_with("stall.") => return Some(format!("pipeline.{unit}")),
        _ if unit.starts_with("fault.injected.") => "fault.injected",
        _ => return None,
    };
    Some(layer.to_string())
}

impl Tally {
    fn add(&mut self, report: &Json, cosim: bool) {
        let mut add = |name: String, value: u64| {
            if cosim {
                *self.cosim.entry(name.clone()).or_default() += value;
            }
            *self.all.entry(name).or_default() += value;
        };
        if let Some(Json::Obj(counters)) = report.get("counters") {
            for (name, value) in counters {
                if let (Some(layer), Some(v)) = (layer_counter(name), value.as_num()) {
                    add(layer, v as u64);
                }
            }
        }
        let recovery = report
            .get("metrics")
            .and_then(|m| m.get("fault.recovery_cycles"));
        if let Some(sum) = recovery.and_then(|h| h.get("sum")).and_then(Json::as_num) {
            add("fault.recovery_cycles".to_string(), sum as u64);
        }
    }

    /// The summed value of `name` over every miss (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.all.get(name).copied().unwrap_or(0)
    }
}

/// Re-runs `sample` on the twin of the engine that served it (lockstep
/// ↔ event; the analytic engine has no twin and runs again), with the
/// fleet's engine-tag normalisation, and compares key and report bytes.
/// Returns the wall time of serialising the recomputed report —
/// `artifact` → `to_json` → `json::parse` → `render_compact`, the work
/// the fleet does per miss.
pub fn recompute(sample: &Sample) -> Result<Duration, String> {
    let doc = json::parse(&sample.line).map_err(|e| format!("sample line: {e}"))?;
    let scenario = ScenarioSpec::parse(&doc)?.build();
    if scenario.cache_key() != sample.key {
        return Err(format!(
            "key {:016x} differs from recomputed {:016x}",
            sample.key,
            scenario.cache_key()
        ));
    }
    let (mut report, rec) = match sample.engine.as_str() {
        "lockstep" => ncpu_soc::EventDriven.run(&scenario),
        "event" => ncpu_soc::Lockstep.run(&scenario),
        _ => ncpu_soc::Analytic.run(&scenario),
    };
    report.config = report
        .config
        .replace(" (lockstep)", "")
        .replace(" (event)", "");
    let start = Instant::now();
    let artifact = report
        .artifact(&format!("serve_{:016x}", sample.key), &rec)
        .to_json();
    let doc = json::parse(&artifact).map_err(|e| format!("recomputed artifact: {e}"))?;
    let compact = json::render_compact(&doc);
    let serialize = start.elapsed();
    if compact != sample.report {
        return Err(format!(
            "key {:016x}: served report differs from the {} recomputation",
            sample.key,
            if sample.engine == "analytic" {
                "analytic"
            } else {
                "twin-engine"
            }
        ));
    }
    Ok(serialize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real transcript: three requests (a miss, an invalid line, a
    /// hit of the first) served by a fresh fleet.
    fn transcript() -> Vec<String> {
        let input = concat!(
            r#"{"cpu_fraction":0.5,"batch":4,"cores":2}"#,
            "\n",
            r#"{"cpu_fraction":7}"#,
            "\n",
            r#"{"cores":2,"batch":4,"cpu_fraction":0.5}"#,
            "\n",
            r#"{"cpu_fraction":0.25,"batch":4,"cores":1}"#,
            "\n"
        );
        let mut fleet = ncpu_serve::Fleet::new(1, 8);
        let mut out = Vec::new();
        ncpu_serve::serve_lines(&mut fleet, input.as_bytes(), &mut out, &Default::default())
            .expect("in-memory serve");
        String::from_utf8(out)
            .expect("utf-8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    const INVALID: [bool; 4] = [false, true, false, false];

    fn run(lines: &[String], invalid: &[bool]) -> Checker {
        let mut checker = Checker {
            counting: true,
            ..Checker::default()
        };
        let now = Instant::now();
        for &invalid in invalid {
            checker.handle(Msg::Req {
                invalid,
                candidate: None,
                sent: now,
            });
        }
        for line in lines {
            checker.handle(Msg::Resp {
                line: line.clone(),
                received: now,
            });
        }
        checker.finish();
        checker
    }

    #[test]
    fn a_clean_transcript_passes() {
        let lines = transcript();
        assert!(lines[2].contains("\"cache\":\"hit\""), "{}", lines[2]);
        let checker = run(&lines, &INVALID);
        assert_eq!(
            (checker.attempted, checker.failed),
            (4, 0),
            "{:?}",
            checker.messages
        );
        assert_eq!((checker.hits, checker.misses), (1, 2));
    }

    #[test]
    fn a_flipped_byte_fails() {
        let mut lines = transcript();
        // Flip one digit inside the hit's report.
        let at = lines[2].rfind("\"run.items\":4").expect("counter present") + 12;
        lines[2].replace_range(at..at + 1, "5");
        let checker = run(&lines, &INVALID);
        assert_eq!(checker.failed, 1, "{:?}", checker.messages);
        // A flip that breaks the JSON fails too, and leaves the later
        // hit on that key with nothing to match.
        let mut lines = transcript();
        lines[0].replace_range(0..1, "[");
        let checker = run(&lines, &INVALID);
        assert_eq!(checker.failed, 2, "{:?}", checker.messages);
        assert!(
            checker.messages[0].contains("unparseable"),
            "{:?}",
            checker.messages
        );
    }

    #[test]
    fn a_dropped_line_fails() {
        let mut lines = transcript();
        lines.remove(3);
        let checker = run(&lines, &INVALID);
        assert_eq!(checker.failed, 1, "{:?}", checker.messages);
        assert!(checker.messages[0].contains("no response"));
    }

    #[test]
    fn a_reordered_id_fails() {
        let mut lines = transcript();
        lines.swap(2, 3);
        let checker = run(&lines, &INVALID);
        assert_eq!(checker.failed, 2, "{:?}", checker.messages);
        assert!(
            checker.messages[0].contains("carries id r000004"),
            "{:?}",
            checker.messages
        );
    }

    #[test]
    fn an_unexpected_error_line_fails() {
        let lines = transcript();
        // The same transcript, but the checker expected line 1 valid.
        let checker = run(&lines, &[false, false, false, false]);
        assert_eq!(checker.failed, 1, "{:?}", checker.messages);
        // And a report where an error was due.
        let checker = run(&lines, &[false, true, false, true]);
        assert_eq!(checker.failed, 1, "{:?}", checker.messages);
    }

    #[test]
    fn recomputation_accepts_the_served_bytes_and_rejects_a_flip() {
        let lines = transcript();
        let doc = json::parse(&lines[3]).expect("parses");
        let mut sample = Sample {
            line: r#"{"cpu_fraction":0.25,"batch":4,"cores":1}"#.to_string(),
            key: u64::from_str_radix(doc.get("key").and_then(Json::as_str).unwrap(), 16).unwrap(),
            engine: doc
                .get("engine")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
            report: report_bytes(&lines[3]).unwrap().to_string(),
        };
        assert_eq!(sample.engine, "event");
        recompute(&sample).expect("twin engine agrees");
        sample.report = sample
            .report
            .replacen("\"makespan_cycles\":", "\"makespan_cycles\":1", 1);
        assert!(recompute(&sample).is_err());
    }

    #[test]
    fn per_core_counters_fold_into_layers() {
        assert_eq!(
            layer_counter("core3.retired").as_deref(),
            Some("pipeline.retired")
        );
        assert_eq!(
            layer_counter("cpu.stall.mem").as_deref(),
            Some("pipeline.stall.mem")
        );
        assert_eq!(
            layer_counter("accel.busy_cycles").as_deref(),
            Some("accel.bnn_cycles")
        );
        assert_eq!(
            layer_counter("fault.injected.core_hang").as_deref(),
            Some("fault.injected")
        );
        assert_eq!(layer_counter("core0.switches"), None);
        assert_eq!(layer_counter("obs.dropped_instants"), None);
    }
}
