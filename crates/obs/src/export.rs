//! Machine-readable run artifacts: `RUN_<usecase>.json` summaries and
//! Chrome `trace_event` files that open directly in Perfetto or
//! `chrome://tracing`.
//!
//! Everything is hand-rolled, deterministic JSON (same policy as
//! `ncpu-testkit`'s `BENCH_*.json` writer): keys appear in a fixed
//! order, floats are formatted with six decimals, and counter maps are
//! `BTreeMap`-sorted, so two identical runs produce byte-identical
//! files — `tests/determinism.rs` pins that.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::event::EventKind;
use crate::metrics::MetricsReport;
use crate::record::{Counters, Recorder};

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// [`json_string`], appended to `out` without an intermediate string.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Per-core slice of a [`RunArtifact`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreArtifact {
    /// Role string from the run report (`"ncpu0"`, `"cpu"`, `"accel"`, ...).
    pub role: String,
    /// Cycles the core spent busy.
    pub busy_cycles: u64,
    /// `busy_cycles / makespan`.
    pub utilization: f64,
    /// `(label, start_cycle, end_cycle)` phase spans on the global clock.
    pub spans: Vec<(String, u64, u64)>,
}

/// The machine-readable summary of one end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// Use-case name (`image`, `motion`, `parametric`) — becomes the
    /// `RUN_<name>.json` / `TRACE_<name>.json` file stem.
    pub name: String,
    /// Human-readable system configuration (e.g. `"2x ncpu"`).
    pub config: String,
    /// End-to-end makespan in cycles.
    pub makespan: u64,
    /// Classification accuracy over the run's items.
    pub accuracy: f64,
    /// Per-core utilization and spans.
    pub cores: Vec<CoreArtifact>,
    /// Final counter registry snapshot.
    pub counters: Counters,
    /// Cycle-domain histograms (per-item latency, queue depth,
    /// per-core utilization) recorded over the run.
    pub metrics: MetricsReport,
}

/// The whitespace style a [`RunArtifact`] is rendered in. Both styles
/// write the same token stream; they differ only in whitespace and in
/// how numbers are spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Style {
    /// The multi-line `RUN_*.json` layout: integers verbatim, floats
    /// with six decimals.
    Pretty,
    /// One line, no whitespace, numbers spelled the way
    /// [`crate::json::render_compact`] spells what
    /// [`crate::json::parse`] reads back from the pretty form: an
    /// integer up to 2^53 verbatim, anything else through the same
    /// `f64` rule. So `render(Compact)` equals
    /// `render_compact(&parse(&render(Pretty)))`, without the parse.
    Compact,
}

/// One token stream, two [`Style`]s: the whitespace calls are no-ops in
/// the compact style, and numbers go through the style's spelling.
struct Writer {
    out: String,
    style: Style,
}

impl Writer {
    /// Whitespace only the pretty style writes.
    fn ws(&mut self, pretty: &str) {
        if self.style == Style::Pretty {
            self.out.push_str(pretty);
        }
    }

    fn punct(&mut self, c: char) {
        self.out.push(c);
    }

    fn string(&mut self, s: &str) {
        push_json_string(&mut self.out, s);
    }

    /// The separator before an element: a comma unless it is the
    /// first, then the pretty style's line break or space.
    fn separate(&mut self, first: bool, pretty: &str) {
        if !first {
            self.punct(',');
        }
        self.ws(pretty);
    }

    /// [`separate`](Self::separate), then `key`.
    fn member(&mut self, first: bool, pretty: &str, key: &str) {
        self.separate(first, pretty);
        self.key(key);
    }

    /// `"key":` plus, pretty, one space.
    fn key(&mut self, key: &str) {
        self.string(key);
        self.out.push(':');
        self.ws(" ");
    }

    fn uint(&mut self, v: u64) {
        if self.style == Style::Compact && v > 1 << 53 {
            // What the parser reads back is `v` rounded to an f64 (both
            // conversions round to nearest, ties to even).
            self.out.push_str(&crate::json::render_num(v as f64));
        } else {
            let _ = write!(self.out, "{v}");
        }
    }

    fn fixed6(&mut self, v: f64) {
        let text = format!("{v:.6}");
        if self.style == Style::Compact {
            if let Ok(parsed) = text.parse::<f64>() {
                self.out.push_str(&crate::json::render_num(parsed));
                return;
            }
        }
        self.out.push_str(&text);
    }

    /// A histogram value: always one line (the pretty form embeds
    /// [`crate::metrics::CycleHistogram::to_json`]'s layout).
    fn histogram(&mut self, hist: &crate::metrics::CycleHistogram) {
        let scalars = [
            ("count", hist.count()),
            ("sum", hist.sum()),
            ("min", hist.min()),
            ("max", hist.max()),
            ("p50", hist.p50()),
            ("p99", hist.p99()),
            ("p999", hist.p999()),
        ];
        self.punct('{');
        for (name, value) in scalars {
            self.string(name);
            self.punct(':');
            self.uint(value);
            self.punct(',');
        }
        self.string("buckets");
        self.out.push_str(":[");
        for (i, (b, count, max)) in hist.buckets().into_iter().enumerate() {
            self.separate(i == 0, "");
            self.punct('[');
            self.uint(b as u64);
            self.punct(',');
            self.uint(count);
            self.punct(',');
            self.uint(max);
            self.punct(']');
        }
        self.out.push_str("]}");
    }
}

impl RunArtifact {
    /// Renders the artifact as deterministic multi-line JSON.
    pub fn to_json(&self) -> String {
        self.render(Style::Pretty)
    }

    /// Renders the artifact as one deterministic line, byte-identical
    /// to `render_compact(&parse(&self.to_json()))` but written in one
    /// pass: the same tokens as [`to_json`](Self::to_json), without
    /// whitespace, an integer past 2^53 or a six-decimal float spelled
    /// the way [`crate::json::render_compact`] spells the `f64` the
    /// parser reads back.
    pub fn to_compact_json(&self) -> String {
        self.render(Style::Compact)
    }

    fn render(&self, style: Style) -> String {
        const TOP: &str = "\n  ";
        const NESTED: &str = "\n    ";
        let mut w = Writer { out: String::with_capacity(4096), style };
        w.punct('{');
        w.member(true, TOP, "schema");
        w.string("ncpu-run-v2");
        w.member(false, TOP, "name");
        w.string(&self.name);
        w.member(false, TOP, "config");
        w.string(&self.config);
        w.member(false, TOP, "makespan_cycles");
        w.uint(self.makespan);
        w.member(false, TOP, "accuracy");
        w.fixed6(self.accuracy);
        w.member(false, TOP, "cores");
        w.punct('[');
        for (i, core) in self.cores.iter().enumerate() {
            w.separate(i == 0, NESTED);
            w.punct('{');
            w.key("role");
            w.string(&core.role);
            w.member(false, " ", "busy_cycles");
            w.uint(core.busy_cycles);
            w.member(false, " ", "utilization");
            w.fixed6(core.utilization);
            w.member(false, " ", "spans");
            w.punct('[');
            for (j, (label, start, end)) in core.spans.iter().enumerate() {
                w.separate(j == 0, "");
                w.punct('{');
                w.key("label");
                w.string(label);
                w.member(false, " ", "start");
                w.uint(*start);
                w.member(false, " ", "end");
                w.uint(*end);
                w.punct('}');
            }
            w.out.push_str("]}");
        }
        w.ws(TOP);
        w.punct(']');
        w.member(false, TOP, "counters");
        w.punct('{');
        for (i, (name, value)) in self.counters.iter().enumerate() {
            w.member(i == 0, NESTED, name);
            w.uint(value);
        }
        w.ws(TOP);
        w.punct('}');
        w.member(false, TOP, "metrics");
        w.punct('{');
        for (i, (name, hist)) in self.metrics.iter().enumerate() {
            w.member(i == 0, NESTED, name);
            w.histogram(hist);
        }
        w.ws(TOP);
        w.punct('}');
        w.ws("\n");
        w.punct('}');
        w.ws("\n");
        w.out
    }
}

/// Renders `rec` as a Chrome `trace_event` JSON document.
///
/// Span events become `"ph": "X"` duration events and instants become
/// `"ph": "i"` instant events; the cycle count is written as the
/// microsecond timestamp (1 cycle = 1 µs on screen). `thread_names`
/// maps core ids to display names via `thread_name` metadata events.
pub fn chrome_trace(rec: &Recorder, thread_names: &[(u16, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, name) in thread_names {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ),
        );
    }
    for event in rec.sorted_events() {
        let name = json_string(event.kind.name());
        let (cycle, core) = (event.cycle, event.core);
        let line = match &event.kind {
            EventKind::Phase { end, .. } => format!(
                "{{\"name\":{name},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{cycle},\
                 \"dur\":{},\"pid\":0,\"tid\":{core}}}",
                end - cycle
            ),
            EventKind::Dma { bytes, end } => format!(
                "{{\"name\":{name},\"cat\":\"fabric\",\"ph\":\"X\",\"ts\":{cycle},\
                 \"dur\":{},\"pid\":0,\"tid\":{core},\"args\":{{\"bytes\":{bytes}}}}}",
                end - cycle
            ),
            EventKind::Inference { images, end } => format!(
                "{{\"name\":{name},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{cycle},\
                 \"dur\":{},\"pid\":0,\"tid\":{core},\"args\":{{\"images\":{images}}}}}",
                end - cycle
            ),
            EventKind::Retire { pc } => format!(
                "{{\"name\":{name},\"cat\":\"pipeline\",\"ph\":\"i\",\"ts\":{cycle},\
                 \"pid\":0,\"tid\":{core},\"s\":\"t\",\"args\":{{\"pc\":{pc}}}}}"
            ),
            EventKind::L2Access { addr, .. } => format!(
                "{{\"name\":{name},\"cat\":\"mem\",\"ph\":\"i\",\"ts\":{cycle},\
                 \"pid\":0,\"tid\":{core},\"s\":\"t\",\"args\":{{\"addr\":{addr}}}}}"
            ),
            EventKind::Stall { .. } | EventKind::ModeSwitch { .. } => format!(
                "{{\"name\":{name},\"cat\":\"pipeline\",\"ph\":\"i\",\"ts\":{cycle},\
                 \"pid\":0,\"tid\":{core},\"s\":\"t\"}}"
            ),
            EventKind::Fault { .. } | EventKind::Detect { .. } | EventKind::Recover { .. } => {
                format!(
                    "{{\"name\":{name},\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{cycle},\
                     \"pid\":0,\"tid\":{core},\"s\":\"t\"}}"
                )
            }
        };
        push_event(&mut out, &mut first, &line);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn push_event(out: &mut String, first: &mut bool, line: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(line);
}

/// Directory run artifacts are written to: `NCPU_TRACE_DIR`, or the
/// current directory when unset.
pub fn trace_dir() -> PathBuf {
    match std::env::var("NCPU_TRACE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("."),
    }
}

/// Writes `RUN_<name>.json` and `TRACE_<name>.json` into `dir`,
/// creating it if needed. Returns the two paths.
pub fn write_artifacts_to(
    dir: &Path,
    artifact: &RunArtifact,
    rec: &Recorder,
    thread_names: &[(u16, String)],
) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let run_path = dir.join(format!("RUN_{}.json", artifact.name));
    let trace_path = dir.join(format!("TRACE_{}.json", artifact.name));
    std::fs::write(&run_path, artifact.to_json())?;
    std::fs::write(&trace_path, chrome_trace(rec, thread_names))?;
    Ok((run_path, trace_path))
}

/// [`write_artifacts_to`] into [`trace_dir()`].
pub fn write_artifacts(
    artifact: &RunArtifact,
    rec: &Recorder,
    thread_names: &[(u16, String)],
) -> io::Result<(PathBuf, PathBuf)> {
    write_artifacts_to(&trace_dir(), artifact, rec, thread_names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceLevel;

    fn tiny_artifact() -> (RunArtifact, Recorder) {
        let mut rec = Recorder::new(TraceLevel::Full);
        rec.phase(0, "cpu", 0, 10);
        rec.phase(0, "bnn", 10, 30);
        rec.phase(1, "bnn", 4, 24);
        rec.emit(0, 10, EventKind::ModeSwitch { to: crate::event::Mode::Bnn });
        rec.set_counter("core0.retired", 12);
        rec.set_counter("run.makespan_cycles", 30);
        rec.metric("item.latency_cycles", 10);
        rec.metric("item.latency_cycles", 24);
        rec.metric("core.util_permille", 1000);
        let artifact = RunArtifact {
            name: "tiny".into(),
            config: "2x ncpu".into(),
            makespan: 30,
            accuracy: 1.0,
            cores: vec![
                CoreArtifact {
                    role: "ncpu0".into(),
                    busy_cycles: 30,
                    utilization: 1.0,
                    spans: vec![("cpu".into(), 0, 10), ("bnn".into(), 10, 30)],
                },
                CoreArtifact {
                    role: "ncpu1".into(),
                    busy_cycles: 20,
                    utilization: 20.0 / 30.0,
                    spans: vec![("bnn".into(), 4, 24)],
                },
            ],
            counters: rec.counters().clone(),
            metrics: rec.metrics().clone(),
        };
        (artifact, rec)
    }

    #[test]
    fn run_artifact_json_is_deterministic_and_parses() {
        let (artifact, _) = tiny_artifact();
        let a = artifact.to_json();
        let b = artifact.to_json();
        assert_eq!(a, b);
        let parsed = crate::json::parse(&a).expect("valid json");
        crate::json::validate_run_artifact(&parsed).expect("well-formed artifact");
    }

    #[test]
    fn chrome_trace_parses_and_validates() {
        let (_, rec) = tiny_artifact();
        let names = vec![(0, "ncpu0".to_string()), (1, "ncpu1".to_string())];
        let trace = chrome_trace(&rec, &names);
        let parsed = crate::json::parse(&trace).expect("valid json");
        crate::json::validate_chrome_trace(&parsed).expect("well-formed trace");
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
