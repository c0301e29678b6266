//! A minimal recursive-descent JSON parser and the well-formedness
//! checkers `ci.sh` runs over emitted artifacts (via the `trace_check`
//! binary). In-tree on purpose: the workspace is hermetic, so no
//! external schema crates.

use crate::event::{KNOWN_EVENT_NAMES, KNOWN_PHASE_LABELS};

/// A parsed JSON value. Object keys keep their textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in textual key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders a [`Json`] value as a single compact line: no whitespace,
/// object keys in their stored order. Deterministic — the same value
/// always renders to the same bytes — which is what the serve
/// protocol's byte-identical cached-vs-fresh contract rests on.
///
/// Numbers that are exact integers within ±2^53 render without a
/// decimal point; everything else uses Rust's shortest round-trip
/// `f64` formatting.
pub fn render_compact(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => out.push_str(&render_num(*n)),
        Json::Str(s) => out.push_str(&crate::export::json_string(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&crate::export::json_string(key));
                out.push(':');
                render_into(item, out);
            }
            out.push('}');
        }
    }
}

pub(crate) fn render_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() <= crate::numparse::MAX_EXACT_INT {
        format!("{}", n as i64)
    } else {
        format!("{n:?}")
    }
}

/// Parses `text` as a single JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: take the whole scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("empty utf8 tail")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn require_num(value: &Json, key: &str, context: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{context}: missing numeric \"{key}\""))
}

fn require_str<'a>(value: &'a Json, key: &str, context: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{context}: missing string \"{key}\""))
}

/// Checks that `name` sticks to the counter/metric naming charset.
fn check_name_charset(name: &str, what: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_');
    if ok {
        Ok(())
    } else {
        Err(format!("{what} name \"{name}\" outside [a-z0-9._]"))
    }
}

/// Checks one histogram value in a v2 `"metrics"` block: the required
/// summary scalars plus a `buckets` array of `[index, count, max]`
/// triples.
fn validate_histogram(name: &str, value: &Json) -> Result<(), String> {
    let context = format!("metric \"{name}\"");
    for key in ["count", "sum", "min", "max", "p50", "p99", "p999"] {
        require_num(value, key, &context)?;
    }
    let buckets = value
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{context}: missing \"buckets\" array"))?;
    for bucket in buckets {
        let triple = bucket
            .as_arr()
            .filter(|t| t.len() == 3 && t.iter().all(|v| v.as_num().is_some()))
            .ok_or_else(|| format!("{context}: bucket is not a numeric triple"))?;
        if triple[1].as_num() == Some(0.0) {
            return Err(format!("{context}: empty bucket emitted"));
        }
    }
    Ok(())
}

/// Checks a parsed `RUN_<usecase>.json` document: required fields,
/// numeric types, counter-name charset, and span labels restricted to
/// the known phase taxonomy. Accepts schema `ncpu-run-v1` (no metrics)
/// and `ncpu-run-v2` (requires a well-formed `"metrics"` block).
pub fn validate_run_artifact(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some("ncpu-run-v1") && schema != Some("ncpu-run-v2") {
        return Err("run artifact: missing or wrong \"schema\"".to_string());
    }
    require_str(doc, "name", "run artifact")?;
    require_str(doc, "config", "run artifact")?;
    require_num(doc, "makespan_cycles", "run artifact")?;
    require_num(doc, "accuracy", "run artifact")?;
    let cores = doc
        .get("cores")
        .and_then(Json::as_arr)
        .ok_or("run artifact: missing \"cores\" array")?;
    for core in cores {
        let role = require_str(core, "role", "core entry")?;
        require_num(core, "busy_cycles", &format!("core \"{role}\""))?;
        require_num(core, "utilization", &format!("core \"{role}\""))?;
        let spans = core
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("core \"{role}\": missing \"spans\" array"))?;
        for span in spans {
            let label = require_str(span, "label", "span")?;
            if !KNOWN_PHASE_LABELS.contains(&label) {
                return Err(format!("unknown span label \"{label}\""));
            }
            let start = require_num(span, "start", "span")?;
            let end = require_num(span, "end", "span")?;
            if end < start {
                return Err(format!("span \"{label}\" ends before it starts"));
            }
        }
    }
    let counters = doc.get("counters").ok_or("run artifact: missing \"counters\"")?;
    let Json::Obj(fields) = counters else {
        return Err("run artifact: \"counters\" must be an object".to_string());
    };
    for (name, value) in fields {
        check_name_charset(name, "counter")?;
        if value.as_num().is_none() {
            return Err(format!("counter \"{name}\" is not numeric"));
        }
    }
    if schema == Some("ncpu-run-v2") {
        let metrics = doc.get("metrics").ok_or("run artifact: missing \"metrics\"")?;
        let Json::Obj(fields) = metrics else {
            return Err("run artifact: \"metrics\" must be an object".to_string());
        };
        for (name, value) in fields {
            check_name_charset(name, "metric")?;
            validate_histogram(name, value)?;
        }
    }
    Ok(())
}

/// Checks a parsed Chrome `trace_event` document: required per-event
/// fields, every non-metadata event name in [`KNOWN_EVENT_NAMES`] (the
/// CI gate), and per-lane timestamp order — within one `(pid, tid)`
/// lane the `ts` values must be non-decreasing in document order.
/// The exporter sorts events before emission, so a backwards lane means
/// a worker raced the recorder; `trace_check` exits nonzero on it.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace: missing \"traceEvents\" array")?;
    let mut lane_ts: Vec<((f64, f64), f64)> = Vec::new();
    for event in events {
        let name = require_str(event, "name", "trace event")?;
        let ph = require_str(event, "ph", &format!("event \"{name}\""))?;
        let pid = require_num(event, "pid", &format!("event \"{name}\""))?;
        let tid = require_num(event, "tid", &format!("event \"{name}\""))?;
        if ph == "M" {
            continue; // metadata (thread names) — no timestamp, any name
        }
        let ts = require_num(event, "ts", &format!("event \"{name}\""))?;
        if ph == "X" {
            require_num(event, "dur", &format!("event \"{name}\""))?;
        } else if ph != "i" {
            return Err(format!("event \"{name}\": unexpected phase \"{ph}\""));
        }
        if !KNOWN_EVENT_NAMES.contains(&name) {
            return Err(format!("unknown event kind \"{name}\""));
        }
        match lane_ts.iter_mut().find(|(lane, _)| *lane == (pid, tid)) {
            Some((_, last)) if ts < *last => {
                return Err(format!(
                    "event \"{name}\": lane (pid {pid}, tid {tid}) goes backwards: \
                     ts {ts} after {last}"
                ));
            }
            Some((_, last)) => *last = ts,
            None => lane_ts.push(((pid, tid), ts)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#)
            .expect("parses");
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn compact_rendering_round_trips_and_is_deterministic() {
        let text = r#"{"a":[1,2.5,-300],"b":{"c":"x\ny","d":null},"e":true,"f":0.001}"#;
        let doc = parse(text).expect("parses");
        let rendered = render_compact(&doc);
        assert_eq!(rendered, text, "compact rendering is canonical for compact input");
        assert_eq!(parse(&rendered).expect("round trips"), doc);
        assert_eq!(render_compact(&doc), rendered, "rendering is deterministic");
        // Multi-line pretty input renders down to one line.
        let pretty = parse("{\n  \"k\": [ 1 ,\t2 ]\n}\n").unwrap();
        assert_eq!(render_compact(&pretty), r#"{"k":[1,2]}"#);
    }

    #[test]
    fn compact_rendering_keeps_integers_integral() {
        let doc = parse(r#"{"n":1000000,"u":0.973451,"z":0}"#).unwrap();
        assert_eq!(render_compact(&doc), r#"{"n":1000000,"u":0.973451,"z":0}"#);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validator_flags_unknown_event_kind() {
        let doc = parse(
            r#"{"traceEvents":[{"name":"mystery","ph":"i","ts":1,"pid":0,"tid":0,"s":"t"}]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn validator_flags_out_of_order_lane_timestamps() {
        // Interleaved lanes are fine as long as each lane's own clock
        // only moves forward...
        let ok = parse(
            r#"{"traceEvents":[
                {"name":"retire","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},
                {"name":"retire","ph":"i","ts":1,"pid":0,"tid":1,"s":"t"},
                {"name":"retire","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"}]}"#,
        )
        .unwrap();
        validate_chrome_trace(&ok).expect("interleaved monotone lanes are valid");
        // ...but a single lane stepping backwards is a hard failure.
        let bad = parse(
            r#"{"traceEvents":[
                {"name":"retire","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},
                {"name":"retire","ph":"i","ts":4,"pid":0,"tid":0,"s":"t"}]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn validator_flags_unknown_span_label() {
        let doc = parse(
            r#"{"schema":"ncpu-run-v1","name":"x","config":"c","makespan_cycles":1,
                "accuracy":1.0,
                "cores":[{"role":"r","busy_cycles":1,"utilization":1.0,
                          "spans":[{"label":"mystery","start":0,"end":1}]}],
                "counters":{}}"#,
        )
        .unwrap();
        let err = validate_run_artifact(&doc).unwrap_err();
        assert!(err.contains("unknown span label"), "{err}");
    }

    #[test]
    fn validator_accepts_v2_metrics_and_flags_bad_histograms() {
        let ok = parse(
            r#"{"schema":"ncpu-run-v2","name":"x","config":"c","makespan_cycles":1,
                "accuracy":1.0,"cores":[],"counters":{},
                "metrics":{"item.latency_cycles":
                    {"count":2,"sum":34,"min":10,"max":24,"p50":10,"p99":24,"p999":24,
                     "buckets":[[4,1,10],[5,1,24]]}}}"#,
        )
        .unwrap();
        validate_run_artifact(&ok).expect("v2 with metrics validates");
        let missing = parse(
            r#"{"schema":"ncpu-run-v2","name":"x","config":"c","makespan_cycles":1,
                "accuracy":1.0,"cores":[],"counters":{}}"#,
        )
        .unwrap();
        assert!(validate_run_artifact(&missing).is_err(), "v2 requires metrics");
        let bad = parse(
            r#"{"schema":"ncpu-run-v2","name":"x","config":"c","makespan_cycles":1,
                "accuracy":1.0,"cores":[],"counters":{},
                "metrics":{"m":{"count":1,"sum":1,"min":1,"max":1,"p50":1,"p99":1,
                                "p999":1,"buckets":[[1,1]]}}}"#,
        )
        .unwrap();
        let err = validate_run_artifact(&bad).unwrap_err();
        assert!(err.contains("numeric triple"), "{err}");
    }

    #[test]
    fn validator_flags_bad_counter_names() {
        let doc = parse(
            r#"{"schema":"ncpu-run-v1","name":"x","config":"c","makespan_cycles":1,
                "accuracy":1.0,"cores":[],"counters":{"Bad Name":1}}"#,
        )
        .unwrap();
        assert!(validate_run_artifact(&doc).is_err());
    }
}
