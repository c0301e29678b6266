//! Simulator self-profiling: where does *the simulator* spend its time?
//!
//! The cycle-domain recorder ([`crate::Recorder`]) observes the guest —
//! simulated cycles on simulated cores. This module observes the host:
//! wall-clock time per labelled region of the simulator itself
//! (engines, fabric hot paths, replay vs simulate), aggregated into a
//! call tree and exported as Brendan-Gregg collapsed-stack text that
//! any flamegraph renderer accepts (`flamegraph.pl`, speedscope,
//! inferno), plus a JSON summary with inclusive/exclusive times.
//!
//! Design mirrors the recorder's: profiling is **off by default** and
//! every [`span`] call is one thread-local flag check when disabled.
//! Enable it with `NCPU_SELFPROF=1` (read once per thread) or
//! programmatically via [`set_enabled`]. State is thread-local — with
//! `NCPU_THREADS=1` the whole run profiles on one thread; with a worker
//! pool each worker profiles its own slice (scoped workers die with
//! their map call, so profile runs intended for export should pin
//! `NCPU_THREADS=1`).
//!
//! Wall-clock times are inherently nondeterministic, so every export
//! comes in two weightings: wall microseconds (the flamegraph you look
//! at) and **visit counts** (deterministic — a pure function of the
//! workload, byte-identical across runs; the CI self-profile smoke
//! diffs two runs of the visits-weighted output).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Environment variable enabling the self-profiler (`1` = on).
pub const SELFPROF_ENV: &str = "NCPU_SELFPROF";

#[derive(Debug)]
struct Node {
    label: String,
    /// Index of the parent node, or `usize::MAX` for roots.
    parent: usize,
    children: Vec<usize>,
    visits: u64,
    wall: Duration,
}

#[derive(Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Tree {
    fn enter(&mut self, label: &str) -> usize {
        let parent = self.stack.last().copied().unwrap_or(usize::MAX);
        let siblings: &[usize] = match self.stack.last() {
            Some(&p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].label == label);
        let node = found.unwrap_or_else(|| {
            let i = self.nodes.len();
            self.nodes.push(Node {
                label: label.to_string(),
                parent,
                children: Vec::new(),
                visits: 0,
                wall: Duration::ZERO,
            });
            match self.stack.last() {
                Some(&p) => self.nodes[p].children.push(i),
                None => self.roots.push(i),
            }
            i
        });
        self.stack.push(node);
        node
    }

    fn exit(&mut self, node: usize, elapsed: Duration) {
        // Guards drop LIFO within a thread; tolerate a mismatched pop
        // (a take() between enter and exit) rather than corrupting.
        if self.stack.last() == Some(&node) {
            self.stack.pop();
        }
        if let Some(n) = self.nodes.get_mut(node) {
            n.visits += 1;
            n.wall += elapsed;
        }
    }
}

thread_local! {
    /// -1 = not yet read from the environment, 0 = off, 1 = on.
    static ENABLED: Cell<i8> = const { Cell::new(-1) };
    static TREE: RefCell<Tree> = RefCell::new(Tree::default());
}

/// Whether the profiler is on for this thread (reads `NCPU_SELFPROF`
/// on first call).
pub fn enabled() -> bool {
    ENABLED.with(|e| {
        let v = e.get();
        if v >= 0 {
            return v == 1;
        }
        let on = std::env::var(SELFPROF_ENV).is_ok_and(|v| v == "1");
        e.set(i8::from(on));
        on
    })
}

/// Turns the profiler on or off for this thread (overrides the
/// environment; tests use this so they don't share global state).
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(i8::from(on)));
}

/// A scope guard returned by [`span`]; records the enclosed wall time
/// on drop. When the profiler is off this is an inert zero-field-ish
/// struct and `span` costs one thread-local flag check.
#[must_use = "the span measures until this guard drops"]
pub struct SpanGuard {
    armed: Option<(usize, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((node, start)) = self.armed.take() {
            let elapsed = start.elapsed();
            TREE.with(|t| t.borrow_mut().exit(node, elapsed));
        }
    }
}

impl SpanGuard {
    /// Re-files the open span under `label`, keeping its start time: the
    /// enclosed wall time and the visit go to `label` alone. For a region
    /// whose label is only known partway through (a memo probe that turns
    /// out to be a miss). Call it with no child span open.
    pub fn relabel(&mut self, label: &str) {
        if let Some((node, _)) = &mut self.armed {
            TREE.with(|t| {
                let mut tree = t.borrow_mut();
                if tree.stack.last() == Some(node) {
                    tree.stack.pop();
                }
                *node = tree.enter(label);
            });
        }
    }
}

/// Opens a labelled profiling span; the returned guard closes it.
/// Nested spans form the stack the flamegraph shows.
pub fn span(label: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: None };
    }
    let node = TREE.with(|t| t.borrow_mut().enter(label));
    SpanGuard {
        armed: Some((node, Instant::now())),
    }
}

/// One aggregated stack in a [`ProfReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfEntry {
    /// Root-to-leaf label path.
    pub stack: Vec<String>,
    /// Times this exact stack was entered.
    pub visits: u64,
    /// Inclusive wall time in nanoseconds.
    pub wall_ns: u128,
    /// Exclusive wall time (inclusive minus children's inclusive).
    pub excl_ns: u128,
}

impl ProfEntry {
    /// The collapsed-stack frame string: labels joined with `;`.
    pub fn frames(&self) -> String {
        self.stack.join(";")
    }
}

/// A drained profile: every observed stack with its aggregate weights,
/// sorted by frame path so exports are canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Aggregated stacks, sorted by [`ProfEntry::frames`].
    pub entries: Vec<ProfEntry>,
}

/// Drains and resets this thread's profile tree into a report.
/// Open spans (guards not yet dropped) are discarded.
pub fn take() -> ProfReport {
    let tree = TREE.with(|t| std::mem::take(&mut *t.borrow_mut()));
    let mut entries = Vec::with_capacity(tree.nodes.len());
    for (i, node) in tree.nodes.iter().enumerate() {
        if node.visits == 0 {
            continue; // never-closed span: no measured weight
        }
        let mut stack = vec![node.label.clone()];
        let mut p = node.parent;
        while p != usize::MAX {
            stack.push(tree.nodes[p].label.clone());
            p = tree.nodes[p].parent;
        }
        stack.reverse();
        let child_wall: Duration = tree.nodes[i]
            .children
            .iter()
            .map(|&c| tree.nodes[c].wall)
            .sum();
        let wall_ns = node.wall.as_nanos();
        entries.push(ProfEntry {
            stack,
            visits: node.visits,
            wall_ns,
            excl_ns: wall_ns.saturating_sub(child_wall.as_nanos()),
        });
    }
    entries.sort_by(|a, b| a.stack.cmp(&b.stack));
    ProfReport { entries }
}

impl ProfReport {
    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Collapsed-stack text weighted by **visit counts** — fully
    /// deterministic (a pure function of the workload). One line per
    /// stack: `a;b;c <visits>`.
    pub fn collapsed_visits(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{} {}", e.frames(), e.visits);
        }
        out
    }

    /// Collapsed-stack text weighted by **exclusive wall microseconds**
    /// (minimum 1 so no observed stack vanishes) — the flamegraph
    /// input. Wall times vary run to run; diff the visits weighting
    /// instead.
    pub fn collapsed_wall(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let us = (e.excl_ns / 1_000).max(1);
            let _ = writeln!(out, "{} {}", e.frames(), us);
        }
        out
    }

    /// JSON summary: schema `ncpu-selfprof-v1`, one record per stack
    /// with visits and inclusive/exclusive nanoseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"ncpu-selfprof-v1\",\n  \"spans\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"stack\": {}, \"visits\": {}, \"wall_ns\": {}, \"excl_ns\": {}}}{comma}",
                crate::export::json_string(&e.frames()),
                e.visits,
                e.wall_ns,
                e.excl_ns,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `PROF_<name>.folded` (wall-weighted, flamegraph input),
    /// `PROF_<name>.visits.folded` (deterministic), and
    /// `PROF_<name>.json` into [`crate::export::trace_dir`], returning
    /// the three paths.
    pub fn write_artifacts(&self, name: &str) -> io::Result<[PathBuf; 3]> {
        let dir = crate::export::trace_dir();
        std::fs::create_dir_all(&dir)?;
        let folded = dir.join(format!("PROF_{name}.folded"));
        let visits = dir.join(format!("PROF_{name}.visits.folded"));
        let json = dir.join(format!("PROF_{name}.json"));
        std::fs::write(&folded, self.collapsed_wall())?;
        std::fs::write(&visits, self.collapsed_visits())?;
        std::fs::write(&json, self.to_json())?;
        Ok([folded, visits, json])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each test runs on its own thread in its own thread-local tree,
    /// so enabling here cannot leak into other tests.
    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        {
            let _g = span("engine.test");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn nested_spans_build_stacks_with_visit_counts() {
        set_enabled(true);
        for _ in 0..3 {
            let _outer = span("outer");
            for _ in 0..2 {
                let _inner = span("inner");
            }
        }
        set_enabled(false);
        let report = take();
        assert_eq!(report.entries.len(), 2);
        let outer = &report.entries[0];
        let inner = &report.entries[1];
        assert_eq!(outer.frames(), "outer");
        assert_eq!(inner.frames(), "outer;inner");
        assert_eq!(outer.visits, 3);
        assert_eq!(inner.visits, 6);
        // Inclusive covers children; exclusive subtracts them.
        assert!(outer.wall_ns >= inner.wall_ns);
        assert!(outer.excl_ns <= outer.wall_ns);
        let folded = report.collapsed_visits();
        assert_eq!(folded, "outer 3\nouter;inner 6\n");
        assert!(!report.collapsed_wall().is_empty());
    }

    #[test]
    fn sibling_spans_share_a_parent_but_not_a_node() {
        set_enabled(true);
        {
            let _p = span("parent");
            let _a = span("a");
            drop(_a);
            let _b = span("b");
        }
        set_enabled(false);
        let report = take();
        let frames: Vec<String> = report.entries.iter().map(ProfEntry::frames).collect();
        assert_eq!(frames, ["parent", "parent;a", "parent;b"]);
    }

    #[test]
    fn relabel_moves_the_visit_and_keeps_the_parent() {
        set_enabled(true);
        for miss in [false, true, false] {
            let _p = span("engine");
            let mut g = span("probe.hit");
            if miss {
                g.relabel("probe.miss");
            }
        }
        set_enabled(false);
        let report = take();
        let visits: Vec<(String, u64)> =
            report.entries.iter().map(|e| (e.frames(), e.visits)).collect();
        assert_eq!(
            visits,
            [
                ("engine".to_string(), 3),
                ("engine;probe.hit".to_string(), 2),
                ("engine;probe.miss".to_string(), 1)
            ]
        );
    }

    #[test]
    fn visits_weighting_is_deterministic_across_runs() {
        let run = || {
            set_enabled(true);
            for i in 0..5 {
                let _g = span("top");
                if i % 2 == 0 {
                    let _h = span("even");
                }
            }
            set_enabled(false);
            take().collapsed_visits()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn json_summary_parses_with_in_tree_parser() {
        set_enabled(true);
        {
            let _g = span("engine.event");
            let _h = span("event.replay_item");
        }
        set_enabled(false);
        let report = take();
        let doc = crate::json::parse(&report.to_json()).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(crate::json::Json::as_str),
            Some("ncpu-selfprof-v1")
        );
        let spans = doc.get("spans").and_then(crate::json::Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn take_resets_the_tree() {
        set_enabled(true);
        {
            let _g = span("once");
        }
        set_enabled(false);
        assert!(!take().is_empty());
        assert!(take().is_empty());
    }
}
