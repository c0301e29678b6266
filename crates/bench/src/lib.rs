//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `experiments::*` function runs one experiment end-to-end on the
//! workspace's simulators and models and returns a formatted report.
//! `--bin paper` runs everything in order, or any experiments by id
//! (`cargo run --release -p ncpu-bench --bin paper fig13`); `--bin fig16`
//! also exports the Fig. 16 power traces as CSV.
//!
//! Absolute cycle counts and watts come from this reproduction's
//! simulator + calibrated 65nm model, not from the authors' silicon; the
//! quantities to compare against the paper are the *relative* ones (see
//! `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Identifier, e.g. `"fig13"`.
    pub id: &'static str,
    /// Title line describing what the paper shows.
    pub title: &'static str,
    /// Formatted output lines.
    pub lines: Vec<String>,
}

impl Report {
    /// Renders the report to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}
