//! Predecoded instruction memory.

use std::sync::Arc;

use ncpu_isa::{decode, DecodeError, Instruction};

/// A program image decoded once: the raw words next to each word's
/// decode result, which the pipeline's ID stage takes instead of calling
/// [`decode`] on every fetch.
///
/// A word that fails to decode is kept as its [`DecodeError`] and faults
/// only if it reaches ID, exactly like decoding on demand — data or
/// padding words that are never executed never fault.
///
/// Cloning shares the image (reference-counted), so an engine that runs
/// the same program for every item decodes it once and hands each load a
/// handle.
#[derive(Debug, Clone)]
pub struct Program(Arc<Image>);

#[derive(Debug)]
struct Image {
    words: Vec<u32>,
    decoded: Vec<Result<Instruction, DecodeError>>,
}

impl Program {
    /// Decodes every word of `words`.
    pub fn new(words: Vec<u32>) -> Program {
        let decoded = words.iter().map(|&w| decode(w)).collect();
        Program(Arc::new(Image { words, decoded }))
    }

    /// The raw instruction words.
    pub fn words(&self) -> &[u32] {
        &self.0.words
    }

    /// The decode result of word `index`, if it exists.
    pub(crate) fn decoded(&self, index: usize) -> Option<Result<Instruction, DecodeError>> {
        self.0.decoded.get(index).copied()
    }

    /// Every word's decode result, indexed by word.
    pub(crate) fn decoded_words(&self) -> &[Result<Instruction, DecodeError>] {
        &self.0.decoded
    }
}

impl From<Vec<u32>> for Program {
    fn from(words: Vec<u32>) -> Program {
        Program::new(words)
    }
}

impl From<&Program> for Program {
    /// Shares the decoded image (no copy, no decode).
    fn from(program: &Program) -> Program {
        program.clone()
    }
}
