//! The path-keyed timing memo the event engine shares across runs.
//!
//! An item's cycle timing is a function of a few things only (the
//! `eventdriven` module doc argues each one): the program, the timing
//! fields of the SoC configuration, the trace level and the [`PathLog`]
//! its functional execution records. A [`TimingKey`] holds exactly
//! those; a [`TimingRecord`] holds what a timed run of the item adds on
//! top of its architectural effects — the cycles it used, its counter
//! deltas, its event shard and its L2 touch offsets. An entry is
//! therefore a pure function of its key, which is what lets one
//! [`TimingMemo`] live on a [`UseCase`](crate::UseCase) and serve every
//! scenario, engine run, core and worker thread built from it, and from
//! every batch size [`UseCase::with_batch`](crate::UseCase::with_batch)
//! makes of it.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use ncpu_core::{ReplayDelta, SwitchPolicy};
use ncpu_obs::{Recorder, TraceLevel};
use ncpu_pipeline::{PathLog, Program};

use crate::system::SocConfig;

/// Entries one memo keeps at most.
const MAX_ENTRIES: usize = 256;

/// Estimated bytes one memo keeps at most. A `Counters`-level entry is a
/// few KiB (program words, path log, three phase spans); a `Full`-level
/// image entry carries ~10^5 instant events, several MiB, so the byte
/// bound is what binds under full tracing.
const MAX_BYTES: usize = 16 << 20;

/// The [`SocConfig`] fields an item's timing depends on: the DMA
/// operating point (naive switches reload over it), the switch policy,
/// and layer pipelining (BNN batch cycles). Built by an exhaustive
/// destructure, so a new `SocConfig` field does not compile until it is
/// classified here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SocTiming {
    dma_bytes_per_cycle: u32,
    dma_setup_cycles: u64,
    naive_switch: bool,
    layer_pipelining: bool,
}

impl SocTiming {
    fn of(soc: &SocConfig) -> SocTiming {
        let SocConfig { dma_bytes_per_cycle, dma_setup_cycles, switch_policy, layer_pipelining } =
            *soc;
        SocTiming {
            dma_bytes_per_cycle,
            dma_setup_cycles,
            naive_switch: match switch_policy {
                SwitchPolicy::ZeroLatency => false,
                SwitchPolicy::Naive => true,
            },
            layer_pipelining,
        }
    }
}

/// Everything one item's timing is a function of. Never staged bytes or
/// register values (they reach timing only through the path), nor the
/// core's spec, the model or the core's entry state (DESIGN §12 argues
/// why none of them reaches an item's cycles).
pub(crate) struct TimingKey {
    /// The item program (compared word for word).
    program: Program,
    soc: SocTiming,
    /// Decides which events the shard holds.
    level: TraceLevel,
    path: PathLog,
    /// Hash of the program words and the path: a pre-filter for lookups;
    /// equality still compares every field.
    digest: u64,
}

impl TimingKey {
    /// The key of the item `path` describes: `program` under `soc` and
    /// `level`.
    pub(crate) fn new(
        program: &Program,
        soc: &SocConfig,
        level: TraceLevel,
        path: PathLog,
    ) -> TimingKey {
        let mut h = DefaultHasher::new();
        program.words().hash(&mut h);
        path.hash(&mut h);
        let soc = SocTiming::of(soc);
        TimingKey { program: program.clone(), soc, level, path, digest: h.finish() }
    }

    fn same(&self, other: &TimingKey) -> bool {
        self.digest == other.digest
            && self.soc == other.soc
            && self.level == other.level
            && self.path == other.path
            && self.program.words() == other.program.words()
    }

    fn heap_bytes(&self) -> usize {
        self.program.words().len() * 4 + self.path.heap_bytes()
    }
}

/// What a timed run of an item adds on top of its architectural effects.
pub(crate) struct TimingRecord {
    /// Unified cycles the item took.
    pub(crate) used: u64,
    /// Its counter deltas.
    pub(crate) delta: ReplayDelta,
    /// Its events and spans, cycles relative to the item start.
    pub(crate) shard: Recorder,
    /// Its L2 touch cycles relative to the item start (1-based).
    pub(crate) touches_rel: Vec<u64>,
}

impl TimingRecord {
    fn heap_bytes(&self) -> usize {
        let events = self.shard.spans().len() + self.shard.events().len();
        events * std::mem::size_of::<ncpu_obs::Event>() + self.touches_rel.len() * 8
    }
}

struct Entry {
    key: TimingKey,
    record: Arc<TimingRecord>,
    bytes: usize,
}

#[derive(Default)]
struct Entries {
    /// Oldest first: the bound evicts from the front.
    list: VecDeque<Entry>,
    bytes: usize,
}

/// A bounded, thread-safe map from [`TimingKey`] to [`TimingRecord`],
/// shared by every clone of the [`UseCase`](crate::UseCase) that owns
/// it. At most [`MAX_ENTRIES`] entries and about [`MAX_BYTES`] bytes;
/// the oldest entries go first. Entries never change once inserted, so
/// a lock poisoned by a panicking holder still guards a consistent list
/// and is simply taken over.
#[derive(Default)]
pub(crate) struct TimingMemo {
    entries: Mutex<Entries>,
}

impl fmt::Debug for TimingMemo {
    /// Constant: the memo is a cache, not part of a use case's value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TimingMemo")
    }
}

impl TimingMemo {
    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The record stored under a key equal to `key`.
    pub(crate) fn get(&self, key: &TimingKey) -> Option<Arc<TimingRecord>> {
        self.lock().list.iter().find(|e| e.key.same(key)).map(|e| Arc::clone(&e.record))
    }

    /// Stores `record` under `key` unless an equal key is present (a
    /// concurrent run of the same item got there first) or the record
    /// alone exceeds the byte bound.
    pub(crate) fn insert(&self, key: TimingKey, record: Arc<TimingRecord>) {
        let bytes = key.heap_bytes() + record.heap_bytes();
        if bytes > MAX_BYTES {
            return;
        }
        let mut entries = self.lock();
        if entries.list.iter().any(|e| e.key.same(&key)) {
            return;
        }
        while entries.list.len() >= MAX_ENTRIES || entries.bytes + bytes > MAX_BYTES {
            let old = entries.list.pop_front().expect("over a bound implies non-empty");
            entries.bytes -= old.bytes;
        }
        entries.bytes += bytes;
        entries.list.push_back(Entry { key, record, bytes });
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_core::CoreStats;
    use ncpu_pipeline::PipeStats;

    fn key(words: Vec<u32>, branches: &[bool], level: TraceLevel) -> TimingKey {
        key_on(&SocConfig::default(), words, branches, level)
    }

    fn key_on(soc: &SocConfig, words: Vec<u32>, branches: &[bool], level: TraceLevel) -> TimingKey {
        let mut path = PathLog::new();
        for &taken in branches {
            path.push_branch(taken);
        }
        TimingKey::new(&Program::new(words), soc, level, path)
    }

    fn record(used: u64, events: usize) -> Arc<TimingRecord> {
        let mut shard = Recorder::with_capacity(TraceLevel::Full, usize::MAX);
        for cycle in 0..events as u64 {
            shard.emit(0, cycle, ncpu_obs::EventKind::Retire { pc: 0 });
        }
        Arc::new(TimingRecord {
            used,
            delta: ReplayDelta {
                pipe: PipeStats::default(),
                core: CoreStats::default(),
                extra_cycles: 0,
            },
            shard,
            touches_rel: Vec::new(),
        })
    }

    /// A lookup matches only a key equal in every field: the program
    /// word for word, the path bit for bit, the trace level and each
    /// timing field of the SoC configuration.
    #[test]
    fn lookups_compare_whole_keys() {
        let memo = TimingMemo::default();
        memo.insert(key(vec![1, 2, 3], &[true, false], TraceLevel::Counters), record(10, 0));
        let used = |k: TimingKey| memo.get(&k).map(|r| r.used);
        assert_eq!(used(key(vec![1, 2, 3], &[true, false], TraceLevel::Counters)), Some(10));
        assert_eq!(used(key(vec![1, 2, 4], &[true, false], TraceLevel::Counters)), None);
        assert_eq!(used(key(vec![1, 2, 3], &[true, true], TraceLevel::Counters)), None);
        assert_eq!(used(key(vec![1, 2, 3], &[true, false, false], TraceLevel::Counters)), None);
        assert_eq!(used(key(vec![1, 2, 3], &[true, false], TraceLevel::Full)), None);
        // One variant per `SocTiming` field.
        let base = SocConfig::default();
        for soc in [
            SocConfig { dma_bytes_per_cycle: 8, ..base },
            SocConfig { dma_setup_cycles: 40, ..base },
            SocConfig { switch_policy: SwitchPolicy::Naive, ..base },
            SocConfig { layer_pipelining: false, ..base },
        ] {
            let other = key_on(&soc, vec![1, 2, 3], &[true, false], TraceLevel::Counters);
            assert_eq!(used(other), None, "{soc:?}");
        }
        // A second insert under an equal key keeps the first record.
        memo.insert(key(vec![1, 2, 3], &[true, false], TraceLevel::Counters), record(11, 0));
        assert_eq!(used(key(vec![1, 2, 3], &[true, false], TraceLevel::Counters)), Some(10));
        assert_eq!(memo.len(), 1);
    }

    /// The entry and byte bounds evict oldest first, and a record larger
    /// than the whole byte bound is never stored.
    #[test]
    fn bounds_evict_the_oldest_entries() {
        let memo = TimingMemo::default();
        for i in 0..MAX_ENTRIES as u32 + 3 {
            memo.insert(key(vec![i], &[], TraceLevel::Counters), record(u64::from(i), 0));
        }
        assert_eq!(memo.len(), MAX_ENTRIES);
        assert!(memo.get(&key(vec![2], &[], TraceLevel::Counters)).is_none());
        assert!(memo.get(&key(vec![3], &[], TraceLevel::Counters)).is_some());

        let per_event = std::mem::size_of::<ncpu_obs::Event>();
        let memo = TimingMemo::default();
        let big = MAX_BYTES / per_event / 2 + 1;
        for i in 0..3 {
            memo.insert(key(vec![i], &[], TraceLevel::Full), record(u64::from(i), big));
        }
        assert_eq!(memo.len(), 1, "two half-bound records do not fit beside each other");
        assert!(memo.get(&key(vec![2], &[], TraceLevel::Full)).is_some());
        memo.insert(key(vec![9], &[], TraceLevel::Full), record(9, 2 * big));
        assert!(memo.get(&key(vec![9], &[], TraceLevel::Full)).is_none());
    }

    /// Entries never change once inserted, so a panic while the lock is
    /// held leaves a usable memo behind.
    #[test]
    fn a_poisoned_lock_is_taken_over() {
        let memo = TimingMemo::default();
        memo.insert(key(vec![1], &[true], TraceLevel::Counters), record(5, 0));
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = memo.entries.lock();
            panic!("a run dies while holding the memo");
        }));
        assert!(poisoner.is_err() && memo.entries.is_poisoned());
        assert_eq!(memo.get(&key(vec![1], &[true], TraceLevel::Counters)).map(|r| r.used), Some(5));
        memo.insert(key(vec![2], &[true], TraceLevel::Counters), record(6, 0));
        assert_eq!(memo.len(), 2);
    }
}
