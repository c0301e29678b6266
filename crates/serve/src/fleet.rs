//! The worker fleet: builds scenarios, routes them to engines, executes
//! de-duplicated batches in parallel, and fills the result cache.
//!
//! Batch execution is deterministic end to end:
//!
//! 1. every request in the batch is keyed: a recently seen spec takes
//!    its cache key from a bounded spec → key memo, so a repeat that
//!    hits the cache never builds a scenario; otherwise the scenario is
//!    assembled from a use case. Trained (image/motion) use cases are
//!    memoized at two levels: the trained model, with the timing and
//!    program memos every batch size shares, by its training config
//!    `(kind, train_per_class, epochs)`, so the fleet trains each
//!    config once; and the assembled use case by its shape `(kind,
//!    batch, train_per_class, epochs)`, so a request that changes only
//!    the system, fabric, operating point, faults or topology of a seen
//!    workload never restages its items or rehashes its cache-key
//!    prefix;
//! 2. cache hits are copied into a batch-local answer map up front (a
//!    reference-count bump: an entry is one shared `Arc<str>`), and
//!    unique misses move their scenario into a job, collected in
//!    first-appearance order and run via `ncpu_par`'s `par_map_fold`,
//!    which folds their results in job order, so the worker count
//!    changes wall-clock time but never results;
//! 3. each fold step inserts its job's result into the cache *and* the
//!    answer map, then emits, in request order, every request whose key
//!    is now answered, stopping at the first whose job is still pending
//!    (requests that need no job are emitted before the first job
//!    runs). So request *i* is answered as soon as it and every earlier
//!    request of its batch are ready, not after the whole batch. Every
//!    request is answered from the answer map — the first appearance of
//!    a key counts as the miss and also carries the typed artifact,
//!    duplicates (within the batch or across batches) are hits serving
//!    the exact cached bytes.
//!    Answering from the batch-local map means the batch's own inserts
//!    can evict whatever LRU pressure demands (a batch with more unique
//!    misses than the whole cache is legal) without ever evicting an
//!    answer this batch still owes. A job whose engine panics is caught
//!    alone: each of its requests gets a one-line error, nothing is
//!    cached for its key, and `serve.panics` counts it.
//!
//! Engine routing is a naming policy: both engines run every system to
//! the same bytes, and reports do not name the engine, so any answer is
//! cacheable under the same key. A request pinned to `lockstep` runs on
//! the cycle walk, every other one on the event-driven engine (it
//! memoizes steady-state parametric items and is no slower than lockstep
//! on trained image/motion batches). The labels are wire names only: the
//! baseline is served as `analytic`, and serve keeps one name per system
//! class, so `analytic` on an NCPU system and `lockstep`/`event` on the
//! baseline are rejected.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use ncpu_obs::{Counters, RunArtifact};
use ncpu_par::Pool;
use ncpu_soc::{Engine, EventDriven, Lockstep, Scenario, SystemConfig, UseCase};

use crate::cache::{CacheEntry, Lru, ResultCache};
use crate::spec::{EnginePref, ScenarioSpec, TrainingConfig, UseCaseShape};

/// Bound on each level of the construction memo. Only trained
/// (image/motion) use cases are memoized — parametric construction is
/// cheap — and each entry holds a trained model (a shape entry also its
/// staged items), so the cap keeps a long-running service's memory flat
/// no matter how many distinct training configs and workload shapes it
/// sees.
const BUILD_MEMO_CAP: usize = 64;

/// Pinned counter names the fleet always publishes (zeroed at startup
/// so `stats` output is shape-stable before the first request).
/// `serve.panics` counts jobs whose engine run panicked; each request
/// of such a job is answered with an error line (and counted in
/// `serve.errors`). `serve.models_trained` counts the models the fleet
/// trained: one per training config it met, plus one each time a config
/// the memo's bound evicted comes back.
pub const COUNTER_NAMES: [&str; 8] = [
    "serve.requests",
    "serve.batches",
    "serve.errors",
    "serve.panics",
    "serve.models_trained",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.evictions",
];

/// The answer to one successful `run` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Deterministic request id (`r` + zero-padded sequence number).
    pub id: String,
    /// Canonical scenario hash, the cache key.
    pub key: u64,
    /// `"hit"` or `"miss"`.
    pub cache: &'static str,
    /// The routed label of the request that computed the report.
    pub engine: &'static str,
    /// Compact single-line report JSON — byte-identical for every
    /// request that shares a key, cached or fresh, and shared with the
    /// cache entry rather than copied.
    pub report_json: Arc<str>,
    /// The typed artifact the report was rendered from: `Some` only on
    /// the miss that computed it (the artifact sink renders its
    /// multi-line `RUN_*.json` form); hits carry `None`.
    pub artifact: Option<RunArtifact>,
}

/// The stateful service core shared by stdin and TCP front ends.
pub struct Fleet {
    pool: Pool,
    cache: ResultCache,
    /// Cache key of each recently seen spec, by [`ScenarioSpec::memo_key`]
    /// (the spec's full `Debug` rendering, so equal strings are equal
    /// specs). The key is a pure function of the spec, so a repeated
    /// request that hits the result cache never builds its scenario.
    /// Holds as many specs as the result cache holds entries.
    keys: Lru<String, u64>,
    /// A use case of each recently trained config (with no items): what
    /// every batch size of that config is built from.
    models: Lru<TrainingConfig, UseCase>,
    /// The use case of each recently built trained workload shape.
    use_cases: Lru<UseCaseShape, UseCase>,
    counters: Counters,
    next_id: u64,
}

fn routed_engine(spec: &ScenarioSpec) -> Result<&'static str, String> {
    match (&spec.system, spec.engine) {
        (SystemConfig::Heterogeneous, EnginePref::Auto | EnginePref::Analytic) => Ok("analytic"),
        (SystemConfig::Heterogeneous, _) => {
            Err("engine: the heterogeneous baseline is served as \"analytic\" (or \"auto\")"
                .to_string())
        }
        (SystemConfig::Ncpu(_), EnginePref::Analytic) => Err(
            "engine: \"analytic\" names the heterogeneous baseline's scheduler; \
             an ncpu system is served by \"event\" (or \"auto\") or \"lockstep\""
                .to_string(),
        ),
        (SystemConfig::Ncpu(_), EnginePref::Lockstep) => Ok("lockstep"),
        (SystemConfig::Ncpu(_), EnginePref::Event | EnginePref::Auto) => Ok("event"),
    }
}

/// The text of a caught panic's payload, on one line.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "panic",
    };
    text.lines().collect::<Vec<_>>().join(" ")
}

/// Runs `scenario` on the routed label's clock: `"lockstep"` on the cycle
/// walk, any other label on the event clock. Reports do not name the
/// engine that produced them, so cached entries are engine-invariant.
/// Returns the cache entry (the compact form, written in one pass) and
/// the typed artifact it was rendered from.
fn execute(engine: &'static str, key: u64, scenario: &Scenario) -> (CacheEntry, RunArtifact) {
    #[cfg(test)]
    tests::count_execute();
    #[cfg(test)]
    tests::maybe_panic(key);
    let (report, rec) =
        if engine == "lockstep" { Lockstep.run(scenario) } else { EventDriven.run(scenario) };
    let artifact = report.artifact(&format!("serve_{key:016x}"), &rec);
    let entry = CacheEntry { engine, compact_json: artifact.to_compact_json().into() };
    (entry, artifact)
}

impl Fleet {
    /// A fleet with `workers` simulation workers and a result cache of
    /// `cache_capacity` entries.
    pub fn new(workers: usize, cache_capacity: usize) -> Fleet {
        let mut counters = Counters::new();
        for name in COUNTER_NAMES {
            counters.set(name, 0);
        }
        Fleet {
            pool: Pool::with_workers(workers),
            cache: ResultCache::new(cache_capacity),
            keys: Lru::new(cache_capacity),
            models: Lru::new(BUILD_MEMO_CAP),
            use_cases: Lru::new(BUILD_MEMO_CAP),
            counters,
            next_id: 0,
        }
    }

    /// A fleet sized from `NCPU_THREADS` / host parallelism.
    pub fn from_env(cache_capacity: usize) -> Fleet {
        Fleet::new(ncpu_par::thread_count(), cache_capacity)
    }

    /// Simulation workers in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// A snapshot of the counter registry with the cache's eviction
    /// count folded in (hits/misses are counted per served request, so
    /// the planner's internal probes never skew them).
    pub fn counters(&self) -> Counters {
        let mut snapshot = self.counters.clone();
        let (_, _, evictions) = self.cache.stats();
        snapshot.set("serve.cache.evictions", evictions);
        snapshot
    }

    /// Next deterministic request id.
    pub fn assign_id(&mut self) -> String {
        self.next_id += 1;
        format!("r{:06}", self.next_id)
    }

    /// Builds a scenario from `spec` — exactly what `spec.build()`
    /// returns — from the bounded memos: a trained workload shape seen
    /// before reuses its use case; a new batch size of a seen training
    /// config stages its items around the trained model; only a new
    /// training config trains. Parametric construction is cheap enough
    /// to repeat.
    fn build_memoized(&mut self, spec: &ScenarioSpec) -> Scenario {
        let Some(shape) = spec.workload.trained_shape() else {
            return spec.build();
        };
        if let Some(usecase) = self.use_cases.get(&shape) {
            return spec.assemble(usecase.clone());
        }
        let (kind, batch, train_per_class, epochs) = shape;
        let training = (kind, train_per_class, epochs);
        let usecase = match self.models.get(&training) {
            Some(trained) => trained.with_batch(batch),
            None => {
                let usecase = spec.workload.use_case();
                self.models.insert(training, usecase.with_batch(0));
                self.counters.add("serve.models_trained", 1);
                usecase
            }
        };
        self.use_cases.insert(shape, usecase.clone());
        spec.assemble(usecase)
    }

    /// Executes one batch of parsed requests (`Err` entries are parse
    /// failures that still occupy their slot so responses stay in
    /// request order). Returns one outcome per request, in order: what
    /// [`FleetAccess::stream_batch`](crate::FleetAccess::stream_batch)
    /// streams for an exclusive fleet, collected.
    pub fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>> {
        let mut outcomes = Vec::with_capacity(requests.len());
        self.stream_batch(requests, |outcome| outcomes.push(outcome));
        outcomes
    }

    /// Executes one batch like [`Fleet::run_batch`], handing each
    /// request's outcome to `emit` in request order as soon as that
    /// request and every earlier one of the batch are answered: a hit or
    /// a parse error before the batch's first miss is emitted before any
    /// job runs, and a miss right after its job, while later jobs still
    /// run. The outcomes and counters are exactly `run_batch`'s.
    pub(crate) fn stream_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
        mut emit: impl FnMut(Result<RunOutcome, (String, String)>),
    ) {
        if requests.is_empty() {
            return;
        }
        self.counters.add("serve.batches", 1);
        self.counters.add("serve.requests", requests.len() as u64);

        // Key every valid request (from the key memo, else by building
        // its scenario) and plan the batch in one pass: copy hit entries
        // into the batch-local answer map *before* any insert, and move
        // each unique miss's scenario (built now if the key memo skipped
        // it) into a job, in first-appearance order. Requests are
        // answered from the answer map, never from post-insert cache
        // residency — a batch with more unique misses than the cache
        // holds (or whose misses evict an LRU-old key this batch also
        // hits) must still answer every request.
        let mut batch = Answers::default();
        let mut jobs: Vec<(u64, &'static str, Scenario)> = Vec::new();
        let mut planned: BTreeSet<u64> = BTreeSet::new();
        for (id, parsed) in requests {
            let routed = parsed.and_then(|spec| Ok((routed_engine(&spec)?, spec)));
            let (engine, spec) = match routed {
                Ok(routed) => routed,
                Err(e) => {
                    batch.slots.push_back(Err((id, e)));
                    continue;
                }
            };
            let fingerprint = spec.memo_key();
            let (key, scenario) = match self.keys.get(&fingerprint) {
                Some(&key) => (key, None),
                None => {
                    let scenario = self.build_memoized(&spec);
                    let key = scenario.cache_key();
                    self.keys.insert(fingerprint, key);
                    (key, Some(scenario))
                }
            };
            batch.slots.push_back(Ok((id, key)));
            if batch.entries.contains_key(&key) || planned.contains(&key) {
                continue;
            }
            match self.cache.get(&key) {
                Some(entry) => {
                    batch.entries.insert(key, entry.clone());
                }
                None => {
                    planned.insert(key);
                    let scenario = scenario.unwrap_or_else(|| self.build_memoized(&spec));
                    jobs.push((key, engine, scenario));
                }
            }
        }
        batch.release(&mut self.counters, &mut emit);

        // The parallel section: fan-out over the fleet, folded in job
        // order on this thread as results arrive. Each fold step caches
        // its job's result and releases every request it unblocks. A job
        // that panics fails alone: its requests get an error line, every
        // other job of the batch is answered as usual.
        let batch = self.pool.par_map_fold(
            jobs,
            |_i, (key, engine, scenario)| {
                let run = panic::catch_unwind(AssertUnwindSafe(|| execute(engine, key, &scenario)));
                (key, run.map_err(|payload| panic_message(payload.as_ref())))
            },
            batch,
            |mut batch, (key, run)| {
                match run {
                    Ok((entry, artifact)) => {
                        self.cache.insert(key, entry.clone());
                        batch.entries.insert(key, entry);
                        batch.artifacts.insert(key, artifact);
                    }
                    Err(message) => {
                        self.counters.add("serve.panics", 1);
                        batch.failed.insert(key, format!("engine failure: {message}"));
                    }
                }
                batch.release(&mut self.counters, &mut emit);
                batch
            },
        );
        assert!(batch.slots.is_empty(), "every job ran, so every request was answered");
    }
}

/// One batch's unanswered requests and the answers they wait on.
#[derive(Default)]
struct Answers {
    /// The requests not yet emitted, in request order: a parse or
    /// routing error, or an id and its cache key.
    slots: VecDeque<Result<(String, u64), (String, String)>>,
    /// The batch-local answer map: each hit entry copied up front, then
    /// each job's entry as it completes.
    entries: BTreeMap<u64, CacheEntry>,
    /// Each completed job's artifact, until its key's first request
    /// (the miss) takes it.
    artifacts: BTreeMap<u64, RunArtifact>,
    /// The error line of each key whose job panicked.
    failed: BTreeMap<u64, String>,
}

impl Answers {
    /// Emits every request from the front whose key is answered, in
    /// order, and stops at the first whose job is still pending. The
    /// first appearance of an executed key is the miss and takes the
    /// artifact; every other appearance is a hit.
    fn release(
        &mut self,
        counters: &mut Counters,
        emit: &mut impl FnMut(Result<RunOutcome, (String, String)>),
    ) {
        while let Some(slot) = self.slots.front() {
            let ready = match slot {
                Err(_) => true,
                Ok((_, key)) => self.entries.contains_key(key) || self.failed.contains_key(key),
            };
            if !ready {
                return;
            }
            let outcome = match self.slots.pop_front().expect("the front slot exists") {
                Err((id, e)) => {
                    counters.add("serve.errors", 1);
                    Err((id, e))
                }
                Ok((id, key)) if self.failed.contains_key(&key) => {
                    counters.add("serve.errors", 1);
                    Err((id, self.failed[&key].clone()))
                }
                Ok((id, key)) => {
                    let artifact = self.artifacts.remove(&key);
                    let verdict = if artifact.is_some() { "miss" } else { "hit" };
                    counters.add(
                        if verdict == "miss" { "serve.cache.misses" } else { "serve.cache.hits" },
                        1,
                    );
                    let entry =
                        self.entries.get(&key).expect("every batch key was pre-fetched or executed");
                    Ok(RunOutcome {
                        id,
                        key,
                        cache: verdict,
                        engine: entry.engine,
                        report_json: Arc::clone(&entry.compact_json),
                        artifact,
                    })
                }
            };
            emit(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use std::cell::Cell;
    use std::sync::Mutex;

    /// Cache keys whose job panics inside `execute`: a set, so tests
    /// that run at once each doom only their own key.
    static PANIC_KEYS: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());

    pub(super) fn maybe_panic(key: u64) {
        if PANIC_KEYS.lock().expect("no test panics holding the set").contains(&key) {
            panic!("injected engine failure\non two lines");
        }
    }

    thread_local! {
        /// `execute` calls made on this thread. A one-worker fleet runs
        /// its jobs on the calling thread, so a test reads its own count.
        static EXECUTED: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count_execute() {
        EXECUTED.with(|n| n.set(n.get() + 1));
    }

    /// Runs `f` with `key`'s job doomed to panic.
    fn with_panicking_key<R>(key: u64, f: impl FnOnce() -> R) -> R {
        PANIC_KEYS.lock().expect("no test panics holding the set").insert(key);
        let out = panic::catch_unwind(AssertUnwindSafe(f));
        PANIC_KEYS.lock().expect("no test panics holding the set").remove(&key);
        out.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// A job that panics answers each of its requests with a one-line
    /// error in its slot and counts once in `serve.panics`; the other
    /// job of the batch is served, nothing is cached for the failed key,
    /// and the fleet keeps serving — the same spec succeeds once the
    /// fault is gone.
    #[test]
    fn a_panicking_job_fails_only_its_own_slots() {
        let mut fleet = Fleet::new(2, 64);
        let doomed = r#"{"cpu_fraction":0.123,"batch":1,"cores":1}"#;
        let fine = r#"{"cpu_fraction":0.321,"batch":1,"cores":1}"#;
        let key = spec(doomed).unwrap().build().cache_key();
        let out = with_panicking_key(key, || batch(&mut fleet, &[doomed, fine, doomed]));
        for i in [0, 2] {
            let (_, message) = out[i].as_ref().expect_err("the panicking job's slots fail");
            assert_eq!(message, "engine failure: injected engine failure on two lines");
        }
        assert_eq!(out[1].as_ref().expect("the other job is served").cache, "miss");
        let c = fleet.counters();
        assert_eq!(
            (c.get("serve.panics"), c.get("serve.errors"), c.get("serve.cache.misses")),
            (1, 2, 1)
        );
        let retry = batch(&mut fleet, &[doomed]).remove(0).expect("the fleet still serves");
        assert_eq!((retry.cache, retry.key), ("miss", key), "a failed job is never cached");
    }
    use ncpu_obs::json::parse;

    fn spec(text: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::parse(&parse(text).expect("test JSON parses"))
    }

    fn requests(fleet: &mut Fleet, texts: &[&str]) -> Vec<(String, Result<ScenarioSpec, String>)> {
        texts.iter().map(|t| (fleet.assign_id(), spec(t))).collect()
    }

    fn batch(fleet: &mut Fleet, texts: &[&str]) -> Vec<Result<RunOutcome, (String, String)>> {
        let requests = requests(fleet, texts);
        fleet.run_batch(requests)
    }

    /// A mixed batch — a hit, in-batch duplicates, an invalid line and
    /// a panicking job — streams exactly the outcomes and counters that
    /// `run_batch` returns, at 1 and 2 workers. At one worker each
    /// request is emitted before the next job runs: the hit before any.
    #[test]
    fn streamed_outcomes_equal_run_batch_and_leave_before_the_next_job() {
        let warm = r#"{"cpu_fraction":0.61,"batch":1,"cores":1}"#;
        let a = r#"{"cpu_fraction":0.62,"batch":1,"cores":1}"#;
        let b = r#"{"cpu_fraction":0.63,"batch":1,"cores":1}"#;
        let c = r#"{"cpu_fraction":0.64,"batch":1,"cores":1}"#;
        let doomed = r#"{"cpu_fraction":0.137,"batch":1,"cores":1}"#;
        let texts = [warm, a, b, a, r#"{"cpu_fraction":7}"#, doomed, c, b, doomed];
        // Jobs run a, b, doomed, c: the jobs done when each slot leaves.
        let executed_at_emit = [0, 1, 2, 2, 2, 3, 4, 4, 4];
        let key = spec(doomed).unwrap().build().cache_key();
        with_panicking_key(key, || {
            for workers in [1, 2] {
                let mut collected = Fleet::new(workers, 64);
                let mut streamed = Fleet::new(workers, 64);
                batch(&mut collected, &[warm]);
                batch(&mut streamed, &[warm]);
                let want = batch(&mut collected, &texts);
                let requests = requests(&mut streamed, &texts);
                let start = EXECUTED.get();
                let mut got = Vec::new();
                let mut executed = Vec::new();
                streamed.stream_batch(requests, |outcome| {
                    executed.push(EXECUTED.get() - start);
                    got.push(outcome);
                });
                assert_eq!(got, want, "workers={workers}");
                assert_eq!(streamed.counters().to_json(), collected.counters().to_json());
                if workers == 1 {
                    assert_eq!(executed, executed_at_emit);
                }
            }
        });
    }

    #[test]
    fn duplicates_hit_and_serve_identical_bytes() {
        let mut fleet = Fleet::new(2, 64);
        let out = batch(
            &mut fleet,
            &[
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#,
                r#"{"cpu_fraction":0.25,"batch":2,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#,
            ],
        );
        let a = out[0].as_ref().unwrap();
        let b = out[1].as_ref().unwrap();
        let dup = out[2].as_ref().unwrap();
        assert_eq!((a.cache, b.cache, dup.cache), ("miss", "miss", "hit"));
        assert_eq!(a.key, dup.key);
        assert_ne!(a.key, b.key);
        assert_eq!(a.report_json, dup.report_json, "cache hit must be byte-identical");
        assert_eq!(a.id, "r000001");
        assert_eq!(dup.id, "r000003");
        let c = fleet.counters();
        assert_eq!(c.get("serve.cache.misses"), 2);
        assert_eq!(c.get("serve.cache.hits"), 1);
        assert_eq!(c.get("serve.requests"), 3);
    }

    #[test]
    fn cached_and_fresh_reports_are_byte_identical_across_batches() {
        let mut fleet = Fleet::new(1, 64);
        let text = r#"{"workload":"image","batch":4,"train_per_class":2,"epochs":1}"#;
        let cold = batch(&mut fleet, &[text]);
        let warm = batch(&mut fleet, &[text]);
        let cold = cold[0].as_ref().unwrap();
        let warm = warm[0].as_ref().unwrap();
        assert_eq!(cold.cache, "miss");
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.report_json, warm.report_json);
        let artifact = cold.artifact.as_ref().expect("the miss carries its artifact");
        assert_eq!(*cold.report_json, artifact.to_compact_json());
        assert!(warm.artifact.is_none(), "a hit copies no artifact");
    }

    #[test]
    fn lockstep_and_event_share_one_cache_entry() {
        let mut fleet = Fleet::new(2, 64);
        let out = batch(
            &mut fleet,
            &[
                r#"{"cpu_fraction":0.5,"batch":2,"cores":2,"engine":"lockstep"}"#,
                r#"{"cpu_fraction":0.5,"batch":2,"cores":2,"engine":"event"}"#,
                r#"{"system":"hetero","cpu_fraction":0.5,"batch":2}"#,
                r#"{"system":"hetero","cpu_fraction":0.5,"batch":2,"engine":"analytic"}"#,
            ],
        );
        let (lock, event) = (out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
        assert_eq!(lock.key, event.key, "engine choice must not fragment the cache");
        assert_eq!((lock.cache, event.cache), ("miss", "hit"));
        assert_eq!(lock.report_json, event.report_json);
        assert!(
            !lock.report_json.contains("(lockstep)") && !lock.report_json.contains("(event)"),
            "served reports name no engine"
        );
        // The baseline, auto-routed and pinned: one entry, labeled `analytic`.
        let (auto, pinned) = (out[2].as_ref().unwrap(), out[3].as_ref().unwrap());
        assert_eq!((auto.key, auto.cache, pinned.cache), (pinned.key, "miss", "hit"));
        assert_eq!(auto.report_json, pinned.report_json);
        assert_eq!((auto.engine, pinned.engine), ("analytic", "analytic"));
    }

    #[test]
    fn mixed_role_fleets_serve_through_both_twin_engines() {
        // A heterogeneous 3-core fleet (two reconfigurable, one BNN
        // fixed-function): both twin engines accept it and share one
        // cache entry, like any homogeneous spec.
        let mut fleet = Fleet::new(2, 64);
        let topo = r#""topology":{"cores":[{},{"operating_point":0.7},{"role":"bnn"}]}"#;
        let out = batch(
            &mut fleet,
            &[
                &format!(r#"{{"cpu_fraction":0.5,"batch":4,{topo},"engine":"lockstep"}}"#),
                &format!(r#"{{"cpu_fraction":0.5,"batch":4,{topo},"engine":"event"}}"#),
                r#"{"cpu_fraction":0.5,"batch":4,"cores":3}"#,
            ],
        );
        let lock = out[0].as_ref().unwrap();
        let event = out[1].as_ref().unwrap();
        let plain = out[2].as_ref().unwrap();
        assert_eq!(lock.key, event.key, "engine choice must not fragment the cache");
        assert_eq!((lock.cache, event.cache), ("miss", "hit"));
        assert_eq!(lock.report_json, event.report_json);
        assert_ne!(lock.key, plain.key, "the topology is semantic");
        assert!(lock.report_json.contains("bnn2"), "fixed-function role in the report");
    }

    #[test]
    fn routing_policy_matches_the_documented_rules() {
        let auto_par = spec(r#"{"workload":"parametric"}"#).unwrap();
        let auto_img = spec(r#"{"workload":"image"}"#).unwrap();
        let auto_motion = spec(r#"{"workload":"motion"}"#).unwrap();
        let pinned = spec(r#"{"workload":"image","engine":"lockstep"}"#).unwrap();
        let hetero = spec(r#"{"system":"hetero"}"#).unwrap();
        assert_eq!(routed_engine(&auto_par).unwrap(), "event");
        assert_eq!(routed_engine(&auto_img).unwrap(), "event");
        assert_eq!(routed_engine(&auto_motion).unwrap(), "event");
        assert_eq!(routed_engine(&pinned).unwrap(), "lockstep");
        assert_eq!(routed_engine(&hetero).unwrap(), "analytic");
        // These rejections stay because servebench's `repeat_mix` sends
        // `{"engine":"analytic","batch":4}` as an invalid line and fails
        // the run if that line gets a report.
        let bad = spec(r#"{"engine":"analytic"}"#).unwrap();
        assert!(routed_engine(&bad).is_err(), "analytic names the baseline scheduler only");
        let bad = spec(r#"{"system":"hetero","engine":"event"}"#).unwrap();
        assert!(routed_engine(&bad).is_err());
    }

    #[test]
    fn parse_errors_keep_their_slot_and_count() {
        let mut fleet = Fleet::new(1, 64);
        let out = batch(
            &mut fleet,
            &[
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#,
                r#"{"cpu_fraction":7}"#,
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#,
            ],
        );
        assert!(out[0].is_ok() && out[2].is_ok());
        let (id, msg) = out[1].as_ref().unwrap_err();
        assert_eq!(id, "r000002");
        assert!(msg.contains("cpu_fraction"));
        assert_eq!(fleet.counters().get("serve.errors"), 1);
    }

    #[test]
    fn batch_with_more_unique_misses_than_cache_capacity_serves_everyone() {
        // Capacity 2, five unique misses plus a duplicate in one batch:
        // the insert wave evicts three of its own results, but every
        // request is still answered from the batch-local map.
        let mut fleet = Fleet::new(2, 2);
        let out = batch(
            &mut fleet,
            &[
                r#"{"cpu_fraction":0.5,"batch":1,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":3,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":4,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":5,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":1,"cores":1}"#,
            ],
        );
        assert!(out.iter().all(Result::is_ok), "oversized batch must not drop requests");
        assert_eq!(out[5].as_ref().unwrap().cache, "hit");
        assert_eq!(
            out[0].as_ref().unwrap().report_json,
            out[5].as_ref().unwrap().report_json
        );
        let c = fleet.counters();
        assert_eq!(c.get("serve.cache.misses"), 5);
        assert_eq!(c.get("serve.cache.hits"), 1);
        assert_eq!(c.get("serve.cache.evictions"), 3);
    }

    #[test]
    fn hit_survives_being_evicted_by_the_same_batchs_misses() {
        // Fill a capacity-2 cache, then send one batch that hits an old
        // key and misses two new ones — the misses evict both resident
        // entries, but the hit was cloned before the insert wave.
        let mut fleet = Fleet::new(1, 2);
        let old = r#"{"cpu_fraction":0.5,"batch":1,"cores":1}"#;
        let cold = batch(&mut fleet, &[old, r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#]);
        let warm = batch(
            &mut fleet,
            &[
                old,
                r#"{"cpu_fraction":0.5,"batch":3,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":4,"cores":1}"#,
            ],
        );
        let hit = warm[0].as_ref().unwrap();
        assert_eq!(hit.cache, "hit");
        assert_eq!(hit.report_json, cold[0].as_ref().unwrap().report_json);
        assert!(warm[1].is_ok() && warm[2].is_ok());
    }

    /// Serves `texts` one batch at a time through `fleet` and checks
    /// every answer against a fresh, unmemoized `spec.build()`: same
    /// canonical key, byte-identical report and artifact.
    fn assert_memoized_equals_fresh(fleet: &mut Fleet, texts: &[String]) {
        for text in texts {
            let served = batch(fleet, &[text.as_str()]).remove(0).unwrap();
            let spec = spec(text).unwrap();
            let fresh = spec.build();
            assert_eq!(served.key, fresh.cache_key(), "{text}");
            let (entry, artifact) = execute(routed_engine(&spec).unwrap(), served.key, &fresh);
            assert_eq!(served.report_json, entry.compact_json, "{text}");
            assert_eq!(served.artifact, Some(artifact), "{text}");
        }
    }

    #[test]
    fn memoized_use_cases_build_the_same_scenarios_as_fresh_builds() {
        let mut fleet = Fleet::new(1, 64);
        // Equal numeric shapes, so a memo key that dropped the kind
        // would hand motion requests the image use case.
        let image = r#""workload":"image","batch":2,"train_per_class":3,"epochs":1"#;
        let motion = r#""workload":"motion","batch":2,"train_per_class":3,"epochs":1"#;
        let variants = [
            r#""cores":2"#,
            r#""cores":1,"operating_point":0.8"#,
            r#""cores":3,"engine":"event""#,
            r#""topology":{"cores":[{},{"operating_point":0.7}]}"#,
            r#""cores":2,"fault_seed":5,"fault_sram_flip_ppm":200000"#,
        ];
        let mut texts: Vec<String> = [image, motion]
            .iter()
            .flat_map(|w| variants.iter().map(move |v| format!("{{{w},{v}}}")))
            .collect();
        // New batch sizes of both trained configs, shrinking and then
        // growing past the first, reuse the trained models.
        for workload in ["image", "motion"] {
            for batch in [7, 5, 8] {
                texts.push(format!(
                    r#"{{"workload":"{workload}","batch":{batch},"train_per_class":3,"epochs":1,"cores":4}}"#
                ));
            }
        }
        // A config that differs only in `train_per_class` trains its own.
        texts.push(
            r#"{"workload":"image","batch":5,"train_per_class":2,"epochs":1,"cores":4}"#.into(),
        );
        assert_memoized_equals_fresh(&mut fleet, &texts);
        assert_eq!(fleet.use_cases.len(), 9, "one memo entry per workload shape");
        assert_eq!(fleet.use_cases.stats(), (8, 9, 0), "each shape built once");
        assert_eq!(fleet.models.len(), 3, "one memo entry per training config");
        assert_eq!(fleet.models.stats(), (6, 3, 0), "each config trained once");
        assert_eq!(fleet.counters().get("serve.models_trained"), 3);
    }

    #[test]
    fn an_operating_point_by_cores_sweep_trains_once() {
        let mut fleet = Fleet::new(1, 64);
        let mut texts = Vec::new();
        for op in [0.7, 0.9, 1.0] {
            for cores in [1, 2] {
                texts.push(format!(
                    r#"{{"workload":"motion","batch":1,"operating_point":{op},"cores":{cores}}}"#
                ));
            }
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let out = batch(&mut fleet, &refs);
        assert!(out.iter().all(|o| o.as_ref().is_ok_and(|o| o.cache == "miss")));
        assert_eq!(fleet.use_cases.len(), 1);
        assert_eq!(fleet.use_cases.stats(), (5, 1, 0));
        assert_eq!(fleet.models.stats(), (0, 1, 0));
        assert_eq!(fleet.counters().get("serve.models_trained"), 1);
    }

    #[test]
    fn parametric_specs_never_enter_the_memo() {
        let mut fleet = Fleet::new(1, 64);
        batch(
            &mut fleet,
            &[
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1}"#,
                r#"{"cpu_fraction":0.5,"batch":2,"cores":1,"operating_point":0.8}"#,
                r#"{"system":"hetero","cpu_fraction":0.5,"batch":2}"#,
            ],
        );
        assert!(fleet.use_cases.is_empty() && fleet.models.is_empty());
        assert_eq!(fleet.use_cases.stats(), (0, 0, 0), "parametric never probes the memo");
        assert_eq!(fleet.models.stats(), (0, 0, 0));
        assert_eq!(fleet.counters().get("serve.models_trained"), 0);
    }

    /// Both memo levels hold at most `BUILD_MEMO_CAP` entries: every
    /// request here is a new shape of a new training config.
    #[test]
    fn the_memo_stays_bounded_past_its_cap() {
        let mut fleet = Fleet::new(1, 64);
        let shapes = BUILD_MEMO_CAP + 6;
        let mut request = spec("{}").unwrap();
        for n in 1..=shapes {
            // Zero epochs, which the parser never yields, skip training:
            // each config then costs only its training windows.
            request.workload = WorkloadSpec::Motion { batch: 1, train_per_class: n, epochs: 0 };
            fleet.build_memoized(&request);
            assert!(fleet.use_cases.len() <= BUILD_MEMO_CAP);
            assert!(fleet.models.len() <= BUILD_MEMO_CAP);
        }
        assert_eq!(fleet.use_cases.len(), BUILD_MEMO_CAP);
        assert_eq!(fleet.use_cases.stats(), (0, shapes as u64, 6));
        assert_eq!(fleet.models.len(), BUILD_MEMO_CAP);
        assert_eq!(fleet.models.stats(), (0, shapes as u64, 6));
        assert_eq!(fleet.counters().get("serve.models_trained"), shapes as u64);
    }

    #[test]
    fn a_repeated_spec_is_answered_without_building_its_scenario() {
        let mut fleet = Fleet::new(1, 2);
        let image = r#"{"workload":"image","batch":2,"train_per_class":2,"epochs":1}"#;
        let cold = batch(&mut fleet, &[image]).remove(0).unwrap();
        assert_eq!(fleet.use_cases.stats(), (0, 1, 0), "the first request trains");
        let warm = batch(&mut fleet, &[image, image]);
        assert!(warm.iter().all(|o| o.as_ref().is_ok_and(|o| o.cache == "hit")));
        assert_eq!(warm[0].as_ref().unwrap().report_json, cold.report_json);
        assert_eq!(fleet.use_cases.stats(), (0, 1, 0), "hits never reach the build");
        // Drop the result but keep the key memo: the miss rebuilds, from
        // the use-case memo, under the same key and with the same bytes.
        fleet.cache = ResultCache::new(2);
        let rerun = batch(&mut fleet, &[image]).remove(0).unwrap();
        assert_eq!((rerun.cache, rerun.key), ("miss", cold.key));
        assert_eq!(rerun.report_json, cold.report_json);
        assert_eq!(fleet.use_cases.stats(), (1, 1, 0), "the rerun builds from the memo");
        assert_eq!(fleet.models.stats(), (0, 1, 0), "the shape memo answers first");
    }

    #[test]
    fn eviction_counter_reaches_the_registry() {
        let mut fleet = Fleet::new(1, 2);
        batch(&mut fleet, &[r#"{"cpu_fraction":0.3,"batch":1,"cores":1}"#]);
        batch(&mut fleet, &[r#"{"cpu_fraction":0.4,"batch":1,"cores":1}"#]);
        batch(&mut fleet, &[r#"{"cpu_fraction":0.6,"batch":1,"cores":1}"#]);
        assert_eq!(fleet.counters().get("serve.cache.evictions"), 1);
    }
}
