//! The worker fleet: builds scenarios, routes them to engines, executes
//! de-duplicated batches in parallel, and fills the result cache.
//!
//! Batch execution is deterministic end to end:
//!
//! 1. every request in the batch is materialized: its scenario is
//!    assembled from a use case, and trained (image/motion) use cases
//!    are memoized by their shape `(kind, batch, train_per_class,
//!    epochs)`, so a request that changes only the system, fabric,
//!    operating point, faults or topology of a seen workload never
//!    retrains the model or restages its items;
//! 2. cache hits are cloned into a batch-local answer map up front, and
//!    unique misses are collected in first-appearance order and run via
//!    `ncpu_par`'s order-preserving `par_map_indexed`, so the worker
//!    count changes wall-clock time but never results;
//! 3. results are inserted into the cache *and* the answer map, then
//!    every request is answered from the answer map — the first
//!    appearance of a key counts as the miss, duplicates (within the
//!    batch or across batches) are hits serving the exact cached bytes.
//!    Answering from the batch-local map means the batch's own inserts
//!    can evict whatever LRU pressure demands (a batch with more unique
//!    misses than the whole cache is legal) without ever evicting an
//!    answer this batch still owes.
//!
//! Engine routing implements the service policy: steady-state
//! (parametric) workloads go to the event-driven engine, everything
//! else on an NCPU system walks lockstep, heterogeneous systems use the
//! analytic scheduler. A client may pin `lockstep`/`event` explicitly —
//! the lockstep/event pair is byte-identical by construction so either
//! answer is cacheable under the same key — but `analytic` on an NCPU
//! system is rejected: its reports are not in that equivalence class
//! and would poison the engine-invariant cache.

use ncpu_obs::Counters;
use ncpu_par::Pool;
use ncpu_soc::{Engine, EventDriven, Lockstep, Scenario, SystemConfig, UseCase};

use crate::cache::{CacheEntry, Lru, ResultCache};
use crate::spec::{EnginePref, ScenarioSpec, UseCaseShape, WorkloadSpec};

/// Bound on the construction memo. Only trained (image/motion) use
/// cases are memoized — parametric construction is cheap — and each
/// entry holds a full trained model plus its staged items, so the cap
/// keeps a long-running service's memory flat no matter how many
/// distinct workload shapes it sees.
const BUILD_MEMO_CAP: usize = 64;

/// Pinned counter names the fleet always publishes (zeroed at startup
/// so `stats` output is shape-stable before the first request).
pub const COUNTER_NAMES: [&str; 6] = [
    "serve.requests",
    "serve.batches",
    "serve.errors",
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
    /// Engine that computed the report (for a hit: whichever engine
    /// computed the cached entry).
    pub engine: &'static str,
    /// Compact single-line report JSON — byte-identical for every
    /// request that shares a key, cached or fresh.
    pub report_json: String,
    /// Multi-line `RUN_*.json` artifact form (for the artifact sink).
    pub artifact_json: String,
}

/// The stateful service core shared by stdin and TCP front ends.
pub struct Fleet {
    pool: Pool,
    cache: ResultCache,
    use_cases: Lru<UseCaseShape, UseCase>,
    counters: Counters,
    next_id: u64,
}

fn routed_engine(spec: &ScenarioSpec) -> Result<&'static str, String> {
    match (spec.system, spec.engine) {
        (SystemConfig::Heterogeneous, EnginePref::Auto | EnginePref::Analytic) => Ok("analytic"),
        (SystemConfig::Heterogeneous, _) => {
            Err("engine: only \"analytic\" (or \"auto\") can run a heterogeneous system".to_string())
        }
        (SystemConfig::Ncpu { .. }, EnginePref::Analytic) => Err(
            "engine: \"analytic\" on an ncpu system is outside the byte-identical \
             lockstep/event equivalence class and cannot share the result cache"
                .to_string(),
        ),
        (SystemConfig::Ncpu { .. }, EnginePref::Lockstep) => Ok("lockstep"),
        (SystemConfig::Ncpu { .. }, EnginePref::Event) => Ok("event"),
        (SystemConfig::Ncpu { .. }, EnginePref::Auto) => {
            // Steady-state parametric items are memoizable and play to
            // the event queue's strengths; trained image/motion batches
            // walk lockstep (see `tests/event_floor.rs` for the honest
            // overhead bound that motivates this split).
            match spec.workload {
                WorkloadSpec::Parametric { .. } => Ok("event"),
                _ => Ok("lockstep"),
            }
        }
    }
}

/// Runs `scenario` on the routed engine and normalizes the artifact:
/// the ` (lockstep)` / ` (event)` config suffix is the single byte
/// difference between the twin engines, so stripping it makes cached
/// entries engine-invariant.
fn execute(engine: &'static str, key: u64, scenario: &Scenario) -> CacheEntry {
    let (mut report, rec) = match engine {
        "lockstep" => Lockstep.run(scenario),
        "event" => EventDriven.run(scenario),
        "analytic" => ncpu_soc::Analytic.run(scenario),
        other => unreachable!("unrouted engine {other}"),
    };
    report.config = report.config.replace(" (lockstep)", "").replace(" (event)", "");
    let artifact = report.artifact(&format!("serve_{key:016x}"), &rec);
    let artifact_json = artifact.to_json();
    let doc = ncpu_obs::json::parse(&artifact_json)
        .expect("artifact exporter emits well-formed JSON");
    CacheEntry {
        engine,
        compact_json: ncpu_obs::json::render_compact(&doc),
        artifact_json,
    }
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
    /// returns — taking a trained use case from the bounded memo when
    /// one of the same shape was built before, so only the first request
    /// of a workload shape trains. Parametric construction is cheap
    /// enough to repeat.
    fn build_memoized(&mut self, spec: &ScenarioSpec) -> Scenario {
        let Some(shape) = spec.workload.trained_shape() else {
            return spec.build();
        };
        let usecase = match self.use_cases.get(&shape) {
            Some(usecase) => usecase.clone(),
            None => {
                let usecase = spec.workload.use_case();
                self.use_cases.insert(shape, usecase.clone());
                usecase
            }
        };
        spec.assemble(usecase)
    }

    /// Executes one batch of parsed requests (`Err` entries are parse
    /// failures that still occupy their slot so responses stay in
    /// request order). Returns one outcome per request, in order.
    pub fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>> {
        if requests.is_empty() {
            return Vec::new();
        }
        self.counters.add("serve.batches", 1);
        self.counters.add("serve.requests", requests.len() as u64);

        // Materialize every valid request: scenario (memoized build),
        // key, routed engine.
        type Prepared = Result<(String, u64, &'static str, Scenario), (String, String)>;
        let mut prepared: Vec<Prepared> = Vec::with_capacity(requests.len());
        for (id, parsed) in requests {
            match parsed {
                Err(e) => prepared.push(Err((id, e))),
                Ok(spec) => match routed_engine(&spec) {
                    Err(e) => prepared.push(Err((id, e))),
                    Ok(engine) => {
                        let scenario = self.build_memoized(&spec);
                        prepared.push(Ok((id, scenario.cache_key(), engine, scenario)));
                    }
                },
            }
        }

        // Plan the batch: clone hit entries into the batch-local answer
        // map *before* any insert, and collect unique misses in
        // first-appearance order. Requests are answered from `answers`,
        // never from post-insert cache residency — a batch with more
        // unique misses than the cache holds (or whose misses evict an
        // LRU-old key this batch also hits) must still answer every
        // request.
        let mut answers: std::collections::BTreeMap<u64, CacheEntry> =
            std::collections::BTreeMap::new();
        let mut jobs: Vec<(u64, &'static str, Scenario)> = Vec::new();
        let mut planned: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for item in prepared.iter().flatten() {
            let (_, key, engine, scenario) = item;
            if answers.contains_key(key) || planned.contains(key) {
                continue;
            }
            match self.cache.get(key) {
                Some(entry) => {
                    answers.insert(*key, entry.clone());
                }
                None => {
                    planned.insert(*key);
                    jobs.push((*key, engine, scenario.clone()));
                }
            }
        }

        // The parallel section: order-preserving fan-out over the fleet.
        let results = self.pool.par_map_indexed(jobs, |_i, (key, engine, scenario)| {
            (key, execute(engine, key, &scenario))
        });
        for (key, entry) in results {
            self.cache.insert(key, entry.clone());
            answers.insert(key, entry);
        }

        // Answer every request from the batch-local map, first
        // appearance of a planned key = miss.
        let mut seen_miss: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        prepared
            .into_iter()
            .map(|item| match item {
                Err((id, e)) => {
                    self.counters.add("serve.errors", 1);
                    Err((id, e))
                }
                Ok((id, key, _, _)) => {
                    let verdict = if planned.contains(&key) && seen_miss.insert(key) {
                        "miss"
                    } else {
                        "hit"
                    };
                    self.counters.add(
                        if verdict == "miss" { "serve.cache.misses" } else { "serve.cache.hits" },
                        1,
                    );
                    let entry = answers
                        .get(&key)
                        .expect("every batch key was pre-fetched or executed")
                        .clone();
                    Ok(RunOutcome {
                        id,
                        key,
                        cache: verdict,
                        engine: entry.engine,
                        report_json: entry.compact_json,
                        artifact_json: entry.artifact_json,
                    })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_obs::json::parse;

    fn spec(text: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::parse(&parse(text).expect("test JSON parses"))
    }

    fn batch(fleet: &mut Fleet, texts: &[&str]) -> Vec<Result<RunOutcome, (String, String)>> {
        let requests = texts
            .iter()
            .map(|t| (fleet.assign_id(), spec(t)))
            .collect();
        fleet.run_batch(requests)
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
        assert_eq!(cold.artifact_json, warm.artifact_json);
    }

    #[test]
    fn lockstep_and_event_share_one_cache_entry() {
        let mut fleet = Fleet::new(2, 64);
        let out = batch(
            &mut fleet,
            &[
                r#"{"cpu_fraction":0.5,"batch":2,"cores":2,"engine":"lockstep"}"#,
                r#"{"cpu_fraction":0.5,"batch":2,"cores":2,"engine":"event"}"#,
            ],
        );
        let lock = out[0].as_ref().unwrap();
        let event = out[1].as_ref().unwrap();
        assert_eq!(lock.key, event.key, "engine choice must not fragment the cache");
        assert_eq!(lock.cache, "miss");
        assert_eq!(event.cache, "hit");
        assert_eq!(lock.report_json, event.report_json);
        assert!(
            !lock.report_json.contains("(lockstep)") && !lock.report_json.contains("(event)"),
            "the engine tag must be normalized out of served reports"
        );
    }

    #[test]
    fn mixed_role_fleets_serve_through_both_twin_engines() {
        // A heterogeneous 3-core fleet (two reconfigurable, one BNN
        // fixed-function, work-stealing): both twin engines accept it
        // and share one cache entry, like any homogeneous spec.
        let mut fleet = Fleet::new(2, 64);
        let topo = r#""topology":{"cores":[{},{"operating_point":0.7},{"role":"bnn"}],
                       "scheduler":"work_stealing"}"#;
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
        let hetero = spec(r#"{"system":"hetero"}"#).unwrap();
        assert_eq!(routed_engine(&auto_par).unwrap(), "event");
        assert_eq!(routed_engine(&auto_img).unwrap(), "lockstep");
        assert_eq!(routed_engine(&hetero).unwrap(), "analytic");
        let bad = spec(r#"{"engine":"analytic"}"#).unwrap();
        assert!(routed_engine(&bad).is_err(), "analytic on ncpu poisons the cache");
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
            let entry = execute(routed_engine(&spec).unwrap(), served.key, &fresh);
            assert_eq!(served.report_json, entry.compact_json, "{text}");
            assert_eq!(served.artifact_json, entry.artifact_json, "{text}");
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
            r#""topology":{"cores":[{},{"operating_point":0.7}],"scheduler":"work_stealing"}"#,
            r#""cores":2,"fault_seed":5,"fault_sram_flip_ppm":200000"#,
        ];
        let texts: Vec<String> = [image, motion]
            .iter()
            .flat_map(|w| variants.iter().map(move |v| format!("{{{w},{v}}}")))
            .collect();
        assert_memoized_equals_fresh(&mut fleet, &texts);
        assert_eq!(fleet.use_cases.len(), 2, "one memo entry per workload shape");
        assert_eq!(fleet.use_cases.stats(), (8, 2, 0), "each shape trained once");
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
        assert!(fleet.use_cases.is_empty());
        assert_eq!(fleet.use_cases.stats(), (0, 0, 0), "parametric never probes the memo");
    }

    #[test]
    fn the_memo_stays_bounded_past_its_cap() {
        let mut fleet = Fleet::new(1, 64);
        let shapes = BUILD_MEMO_CAP + 6;
        for batch in 1..=shapes {
            let text = format!(
                r#"{{"workload":"motion","batch":{batch},"train_per_class":1,"epochs":1}}"#
            );
            fleet.build_memoized(&spec(&text).unwrap());
            assert!(fleet.use_cases.len() <= BUILD_MEMO_CAP);
        }
        assert_eq!(fleet.use_cases.len(), BUILD_MEMO_CAP);
        assert_eq!(fleet.use_cases.stats(), (0, shapes as u64, 6));
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
