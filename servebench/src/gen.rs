//! Seeded request generator: the three workloads as streams of request
//! lines, grouped into flushes.
//!
//! Every stream is a pure function of its seed: the generator draws from
//! one `ncpu_testkit` RNG in request order, so any prefix of a stream is
//! byte-identical across runs no matter how much of it a timed run
//! consumes. How much work a run holds should not depend on the seed's
//! luck: `trained_cold` and `steady_sweep` draw their shapes from
//! stratified blocks (every block holds each shape once, in a seeded
//! order), and `repeat_mix` draws from a population whose shapes are
//! fixed. Two seeds differ in order, keys and continuous parameters,
//! not in the mix.

use ncpu_serve::cache::Lru;
use ncpu_testkit::rng::Rng;

/// Result-cache capacity of the benchmark's fleet (all workloads).
pub const CACHE_CAPACITY: usize = 128;

/// Requests of the property-table prefix (after the warm-up).
const PROPERTY_PREFIX: usize = 4096;

/// Distinct keys in the `repeat_mix` population (3× the cache).
const POPULATION: usize = 3 * CACHE_CAPACITY;

/// `repeat_mix` warm-up: the stream prefix that brings the cache to
/// steady state before timing starts.
const REPEAT_WARMUP_REQUESTS: usize = 3 * CACHE_CAPACITY;

/// Zipf exponent of `repeat_mix` key popularity.
const ZIPF_S: f64 = 1.0;

/// Share of `repeat_mix` requests replaced by an invalid line.
const INVALID_SHARE: f64 = 0.02;

/// Seed of the `repeat_mix` population's shapes.
const POPULATION_SEED: u64 = 0x0909_0909;

/// Seed of the warm-up stream of the unique-key workloads.
const WARMUP_SEED: u64 = 0x3a3a_3a3a;

/// One in this many requests is a candidate for the recomputation sample.
const SAMPLE_EVERY: u64 = 8;

/// The golden-ratio conjugate: `frac(n·φ)` never repeats, so a
/// continuous parameter drawn from it gives every request its own key.
const PHI: f64 = 0.618_033_988_749_894_9;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique trained image/motion requests, one per flush.
    TrainedCold,
    /// Unique parametric requests in flushes of 32.
    SteadySweep,
    /// Zipf-repeated mixed requests over more keys than the cache holds.
    RepeatMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainedCold,
        Workload::SteadySweep,
        Workload::RepeatMix,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainedCold => "trained_cold",
            Workload::SteadySweep => "steady_sweep",
            Workload::RepeatMix => "repeat_mix",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests the traced pass serves: a fixed count, so the traced
    /// pass's counts are a pure function of the seed.
    pub fn traced_requests(self) -> usize {
        match self {
            Workload::TrainedCold => 120,
            Workload::SteadySweep => 1024,
            Workload::RepeatMix => 4096,
        }
    }
}

/// One generated request line and what the generator knows about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Position in the stream (warm-up requests included).
    pub index: u64,
    /// The request line, without its newline.
    pub line: String,
    /// Generated invalid: the correct answer is an error line.
    pub invalid: bool,
    /// Image or motion: the build trains a model.
    pub trained: bool,
    /// Runs on the heterogeneous baseline.
    pub hetero: bool,
    /// Carries a fault plan.
    pub faulted: bool,
    /// Items in the request (0 for an invalid line).
    pub items: usize,
    /// Logical identity of the request's result: equal identities are
    /// the same scenario. Invalid lines have none.
    pub identity: Option<u64>,
    /// In the seeded set from which the recomputation sample is drawn.
    pub candidate: bool,
}

/// One flush: request lines followed by `{"op":"flush"}`.
pub type Group = Vec<Req>;

/// The flush line that ends every group.
pub const FLUSH_LINE: &str = r#"{"op":"flush"}"#;

/// A member of the `repeat_mix` key population.
#[derive(Debug, Clone)]
struct Member {
    fields: Vec<(&'static str, String)>,
    trained: bool,
    hetero: bool,
    faulted: bool,
    items: usize,
}

/// A lazily generated request stream.
pub struct Stream {
    workload: Workload,
    seed: u64,
    rng: Rng,
    next_index: u64,
    /// Offset of the continuous parameter sequence (seeded).
    phase: f64,
    /// Remaining shapes of the current stratified block.
    block: Vec<Shape>,
    population: Vec<Member>,
    /// Cumulative Zipf weights over `population`.
    cdf: Vec<f64>,
    warmup_domain: bool,
}

/// A stratified shape: what a block holds once.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// `trained_cold`: 0 image, 1 motion.
    kind: u8,
    items: usize,
    cores: usize,
    /// `steady_sweep`: pseudo-model input width.
    model_input: usize,
    /// `trained_cold`: pins the event engine; `steady_sweep`: carries a
    /// big.LITTLE topology.
    flag_a: bool,
    /// `steady_sweep`: carries a fault plan.
    flag_b: bool,
}

fn render(fields: &[(&'static str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

impl Stream {
    /// The timed stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = Rng::split(seed, 0x5e7e);
        let phase: f64 = rng.gen();
        let mut stream = Stream {
            workload,
            seed,
            rng,
            next_index: 0,
            phase,
            block: Vec::new(),
            population: Vec::new(),
            cdf: Vec::new(),
            warmup_domain: false,
        };
        if workload == Workload::RepeatMix {
            stream.build_population();
        }
        stream
    }

    /// The warm-up groups served before timing starts. `repeat_mix`
    /// warms up on a prefix of this very stream (so the cache starts in
    /// steady state); the unique-key workloads warm up on one fixed
    /// stream, the same for every seed so set-up times compare, whose
    /// operating points lie outside the timed stream's range, so no
    /// timed request can hit a warm-up entry.
    pub fn warmup(&mut self) -> Vec<Group> {
        match self.workload {
            Workload::RepeatMix => self.groups_for(REPEAT_WARMUP_REQUESTS),
            Workload::TrainedCold | Workload::SteadySweep => {
                let mut warm = Stream::new(self.workload, WARMUP_SEED);
                warm.warmup_domain = true;
                let groups = if self.workload == Workload::TrainedCold {
                    2
                } else {
                    1
                };
                (0..groups).map(|_| warm.next_group()).collect()
            }
        }
    }

    /// The next flush group of the stream.
    pub fn next_group(&mut self) -> Group {
        match self.workload {
            Workload::TrainedCold => vec![self.trained_cold()],
            Workload::SteadySweep => (0..32).map(|_| self.steady_sweep()).collect(),
            Workload::RepeatMix => {
                let size = self.rng.gen_range(1..=16usize);
                (0..size).map(|_| self.repeat_mix()).collect()
            }
        }
    }

    /// Groups holding at least `requests` requests.
    pub fn groups_for(&mut self, requests: usize) -> Vec<Group> {
        let mut groups = Vec::new();
        let mut n = 0;
        while n < requests {
            let group = self.next_group();
            n += group.len();
            groups.push(group);
        }
        groups
    }

    /// `frac(n·φ + phase)`: distinct for every request of the stream.
    fn unique_frac(&self, n: u64) -> f64 {
        (n as f64 * PHI + self.phase).fract()
    }

    fn take_index(&mut self) -> (u64, bool) {
        let index = self.next_index;
        self.next_index += 1;
        let candidate = Rng::split(self.seed ^ 0xc0ffee, index)
            .next_u64()
            .is_multiple_of(SAMPLE_EVERY);
        (index, candidate)
    }

    fn next_shape(&mut self, fill: fn(&mut Rng) -> Vec<Shape>) -> Shape {
        if self.block.is_empty() {
            let mut block = fill(&mut self.rng);
            self.rng.shuffle(&mut block);
            block.reverse();
            self.block = block;
        }
        self.block.pop().expect("a refilled block is non-empty")
    }

    fn trained_cold(&mut self) -> Req {
        // Image twice, motion once, each over 5 item counts × 4 core
        // counts; a quarter of each block (15 of 60) pins the event
        // engine. Motion requests serve several times faster than image
        // ones, so a 1:1 mix would put the median latency on the gap
        // between the two clusters, where it jumps with the seed.
        let shape = self.next_shape(|rng| {
            let mut pins: Vec<bool> = (0..60).map(|i| i < 15).collect();
            rng.shuffle(&mut pins);
            let mut block = Vec::with_capacity(60);
            for kind in [0u8, 0, 1] {
                for items in 4..=8 {
                    for cores in 1..=4 {
                        let flag_a = pins[block.len()];
                        block.push(Shape {
                            kind,
                            items,
                            cores,
                            model_input: 0,
                            flag_a,
                            flag_b: false,
                        });
                    }
                }
            }
            block
        });
        let (index, candidate) = self.take_index();
        let (lo, width) = if self.warmup_domain {
            (1.05, 0.05)
        } else {
            (0.6, 0.4)
        };
        let op = lo + width * self.unique_frac(index);
        let mut fields = vec![
            (
                "workload",
                quoted(if shape.kind == 0 { "image" } else { "motion" }),
            ),
            ("batch", shape.items.to_string()),
            ("cores", shape.cores.to_string()),
            ("operating_point", format!("{op:.9}")),
        ];
        if shape.flag_a {
            fields.push(("engine", quoted("event")));
        }
        Req {
            index,
            line: render(&fields),
            invalid: false,
            trained: true,
            hetero: false,
            faulted: false,
            items: shape.items,
            identity: Some(index),
            candidate,
        }
    }

    fn steady_sweep(&mut self) -> Req {
        // 5 item counts × 3 model widths × 4 core counts; of each block,
        // 15 of the 45 multi-core shapes carry a big.LITTLE topology and
        // 12 of all 60 carry a fault plan.
        let shape = self.next_shape(|rng| {
            let mut topo: Vec<bool> = (0..45).map(|i| i < 15).collect();
            let mut fault: Vec<bool> = (0..60).map(|i| i < 12).collect();
            rng.shuffle(&mut topo);
            rng.shuffle(&mut fault);
            let mut block = Vec::with_capacity(60);
            let mut multi = 0;
            for items in [16, 32, 64, 128, 256] {
                for model_input in [64, 256, 784] {
                    for cores in 1..=4 {
                        let flag_a = cores >= 2 && {
                            multi += 1;
                            topo[multi - 1]
                        };
                        let flag_b = fault[block.len()];
                        block.push(Shape {
                            kind: 0,
                            items,
                            cores,
                            model_input,
                            flag_a,
                            flag_b,
                        });
                    }
                }
            }
            block
        });
        let (index, candidate) = self.take_index();
        // The operating point makes every key unique: nearby CPU
        // fractions round to the same spin budget and would share one.
        let (lo, width) = if self.warmup_domain {
            (0.7, 0.05)
        } else {
            (0.8, 0.4)
        };
        let op = lo + width * self.unique_frac(index);
        let frac = self.rng.gen_range(0.1..0.85);
        let mut fields = vec![
            ("cpu_fraction", format!("{frac:.6}")),
            ("batch", shape.items.to_string()),
            ("model_input", shape.model_input.to_string()),
            ("operating_point", format!("{op:.9}")),
        ];
        if shape.flag_a {
            let littles = vec![r#"{"operating_point":0.7}"#; shape.cores - 1].join(",");
            fields.push(("topology", format!(r#"{{"cores":[{{}},{littles}]}}"#)));
        } else {
            fields.push(("cores", shape.cores.to_string()));
        }
        if shape.flag_b {
            fields.extend(fault_fields(index));
        }
        Req {
            index,
            line: render(&fields),
            invalid: false,
            trained: false,
            hetero: false,
            faulted: shape.flag_b,
            items: shape.items,
            identity: Some(index),
            candidate,
        }
    }

    fn build_population(&mut self) {
        // Popularity rank decides the kind, and the member shapes come
        // from a fixed stream, so every seed serves the same mix of work;
        // the seed decides the request sequence and, through the
        // operating points, the keys. Six trained
        // configs sit at hot ranks (the warm-up meets each of them and
        // the cache keeps them, so no timed request retrains); every
        // tenth rank from 3 is a hetero request and every tenth from 7
        // carries a fault plan. The operating point keeps members'
        // keys distinct.
        const TRAINED: [(usize, &str, usize, usize); 6] = [
            (1, "image", 4, 1),
            (2, "motion", 4, 2),
            (4, "image", 6, 2),
            (6, "motion", 6, 1),
            (9, "image", 8, 4),
            (13, "motion", 8, 3),
        ];
        let mut shapes = Rng::split(POPULATION_SEED, 0);
        let mut population = Vec::with_capacity(POPULATION);
        for rank in 0..POPULATION {
            let op = 0.8 + 0.4 * self.unique_frac(rank as u64);
            let frac = shapes.gen_range(0.1..0.85);
            let member = if let Some(&(_, workload, items, cores)) =
                TRAINED.iter().find(|(r, ..)| *r == rank)
            {
                Member {
                    fields: vec![
                        ("workload", quoted(workload)),
                        ("batch", items.to_string()),
                        ("cores", cores.to_string()),
                    ],
                    trained: true,
                    hetero: false,
                    faulted: false,
                    items,
                }
            } else if rank % 10 == 3 {
                let items = shapes.gen_range(4..=32usize);
                Member {
                    fields: vec![
                        ("system", quoted("hetero")),
                        ("cpu_fraction", format!("{frac:.6}")),
                        ("batch", items.to_string()),
                        ("operating_point", format!("{op:.9}")),
                    ],
                    trained: false,
                    hetero: true,
                    faulted: false,
                    items,
                }
            } else {
                let items = shapes.gen_range(4..=16usize);
                let cores = shapes.gen_range(1..=4usize);
                let model_input = [64, 256][shapes.gen_range(0..2usize)];
                let faulted = rank % 10 == 7;
                let mut fields = vec![
                    ("cpu_fraction", format!("{frac:.6}")),
                    ("batch", items.to_string()),
                    ("cores", cores.to_string()),
                    ("model_input", model_input.to_string()),
                    ("operating_point", format!("{op:.9}")),
                ];
                if faulted {
                    fields.extend(fault_fields(rank as u64));
                }
                Member {
                    fields,
                    trained: false,
                    hetero: false,
                    faulted,
                    items,
                }
            };
            population.push(member);
        }
        let mut total = 0.0;
        self.cdf = (0..POPULATION)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        self.population = population;
    }

    fn repeat_mix(&mut self) -> Req {
        let (index, candidate) = self.take_index();
        if self.rng.gen_bool(INVALID_SHARE) {
            let line = INVALID_LINES[self.rng.gen_range(0..INVALID_LINES.len())].to_string();
            return Req {
                index,
                line,
                invalid: true,
                trained: false,
                hetero: false,
                faulted: false,
                items: 0,
                identity: None,
                candidate,
            };
        }
        let total = *self.cdf.last().expect("population is built");
        let u: f64 = self.rng.gen::<f64>() * total;
        let rank = self.cdf.partition_point(|&c| c <= u).min(POPULATION - 1);
        let member = &self.population[rank];
        // Each occurrence spells its fields in a seeded order, so equal
        // scenarios reach the cache through canonicalisation, not through
        // equal bytes.
        let mut fields = member.fields.clone();
        self.rng.shuffle(&mut fields);
        Req {
            index,
            line: render(&fields),
            invalid: false,
            trained: member.trained,
            hetero: member.hetero,
            faulted: member.faulted,
            items: member.items,
            identity: Some(rank as u64),
            candidate,
        }
    }
}

/// A fault plan that injects core hangs, caught by the watchdog and
/// retried; `seed` varies the draw per request.
fn fault_fields(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("fault_seed", (seed % 1000 + 1).to_string()),
        ("fault_core_hang_ppm", "20000".to_string()),
        ("fault_watchdog_cycles", "20000".to_string()),
        ("fault_max_retries", "2".to_string()),
    ]
}

/// Lines whose correct answer is an error line: a value out of range, an
/// unknown field, truncated JSON, an engine the router refuses, and an
/// unknown workload.
pub const INVALID_LINES: [&str; 5] = [
    r#"{"cpu_fraction":7,"batch":4}"#,
    r#"{"batch":4,"cores":2,"colour":"blue"}"#,
    r#"{"cpu_fraction":0.5,"batch":"#,
    r#"{"engine":"analytic","batch":4}"#,
    r#"{"workload":"quantum"}"#,
];

/// Shares of a workload's requests that have each property, measured
/// over a fixed stream prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Properties {
    /// Requests measured (after the warm-up).
    pub requests: usize,
    /// Share whose build trains a model.
    pub trained: f64,
    /// Share carrying a fault plan.
    pub faulted: f64,
    /// Share on the heterogeneous baseline.
    pub hetero: f64,
    /// Share generated invalid.
    pub invalid: f64,
    /// Mean items per valid request.
    pub mean_items: f64,
    /// Distinct scenarios among the measured requests.
    pub distinct_keys: usize,
    /// The fleet's result-cache capacity.
    pub cache_capacity: usize,
    /// Hit share of an LRU of that capacity replaying the identities,
    /// warm-up included.
    pub expected_hit: f64,
}

/// Measures the property table of `workload` for `seed`.
pub fn properties(workload: Workload, seed: u64) -> Properties {
    let mut stream = Stream::new(workload, seed);
    let warm: Vec<Req> = stream.warmup().into_iter().flatten().collect();
    let timed: Vec<Req> = stream
        .groups_for(PROPERTY_PREFIX)
        .into_iter()
        .flatten()
        .collect();
    let mut lru = Lru::new(CACHE_CAPACITY);
    let mut touch = |req: &Req| -> bool {
        let Some(id) = req.identity else { return false };
        let hit = lru.get(&id).is_some();
        if !hit {
            lru.insert(id, ());
        }
        hit
    };
    // Only repeat_mix warms up on its own stream; the other warm-ups
    // share no key with the timed requests.
    if workload == Workload::RepeatMix {
        warm.iter().for_each(|req| {
            touch(req);
        });
    }
    let hits = timed.iter().filter(|r| touch(r)).count();
    let n = timed.len() as f64;
    let share = |f: fn(&Req) -> bool| timed.iter().filter(|r| f(r)).count() as f64 / n;
    let valid: Vec<&Req> = timed.iter().filter(|r| !r.invalid).collect();
    let mut ids: Vec<u64> = timed.iter().filter_map(|r| r.identity).collect();
    ids.sort_unstable();
    ids.dedup();
    Properties {
        requests: timed.len(),
        trained: share(|r| r.trained),
        faulted: share(|r| r.faulted),
        hetero: share(|r| r.hetero),
        invalid: share(|r| r.invalid),
        mean_items: valid.iter().map(|r| r.items as f64).sum::<f64>() / valid.len().max(1) as f64,
        distinct_keys: ids.len(),
        cache_capacity: CACHE_CAPACITY,
        expected_hit: hits as f64 / n,
    }
}

impl Properties {
    /// The table header line.
    pub const HEADER: &'static str =
        "workload      requests trained faulted hetero invalid mean_items distinct_keys cache_capacity expected_hit";

    /// One aligned table row for `workload`.
    pub fn row(&self, workload: Workload) -> String {
        format!(
            "{:<13} {:>8} {:>7.3} {:>7.3} {:>6.3} {:>7.3} {:>10.1} {:>13} {:>14} {:>12.3}",
            workload.name(),
            self.requests,
            self.trained,
            self.faulted,
            self.hetero,
            self.invalid,
            self.mean_items,
            self.distinct_keys,
            self.cache_capacity,
            self.expected_hit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: Workload, seed: u64, requests: usize) -> Vec<String> {
        let mut stream = Stream::new(workload, seed);
        let mut out: Vec<String> = stream
            .warmup()
            .into_iter()
            .flatten()
            .map(|r| r.line)
            .collect();
        out.extend(
            stream
                .groups_for(requests)
                .into_iter()
                .flatten()
                .map(|r| r.line),
        );
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for workload in Workload::ALL {
            assert_eq!(
                lines(workload, 7, 600),
                lines(workload, 7, 600),
                "{workload:?}"
            );
            assert_ne!(
                lines(workload, 7, 600),
                lines(workload, 8, 600),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn a_longer_run_extends_the_same_prefix() {
        for workload in Workload::ALL {
            let short = lines(workload, 3, 100);
            let long = lines(workload, 3, 900);
            assert_eq!(short[..], long[..short.len()], "{workload:?}");
        }
    }

    #[test]
    fn every_valid_line_parses_and_every_invalid_one_is_rejected_or_unroutable() {
        for workload in Workload::ALL {
            let mut stream = Stream::new(workload, 11);
            let mut reqs: Vec<Req> = stream.warmup().into_iter().flatten().collect();
            reqs.extend(stream.groups_for(2000).into_iter().flatten());
            for req in reqs {
                let parsed = ncpu_obs::json::parse(&req.line)
                    .map_err(|e| e.to_string())
                    .and_then(|doc| ncpu_serve::ScenarioSpec::parse(&doc));
                if req.invalid {
                    let routable = parsed
                        .as_ref()
                        .is_ok_and(|s| s.engine != ncpu_serve::EnginePref::Analytic);
                    assert!(
                        !routable,
                        "{workload:?}: invalid line accepted: {}",
                        req.line
                    );
                } else {
                    assert!(parsed.is_ok(), "{workload:?}: {} -> {parsed:?}", req.line);
                }
            }
        }
    }

    #[test]
    fn unique_workloads_never_repeat_a_scenario() {
        // Distinct lines for the trained workload (building each would
        // train a model), distinct canonical keys for the parametric one.
        let mut stream = Stream::new(Workload::TrainedCold, 5);
        let mut lines: Vec<String> = stream
            .warmup()
            .into_iter()
            .flatten()
            .map(|r| r.line)
            .collect();
        lines.extend(
            stream
                .groups_for(3000)
                .into_iter()
                .flatten()
                .map(|r| r.line),
        );
        let n = lines.len();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), n, "trained_cold repeated a request line");

        let mut stream = Stream::new(Workload::SteadySweep, 5);
        let mut reqs: Vec<Req> = stream.warmup().into_iter().flatten().collect();
        reqs.extend(stream.groups_for(1500).into_iter().flatten());
        let mut keys: Vec<u64> = reqs
            .iter()
            .map(|r| {
                let doc = ncpu_obs::json::parse(&r.line).expect("valid line");
                ncpu_serve::ScenarioSpec::parse(&doc)
                    .expect("valid spec")
                    .build()
                    .cache_key()
            })
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "steady_sweep repeated a cache key");
    }

    #[test]
    fn properties_match_the_designed_mix() {
        let cold = properties(Workload::TrainedCold, 1);
        assert_eq!(
            (cold.trained, cold.invalid, cold.expected_hit),
            (1.0, 0.0, 0.0)
        );
        let sweep = properties(Workload::SteadySweep, 1);
        assert_eq!((sweep.trained, sweep.expected_hit), (0.0, 0.0));
        assert!((sweep.faulted - 0.2).abs() < 0.01, "{sweep:?}");
        let mix = properties(Workload::RepeatMix, 1);
        assert!(mix.distinct_keys > mix.cache_capacity, "{mix:?}");
        assert!(mix.expected_hit > 0.3 && mix.expected_hit < 0.9, "{mix:?}");
        assert!(
            mix.invalid > 0.0 && mix.hetero > 0.0 && mix.faulted > 0.0,
            "{mix:?}"
        );
    }
}
