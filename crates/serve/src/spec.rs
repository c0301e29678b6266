//! Request specs: the JSON surface of the fleet service.
//!
//! A [`ScenarioSpec`] is the declarative form of an [`ncpu_soc::Scenario`]
//! plus one serve-only knob (the engine preference). Parsing is strict
//! about types and ranges but generous about omissions: every field has
//! the same default the library constructors use, so `{}` is a valid
//! request (the default parametric workload on the 2-core NCPU).
//!
//! The fault-plan fields reuse the hardened `NCPU_FAULT_*` parser from
//! `ncpu-fault` (itself built on `ncpu_obs::numparse`), so the service
//! and the environment reject exactly the same garbage with the same
//! diagnostics.

use ncpu_fault::FaultPlan;
use ncpu_obs::json::Json;
use ncpu_obs::numparse::{num_as_u32, num_as_u64, num_as_usize};
use ncpu_soc::topology::{CoreRole, CoreSpec, SchedulerKind, Topology};
use ncpu_soc::{pseudo_model, Scenario, SocConfig, SystemConfig, UseCase, UseCaseKind};

/// Largest accepted `batch`. Every item is staged and simulated, so an
/// unbounded batch lets one request line exhaust the host's memory
/// (`"batch":100000000` of images would stage ~670 GB).
pub const MAX_BATCH: usize = 4096;

/// Largest accepted `train_per_class` (training-set size per class).
pub const MAX_TRAIN_PER_CLASS: usize = 1000;

/// Largest accepted `epochs`.
pub const MAX_EPOCHS: usize = 100;

/// Everything a trained (image/motion) [`UseCase`] is a pure function
/// of: `(kind, batch, train_per_class, epochs)`. Training data, item
/// frames and the trainer all draw from fixed seeds, so two specs with
/// the same shape construct byte-identical use cases whatever their
/// system, fabric, operating point, faults or topology.
pub type UseCaseShape = (UseCaseKind, usize, usize, usize);

/// Which engine the client wants; `Auto` lets the router pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePref {
    /// Route by workload shape (the default).
    Auto,
    /// Force the cycle-walking lockstep engine.
    Lockstep,
    /// Force the event-queue engine.
    Event,
    /// Force the analytic scheduler (heterogeneous systems only).
    Analytic,
}

/// The workload half of a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Steady-state synthetic workload over the canonical pseudo-model.
    Parametric {
        /// Fraction of each item spent in CPU mode, `0 < f < 1`.
        cpu_fraction: f64,
        /// Items in the batch.
        batch: usize,
        /// Pseudo-model input width in bits.
        model_input: usize,
    },
    /// The paper's image-recognition use case (trains a real model).
    Image {
        /// Items in the batch.
        batch: usize,
        /// Training examples per class.
        train_per_class: usize,
        /// Training epochs.
        epochs: usize,
    },
    /// The paper's motion-sensor use case (trains a real model).
    Motion {
        /// Items in the batch.
        batch: usize,
        /// Training examples per class.
        train_per_class: usize,
        /// Training epochs.
        epochs: usize,
    },
}

/// One parsed, validated request — everything needed to build a
/// [`Scenario`] and route it to an engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// What to run.
    pub workload: WorkloadSpec,
    /// `Ncpu { cores }` or `Heterogeneous`.
    pub system: SystemConfig,
    /// Fabric parameters.
    pub soc: SocConfig,
    /// DVFS operating point, volts; `None` means nominal.
    pub operating_point: Option<f64>,
    /// Fault-injection plan.
    pub fault: FaultPlan,
    /// Explicit fabric topology; `None` is the homogeneous default.
    pub topology: Option<Topology>,
    /// Engine preference.
    pub engine: EnginePref,
}

impl WorkloadSpec {
    /// The construction-memo key of a trained workload; `None` for the
    /// parametric workload, whose construction is cheap and takes an
    /// `f64` that is not a sound map key.
    pub fn trained_shape(&self) -> Option<UseCaseShape> {
        match *self {
            WorkloadSpec::Parametric { .. } => None,
            WorkloadSpec::Image { batch, train_per_class, epochs } => {
                Some((UseCaseKind::Image, batch, train_per_class, epochs))
            }
            WorkloadSpec::Motion { batch, train_per_class, epochs } => {
                Some((UseCaseKind::Motion, batch, train_per_class, epochs))
            }
        }
    }

    /// Constructs the use case. This is where image/motion training
    /// happens; the result depends on [`trained_shape`](Self::trained_shape)
    /// alone.
    pub fn use_case(&self) -> UseCase {
        match *self {
            WorkloadSpec::Parametric { cpu_fraction, batch, model_input } => {
                UseCase::parametric(cpu_fraction, batch, pseudo_model(model_input, 10, 10))
            }
            WorkloadSpec::Image { batch, train_per_class, epochs } => {
                UseCase::image(batch, train_per_class, epochs)
            }
            WorkloadSpec::Motion { batch, train_per_class, epochs } => {
                UseCase::motion(batch, train_per_class, epochs)
            }
        }
    }
}

impl Default for ScenarioSpec {
    fn default() -> ScenarioSpec {
        ScenarioSpec {
            workload: WorkloadSpec::Parametric { cpu_fraction: 0.5, batch: 8, model_input: 64 },
            system: SystemConfig::Ncpu { cores: 2 },
            soc: SocConfig::default(),
            operating_point: None,
            fault: FaultPlan::none(),
            topology: None,
            engine: EnginePref::Auto,
        }
    }
}

/// Parses a `"topology"` block:
///
/// ```json
/// {"cores": [{"role": "reconfigurable", "operating_point": 0.7, "bank": 0},
///            {"role": "bnn"}],
///  "banks": [196608, 65536],
///  "scheduler": "work_stealing"}
/// ```
///
/// Every field defaults like the library: omitted `role` is
/// reconfigurable, omitted `operating_point` inherits the scenario
/// point, omitted `bank` is 0, omitted `banks` is one full-width bank,
/// omitted `scheduler` is static. Structural validation is
/// [`Topology::from_specs`]'s; on top of it, the serve workloads are
/// all item batches, so a fleet with no reconfigurable core is rejected
/// here instead of panicking inside a worker.
fn parse_topology(t: &Json) -> Result<Topology, String> {
    let Json::Obj(fields) = t else {
        return Err("topology: expected an object".to_string());
    };
    for (key, _) in fields {
        if !["cores", "banks", "scheduler"].contains(&key.as_str()) {
            return Err(format!("topology: unknown field {key:?}"));
        }
    }
    let Some(Json::Arr(core_specs)) = t.get("cores") else {
        return Err("topology: expected a \"cores\" array of core specs".to_string());
    };
    let mut specs = Vec::with_capacity(core_specs.len());
    for (c, spec) in core_specs.iter().enumerate() {
        let Json::Obj(spec_fields) = spec else {
            return Err(format!("topology: core {c}: expected an object"));
        };
        for (key, _) in spec_fields {
            if !["role", "operating_point", "bank"].contains(&key.as_str()) {
                return Err(format!("topology: core {c}: unknown field {key:?}"));
            }
        }
        let role = match spec.get("role").map(|v| v.as_str().unwrap_or("?")) {
            None | Some("reconfigurable") | Some("ncpu") => CoreRole::Reconfigurable,
            Some("cpu") => CoreRole::CpuOnly,
            Some("bnn") => CoreRole::BnnOnly,
            Some(other) => {
                return Err(format!(
                    "topology: core {c}: role: expected \"reconfigurable\", \"cpu\", or \
                     \"bnn\", got {other:?}"
                ))
            }
        };
        let operating_point = match spec.get("operating_point") {
            None => None,
            Some(v) => Some(v.as_num().ok_or_else(|| {
                format!("topology: core {c}: operating_point: expected volts")
            })?),
        };
        let bank = want_usize(spec, "bank", 0).map_err(|e| format!("topology: core {c}: {e}"))?;
        specs.push(CoreSpec { role, operating_point, bank });
    }
    let bank_bytes = match t.get("banks") {
        None => vec![ncpu_soc::L2_BYTES],
        Some(Json::Arr(widths)) => widths
            .iter()
            .enumerate()
            .map(|(b, w)| {
                w.as_num()
                    .and_then(num_as_usize)
                    .ok_or_else(|| format!("topology: banks[{b}]: expected a byte width"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("topology: banks: expected an array of byte widths".to_string()),
    };
    let scheduler = match t.get("scheduler").map(|v| v.as_str().unwrap_or("?")) {
        None | Some("static") => SchedulerKind::Static,
        Some("work_stealing") => SchedulerKind::WorkStealing,
        Some(other) => {
            return Err(format!(
                "topology: scheduler: expected \"static\" or \"work_stealing\", got {other:?}"
            ))
        }
    };
    let topo = Topology::from_specs(specs, bank_bytes, scheduler)?;
    if topo.item_cores().is_empty() {
        return Err("topology: the serve workloads need at least one reconfigurable core".into());
    }
    Ok(topo)
}

fn want_usize(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v.as_num().ok_or_else(|| format!("{key}: expected a number"))?;
            num_as_usize(n).ok_or_else(|| format!("{key}: expected a non-negative integer, got {n}"))
        }
    }
}

/// [`want_usize`] for a size knob: `0` means `1` (as it always has),
/// and anything above `max` is rejected instead of allocated.
fn want_size(obj: &Json, key: &str, default: usize, max: usize) -> Result<usize, String> {
    let n = want_usize(obj, key, default)?.max(1);
    if n > max {
        return Err(format!("{key}: at most {max}, got {n}"));
    }
    Ok(n)
}

fn want_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key}: expected true or false")),
    }
}

impl ScenarioSpec {
    /// Parses a request object. `doc` may carry the fields directly or
    /// nest them under a `"scenario"` key; unknown fields are rejected
    /// so typos fail loudly instead of silently running the default —
    /// including top-level siblings of a nested `"scenario"` object,
    /// which would otherwise be silently ignored.
    pub fn parse(doc: &Json) -> Result<ScenarioSpec, String> {
        let (obj, allow_op) = match doc.get("scenario") {
            Some(nested) => {
                if let Json::Obj(top) = doc {
                    for (key, _) in top {
                        if key != "op" && key != "scenario" {
                            return Err(format!(
                                "unknown field {key:?} beside \"scenario\" (scenario fields \
                                 belong inside the nested object)"
                            ));
                        }
                    }
                }
                (nested, false)
            }
            None => (doc, true),
        };
        let Json::Obj(fields) = obj else {
            return Err("scenario: expected an object".to_string());
        };
        for (key, _) in fields {
            let known = KNOWN_FIELDS.contains(&key.as_str()) || (allow_op && key == "op");
            if !known {
                return Err(format!("unknown field {key:?}"));
            }
        }

        let workload = match obj.get("workload").map(|v| v.as_str().unwrap_or("?")) {
            None | Some("parametric") => {
                let frac = match obj.get("cpu_fraction") {
                    None => 0.5,
                    Some(v) => v
                        .as_num()
                        .filter(|f| *f > 0.0 && *f < 1.0)
                        .ok_or("cpu_fraction: expected a number in (0, 1)")?,
                };
                WorkloadSpec::Parametric {
                    cpu_fraction: frac,
                    batch: want_size(obj, "batch", 8, MAX_BATCH)?,
                    model_input: want_usize(obj, "model_input", 64)?.clamp(8, 4096),
                }
            }
            Some("image") => WorkloadSpec::Image {
                batch: want_size(obj, "batch", 4, MAX_BATCH)?,
                train_per_class: want_size(obj, "train_per_class", 2, MAX_TRAIN_PER_CLASS)?,
                epochs: want_size(obj, "epochs", 1, MAX_EPOCHS)?,
            },
            Some("motion") => WorkloadSpec::Motion {
                batch: want_size(obj, "batch", 2, MAX_BATCH)?,
                train_per_class: want_size(obj, "train_per_class", 4, MAX_TRAIN_PER_CLASS)?,
                epochs: want_size(obj, "epochs", 2, MAX_EPOCHS)?,
            },
            Some(other) => {
                return Err(format!(
                    "workload: expected \"parametric\", \"image\", or \"motion\", got {other:?}"
                ))
            }
        };

        let mut system = match obj.get("system").map(|v| v.as_str().unwrap_or("?")) {
            None | Some("ncpu") => {
                SystemConfig::Ncpu { cores: want_usize(obj, "cores", 2)?.clamp(1, 64) }
            }
            Some("hetero") | Some("heterogeneous") => SystemConfig::Heterogeneous,
            Some(other) => {
                return Err(format!("system: expected \"ncpu\" or \"hetero\", got {other:?}"))
            }
        };

        let mut soc = SocConfig::default();
        if let Some(v) = obj.get("dma_bytes_per_cycle") {
            let n = v.as_num().ok_or("dma_bytes_per_cycle: expected a number")?;
            soc.dma_bytes_per_cycle = num_as_u32(n)
                .filter(|b| *b >= 1)
                .ok_or_else(|| format!("dma_bytes_per_cycle: expected a positive integer, got {n}"))?;
        }
        if let Some(v) = obj.get("dma_setup_cycles") {
            let n = v.as_num().ok_or("dma_setup_cycles: expected a number")?;
            soc.dma_setup_cycles = num_as_u64(n)
                .ok_or_else(|| format!("dma_setup_cycles: expected a non-negative integer, got {n}"))?;
        }
        match obj.get("switch_policy").map(|v| v.as_str().unwrap_or("?")) {
            None => {}
            Some("zero") => soc.switch_policy = ncpu_core::SwitchPolicy::ZeroLatency,
            Some("naive") => soc.switch_policy = ncpu_core::SwitchPolicy::Naive,
            Some(other) => {
                return Err(format!("switch_policy: expected \"zero\" or \"naive\", got {other:?}"))
            }
        }
        soc.layer_pipelining = want_bool(obj, "layer_pipelining", soc.layer_pipelining)?;

        let operating_point = match obj.get("operating_point") {
            None => None,
            Some(v) => Some(
                v.as_num()
                    .filter(|f| *f >= 0.3 && *f <= 1.2)
                    .ok_or("operating_point: expected volts in [0.3, 1.2]")?,
            ),
        };

        let topology = match obj.get("topology") {
            None => None,
            Some(t) => {
                let SystemConfig::Ncpu { cores } = system else {
                    return Err("topology: describes NCPU fleets, not the hetero baseline".into());
                };
                let topo = parse_topology(t)?;
                // An explicit "cores" must agree; an omitted one is
                // inferred from the topology's core list.
                if obj.get("cores").is_some() && topo.cores() != cores {
                    return Err(format!(
                        "topology: {} core specs but cores is {cores}",
                        topo.cores()
                    ));
                }
                system = SystemConfig::Ncpu { cores: topo.cores() };
                Some(topo)
            }
        };

        // Fault knobs ride the NCPU_FAULT_* parser: `fault_seed` in a
        // request and `NCPU_FAULT_SEED` in the environment go through
        // the identical hardened code path. JSON numbers get the same
        // checked `num_as_u64` conversion as every other integer field
        // first — a fractional, negative, or past-2^53 value (where the
        // JSON parser's f64 is no longer exact) is rejected here rather
        // than re-rendered through a lossy cast.
        for key in KNOWN_FIELDS.iter().filter(|k| k.starts_with("fault_")) {
            if let Some(Json::Num(n)) = obj.get(key) {
                if num_as_u64(*n).is_none() {
                    return Err(format!("{key}: expected a non-negative integer, got {n}"));
                }
            }
        }
        let (fault, fault_errors) = FaultPlan::from_lookup(|var| {
            let key = var.strip_prefix("NCPU_").expect("fault vars are NCPU_-prefixed").to_lowercase();
            obj.get(&key).map(|v| match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => match num_as_u64(*n) {
                    Some(v) => v.to_string(),
                    None => format!("{n}"), // unreachable: pre-validated above
                },
                other => format!("{other:?}"),
            })
        });
        if let Some(e) = fault_errors.first() {
            return Err(e.replace("NCPU_", "").to_lowercase());
        }
        // The session-level invariants, surfaced as parse errors instead
        // of panics deep inside a worker thread.
        if fault.core_hang_ppm > 0 && fault.watchdog_cycles == 0 {
            return Err("fault_core_hang_ppm requires fault_watchdog_cycles > 0".to_string());
        }
        if fault.dma_stall_ppm > 0 && fault.dma_stall_cycles == 0 {
            return Err("fault_dma_stall_ppm requires fault_dma_stall_cycles > 0".to_string());
        }

        let engine = match obj.get("engine").map(|v| v.as_str().unwrap_or("?")) {
            None | Some("auto") => EnginePref::Auto,
            Some("lockstep") => EnginePref::Lockstep,
            Some("event") => EnginePref::Event,
            Some("analytic") => EnginePref::Analytic,
            Some(other) => {
                return Err(format!(
                    "engine: expected \"auto\", \"lockstep\", \"event\", or \"analytic\", got {other:?}"
                ))
            }
        };

        Ok(ScenarioSpec { workload, system, soc, operating_point, fault, topology, engine })
    }

    /// Materializes the spec into a runnable [`Scenario`] around a
    /// freshly constructed use case — training an image/motion model
    /// every call. `Fleet` takes the same [`assemble`](Self::assemble)
    /// path with a use case from its construction memo, so a memoized
    /// and a fresh build are the same code from the use case on. Serve
    /// pins `TraceLevel::Counters`: one trace level per cache domain is
    /// what makes cached and fresh reports comparable byte-for-byte.
    pub fn build(&self) -> Scenario {
        self.assemble(self.workload.use_case())
    }

    /// Wraps `usecase` in this spec's system, fabric, trace pin, faults,
    /// operating point and topology. `usecase` must be what
    /// `self.workload.use_case()` constructs (for a trained workload:
    /// any use case of the same [`WorkloadSpec::trained_shape`]);
    /// otherwise the scenario does not describe this spec.
    pub fn assemble(&self, usecase: UseCase) -> Scenario {
        let mut s = Scenario::new(usecase, self.system)
            .with_soc(self.soc)
            .with_trace(ncpu_obs::TraceLevel::Counters)
            .with_faults(self.fault);
        if let Some(v) = self.operating_point {
            s = s.with_operating_point(v);
        }
        if let Some(t) = &self.topology {
            s = s.with_topology(t.clone());
        }
        s
    }

    /// A deterministic fingerprint of the whole spec (its `Debug`
    /// rendering). Two requests that differ in any field — operating
    /// point and engine pin included — get different strings, so it is
    /// *not* the construction-memo key: `Fleet` memoizes on
    /// [`WorkloadSpec::trained_shape`], which only the use case depends
    /// on. Distinct from the result-cache key too, which hashes the
    /// *built* scenario.
    pub fn memo_key(&self) -> String {
        format!("{self:?}")
    }
}

/// Every request field [`ScenarioSpec::parse`] accepts. The ten
/// `fault_*` names are the `NCPU_FAULT_*` variables with the `NCPU_`
/// prefix stripped and lowercased.
pub const KNOWN_FIELDS: [&str; 25] = [
    "topology",
    "workload",
    "cpu_fraction",
    "batch",
    "model_input",
    "train_per_class",
    "epochs",
    "system",
    "cores",
    "dma_bytes_per_cycle",
    "dma_setup_cycles",
    "switch_policy",
    "layer_pipelining",
    "operating_point",
    "engine",
    "fault_seed",
    "fault_sram_flip_ppm",
    "fault_dma_stall_ppm",
    "fault_dma_stall_cycles",
    "fault_dma_truncate_ppm",
    "fault_core_hang_ppm",
    "fault_watchdog_cycles",
    "fault_max_retries",
    "fault_backoff_cycles",
    "fault_quarantine_after",
];

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_obs::json::parse;

    fn spec_of(text: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::parse(&parse(text).expect("test JSON parses"))
    }

    #[test]
    fn empty_object_is_the_default_spec() {
        assert_eq!(spec_of("{}").unwrap(), ScenarioSpec::default());
    }

    #[test]
    fn nested_and_flat_forms_agree() {
        let flat = spec_of(r#"{"workload":"parametric","cpu_fraction":0.25,"batch":3}"#).unwrap();
        let nested =
            spec_of(r#"{"scenario":{"workload":"parametric","cpu_fraction":0.25,"batch":3}}"#)
                .unwrap();
        assert_eq!(flat, nested);
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        assert!(spec_of(r#"{"wrokload":"image"}"#).unwrap_err().contains("wrokload"));
        assert!(spec_of(r#"{"cpu_fraction":1.5}"#).unwrap_err().contains("cpu_fraction"));
        assert!(spec_of(r#"{"batch":-2}"#).unwrap_err().contains("batch"));
        assert!(spec_of(r#"{"engine":"warp"}"#).unwrap_err().contains("engine"));
        assert!(spec_of(r#"{"fault_seed":"junk"}"#).unwrap_err().contains("fault_seed"));
        assert!(spec_of(r#"[1,2]"#).is_err());
    }

    #[test]
    fn size_knobs_are_capped_on_both_sides_of_the_limit() {
        let caps = [("batch", MAX_BATCH), ("train_per_class", MAX_TRAIN_PER_CLASS), ("epochs", MAX_EPOCHS)];
        for workload in ["image", "motion"] {
            for (key, max) in caps {
                let at = spec_of(&format!(r#"{{"workload":"{workload}","{key}":{max}}}"#))
                    .unwrap_or_else(|e| panic!("{workload} {key}={max} must parse: {e}"));
                let shape = at.workload.trained_shape().unwrap();
                assert!([shape.1, shape.2, shape.3].contains(&max), "{workload} {key}");
                let over = max + 1;
                let err = spec_of(&format!(r#"{{"workload":"{workload}","{key}":{over}}}"#))
                    .unwrap_err();
                assert_eq!(err, format!("{key}: at most {max}, got {over}"));
            }
        }
        assert!(spec_of(r#"{"batch":4096}"#).is_ok());
        assert!(spec_of(r#"{"batch":4097}"#).unwrap_err().contains("batch"));
        let err = spec_of(r#"{"workload":"image","batch":100000000}"#).unwrap_err();
        assert!(err.contains("at most 4096"), "{err}");
        // Zero still means one, as it always has.
        assert_eq!(
            spec_of(r#"{"workload":"image","batch":0,"epochs":0}"#).unwrap().workload,
            WorkloadSpec::Image { batch: 1, train_per_class: 2, epochs: 1 }
        );
    }

    #[test]
    fn fault_fields_populate_the_plan() {
        let s = spec_of(r#"{"fault_seed":9,"fault_sram_flip_ppm":50}"#).unwrap();
        assert_eq!(s.fault.seed, 9);
        assert_eq!(s.fault.sram_flip_ppm, 50);
        assert!(s.fault.is_active());
    }

    #[test]
    fn fault_numbers_get_the_same_checked_conversion_as_everything_else() {
        // In (i64::MAX, 1.8e19): the old saturating i64 cast silently
        // mapped this to i64::MAX; it must be rejected instead.
        assert!(spec_of(r#"{"fault_seed":1e19}"#).unwrap_err().contains("fault_seed"));
        // Past 2^53 the JSON f64 is inexact even when it fits u64.
        assert!(spec_of(r#"{"fault_seed":9007199254740994}"#)
            .unwrap_err()
            .contains("fault_seed"));
        assert!(spec_of(r#"{"fault_seed":1.5}"#).unwrap_err().contains("fault_seed"));
        assert!(spec_of(r#"{"fault_seed":-1}"#).unwrap_err().contains("fault_seed"));
        assert!(spec_of(r#"{"fault_backoff_cycles":2.5}"#)
            .unwrap_err()
            .contains("fault_backoff_cycles"));
        // The 2^53 boundary itself is exact and accepted.
        let s = spec_of(r#"{"fault_seed":9007199254740992,"fault_sram_flip_ppm":1}"#).unwrap();
        assert_eq!(s.fault.seed, 1 << 53);
    }

    #[test]
    fn nested_scenario_rejects_stray_top_level_siblings() {
        let err = spec_of(r#"{"scenario":{"batch":3},"engine":"lockstep"}"#).unwrap_err();
        assert!(err.contains("engine"), "sibling keys must fail loudly: {err}");
        // `op` stays legal beside `scenario` (the protocol envelope)…
        assert!(spec_of(r#"{"op":"run","scenario":{"batch":3}}"#).is_ok());
        // …but not inside it.
        assert!(spec_of(r#"{"scenario":{"op":"run","batch":3}}"#).unwrap_err().contains("op"));
    }

    #[test]
    fn topology_block_parses_and_infers_cores() {
        let s = spec_of(
            r#"{"topology":{"cores":[{},{"role":"bnn"},{"operating_point":0.7,"bank":1}],
                "banks":[131072,65536],"scheduler":"work_stealing"}}"#,
        )
        .unwrap();
        assert_eq!(s.system, SystemConfig::Ncpu { cores: 3 });
        let topo = s.topology.as_ref().unwrap();
        assert_eq!(topo.label(), "R+B+R@0.7V");
        assert_eq!(topo.banks(), 2);
        assert_eq!(topo.scheduler(), SchedulerKind::WorkStealing);
        // Matching explicit core count is accepted; a mismatch is not.
        assert!(spec_of(r#"{"cores":2,"topology":{"cores":[{},{}]}}"#).is_ok());
        let err = spec_of(r#"{"cores":4,"topology":{"cores":[{},{}]}}"#).unwrap_err();
        assert!(err.contains("cores"), "{err}");
        // The built scenario carries the topology.
        assert!(s.build().explicit_topology().is_some());
    }

    #[test]
    fn topology_block_rejects_nonsense() {
        let e = spec_of(r#"{"system":"hetero","topology":{"cores":[{}]}}"#).unwrap_err();
        assert!(e.contains("hetero"), "{e}");
        let e = spec_of(r#"{"topology":{"cores":[{"role":"gpu"}]}}"#).unwrap_err();
        assert!(e.contains("role"), "{e}");
        let e = spec_of(r#"{"topology":{"cores":[{"rloe":"bnn"}]}}"#).unwrap_err();
        assert!(e.contains("rloe"), "{e}");
        let e = spec_of(r#"{"topology":{"cores":[{"role":"bnn"}]}}"#).unwrap_err();
        assert!(e.contains("reconfigurable"), "all-fixed fleets cannot serve items: {e}");
        let e = spec_of(r#"{"topology":{"cores":[{"bank":5}]}}"#).unwrap_err();
        assert!(e.contains("bank"), "{e}");
        let e = spec_of(r#"{"topology":{"cores":[{"operating_point":0.1}]}}"#).unwrap_err();
        assert!(e.contains("operating point"), "{e}");
        let e = spec_of(r#"{"topology":{"cores":[{}],"banks":[999999999]}}"#).unwrap_err();
        assert!(e.contains("bank widths"), "{e}");
        assert!(spec_of(r#"{"topology":{"weird":1,"cores":[{}]}}"#).is_err());
        assert!(spec_of(r#"{"topology":[1]}"#).is_err());
    }

    #[test]
    fn homogeneous_topology_block_builds_the_default_cache_key() {
        // An explicit homogeneous topology and a plain cores count land
        // in the same `ncpu-scenario-v2` cache key class.
        let explicit = spec_of(r#"{"topology":{"cores":[{},{}]}}"#).unwrap();
        let plain = spec_of(r#"{"cores":2}"#).unwrap();
        assert_eq!(explicit.build().cache_key(), plain.build().cache_key());
    }

    #[test]
    fn build_is_deterministic_and_respects_trace_pin() {
        let s = spec_of(r#"{"batch":2,"cores":1}"#).unwrap();
        assert_eq!(s.build().cache_key(), s.build().cache_key());
        assert_eq!(s.memo_key(), s.clone().memo_key());
    }
}
