//! Content-addressed canonicalization of a [`Scenario`].
//!
//! The serve layer's result cache needs one key property: two scenarios
//! produce the same key **iff** every engine in the lockstep/event
//! equivalence class produces byte-identical reports for them. The
//! canonical encoding therefore covers exactly the semantic content of
//! a scenario — every workload (model bytes, staged items, spin budget),
//! system shape, fabric parameters, normalized operating point, and the
//! full fault plan — in a fixed field order with fixed-width
//! little-endian integers, and **excludes** the two engine-invariant
//! knobs:
//!
//! * the trace level — engines raise `Off` to `Counters` internally and
//!   the `RunReport` is identical at every level (only the instant-event
//!   stream grows at `Full`), so a cache domain that pins one level
//!   (serve pins `Counters`) gets byte-identical reports for free;
//! * the engine choice itself — `Lockstep` and `EventDriven` are proven
//!   byte-identical (`tests/engine_differential.rs`), so the router may
//!   pick either without fragmenting the cache.
//!
//! The operating point is normalized through [`Scenario::volts`]: an
//! unset point and an explicit nominal `1.0 V` encode identically,
//! because every engine resolves them identically. An NCPU fleet's
//! topology is encoded as resolved the same way: per-core operating
//! points encode as their *effective* voltage (an unset per-core point
//! inherits the scenario point), because that is exactly how every
//! engine resolves them. The heterogeneous baseline has no fleet; its
//! topology section encodes [`Topology::homogeneous`]`(1)`, the layout
//! its keys have always had. The workload section encodes the first
//! workload; an independent scenario's further workloads follow the
//! topology, each behind a 1 byte, before the closing 0 that ends every
//! encoding, so a single-workload scenario keeps its v2 bytes.
//!
//! The key itself is a 64-bit FNV-1a over the canonical bytes — the
//! same deterministic, dependency-free hash the testkit uses for
//! property seeds. FNV-1a hashes a stream, so the key resumes from the
//! hash state after the encoding's prefix (the tag and the first
//! workload: the model bytes and every staged item), which each
//! [`UseCase`] computes once and shares with its clones. One encoder
//! writes both the bytes and the key, generic over where its bytes go,
//! so the key is always the hash of [`canonical_bytes`].

use crate::scenario::Scenario;
use crate::system::SystemConfig;
use crate::topology::Topology;
use crate::usecase::{UseCase, UseCaseKind};

/// Version tag leading the canonical encoding; bump when the layout
/// changes so stale persisted keys can never alias fresh ones.
/// `v2` added the fabric topology (roles, per-core DVFS, L2 banking, and
/// a scheduler byte, now the closing 0 that an independent scenario's
/// further workloads precede) to the encoding.
pub const CANONICAL_TAG: &[u8] = b"ncpu-scenario-v2";

/// 64-bit FNV-1a over `bytes` — deterministic on every host, no
/// dependencies, good avalanche for cache keying.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.put(bytes);
    hash.0
}

/// Where the encoder's bytes go: kept, or hashed as they stream by.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A running 64-bit FNV-1a state.
struct Fnv(u64);

impl Fnv {
    /// The state before any byte (the offset basis).
    const fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Sink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn push_u8(out: &mut impl Sink, v: u8) {
    out.put(&[v]);
}

fn push_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_le_bytes());
}

fn push_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_le_bytes());
}

/// The canonical byte encoding of `scenario` (see the module docs for
/// what is covered and what is deliberately excluded).
pub fn canonical_bytes(scenario: &Scenario) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    push_prefix(&mut out, scenario.usecase());
    push_rest(&mut out, scenario);
    out
}

/// [`fnv1a_64`] of [`canonical_bytes`] — the content-addressed cache
/// key (also available as [`Scenario::cache_key`]), resumed from the
/// use case's hashed prefix.
pub fn cache_key(scenario: &Scenario) -> u64 {
    let mut hash = Fnv(scenario.usecase().key_prefix());
    push_rest(&mut hash, scenario);
    hash.0
}

/// The FNV-1a state after the encoding's prefix for a scenario whose
/// first workload is `uc` ([`UseCase::key_prefix`] caches it).
pub(crate) fn prefix_state(uc: &UseCase) -> u64 {
    let mut hash = Fnv::new();
    push_prefix(&mut hash, uc);
    hash.0
}

/// The encoding's prefix, which the first workload alone fixes: the
/// version tag, then that workload.
fn push_prefix(out: &mut impl Sink, uc: &UseCase) {
    out.put(CANONICAL_TAG);
    push_workload(out, uc);
}

/// The encoding after its prefix: the system, fabric, operating point,
/// fault plan and topology, then any further workloads.
fn push_rest(out: &mut impl Sink, scenario: &Scenario) {
    // System shape: a tag and the core count (0 for the baseline).
    let hetero_layout;
    let (system, cores, topo) = match scenario.system() {
        SystemConfig::Heterogeneous => {
            hetero_layout = Topology::homogeneous(1);
            (0, 0, &hetero_layout)
        }
        SystemConfig::Ncpu(topo) => (1, topo.cores(), topo),
    };
    push_u8(out, system);
    push_u64(out, cores as u64);

    // Fabric parameters.
    let soc = scenario.soc();
    push_u32(out, soc.dma_bytes_per_cycle);
    push_u64(out, soc.dma_setup_cycles);
    push_u8(out, match soc.switch_policy {
        ncpu_core::SwitchPolicy::ZeroLatency => 0,
        ncpu_core::SwitchPolicy::Naive => 1,
    });
    push_u8(out, u8::from(soc.layer_pipelining));

    // Operating point, normalized: None and Some(1.0) encode the same.
    push_u64(out, scenario.volts().to_bits());

    // Fault plan, every knob.
    let fault = scenario.fault();
    push_u64(out, fault.seed);
    push_u32(out, fault.sram_flip_ppm);
    push_u32(out, fault.dma_stall_ppm);
    push_u64(out, fault.dma_stall_cycles);
    push_u32(out, fault.dma_truncate_ppm);
    push_u32(out, fault.core_hang_ppm);
    push_u64(out, fault.watchdog_cycles);
    push_u32(out, fault.max_retries);
    push_u64(out, fault.backoff_cycles);
    push_u32(out, fault.quarantine_after);

    // Topology, resolved: per-core operating points encode as the
    // *effective* voltage (unset inherits the scenario point) — the
    // normalization every engine applies.
    let volts = scenario.volts();
    push_u64(out, topo.cores() as u64);
    for spec in topo.specs() {
        push_u8(out, spec.role.tag());
        push_u64(out, spec.volts(volts).to_bits());
        push_u64(out, spec.bank as u64);
    }
    push_u64(out, topo.banks() as u64);
    for &width in topo.bank_bytes() {
        push_u64(out, width as u64);
    }
    // Where the v2 layout tagged the item scheduler with a constant 0:
    // each further workload of an independent scenario follows a 1 here,
    // and the 0 still closes the encoding, so every v2 key stays valid.
    for extra in &scenario.workloads()[1..] {
        push_u8(out, 1);
        push_workload(out, extra);
    }
    push_u8(out, 0);
}

/// One workload: kind, spin budget, model artifact, staged items.
fn push_workload(out: &mut impl Sink, uc: &UseCase) {
    push_u8(out, match uc.kind() {
        UseCaseKind::Image => 0,
        UseCaseKind::Motion => 1,
        UseCaseKind::Parametric => 2,
        UseCaseKind::Deep => 3,
    });
    push_u64(out, uc.spin_cycles());
    let model = ncpu_bnn::io::to_bytes(uc.model());
    push_u64(out, model.len() as u64);
    out.put(&model);
    push_u64(out, uc.items().len() as u64);
    for item in uc.items() {
        push_u64(out, item.label as u64);
        push_u64(out, item.staged.len() as u64);
        out.put(&item.staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usecase::{pseudo_model, UseCase};
    use crate::{Engine, FaultPlan, Lockstep, SocConfig};
    use ncpu_core::SwitchPolicy;
    use ncpu_obs::TraceLevel;
    use ncpu_testkit::rng::Rng;
    use ncpu_testkit::{prop::Prop, prop_assert, prop_assert_eq, prop_assert_ne};

    /// Everything a generated parametric scenario is built from; small
    /// integers so shrinking stays meaningful. Grouped as three nested
    /// tuples (workload/fabric, environment, topology) to stay within
    /// the harness's tuple-shrinking arity.
    type Draw = ((u8, u8, u8, u8, u8), (u8, u64, bool, bool), (u8, bool, u8));

    fn draw(rng: &mut Rng) -> Draw {
        (
            (
                rng.gen_range(1..=9u8),  // cpu_fraction = n/10
                rng.gen_range(1..=16u8), // batch
                rng.gen_range(1..=4u8),  // cores
                rng.gen_range(1..=16u8), // dma_bytes_per_cycle
                rng.gen_range(0..=32u8), // dma_setup_cycles
            ),
            (
                rng.gen_range(0..=9u8),      // operating point = 1.0 - n/20
                rng.gen_range(0..1_000u64),  // fault seed
                rng.gen_range(0..2u64) == 1, // naive switch policy
                rng.gen_range(0..2u64) == 1, // layer pipelining
            ),
            (
                rng.gen_range(0..=2u8),      // last core role tag
                rng.gen_range(0..2u64) == 1, // split the L2 into two banks
                rng.gen_range(0..=4u8),      // core 0 DVFS point (0 = inherit)
            ),
        )
    }

    /// Materializes the topology third of a draw. Per-core points use
    /// the 0.46–0.49 V corner, disjoint from the scenario-level points
    /// (0.55–1.0 V), so a per-core mutation can never alias the
    /// inherited voltage.
    fn build_topology(cores: usize, t: &(u8, bool, u8)) -> Topology {
        use crate::topology::{CoreRole, CoreSpec};
        let (role, split, core0_op) = *t;
        let mut specs = vec![CoreSpec::reconfigurable(); cores];
        specs[cores - 1].role = match role % 3 {
            0 => CoreRole::Reconfigurable,
            1 => CoreRole::CpuOnly,
            _ => CoreRole::BnnOnly,
        };
        if core0_op > 0 {
            specs[0].operating_point = Some(0.45 + f64::from(core0_op) / 100.0);
        }
        let bank_bytes = if split {
            for (c, spec) in specs.iter_mut().enumerate() {
                spec.bank = c % 2;
            }
            vec![3 * crate::fabric::L2_BYTES / 4, crate::fabric::L2_BYTES / 4]
        } else {
            vec![crate::fabric::L2_BYTES]
        };
        Topology::from_specs(specs, bank_bytes).expect("drawn topology is structural")
    }

    fn build(d: &Draw) -> Scenario {
        let ((frac, batch, cores, dma, setup), (op, seed, naive, pipelining), topo) = *d;
        // 128-bit input keeps the inference latency high enough that
        // every cpu_fraction in 0.1..=0.9 maps to a distinct spin
        // budget (the parametric constructor floors tiny budgets at 32
        // cycles, which would alias 0.1 and 0.2 on very small models).
        let uc = UseCase::parametric(
            f64::from(frac.clamp(1, 9)) / 10.0,
            usize::from(batch.max(1)),
            pseudo_model(128, 10, 10),
        );
        let soc = SocConfig {
            dma_bytes_per_cycle: u32::from(dma.max(1)),
            dma_setup_cycles: u64::from(setup),
            switch_policy: if naive { SwitchPolicy::Naive } else { SwitchPolicy::ZeroLatency },
            layer_pipelining: pipelining,
        };
        let cores = usize::from(cores.clamp(1, 4));
        let mut s = Scenario::new(uc, crate::SystemConfig::Ncpu(build_topology(cores, &topo)))
            .with_soc(soc)
            .with_faults(FaultPlan { seed, sram_flip_ppm: 100, ..FaultPlan::none() });
        if op > 0 {
            s = s.with_operating_point(1.0 - f64::from(op) / 20.0);
        }
        s
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Offset basis for the empty input, standard FNV-1a test vector
        // for "a".
        assert_eq!(fnv1a_64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"), "order matters");
    }

    #[test]
    fn trace_level_and_default_operating_point_are_non_semantic() {
        let mk = || build(&((5, 4, 2, 4, 16), (0, 7, false, true), (0, false, 0)));
        let base = mk();
        assert_eq!(base.cache_key(), mk().cache_key(), "construction is deterministic");
        for level in [TraceLevel::Off, TraceLevel::Counters, TraceLevel::Full] {
            assert_eq!(mk().with_trace(level).cache_key(), base.cache_key());
        }
        assert_eq!(
            mk().with_operating_point(1.0).cache_key(),
            base.cache_key(),
            "explicit nominal voltage must hash like the unset default"
        );
        assert_ne!(
            mk().with_operating_point(0.8).cache_key(),
            base.cache_key(),
            "a real DVFS point is semantic"
        );
        // A zero core count is the one core the fleet actually runs.
        let uc = UseCase::parametric(0.5, 2, pseudo_model(64, 10, 10));
        let zero = Scenario::new(uc.clone(), crate::SystemConfig::ncpu(0));
        let one = Scenario::new(uc, crate::SystemConfig::ncpu(1));
        assert_eq!(canonical_bytes(&zero), canonical_bytes(&one));
        assert_eq!(zero.cache_key(), one.cache_key());
        let report = |s: &Scenario| format!("{:?}", Lockstep.report(s));
        assert_eq!(report(&zero), report(&one));
    }

    /// The shrinking property suite: non-semantic knobs never move the
    /// key; every semantic knob does.
    #[test]
    fn canonical_key_separates_semantic_from_non_semantic_fields() {
        Prop::new("canonical_key_separates_fields").cases(256).run(draw, |d| {
            let base = build(d);
            let key = base.cache_key();
            // Rebuilding from the same draw is stable.
            prop_assert_eq!(build(d).cache_key(), key);
            // Non-semantic: trace level (any), default-filled operating
            // point when the draw left it at nominal.
            prop_assert_eq!(build(d).with_trace(TraceLevel::Full).cache_key(), key);
            prop_assert_eq!(build(d).with_trace(TraceLevel::Off).cache_key(), key);
            if base.operating_point().is_none() {
                prop_assert_eq!(build(d).with_operating_point(1.0).cache_key(), key);
            }
            // Semantic: mutate each field of the draw in a way that must
            // change the canonical bytes, and demand a fresh key.
            let ((frac, batch, cores, dma, setup), (op, seed, naive, pipelining), topo) = *d;
            let (role, split, core0_op) = topo;
            let w = (frac, batch, cores, dma, setup);
            let e = (op, seed, naive, pipelining);
            let mutations: Vec<(&str, Draw)> = vec![
                ("cpu_fraction", ((if frac >= 9 { 1 } else { frac + 1 }, batch, cores, dma, setup), e, topo)),
                ("batch", ((frac, batch + 1, cores, dma, setup), e, topo)),
                ("cores", ((frac, batch, if cores >= 4 { 1 } else { cores + 1 }, dma, setup), e, topo)),
                ("dma_bytes", ((frac, batch, cores, dma + 1, setup), e, topo)),
                ("dma_setup", ((frac, batch, cores, dma, setup + 1), e, topo)),
                ("operating_point", (w, (if op >= 9 { 1 } else { op + 1 }, seed, naive, pipelining), topo)),
                ("fault_seed", (w, (op, seed + 1, naive, pipelining), topo)),
                ("switch_policy", (w, (op, seed, !naive, pipelining), topo)),
                ("layer_pipelining", (w, (op, seed, naive, !pipelining), topo)),
                ("topo_role", (w, e, ((role + 1) % 3, split, core0_op))),
                ("topo_banks", (w, e, (role, !split, core0_op))),
                ("topo_core0_op", (w, e, (role, split, (core0_op % 4) + 1))),
            ];
            for (what, mutated) in &mutations {
                prop_assert_ne!(
                    build(mutated).cache_key(),
                    key,
                    "semantic field {} changed but the key did not",
                    what
                );
            }
            // The canonical bytes start with the version tag.
            prop_assert!(canonical_bytes(&base).starts_with(CANONICAL_TAG));
            Ok(())
        });
    }

    /// The key resumes hashing from the use case's cached prefix; it
    /// must stay the hash of the whole encoding on every draw, for a
    /// second key from the same use case (the prefix then comes from
    /// the cache), and for use cases with staged items and further
    /// workloads.
    #[test]
    fn cache_key_is_the_hash_of_the_canonical_bytes() {
        let whole = |s: &Scenario| fnv1a_64(&canonical_bytes(s));
        Prop::new("cache_key_is_the_hash_of_the_canonical_bytes").cases(256).run(draw, |d| {
            let s = build(d);
            prop_assert_eq!(s.cache_key(), whole(&s));
            let sibling = Scenario::new(s.usecase().clone(), crate::SystemConfig::Heterogeneous);
            prop_assert_eq!(sibling.cache_key(), whole(&sibling));
            prop_assert_eq!(s.cache_key(), whole(&s));
            Ok(())
        });
        let image = UseCase::image(2, 1, 1);
        let motion = UseCase::motion(2, 1, 1);
        let both = vec![image.clone(), motion.clone()];
        for s in [
            Scenario::new(image.clone(), crate::SystemConfig::ncpu(2)),
            Scenario::new(motion, crate::SystemConfig::ncpu(1)).with_operating_point(0.8),
            Scenario::independent(both, Topology::homogeneous(2)).expect("fits"),
            Scenario::new(image.with_repeated_items(2), crate::SystemConfig::ncpu(2)),
        ] {
            assert_eq!(s.cache_key(), whole(&s));
            assert_eq!(s.cache_key(), whole(&s), "from the cached prefix");
        }
    }

    #[test]
    fn fault_plan_knobs_are_all_semantic() {
        let base = build(&((5, 4, 2, 4, 16), (2, 7, false, true), (0, false, 0)));
        let key = base.cache_key();
        let plans = [
            FaultPlan { seed: 8, sram_flip_ppm: 100, ..FaultPlan::none() },
            FaultPlan { seed: 7, sram_flip_ppm: 101, ..FaultPlan::none() },
            FaultPlan { seed: 7, sram_flip_ppm: 100, dma_stall_ppm: 1, dma_stall_cycles: 4, ..FaultPlan::none() },
            FaultPlan { seed: 7, sram_flip_ppm: 100, watchdog_cycles: 9, ..FaultPlan::none() },
            FaultPlan { seed: 7, sram_flip_ppm: 100, max_retries: 2, ..FaultPlan::none() },
            FaultPlan { seed: 7, sram_flip_ppm: 100, quarantine_after: 3, ..FaultPlan::none() },
        ];
        for plan in plans {
            assert_ne!(
                build(&((5, 4, 2, 4, 16), (2, 7, false, true), (0, false, 0)))
                    .with_faults(plan)
                    .cache_key(),
                key,
                "fault knob change must move the key: {plan:?}"
            );
        }
    }

    #[test]
    fn different_workload_kinds_never_collide() {
        let parametric = Scenario::new(
            UseCase::parametric(0.5, 2, pseudo_model(64, 10, 10)),
            crate::SystemConfig::ncpu(2),
        );
        let hetero = Scenario::new(
            UseCase::parametric(0.5, 2, pseudo_model(64, 10, 10)),
            crate::SystemConfig::Heterogeneous,
        );
        assert_ne!(parametric.cache_key(), hetero.cache_key(), "system shape is semantic");
    }

    /// An independent scenario keys apart from each of its workloads run
    /// alone, from its workloads in the other order, and from a scenario
    /// whose second workload differs.
    #[test]
    fn independent_workloads_are_semantic_in_order() {
        let p = |fraction| UseCase::parametric(fraction, 2, pseudo_model(64, 10, 10));
        let two = Topology::homogeneous(2);
        let independent = |a, b| {
            Scenario::independent(vec![a, b], two.clone()).expect("fits").cache_key()
        };
        let key = independent(p(0.3), p(0.6));
        for solo in [p(0.3), p(0.6)] {
            assert_ne!(key, Scenario::new(solo, crate::SystemConfig::ncpu(2)).cache_key());
        }
        assert_ne!(key, independent(p(0.6), p(0.3)), "workload order is semantic");
        assert_ne!(key, independent(p(0.3), p(0.7)), "every workload is encoded");
        assert_eq!(key, independent(p(0.3), p(0.6)));
    }

    #[test]
    fn cache_keys_are_pinned_across_encoder_rewrites() {
        // The key hashes the model artifact bytes, so these pins hold
        // the CRC-32 and `BitVec::to_bytes` encoders to the exact bytes
        // the bit-at-a-time versions produced; a persisted cache must
        // never see its keys move under an optimization.
        let model = ncpu_bnn::io::to_bytes(&pseudo_model(784, 100, 10));
        assert_eq!(fnv1a_64(&model), 0x9e92_1245_03ce_db20);
        let image = Scenario::new(UseCase::image(4, 2, 1), crate::SystemConfig::ncpu(2));
        assert_eq!(image.cache_key(), 0x0ca7_7b31_b07d_83e2);
        let motion = Scenario::new(UseCase::motion(2, 4, 2), crate::SystemConfig::ncpu(1))
            .with_operating_point(0.8);
        assert_eq!(motion.cache_key(), 0x0bd0_acde_6945_fcac);
        let workloads = vec![image.usecase().clone(), motion.usecase().clone()];
        let both = Scenario::independent(workloads, Topology::homogeneous(2)).expect("fits");
        assert_eq!(both.cache_key(), 0x9414_8716_d4b1_de75);
        let parametric = Scenario::new(
            UseCase::parametric(0.5, 8, pseudo_model(64, 10, 10)),
            crate::SystemConfig::ncpu(2),
        );
        assert_eq!(parametric.cache_key(), 0x87d2_be67_242d_e493);
        let hetero = Scenario::new(
            UseCase::parametric(0.5, 2, pseudo_model(784, 100, 10)),
            crate::SystemConfig::Heterogeneous,
        );
        assert_eq!(hetero.cache_key(), 0xe33c_f482_2753_7c56);
    }
}
