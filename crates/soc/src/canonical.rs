//! Content-addressed canonicalization of a [`Scenario`].
//!
//! The serve layer's result cache needs one key property: two scenarios
//! produce the same key **iff** every engine in the lockstep/event
//! equivalence class produces byte-identical reports for them. The
//! canonical encoding therefore covers exactly the semantic content of
//! a scenario — workload (model bytes, staged items, spin budget),
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
//! because every engine resolves them identically. The topology is
//! normalized through [`Scenario::topology`] the same way: an unset
//! topology and an explicit [`Topology::homogeneous`] of the scenario's
//! core count encode identically, and per-core operating points encode
//! as their *effective* voltage (an unset per-core point inherits the
//! scenario point), because that is exactly how every engine resolves
//! them.
//!
//! [`Topology::homogeneous`]: crate::topology::Topology::homogeneous
//!
//! The key itself is a 64-bit FNV-1a over the canonical bytes — the
//! same deterministic, dependency-free hash the testkit uses for
//! property seeds.

use crate::scenario::Scenario;
use crate::system::SystemConfig;
use crate::topology::SchedulerKind;
use crate::usecase::UseCaseKind;

/// Version tag leading the canonical encoding; bump when the layout
/// changes so stale persisted keys can never alias fresh ones.
/// `v2` added the fabric topology (roles, per-core DVFS, L2 banking,
/// scheduler) to the encoding.
pub const CANONICAL_TAG: &[u8] = b"ncpu-scenario-v2";

/// 64-bit FNV-1a over `bytes` — deterministic on every host, no
/// dependencies, good avalanche for cache keying.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The canonical byte encoding of `scenario` (see the module docs for
/// what is covered and what is deliberately excluded).
pub fn canonical_bytes(scenario: &Scenario) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(CANONICAL_TAG);

    // Workload: kind, spin budget, model artifact, staged items.
    let uc = scenario.usecase();
    out.push(match uc.kind() {
        UseCaseKind::Image => 0,
        UseCaseKind::Motion => 1,
        UseCaseKind::Parametric => 2,
        UseCaseKind::Deep => 3,
    });
    push_u64(&mut out, uc.spin_cycles());
    let model = ncpu_bnn::io::to_bytes(uc.model());
    push_u64(&mut out, model.len() as u64);
    out.extend_from_slice(&model);
    push_u64(&mut out, uc.items().len() as u64);
    for item in uc.items() {
        push_u64(&mut out, item.label as u64);
        push_u64(&mut out, item.staged.len() as u64);
        out.extend_from_slice(&item.staged);
    }

    // System shape.
    match scenario.system() {
        SystemConfig::Heterogeneous => {
            out.push(0);
            push_u64(&mut out, 0);
        }
        SystemConfig::Ncpu { cores } => {
            out.push(1);
            push_u64(&mut out, cores as u64);
        }
    }

    // Fabric parameters.
    let soc = scenario.soc();
    push_u32(&mut out, soc.dma_bytes_per_cycle);
    push_u64(&mut out, soc.dma_setup_cycles);
    out.push(match soc.switch_policy {
        ncpu_core::SwitchPolicy::ZeroLatency => 0,
        ncpu_core::SwitchPolicy::Naive => 1,
    });
    out.push(u8::from(soc.layer_pipelining));

    // Operating point, normalized: None and Some(1.0) encode the same.
    push_u64(&mut out, scenario.volts().to_bits());

    // Fault plan, every knob.
    let fault = scenario.fault();
    push_u64(&mut out, fault.seed);
    push_u32(&mut out, fault.sram_flip_ppm);
    push_u32(&mut out, fault.dma_stall_ppm);
    push_u64(&mut out, fault.dma_stall_cycles);
    push_u32(&mut out, fault.dma_truncate_ppm);
    push_u32(&mut out, fault.core_hang_ppm);
    push_u64(&mut out, fault.watchdog_cycles);
    push_u32(&mut out, fault.max_retries);
    push_u64(&mut out, fault.backoff_cycles);
    push_u32(&mut out, fault.quarantine_after);

    // Topology, resolved: an unset topology materializes as
    // `Topology::homogeneous(cores)`, so it encodes identically to the
    // explicit homogeneous default. Per-core operating points encode as
    // the *effective* voltage (unset inherits the scenario point) —
    // the normalization every engine applies.
    let topo = scenario.topology();
    let volts = scenario.volts();
    push_u64(&mut out, topo.cores() as u64);
    for spec in topo.specs() {
        out.push(spec.role.tag());
        push_u64(&mut out, spec.volts(volts).to_bits());
        push_u64(&mut out, spec.bank as u64);
    }
    push_u64(&mut out, topo.banks() as u64);
    for &width in topo.bank_bytes() {
        push_u64(&mut out, width as u64);
    }
    out.push(match topo.scheduler() {
        SchedulerKind::Static => 0,
        SchedulerKind::WorkStealing => 1,
    });

    out
}

/// [`fnv1a_64`] of [`canonical_bytes`] — the content-addressed cache
/// key (also available as [`Scenario::cache_key`]).
pub fn cache_key(scenario: &Scenario) -> u64 {
    fnv1a_64(&canonical_bytes(scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usecase::{pseudo_model, UseCase};
    use crate::{FaultPlan, SocConfig};
    use ncpu_core::SwitchPolicy;
    use ncpu_obs::TraceLevel;
    use ncpu_testkit::rng::Rng;
    use ncpu_testkit::{prop::Prop, prop_assert, prop_assert_eq, prop_assert_ne};

    /// Everything a generated parametric scenario is built from; small
    /// integers so shrinking stays meaningful. Grouped as three nested
    /// tuples (workload/fabric, environment, topology) to stay within
    /// the harness's tuple-shrinking arity.
    type Draw = ((u8, u8, u8, u8, u8), (u8, u64, bool, bool), (u8, bool, bool, u8));

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
                rng.gen_range(0..2u64) == 1, // work-stealing scheduler
                rng.gen_range(0..=4u8),      // core 0 DVFS point (0 = inherit)
            ),
        )
    }

    /// Materializes the topology third of a draw. Per-core points use
    /// the 0.46–0.49 V corner, disjoint from the scenario-level points
    /// (0.55–1.0 V), so a per-core mutation can never alias the
    /// inherited voltage.
    fn build_topology(cores: usize, t: &(u8, bool, bool, u8)) -> crate::topology::Topology {
        use crate::topology::{CoreRole, CoreSpec, SchedulerKind, Topology};
        let (role, split, steal, core0_op) = *t;
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
        let sched = if steal { SchedulerKind::WorkStealing } else { SchedulerKind::Static };
        Topology::from_specs(specs, bank_bytes, sched).expect("drawn topology is structural")
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
        let mut s = Scenario::new(uc, crate::SystemConfig::Ncpu { cores })
            .with_soc(soc)
            .with_faults(FaultPlan { seed, sram_flip_ppm: 100, ..FaultPlan::none() })
            .with_topology(build_topology(cores, &topo));
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
    fn unset_topology_hashes_like_the_explicit_homogeneous_default() {
        use crate::topology::Topology;
        let uc = UseCase::parametric(0.5, 2, pseudo_model(64, 10, 10));
        let unset = Scenario::new(uc.clone(), crate::SystemConfig::Ncpu { cores: 2 });
        let explicit = Scenario::new(uc, crate::SystemConfig::Ncpu { cores: 2 })
            .with_topology(Topology::homogeneous(2));
        assert_eq!(unset.cache_key(), explicit.cache_key());
        assert_eq!(canonical_bytes(&unset), canonical_bytes(&explicit));
    }

    #[test]
    fn trace_level_and_default_operating_point_are_non_semantic() {
        let mk = || build(&((5, 4, 2, 4, 16), (0, 7, false, true), (0, false, false, 0)));
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
            let (role, split, steal, core0_op) = topo;
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
                ("topo_role", (w, e, ((role + 1) % 3, split, steal, core0_op))),
                ("topo_banks", (w, e, (role, !split, steal, core0_op))),
                ("topo_scheduler", (w, e, (role, split, !steal, core0_op))),
                ("topo_core0_op", (w, e, (role, split, steal, (core0_op % 4) + 1))),
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

    #[test]
    fn fault_plan_knobs_are_all_semantic() {
        let base = build(&((5, 4, 2, 4, 16), (2, 7, false, true), (0, false, false, 0)));
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
                build(&((5, 4, 2, 4, 16), (2, 7, false, true), (0, false, false, 0)))
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
            crate::SystemConfig::Ncpu { cores: 2 },
        );
        let hetero = Scenario::new(
            UseCase::parametric(0.5, 2, pseudo_model(64, 10, 10)),
            crate::SystemConfig::Heterogeneous,
        );
        assert_ne!(parametric.cache_key(), hetero.cache_key(), "system shape is semantic");
    }

    #[test]
    fn cache_keys_are_pinned_across_encoder_rewrites() {
        // The key hashes the model artifact bytes, so these pins hold
        // the CRC-32 and `BitVec::to_bytes` encoders to the exact bytes
        // the bit-at-a-time versions produced; a persisted cache must
        // never see its keys move under an optimization.
        let model = ncpu_bnn::io::to_bytes(&pseudo_model(784, 100, 10));
        assert_eq!(fnv1a_64(&model), 0x9e92_1245_03ce_db20);
        let image = Scenario::new(UseCase::image(4, 2, 1), crate::SystemConfig::Ncpu { cores: 2 });
        assert_eq!(image.cache_key(), 0x0ca7_7b31_b07d_83e2);
        let motion = Scenario::new(UseCase::motion(2, 4, 2), crate::SystemConfig::Ncpu { cores: 1 })
            .with_operating_point(0.8);
        assert_eq!(motion.cache_key(), 0x0bd0_acde_6945_fcac);
        let parametric = Scenario::new(
            UseCase::parametric(0.5, 8, pseudo_model(64, 10, 10)),
            crate::SystemConfig::Ncpu { cores: 2 },
        );
        assert_eq!(parametric.cache_key(), 0x87d2_be67_242d_e493);
        let hetero = Scenario::new(
            UseCase::parametric(0.5, 2, pseudo_model(784, 100, 10)),
            crate::SystemConfig::Heterogeneous,
        );
        assert_eq!(hetero.cache_key(), 0xe33c_f482_2753_7c56);
    }
}
