//! Golden values: the paper's headline numbers, pinned with documented
//! tolerances so a regression in any layer (pipeline timing, accelerator
//! scheduling, power model) trips a named assertion instead of silently
//! drifting. Complements `paper_claims.rs`, which asserts the *relative*
//! claims; this file pins the *absolute* bands the reproduction currently
//! achieves.
//!
//! Tolerances: end-to-end cycle counts are exact in this simulator, so the
//! bands below are not measurement noise — they are the slack between the
//! paper's silicon numbers and the reproduction's model (see
//! EXPERIMENTS.md for the per-figure record). Each band is wide enough to
//! survive benign refactors (e.g. an RNG swap re-ordering training) and
//! narrow enough to catch a broken scheduler or power curve.

use ncpu::prelude::*;

fn pseudo_image_model(neurons: usize) -> BnnModel {
    let topo = Topology::paper(784, neurons, 10);
    let layers = (0..4)
        .map(|l| {
            let n_in = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..neurons)
                .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 13 + j * 3 + l) % 5 < 2)))
                .collect();
            ncpu::bnn::BnnLayer::new(rows, vec![0; neurons])
        })
        .collect();
    BnnModel::new(topo, layers)
}

/// Paper abstract / Figs. 13–14: two NCPUs beat the heterogeneous
/// baseline by 41.2% at a 70% CPU fraction (batch 2), and the gain decays
/// with batch size as the baseline's accelerator pipelining catches up.
/// Pinned: > 37% at batch 2 (within ~4 points of silicon), and a floor of
/// 28% out to batch 10. (The paper keeps > 37% at batch 100; our
/// accelerator model overlaps baseline CPU/BNN phases more aggressively
/// than the silicon, so the large-batch tail sits lower — the fig14
/// experiment records 28.4% at batch 100.)
#[test]
fn golden_dual_ncpu_speedup_exceeds_37pct_at_batch_2() {
    let model = pseudo_image_model(100);
    let improvement_at = |batch: usize| {
        let uc = UseCase::parametric(0.7, batch, model.clone());
        let base = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous));
        let dual = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(2)));
        dual.improvement_over(&base)
    };
    let at2 = improvement_at(2);
    assert!(
        at2 > 0.37,
        "batch 2: dual-NCPU improvement {at2:.3} dropped below the pinned \
         0.37 floor (paper: 0.412)"
    );
    assert!(
        at2 < 0.50,
        "batch 2: improvement {at2:.3} above 0.50 — the baseline model \
         likely broke (paper: 0.412)"
    );
    let at10 = improvement_at(10);
    assert!(
        (0.28..=at2).contains(&at10),
        "batch 10: improvement {at10:.3} outside [0.28, {at2:.3}] — the \
         gain must decay with batch but hold a ≥28% floor"
    );
}

/// Table IV / §VI: the reconfigurable cores sustain ≈99.3% utilization
/// while the heterogeneous baseline leaves the CPU at ≈80.2% and the
/// accelerator at ≈39.4%. Measured at the table4 experiment's operating
/// point (parametric workload at the paper's 76% CPU/BNN balance, batch
/// 2), where the reproduction records NCPU 100%, CPU 85.9%, accelerator
/// 27.2%. Pinned: NCPU ≥ 0.99 exactly as claimed; baseline CPU in
/// (0.60, 0.95) around the paper's 0.802; accelerator in (0.15, 0.50)
/// around the paper's 0.394 (lower here because our modeled array
/// outruns the paper's silicon relative to the CPU — see fig15's note).
#[test]
fn golden_utilization_ncpu_99pct_vs_starved_baseline() {
    let model = pseudo_image_model(100);
    let uc = UseCase::parametric(0.76, 2, model);

    let dual = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(2)));
    for core in &dual.cores {
        let util = core.utilization(dual.makespan);
        assert!(
            util >= 0.99,
            "{}: utilization {util:.4} below the pinned 0.99 (paper: 0.993)",
            core.role
        );
    }

    let base = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous));
    let util_of = |role: &str| {
        base.cores
            .iter()
            .find(|c| c.role == role)
            .unwrap_or_else(|| panic!("baseline report has a `{role}` core"))
            .utilization(base.makespan)
    };
    let cpu = util_of("cpu");
    let accel = util_of("bnn-accel");
    assert!(
        (0.60..0.95).contains(&cpu),
        "baseline CPU utilization {cpu:.3} outside (0.60, 0.95) (paper: 0.802)"
    );
    assert!(
        (0.15..0.50).contains(&accel),
        "baseline accelerator utilization {accel:.3} outside (0.15, 0.50) (paper: 0.394)"
    );
    assert!(cpu > accel + 0.2, "the baseline must be CPU-bound: cpu {cpu:.3}, accel {accel:.3}");
}

/// Fig. 9 / §V: the CPU mode's minimum-energy point sits at ≈0.5 V.
/// Pinned: the argmin of energy-per-cycle over a 10 mV grid lands in
/// [0.45 V, 0.55 V] — ±50 mV around the paper's MEP, about the step
/// between adjacent DVFS operating points.
#[test]
fn golden_cpu_mode_mep_at_half_volt() {
    let pm = PowerModel::default();
    let areas = AreaModel::default().ncpu_core(100);
    let grid: Vec<f64> = (40..=100).map(|i| i as f64 / 100.0).collect();
    let (v_mep, e_mep) = grid
        .iter()
        .map(|&v| (v, pm.energy_per_cycle_pj(CoreKind::NcpuCpuMode, &areas, v, 1.0)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty grid");
    assert!(
        (0.45..=0.55).contains(&v_mep),
        "CPU-mode MEP at {v_mep} V (energy {e_mep:.2} pJ/cycle); paper pins ≈0.5 V"
    );
    // The curve must actually be a valley: nominal voltage costs more.
    let e_nominal = pm.energy_per_cycle_pj(CoreKind::NcpuCpuMode, &areas, 1.0, 1.0);
    assert!(
        e_nominal > 1.5 * e_mep,
        "energy at 1.0 V ({e_nominal:.2} pJ) should clearly exceed the MEP ({e_mep:.2} pJ)"
    );
}
