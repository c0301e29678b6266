//! Energy integration and power-trace synthesis over run reports.
//!
//! Converts the cycle-domain timelines of a [`RunReport`] into the paper's
//! power traces (Fig. 16) and energy comparisons (Fig. 12(b), the 74%
//! equivalent energy saving of Section VII-C).

use ncpu_power::{AreaModel, CoreKind, PowerModel, SystemAreas};
use ncpu_sim::PowerTrace;

use crate::report::RunReport;

/// Per-mode power lookup for one core role at a fixed voltage.
fn span_power_mw(pm: &PowerModel, role: &str, label: &str, v: f64, areas: &SystemAreas) -> f64 {
    let leak = pm.leakage_mw(areas, v);
    let kind = match (role.starts_with("ncpu"), label) {
        (true, "bnn") => Some(CoreKind::NcpuBnnMode),
        (true, _) => Some(CoreKind::NcpuCpuMode),
        (false, "bnn") => Some(CoreKind::StandaloneBnn),
        (false, _) => Some(CoreKind::StandaloneCpu),
    };
    match (kind, label) {
        (_, "switch") => leak, // reconfiguration: clocks gated, leakage only
        (Some(k), _) => pm.dynamic_mw(k, v, 1.0) + leak,
        (None, _) => leak,
    }
}

fn areas_for_role(am: &AreaModel, role: &str, neurons: usize) -> SystemAreas {
    // Roles are prefix-classed: "ncpu{c}" reconfigurable cores,
    // "bnn-accel"/"bnn{c}" fixed BNN silicon, anything else ("cpu",
    // "cpu{c}", "host") plain CPU silicon.
    if role.starts_with("ncpu") {
        am.ncpu_core(neurons)
    } else if role.starts_with("bnn") {
        am.bnn_core(neurons)
    } else {
        am.cpu_core()
    }
}

/// One core's power trace at voltage `v`: leakage over the makespan plus
/// dynamic power during active spans.
fn core_trace(
    core: &crate::report::CoreReport,
    makespan: u64,
    pm: &PowerModel,
    am: &AreaModel,
    neurons: usize,
    v: f64,
    bucket_cycles: u64,
) -> PowerTrace {
    let mut trace = PowerTrace::new(bucket_cycles);
    let areas = areas_for_role(am, &core.role, neurons);
    trace.add_span(0, makespan, pm.leakage_mw(&areas, v));
    for span in core.timeline.spans() {
        let p = span_power_mw(pm, &core.role, &span.label, v, &areas) - pm.leakage_mw(&areas, v);
        if p > 0.0 {
            trace.add_span(span.start, span.end, p);
        }
    }
    trace
}

/// Builds a per-core power trace of the run at voltage `v` (Fig. 16).
///
/// Returns one trace per core in report order; idle gaps draw leakage
/// only.
pub fn power_traces(
    report: &RunReport,
    pm: &PowerModel,
    am: &AreaModel,
    neurons: usize,
    v: f64,
    bucket_cycles: u64,
) -> Vec<PowerTrace> {
    report
        .cores
        .iter()
        .map(|core| core_trace(core, report.makespan, pm, am, neurons, v, bucket_cycles))
        .collect()
}

/// Total energy of the run in µJ at voltage `v`.
pub fn run_energy_uj(
    report: &RunReport,
    pm: &PowerModel,
    am: &AreaModel,
    neurons: usize,
    v: f64,
) -> f64 {
    let f = pm.dvfs.freq_hz(v, CoreKind::StandaloneCpu);
    let traces = power_traces(report, pm, am, neurons, v, 1024);
    let mw_cycles: f64 = traces.iter().map(PowerTrace::total_energy_mw_cycles).sum();
    // mW · cycles / (cycles/s) = mJ; ×1e3 = µJ.
    mw_cycles / f * 1.0e3
}

/// Total energy of the run in µJ with each core integrated at its own
/// DVFS operating point from `topo` (cores without a per-core point use
/// `scenario_volts`). With a homogeneous topology this equals
/// [`run_energy_uj`] at `scenario_volts` exactly.
///
/// # Panics
///
/// Panics if the report's core count does not match the topology's.
pub fn run_energy_uj_topo(
    report: &RunReport,
    pm: &PowerModel,
    am: &AreaModel,
    neurons: usize,
    scenario_volts: f64,
    topo: &crate::topology::Topology,
) -> f64 {
    assert_eq!(
        report.cores.len(),
        topo.cores(),
        "the report and topology must describe the same fleet"
    );
    report
        .cores
        .iter()
        .zip(topo.core_volts(scenario_volts))
        .map(|(core, v)| {
            let f = pm.dvfs.freq_hz(v, CoreKind::StandaloneCpu);
            let trace = core_trace(core, report.makespan, pm, am, neurons, v, 1024);
            trace.total_energy_mw_cycles() / f * 1.0e3
        })
        .sum()
}

/// The paper's performance→energy conversion (Section VII-C): scale the
/// faster system's voltage down until its latency matches the baseline's,
/// then compare energies. Returns the fractional energy saving.
///
/// # Panics
///
/// Panics if `faster` is not actually faster.
pub fn equivalent_energy_saving(
    faster: &RunReport,
    baseline: &RunReport,
    pm: &PowerModel,
    am: &AreaModel,
    neurons: usize,
    v_nominal: f64,
) -> f64 {
    assert!(
        faster.makespan < baseline.makespan,
        "voltage scaling needs latency headroom"
    );
    let f_nom = pm.dvfs.freq_hz(v_nominal, CoreKind::StandaloneCpu);
    // Need f(v) such that faster.makespan / f(v) == baseline.makespan / f_nom.
    let target = f_nom * faster.makespan as f64 / baseline.makespan as f64;
    // Bisect the monotone f(V) curve.
    let (mut lo, mut hi) = (0.4f64, v_nominal);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if pm.dvfs.freq_hz(mid, CoreKind::StandaloneCpu) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let v_scaled = 0.5 * (lo + hi);
    let e_base = run_energy_uj(baseline, pm, am, neurons, v_nominal);
    let e_fast = run_energy_uj(faster, pm, am, neurons, v_scaled);
    1.0 - e_fast / e_base
}

/// Convenience: energy of a single-core task of `cycles` cycles in mode
/// `kind` at voltage `v`, in µJ (used by Table I).
pub fn task_energy_uj(
    pm: &PowerModel,
    kind: CoreKind,
    areas: &SystemAreas,
    cycles: u64,
    v: f64,
) -> f64 {
    let e_pj = pm.energy_per_cycle_pj(kind, areas, v, 1.0);
    e_pj * cycles as f64 * 1.0e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CoreReport;
    use ncpu_sim::stats::Timeline;

    fn fake_report(makespan: u64, busy: u64, role: &str, label: &str) -> RunReport {
        let mut t = Timeline::new();
        t.record(label, 0, busy);
        RunReport {
            config: "test".into(),
            makespan,
            cores: vec![CoreReport { role: role.into(), timeline: t, busy_cycles: busy }],
            predictions: vec![],
            labels: vec![],
            metrics: ncpu_obs::MetricsReport::new(),
        }
    }

    #[test]
    fn traces_cover_the_makespan() {
        let r = fake_report(10_000, 6_000, "ncpu0", "cpu");
        let pm = PowerModel::default();
        let am = AreaModel::default();
        let traces = power_traces(&r, &pm, &am, 100, 1.0, 1000);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].len(), 10);
        let s = traces[0].samples();
        assert!(s[0] > s[9], "busy buckets draw more than idle ones");
    }

    #[test]
    fn bnn_spans_draw_more_than_cpu_spans() {
        let pm = PowerModel::default();
        let am = AreaModel::default();
        let cpu = run_energy_uj(&fake_report(1000, 1000, "ncpu0", "cpu"), &pm, &am, 100, 1.0);
        let bnn = run_energy_uj(&fake_report(1000, 1000, "ncpu0", "bnn"), &pm, &am, 100, 1.0);
        assert!(bnn > cpu);
    }

    #[test]
    fn topo_energy_matches_flat_energy_on_homogeneous_fleets() {
        use crate::topology::Topology;
        let r = fake_report(10_000, 6_000, "ncpu0", "cpu");
        let pm = PowerModel::default();
        let am = AreaModel::default();
        let flat = run_energy_uj(&r, &pm, &am, 100, 0.9);
        let topo = run_energy_uj_topo(&r, &pm, &am, 100, 0.9, &Topology::homogeneous(1));
        assert!((flat - topo).abs() < 1e-12, "flat {flat} vs topo {topo}");
    }

    #[test]
    fn undervolted_cores_cut_the_fleet_energy() {
        use crate::topology::{CoreSpec, Topology};
        let mut r = fake_report(10_000, 6_000, "ncpu0", "cpu");
        r.cores.push(r.cores[0].clone());
        r.cores[1].role = "ncpu1".into();
        let pm = PowerModel::default();
        let am = AreaModel::default();
        let nominal = run_energy_uj_topo(&r, &pm, &am, 100, 1.0, &Topology::homogeneous(2));
        let little = CoreSpec { operating_point: Some(0.7), ..CoreSpec::reconfigurable() };
        let specs = vec![CoreSpec::reconfigurable(), little];
        let topo = Topology::from_specs(specs, vec![crate::fabric::L2_BYTES]).unwrap();
        let mixed = run_energy_uj_topo(&r, &pm, &am, 100, 1.0, &topo);
        assert!(mixed < nominal, "mixed {mixed} vs nominal {nominal}");
    }

    #[test]
    fn equivalent_saving_exceeds_latency_gain() {
        // A 40% latency win converts into a larger energy win because
        // voltage drops quadratically into the dynamic power.
        let pm = PowerModel::default();
        let am = AreaModel::default();
        let fast = fake_report(6_000, 6_000, "ncpu0", "cpu");
        let slow = fake_report(10_000, 10_000, "cpu", "cpu");
        let saving = equivalent_energy_saving(&fast, &slow, &pm, &am, 100, 1.0);
        assert!(saving > 0.4, "saving {saving}");
        assert!(saving < 1.0);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn equivalent_saving_requires_speedup() {
        let pm = PowerModel::default();
        let am = AreaModel::default();
        let a = fake_report(10_000, 1_000, "cpu", "cpu");
        let b = fake_report(6_000, 1_000, "cpu", "cpu");
        equivalent_energy_saving(&a, &b, &pm, &am, 100, 1.0);
    }
}
