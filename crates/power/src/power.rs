//! Dynamic and leakage power, energy per cycle, and TOPS/W.

use crate::area::SystemAreas;
use crate::dvfs::{CoreKind, Dvfs};

/// The calibrated power model.
///
/// See the [crate documentation](crate) for the calibration anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Frequency model (shared by all cores on the die).
    pub dvfs: Dvfs,
    /// Switched capacitance of CPU-mode execution in nF
    /// (≈110 mW at 1 V, 960 MHz — Table II).
    pub cdyn_cpu_nf: f64,
    /// Switched capacitance of BNN-mode execution in nF at the 400-neuron
    /// (4 × 100) design point (241 mW at 1 V, 960 MHz — Fig. 7).
    pub cdyn_bnn_nf: f64,
    /// NCPU dynamic-power overhead in BNN mode (Fig. 11(a): +5.8%).
    pub ncpu_bnn_overhead: f64,
    /// NCPU dynamic-power overhead in CPU mode (Fig. 11: +14.7% average).
    pub ncpu_cpu_overhead: f64,
    /// Logic leakage density at 1 V, mW/mm².
    pub leak_logic_mw_per_mm2: f64,
    /// SRAM leakage density at 1 V, mW/mm².
    pub leak_sram_mw_per_mm2: f64,
    /// Leakage voltage slope: `P ∝ V · exp(λ(V − 1))`.
    pub leak_lambda: f64,
}

impl Default for PowerModel {
    fn default() -> PowerModel {
        PowerModel {
            dvfs: Dvfs::default(),
            cdyn_cpu_nf: 0.110,
            cdyn_bnn_nf: 0.251,
            ncpu_bnn_overhead: 0.058,
            ncpu_cpu_overhead: 0.147,
            leak_logic_mw_per_mm2: 8.0,
            leak_sram_mw_per_mm2: 1.5,
            leak_lambda: 1.5,
        }
    }
}

impl PowerModel {
    /// Voltage scaling factor of leakage relative to 1 V.
    fn leak_factor(&self, v: f64) -> f64 {
        v * (self.leak_lambda * (v - 1.0)).exp()
    }

    /// Leakage power of a silicon region at logic voltage `v`, honouring
    /// the SRAM rail's Vmin floor (the SRAM rail stops at 0.55 V while the
    /// logic rail keeps scaling, as the chip measurement did).
    pub fn leakage_mw(&self, areas: &SystemAreas, v: f64) -> f64 {
        let v_sram = self.dvfs.sram_voltage(v);
        areas.logic_mm2 * self.leak_logic_mw_per_mm2 * self.leak_factor(v)
            + areas.sram_mm2 * self.leak_sram_mw_per_mm2 * self.leak_factor(v_sram)
    }

    /// Dynamic power of a core running flat out in the given mode at `v`,
    /// in mW. `activity` scales with workload intensity (1.0 = the
    /// benchmark conditions the model was calibrated at).
    pub fn dynamic_mw(&self, kind: CoreKind, v: f64, activity: f64) -> f64 {
        let f = self.dvfs.freq_hz(v, kind);
        let (c_nf, overhead) = match kind {
            CoreKind::StandaloneCpu => (self.cdyn_cpu_nf, 1.0),
            CoreKind::NcpuCpuMode => (self.cdyn_cpu_nf, 1.0 + self.ncpu_cpu_overhead),
            CoreKind::StandaloneBnn => (self.cdyn_bnn_nf, 1.0),
            CoreKind::NcpuBnnMode => (self.cdyn_bnn_nf, 1.0 + self.ncpu_bnn_overhead),
        };
        // P[mW] = C[nF] · V² · f[Hz] · 1e-6
        c_nf * v * v * f * 1.0e-6 * overhead * activity
    }

    /// Total power (dynamic + leakage over `areas`) in mW.
    pub fn total_mw(&self, kind: CoreKind, areas: &SystemAreas, v: f64, activity: f64) -> f64 {
        self.dynamic_mw(kind, v, activity) + self.leakage_mw(areas, v)
    }

    /// Energy per clock cycle in pJ (dynamic + leakage share).
    pub fn energy_per_cycle_pj(
        &self,
        kind: CoreKind,
        areas: &SystemAreas,
        v: f64,
        activity: f64,
    ) -> f64 {
        let f = self.dvfs.freq_hz(v, kind);
        self.total_mw(kind, areas, v, activity) / f * 1.0e9
    }

    /// BNN compute efficiency in TOPS/W: one ±1 MAC per neuron per cycle.
    ///
    /// At the chip's design point (400 neurons) this reproduces the
    /// paper's 1.6 TOPS/W at 1 V and 6.0 TOPS/W peak at 0.4 V.
    pub fn bnn_tops_per_watt(&self, v: f64, total_neurons: usize) -> f64 {
        // Leakage of one NCPU core at the 100-neuron design point.
        let areas = crate::area::AreaModel::default().ncpu_core(total_neurons / 4);
        let e_pj = self.energy_per_cycle_pj(CoreKind::NcpuBnnMode, &areas, v, 1.0);
        total_neurons as f64 / e_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AreaModel;

    fn grid() -> Vec<f64> {
        (0..=6).map(|i| 0.4 + 0.1 * i as f64).collect()
    }

    #[test]
    fn anchor_bnn_power_at_1v() {
        let pm = PowerModel::default();
        let p = pm.dynamic_mw(CoreKind::StandaloneBnn, 1.0, 1.0);
        assert!((p - 241.0).abs() < 2.0, "241 mW at 1 V, got {p}");
    }

    #[test]
    fn anchor_cpu_power_at_1v() {
        let pm = PowerModel::default();
        let p = pm.dynamic_mw(CoreKind::StandaloneCpu, 1.0, 1.0);
        assert!((100.0..115.0).contains(&p), "≈106-112 mW at 1 V, got {p}");
    }

    #[test]
    fn anchor_milliwatt_class_at_0v4() {
        let pm = PowerModel::default();
        let areas = AreaModel::default().ncpu_core(100);
        let bnn = pm.total_mw(CoreKind::NcpuBnnMode, &areas, 0.4, 1.0);
        let cpu = pm.total_mw(CoreKind::NcpuCpuMode, &areas, 0.4, 1.0);
        assert!((0.5..2.5).contains(&bnn), "≈1.2 mW BNN at 0.4 V, got {bnn}");
        assert!((0.3..1.8).contains(&cpu), "≈0.8 mW CPU at 0.4 V, got {cpu}");
        assert!(bnn > cpu, "BNN inference draws more than CPU mode");
    }

    #[test]
    fn cpu_minimum_energy_point_near_half_volt() {
        let pm = PowerModel::default();
        let areas = AreaModel::default().ncpu_core(100);
        let energies: Vec<f64> = grid()
            .iter()
            .map(|&v| pm.energy_per_cycle_pj(CoreKind::NcpuCpuMode, &areas, v, 1.0))
            .collect();
        let argmin = energies
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        let v_mep = grid()[argmin];
        assert!((0.45..=0.55).contains(&v_mep), "CPU MEP at ≈0.5 V, got {v_mep}");
    }

    #[test]
    fn bnn_energy_monotone_down_to_0v4() {
        // Fig. 9(c): no BNN MEP before malfunction below 0.4 V.
        let pm = PowerModel::default();
        let areas = AreaModel::default().ncpu_core(100);
        let e04 = pm.energy_per_cycle_pj(CoreKind::NcpuBnnMode, &areas, 0.4, 1.0);
        for v in [0.5, 0.6, 0.8, 1.0] {
            let e = pm.energy_per_cycle_pj(CoreKind::NcpuBnnMode, &areas, v, 1.0);
            assert!(e > e04, "BNN energy at {v} V must exceed the 0.4 V point");
        }
    }

    #[test]
    fn anchor_tops_per_watt() {
        let pm = PowerModel::default();
        let at_1v = pm.bnn_tops_per_watt(1.0, 400);
        let at_0v4 = pm.bnn_tops_per_watt(0.4, 400);
        assert!((1.3..1.9).contains(&at_1v), "≈1.6 TOPS/W at 1 V, got {at_1v}");
        assert!((5.0..7.0).contains(&at_0v4), "≈6.0 TOPS/W at 0.4 V, got {at_0v4}");
    }

    #[test]
    fn leakage_respects_sram_vmin() {
        let pm = PowerModel::default();
        let sram_only = SystemAreas { logic_mm2: 0.0, sram_mm2: 1.0 };
        let l04 = pm.leakage_mw(&sram_only, 0.4);
        let l055 = pm.leakage_mw(&sram_only, 0.55);
        assert!((l04 - l055).abs() < 1e-12, "SRAM rail pinned at 0.55 V");
        let logic_only = SystemAreas { logic_mm2: 1.0, sram_mm2: 0.0 };
        assert!(pm.leakage_mw(&logic_only, 0.4) < pm.leakage_mw(&logic_only, 0.55));
    }

    #[test]
    fn ncpu_overheads_applied() {
        let pm = PowerModel::default();
        let base = pm.dynamic_mw(CoreKind::StandaloneBnn, 0.8, 1.0);
        let ncpu = pm.dynamic_mw(CoreKind::NcpuBnnMode, 0.8, 1.0);
        // +5.8% capacitance, −4.1% frequency.
        let expect = base * 1.058 * (1.0 - 0.041);
        assert!((ncpu - expect).abs() < 1e-9);
    }
}
