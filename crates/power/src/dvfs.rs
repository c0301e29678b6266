//! Voltage–frequency model fitted to the paper's measured curve.

/// Which physical core (and mode) a frequency query refers to.
///
/// The NCPU's added multiplexers lengthen the critical path slightly:
/// −4.1% fmax in BNN mode and −5.2% in CPU mode versus the standalone
/// cores (paper Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Standalone 5-stage RISC-V core.
    StandaloneCpu,
    /// Standalone BNN accelerator.
    StandaloneBnn,
    /// NCPU operating in CPU mode.
    NcpuCpuMode,
    /// NCPU operating in BNN mode.
    NcpuBnnMode,
}

impl CoreKind {
    /// Critical-path fmax factor relative to the standalone equivalent.
    pub const fn fmax_factor(self) -> f64 {
        match self {
            CoreKind::StandaloneCpu | CoreKind::StandaloneBnn => 1.0,
            CoreKind::NcpuCpuMode => 1.0 - 0.052,
            CoreKind::NcpuBnnMode => 1.0 - 0.041,
        }
    }
}

/// Frequency–voltage curve: `f(V) = K · (V − VT)^α / V`.
///
/// The exponent is an *empirical fit to the paper's measured Fig. 9(b)*
/// (960 MHz at 1 V, ≈18 MHz at 0.4 V, ≈2× from 0.4 V to 0.45 V), not a
/// textbook alpha-power value: near-threshold silicon measurements flatten
/// more gently than the analytical α≈1.3–2 law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dvfs {
    /// Fitted threshold voltage in volts.
    pub vt: f64,
    /// Fitted curvature exponent.
    pub alpha: f64,
    /// Scale constant in Hz (calibrated at 1 V).
    pub k_hz: f64,
    /// Minimum SRAM operating voltage; below this the SRAM rail stays at
    /// `sram_vmin` while the logic rail keeps scaling (Section VI-C).
    pub sram_vmin: f64,
}

impl Default for Dvfs {
    fn default() -> Dvfs {
        let vt = 0.20;
        let alpha = 3.6;
        // Calibrate K so the standalone cores reach 960 MHz at 1.0 V.
        let shape_1v = (1.0f64 - vt).powf(alpha) / 1.0;
        Dvfs { vt, alpha, k_hz: 960.0e6 / shape_1v, sram_vmin: 0.55 }
    }
}

impl Dvfs {
    /// Operating frequency at `v` volts for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not within the validated 0.4–1.1 V range.
    pub fn freq_hz(&self, v: f64, kind: CoreKind) -> f64 {
        assert!((0.4..=1.1).contains(&v), "voltage {v} outside validated range");
        self.k_hz * (v - self.vt).powf(self.alpha) / v * kind.fmax_factor()
    }

    /// The voltage the SRAM rail actually sees when the logic rail is `v`.
    pub fn sram_voltage(&self, v: f64) -> f64 {
        v.max(self.sram_vmin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_anchors() {
        let d = Dvfs::default();
        let f1 = d.freq_hz(1.0, CoreKind::StandaloneBnn);
        assert!((f1 - 960.0e6).abs() < 1.0, "960 MHz at 1 V by construction");
        let f04 = d.freq_hz(0.4, CoreKind::StandaloneBnn);
        assert!(
            (14.0e6..22.0e6).contains(&f04),
            "≈18 MHz at 0.4 V, got {:.1} MHz",
            f04 / 1e6
        );
    }

    #[test]
    fn near_threshold_slope_matches_measurement() {
        // Fig. 9(b): roughly doubling from 0.4 V to 0.45 V.
        let d = Dvfs::default();
        let r = d.freq_hz(0.45, CoreKind::StandaloneCpu) / d.freq_hz(0.4, CoreKind::StandaloneCpu);
        assert!((1.7..2.4).contains(&r), "slope ratio {r}");
    }

    #[test]
    fn monotone_in_voltage() {
        let d = Dvfs::default();
        let mut prev = 0.0;
        for step in 0..=14 {
            let v = 0.4 + step as f64 * 0.05;
            let f = d.freq_hz(v, CoreKind::NcpuCpuMode);
            assert!(f > prev, "f must rise with voltage");
            prev = f;
        }
    }

    #[test]
    fn ncpu_pays_fmax_penalty() {
        let d = Dvfs::default();
        let base = d.freq_hz(1.0, CoreKind::StandaloneBnn);
        let bnn = d.freq_hz(1.0, CoreKind::NcpuBnnMode);
        let cpu = d.freq_hz(1.0, CoreKind::NcpuCpuMode);
        assert!(((base - bnn) / base - 0.041).abs() < 1e-9);
        assert!(((base - cpu) / base - 0.052).abs() < 1e-9);
    }

    #[test]
    fn sram_rail_floors_at_vmin() {
        let d = Dvfs::default();
        assert_eq!(d.sram_voltage(0.4), 0.55);
        assert_eq!(d.sram_voltage(0.7), 0.7);
    }

    #[test]
    #[should_panic(expected = "outside validated range")]
    fn voltage_range_enforced() {
        Dvfs::default().freq_hz(0.2, CoreKind::StandaloneCpu);
    }
}
