//! Typed fabric topologies: per-core roles, per-core DVFS points, and
//! asymmetric L2 banking.
//!
//! The paper's fleet is N identical reconfigurable cores; this module
//! generalizes that to a [`Topology`] — one [`CoreSpec`] per core plus a
//! shared L2 bank map — which is the whole description of an NCPU
//! system ([`crate::SystemConfig::Ncpu`]). [`Topology::homogeneous`]
//! (spelled [`crate::SystemConfig::ncpu`]) is the byte-identical
//! default: every engine that receives it produces exactly the reports
//! it produced before topologies existed.
//!
//! # Dispatch plan
//!
//! Items are placed upfront, round-robin over the item-capable cores in
//! core-id order ([`Topology::item_cores`]), which on a homogeneous
//! fleet is exactly the historical `item i → core i % N`; with several
//! workloads each one takes every *W*-th of those cores. The NCPU item
//! ledger owns that rule and both item clocks consume it, so the
//! lockstep/event byte-identity proof carries over to every topology
//! unchanged: the engines never make a placement decision of their own.
//!
//! # Roles
//!
//! * `Reconfigurable` cores run whole items (CPU phase + BNN phase) —
//!   the only item-capable role.
//! * `CpuOnly` / `BnnOnly` cores never receive items from the plan;
//!   they contribute area and leakage (and, for `BnnOnly`, deep-engine
//!   segment placement) but stay idle in the item engines.
//!
//! The deep body maps segments onto BNN-capable cores
//! (`Reconfigurable` or `BnnOnly`) in core-id order.

/// What a core can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRole {
    /// The paper's NCPU core: reconfigures between CPU and BNN mode,
    /// runs whole items.
    Reconfigurable,
    /// A fixed scalar core: control/CPU phases only, never items.
    CpuOnly,
    /// A fixed BNN array: inference phases only; eligible for deep
    /// segment placement but never whole items.
    BnnOnly,
}

impl CoreRole {
    /// Stable single-letter tag used in config strings and canonical
    /// encodings.
    pub const fn tag(self) -> u8 {
        match self {
            CoreRole::Reconfigurable => 0,
            CoreRole::CpuOnly => 1,
            CoreRole::BnnOnly => 2,
        }
    }
}

/// One core's slot in the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSpec {
    /// What the core can execute.
    pub role: CoreRole,
    /// Per-core DVFS operating point in volts; `None` inherits the
    /// scenario-level point (or the nominal 1.0 V). Affects energy
    /// post-processing only — cycle timing stays in one clock domain,
    /// like the scenario-level point — so it never enters an item's
    /// timing key.
    pub operating_point: Option<f64>,
    /// Which L2 bank the core's traffic arbitrates in.
    pub bank: usize,
}

impl CoreSpec {
    /// The default reconfigurable spec (bank 0, inherited voltage).
    pub const fn reconfigurable() -> CoreSpec {
        CoreSpec { role: CoreRole::Reconfigurable, operating_point: None, bank: 0 }
    }

    /// The voltage this core runs at, given the scenario-level volts.
    pub fn volts(&self, scenario_volts: f64) -> f64 {
        self.operating_point.unwrap_or(scenario_volts)
    }
}

/// A complete fabric topology: one spec per core and the L2 bank
/// widths.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    specs: Vec<CoreSpec>,
    bank_bytes: Vec<usize>,
}

impl Topology {
    /// The byte-identical default: `n` reconfigurable cores (at least
    /// one) at the inherited voltage sharing one full-width L2 bank.
    /// Every engine reproduces its pre-topology output on it exactly.
    pub fn homogeneous(n: usize) -> Topology {
        Topology {
            specs: vec![CoreSpec::reconfigurable(); n.max(1)],
            bank_bytes: vec![crate::fabric::L2_BYTES],
        }
    }

    /// Builds a topology from explicit core specs and bank widths.
    ///
    /// Validation is structural: at least one core, at least one bank,
    /// every spec's bank id in range, positive bank widths that fit in
    /// the shared L2, and every explicit per-core operating point
    /// inside the DVFS model's validated 0.4–1.1 V window (the same
    /// window [`ncpu_power::Dvfs::freq_hz`] enforces by panicking).
    /// Role feasibility (e.g. "an item workload needs a reconfigurable
    /// core") is checked at the engine boundary, not here, because it
    /// depends on the workload.
    pub fn from_specs(specs: Vec<CoreSpec>, bank_bytes: Vec<usize>) -> Result<Topology, String> {
        if specs.is_empty() {
            return Err("topology: at least one core".to_string());
        }
        if bank_bytes.is_empty() {
            return Err("topology: at least one L2 bank".to_string());
        }
        if bank_bytes.contains(&0) {
            return Err("topology: bank widths must be positive".to_string());
        }
        let total: usize = bank_bytes.iter().sum();
        if total > crate::fabric::L2_BYTES {
            return Err(format!(
                "topology: bank widths sum to {total} bytes, over the {} byte shared L2",
                crate::fabric::L2_BYTES
            ));
        }
        for (c, spec) in specs.iter().enumerate() {
            if spec.bank >= bank_bytes.len() {
                return Err(format!(
                    "topology: core {c} assigned to bank {} of {}",
                    spec.bank,
                    bank_bytes.len()
                ));
            }
            if let Some(v) = spec.operating_point {
                if !(0.4..=1.1).contains(&v) {
                    return Err(format!(
                        "topology: core {c} operating point {v} V outside [0.4, 1.1]"
                    ));
                }
            }
        }
        Ok(Topology { specs, bank_bytes })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.specs.len()
    }

    /// One core's spec.
    pub fn spec(&self, core: usize) -> &CoreSpec {
        &self.specs[core]
    }

    /// All core specs, in core-id order.
    pub fn specs(&self) -> &[CoreSpec] {
        &self.specs
    }

    /// Per-bank byte widths.
    pub fn bank_bytes(&self) -> &[usize] {
        &self.bank_bytes
    }

    /// Number of L2 banks.
    pub fn banks(&self) -> usize {
        self.bank_bytes.len()
    }

    /// The bank core `c` arbitrates in.
    pub fn bank_of(&self, core: usize) -> usize {
        self.specs[core].bank
    }

    /// Whether core `c` can hold a BNN segment (deep segment placement).
    pub fn bnn_capable(&self, core: usize) -> bool {
        matches!(self.specs[core].role, CoreRole::Reconfigurable | CoreRole::BnnOnly)
    }

    /// Item-capable (reconfigurable) core ids in ascending order.
    pub fn item_cores(&self) -> Vec<usize> {
        (0..self.cores()).filter(|&c| self.specs[c].role == CoreRole::Reconfigurable).collect()
    }

    /// BNN-capable core ids in ascending order (deep segment slots).
    pub fn bnn_cores(&self) -> Vec<usize> {
        (0..self.cores()).filter(|&c| self.bnn_capable(c)).collect()
    }

    /// `true` iff this topology is exactly [`Topology::homogeneous`] of
    /// its core count — the byte-identity fast path.
    pub fn is_homogeneous(&self) -> bool {
        self == &Topology::homogeneous(self.cores())
    }

    /// The effective per-core voltages under a scenario-level
    /// `scenario_volts` (energy post-processing input).
    pub fn core_volts(&self, scenario_volts: f64) -> Vec<f64> {
        self.specs.iter().map(|s| s.volts(scenario_volts)).collect()
    }

    /// A one-line human tag: `4R`, `R+3R@0.7V`, `2R+2B`, …
    pub fn label(&self) -> String {
        let tags = self.specs.iter().map(|spec| {
            let mut tag = match spec.role {
                CoreRole::Reconfigurable => "R".to_string(),
                CoreRole::CpuOnly => "C".to_string(),
                CoreRole::BnnOnly => "B".to_string(),
            };
            if let Some(v) = spec.operating_point {
                tag.push_str(&format!("@{v}V"));
            }
            tag
        });
        // Fold runs of identical tags into `<count><tag>`.
        let mut folded: Vec<(String, usize)> = Vec::new();
        for tag in tags {
            match folded.last_mut() {
                Some((t, n)) if *t == tag => *n += 1,
                _ => folded.push((tag, 1)),
            }
        }
        folded
            .into_iter()
            .map(|(t, n)| if n == 1 { t } else { format!("{n}{t}") })
            .collect::<Vec<_>>()
            .join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(cores: usize) -> Topology {
        let mut specs = vec![CoreSpec::reconfigurable(); cores];
        specs[cores - 1].role = CoreRole::BnnOnly;
        Topology::from_specs(specs, vec![crate::fabric::L2_BYTES]).expect("valid mixed topology")
    }

    #[test]
    fn mixed_roles_exclude_fixed_function_cores_from_item_plans() {
        let topo = mixed(4);
        assert_eq!(topo.item_cores(), vec![0, 1, 2]);
        assert_eq!(topo.bnn_cores(), vec![0, 1, 2, 3]);
        assert!(!topo.is_homogeneous());
        assert!(Topology::homogeneous(4).is_homogeneous());
    }

    #[test]
    fn validation_rejects_structural_nonsense() {
        assert!(Topology::from_specs(vec![], vec![1024]).is_err());
        assert!(Topology::from_specs(vec![CoreSpec::reconfigurable()], vec![]).is_err());
        assert!(Topology::from_specs(
            vec![CoreSpec { bank: 3, ..CoreSpec::reconfigurable() }],
            vec![1024, 1024]
        )
        .is_err());
        assert!(Topology::from_specs(
            vec![CoreSpec { operating_point: Some(0.2), ..CoreSpec::reconfigurable() }],
            vec![1024]
        )
        .is_err());
        assert!(Topology::from_specs(
            vec![CoreSpec::reconfigurable()],
            vec![crate::fabric::L2_BYTES + 1]
        )
        .is_err());
        let all_bnn = vec![CoreSpec { role: CoreRole::BnnOnly, ..CoreSpec::reconfigurable() }];
        let topo = Topology::from_specs(all_bnn, vec![1024]).expect("structural");
        assert!(topo.item_cores().is_empty(), "feasibility is the engine's call");
    }

    #[test]
    fn labels_fold_runs() {
        assert_eq!(Topology::homogeneous(4).label(), "4R");
        assert_eq!(mixed(3).label(), "2R+B");
        let mut specs = vec![CoreSpec::reconfigurable(); 2];
        specs[1].operating_point = Some(0.7);
        let t = Topology::from_specs(specs, vec![1024]).unwrap();
        assert_eq!(t.label(), "R+R@0.7V");
    }
}
