//! Regenerates the paper's Fig. 16 power traces (see EXPERIMENTS.md).
//!
//! With `--csv <dir>`, also writes one `fig16_<config>_<core>.csv` file per
//! trace for external plotting.
use ncpu_power::{AreaModel, PowerModel};
use ncpu_soc::{energy, Engine, EventDriven, Scenario, SystemConfig, UseCase};

fn main() {
    print!("{}", ncpu_bench::experiments::fig16().render());
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == "--csv") else { return };
    let dir = args.get(i + 1).map(String::as_str).unwrap_or(".");
    let uc = UseCase::image(2, 2, 1);
    let pm = PowerModel::default();
    let am = AreaModel::default();
    for system in [SystemConfig::Heterogeneous, SystemConfig::ncpu(2)] {
        let report = EventDriven.report(&Scenario::new(uc.clone(), system));
        let traces = energy::power_traces(&report, &pm, &am, 100, 1.0, 512);
        for (core, trace) in report.cores.iter().zip(&traces) {
            let path = format!(
                "{dir}/fig16_{}_{}.csv",
                report.config.replace([' ', 'x'], ""),
                core.role.replace('-', "_")
            );
            std::fs::write(&path, trace.to_csv()).expect("write CSV");
            eprintln!("wrote {path}");
        }
    }
}
