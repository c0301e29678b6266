//! The floor of the event-driven engine, and the fact the serve router
//! relies on.
//!
//! `BENCH_event.json` advertises order-of-magnitude speedups on
//! steady-state parametric sweeps, where almost every item is skipped
//! outright because the core provably sits in the state the previous
//! item started from. Trained image batches are the other regime: every
//! item stages distinct bytes over DMA, so no item is skipped. Each runs
//! functionally instead — an untimed pass over the predecoded program —
//! and takes its cycles from the use case's path-keyed timing memo:
//! every digit follows the same path through the pre-processing program,
//! so only the first item per core program is ever simulated cycle by
//! cycle, and a repeated run of the same use case simulates none.
//!
//! The serve router sends every NCPU request to the event engine unless
//! a client pins lockstep. This test justifies that rule with a measured
//! fact: over interleaved timed runs of one scenario, the event engine's
//! median takes at most half of lockstep's on this image workload —
//! while still producing the byte-identical report the differential
//! suite demands.

use std::time::Instant;

use ncpu::prelude::*;

/// The event engine must take at most half of lockstep's time on the
/// image workload. Measured debug-build event/lockstep ratios sit at
/// 0.12–0.16, so medians of interleaved runs keep load noise well inside
/// the bound.
const MAX_OVERHEAD_FACTOR: f64 = 0.5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

#[test]
fn event_engine_overhead_on_image_workload_is_bounded() {
    let scenario =
        Scenario::new(UseCase::image(4, 2, 1), SystemConfig::ncpu(2));

    // Warm both code paths and check equivalence once.
    let lockstep = Lockstep.report(&scenario);
    let event = EventDriven.report(&scenario);
    assert_eq!(
        format!("{event:?}"),
        format!("{lockstep:?}"),
        "engines diverged; timing them against each other is meaningless"
    );

    // Interleave the engines so drift (thermal, scheduler) hits both
    // equally, and take medians so one descheduled run cannot fail CI.
    let mut ls_ns = Vec::new();
    let mut ev_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(Lockstep.report(&scenario));
        ls_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(EventDriven.report(&scenario));
        ev_ns.push(t.elapsed().as_nanos() as f64);
    }
    let (ls, ev) = (median(ls_ns), median(ev_ns));
    let factor = ev / ls;
    println!("event/lockstep on the image workload: {factor:.3}");
    assert!(
        factor <= MAX_OVERHEAD_FACTOR,
        "event engine took {factor:.2}x lockstep on the image workload \
         (medians: event {ev:.0} ns, lockstep {ls:.0} ns); \
         the image-workload floor regressed past {MAX_OVERHEAD_FACTOR}x"
    );
}
