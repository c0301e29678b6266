//! Property test: the in-place replay-state compare and the bank write
//! generation agree with the copying compare.
//!
//! A seeded sequence of bank writes, bulk loads, enable toggles and
//! register writes runs on one core; some steps capture a
//! [`ReplayState`] together with the core's
//! [`NcpuCore::bank_generation`] at that moment. After every step, for
//! every state captured so far:
//!
//! * `matches_replay_state(s)` equals `replay_state() == s`, and
//! * while the summed generation is still the captured one, comparing
//!   the registers alone gives the same answer — the proof a replay memo
//!   relies on to skip the bank compare.
//!
//! Values and offsets come from tiny ranges, so sequences often walk
//! back into a captured state and both answers get exercised.

use ncpu_accel::AccelConfig;
use ncpu_bnn::{BnnModel, Topology};
use ncpu_core::{NcpuCore, ReplayState, SwitchPolicy};
use ncpu_testkit::prop::Prop;
use ncpu_testkit::prop_assert_eq;
use ncpu_testkit::rng::Rng;

/// One step: `(kind, a, b)`, decoded cyclically so every shrink of a
/// field is still a valid step.
type Step = (u8, u8, u8);

fn steps(rng: &mut Rng) -> Vec<Step> {
    let len = rng.gen_range(1usize..48);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u8..6),
                rng.gen_range(0u8..16),
                rng.gen_range(0u8..3),
            )
        })
        .collect()
}

fn core() -> NcpuCore {
    let model = BnnModel::zeros(&Topology::new(32, vec![8, 8], 4));
    NcpuCore::new(model, AccelConfig::default(), SwitchPolicy::ZeroLatency)
}

/// Applies one step; returns `true` when the step is a capture point.
fn apply(core: &mut NcpuCore, &(kind, a, b): &Step) -> bool {
    let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
    let count = banks.bank_count();
    let (_, bank) = banks
        .iter_mut()
        .nth(a as usize % count)
        .expect("bank in range");
    let offset = u32::from(a / 4) * 4 % (bank.capacity() as u32 - 3);
    match kind % 6 {
        0 => bank
            .write(offset, [1, 2, 4][b as usize % 3], u32::from(b))
            .expect("in range"),
        1 => bank.load(offset as usize, &[b, b]),
        2 => {
            let on = bank.is_enabled();
            bank.set_enabled(!on);
        }
        3 => core.pipeline_mut().regs_mut()[1 + a as usize % 4] = u32::from(b),
        4 => core.pipeline_mut().regs_mut()[1 + a as usize % 4] = 0,
        _ => return true,
    }
    false
}

#[test]
fn in_place_and_generation_proven_compares_agree_with_copies() {
    Prop::new("in_place_and_generation_proven_compares_agree_with_copies").run(steps, |steps| {
        let mut core = core();
        let mut captured: Vec<(ReplayState, u64)> =
            vec![(core.replay_state(), core.bank_generation())];
        for (i, step) in steps.iter().enumerate() {
            if apply(&mut core, step) {
                captured.push((core.replay_state(), core.bank_generation()));
            }
            let live = core.replay_state();
            for (j, (state, generation)) in captured.iter().enumerate() {
                let equal = live == *state;
                prop_assert_eq!(
                    core.matches_replay_state(state),
                    equal,
                    "step {i}, state {j}: in-place compare"
                );
                if core.bank_generation() == *generation {
                    prop_assert_eq!(
                        core.matches_replay_registers(state),
                        equal,
                        "step {i}, state {j}: generation unchanged since capture"
                    );
                }
            }
        }
        Ok(())
    });
}
