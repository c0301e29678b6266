//! Property test: a core's timing is a function of its path.
//!
//! The event engine's timing memo rests on two facts about
//! [`NcpuCore::run_functional`], checked here on seeded random programs
//! whose control flow, `jalr` targets, `sw_l2` addresses and
//! `trans_bnn` image counts all depend on staged data:
//!
//! * **Functional ≡ timed.** Run functionally, a program leaves exactly
//!   the architectural state a timed [`NcpuCore::run`] leaves (replay
//!   state, L2 words) and retires as many instructions.
//! * **Path ⇒ timing.** Two data sets whose functional runs record equal
//!   [`PathLog`]s take identical timed runs: cycles, pipeline and core
//!   counters, recorded spans and events, and L2 touch cycles.
//!
//! Data words come from a tiny range, so different data sets often share
//! a path (the second fact gets exercised) and often do not (a log that
//! dropped a branch outcome would then merge paths with different
//! timing).

use std::cell::Cell;
use std::collections::HashMap;

use ncpu_accel::AccelConfig;
use ncpu_bnn::{BitVec, BnnModel, Topology};
use ncpu_core::{CoreStats, NcpuCore, SwitchPolicy};
use ncpu_isa::asm;
use ncpu_obs::{Event, TraceLevel};
use ncpu_pipeline::{PathLog, PipeStats};
use ncpu_testkit::prop::Prop;
use ncpu_testkit::rng::Rng;
use ncpu_testkit::{prop_assert, prop_assert_eq};

/// Registers the blocks compute on (data flows through them).
const REGS: [&str; 8] = ["t0", "t1", "t2", "a0", "a1", "a2", "s2", "s3"];
const ALU: [&str; 8] = ["add", "sub", "xor", "mul", "or", "and", "slt", "sltu"];
/// Data words staged at address 0 of the data cache.
const WORDS: usize = 8;
/// Data sets run per program.
const SETS: usize = 6;

fn small_model() -> BnnModel {
    let topo = Topology::new(32, vec![8, 8], 4);
    let layers = (0..2)
        .map(|l| {
            let inputs = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..8)
                .map(|j| BitVec::from_bools((0..inputs).map(|i| (i * 3 + j + l) % 4 < 2)))
                .collect();
            ncpu_bnn::BnnLayer::new(rows, vec![0; 8])
        })
        .collect();
    BnnModel::new(topo, layers)
}

fn fresh_core(naive: bool, data: &[u8]) -> NcpuCore {
    let policy = if naive { SwitchPolicy::Naive } else { SwitchPolicy::ZeroLatency };
    let mut core = NcpuCore::new(small_model(), AccelConfig::default(), policy);
    core.set_obs_level(TraceLevel::Full);
    core.set_l2_touch_log(true);
    let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
    let (bank, off) = banks.resolve(0).expect("data cache starts at 0");
    banks.bank_mut(bank).load(off as usize, data);
    core
}

/// One block of assembly per `(kind, x, y)`, decoded cyclically so
/// every shrink of a field is still a valid block.
fn render(blocks: &[(u8, u8, u8)], image_base: u32, output_base: u32) -> String {
    let mut src = String::new();
    for (i, &(kind, x, y)) in blocks.iter().enumerate() {
        let (rx, ry) = (REGS[x as usize % 8], REGS[y as usize % 8]);
        let block = match kind % 8 {
            0 => format!("lw {rx}, {}(zero)", (y as usize % WORDS) * 4),
            1 => format!("{} {rx}, {rx}, {ry}", ALU[y as usize % ALU.len()]),
            2 => format!(
                "{} {rx}, {ry}, skip{i}\naddi a4, a4, 1\nmul a5, a5, a4\nskip{i}:",
                if x % 2 == 0 { "beq" } else { "bne" }
            ),
            3 => format!(
                "andi t6, {rx}, 3\nloop{i}: beqz t6, done{i}\naddi t6, t6, -1\n\
                 add a5, a5, t6\nj loop{i}\ndone{i}:"
            ),
            // A data-dependent `jalr` target: P+16 or P+20 from the
            // `auipc` at P (P+12 is never reached).
            4 => format!(
                "andi t5, {rx}, 1\nslli t5, t5, 2\nauipc t4, 0\nadd t4, t4, t5\n\
                 jalr zero, 16(t4)\naddi a4, a4, 3\naddi a4, a4, 5"
            ),
            5 => format!("andi t3, {rx}, 3\nslli t3, t3, 2\nsw_l2 {ry}, 64(t3)"),
            6 => format!(
                "andi a3, {rx}, 1\naddi a3, a3, 1\nmv_neu a3, 0\nli t4, {image_base}\n\
                 sw {ry}, 0(t4)\nsw {rx}, 4(t4)\ntrans_bnn\nli t4, {output_base}\nlw {ry}, 0(t4)"
            ),
            _ => format!("sw {rx}, {}(zero)", 256 + (y as usize % 16) * 4),
        };
        src.push_str(&block);
        src.push('\n');
    }
    src.push_str("ebreak\n");
    src
}

/// What a timed run adds on top of its architectural effects.
#[derive(Debug, PartialEq)]
struct Timing {
    cycles: u64,
    pipe: PipeStats,
    core: CoreStats,
    spans: Vec<Event>,
    events: Vec<Event>,
    touches: Vec<u64>,
}

type Case = (bool, Vec<(u8, u8, u8)>, Vec<Vec<u8>>);

fn case(rng: &mut Rng) -> Case {
    let len = rng.gen_range(1usize..24);
    let blocks: Vec<(u8, u8, u8)> = (0..len)
        .map(|_| (rng.gen_range(0u8..8), rng.gen_range(0u8..8), rng.gen_range(0u8..8)))
        .collect();
    let sets: Vec<Vec<u8>> =
        (0..SETS).map(|_| (0..WORDS).map(|_| rng.gen_range(0u8..3)).collect()).collect();
    (rng.gen_bool(0.3), blocks, sets)
}

#[test]
fn equal_paths_take_equal_timed_runs() {
    let shared_paths = Cell::new(0u32);
    let split_paths = Cell::new(0u32);
    Prop::new("core::equal_paths_take_equal_timed_runs").run(case, |(naive, blocks, sets)| {
        let probe = fresh_core(*naive, &[]);
        let src = render(blocks, probe.image_base(), probe.output_base());
        let program = asm::assemble(&src).map_err(|e| format!("assembly failed: {e}\n{src}"))?;
        let mut seen: HashMap<PathLog, Timing> = HashMap::new();
        for words in sets {
            let data: Vec<u8> = words.iter().flat_map(|&w| u32::from(w).to_le_bytes()).collect();

            let mut functional = fresh_core(*naive, &data);
            functional.load_program(program.clone());
            let mut path = PathLog::new();
            let retired = functional
                .run_functional(1_000_000, &mut path)
                .map_err(|e| format!("functional run failed: {e}\n{src}"))?
                .ok_or_else(|| format!("no lw_l2 was generated\n{src}"))?;

            let mut timed = fresh_core(*naive, &data);
            timed.load_program(program.clone());
            timed.run(10_000_000).map_err(|e| format!("timed run failed: {e}\n{src}"))?;

            prop_assert!(
                functional.replay_state() == timed.replay_state(),
                "functional and timed runs end in different states\n{}",
                src
            );
            for addr in (64..80).step_by(4) {
                let l2 = |c: &NcpuCore| c.pipeline().mem().l2().read_word(addr);
                prop_assert_eq!(l2(&functional), l2(&timed), "L2 word {} differs\n{}", addr, src);
            }
            prop_assert_eq!(retired, timed.pipeline().stats().retired, "retired\n{}", src);
            prop_assert_eq!(functional.total_cycles(), 0, "functional runs take no cycles\n{}", src);

            let timing = Timing {
                cycles: timed.total_cycles(),
                pipe: *timed.pipeline().stats(),
                core: *timed.stats(),
                spans: timed.obs().spans().to_vec(),
                events: timed.obs().events().to_vec(),
                touches: timed.take_l2_touch_cycles(),
            };
            match seen.get(&path) {
                Some(earlier) => {
                    shared_paths.set(shared_paths.get() + 1);
                    prop_assert_eq!(earlier, &timing, "equal paths, different timing\n{}", src);
                }
                None => {
                    if !seen.is_empty() {
                        split_paths.set(split_paths.get() + 1);
                    }
                    seen.insert(path, timing);
                }
            }
        }
        Ok(())
    });
    assert!(shared_paths.get() > 0, "no two data sets ever shared a path");
    assert!(split_paths.get() > 0, "no program ever took two paths");
}
