//! Property test: a functional run prices an item exactly.
//!
//! [`NcpuCore::run_functional`] sums each block's timing, measured once
//! per program on the timed pipeline, and serves every `trans_bnn`
//! where it retires. Checked here against a timed [`NcpuCore::run`] of
//! the same program on the same data, at [`TraceLevel::Off`] and
//! [`TraceLevel::Counters`]:
//!
//! * the architectural end state (replay state, L2 words) and the
//!   instructions retired;
//! * the clock, every [`PipeStats`] and [`CoreStats`] field, the
//!   recorded spans and events, and the L2 touch cycles.
//!
//! The random programs' branches, `jalr` targets, `sw_l2` addresses and
//! `trans_bnn` image counts depend on staged data, so blocks are entered
//! both ways and closed at every kind of end. The fabric's own item
//! programs (image, motion, parametric) run under both switch policies,
//! with layer pipelining on and off, two items in a row on one core.

use std::cell::Cell;
use std::collections::HashSet;

use ncpu_accel::AccelConfig;
use ncpu_bnn::data::{digits, motion};
use ncpu_bnn::{BitVec, BnnModel, Topology};
use ncpu_core::{CoreStats, NcpuCore, SwitchPolicy};
use ncpu_isa::asm;
use ncpu_obs::{Event, TraceLevel};
use ncpu_pipeline::PipeStats;
use ncpu_testkit::prop::Prop;
use ncpu_testkit::rng::Rng;
use ncpu_testkit::{prop_assert, prop_assert_eq};
use ncpu_workloads::{image, motion as motion_prog, spin, Tail};

/// Registers the blocks compute on (data flows through them).
const REGS: [&str; 8] = ["t0", "t1", "t2", "a0", "a1", "a2", "s2", "s3"];
const ALU: [&str; 8] = ["add", "sub", "xor", "mul", "or", "and", "slt", "sltu"];
/// Data words staged at address 0 of the data cache.
const WORDS: usize = 8;
/// Data sets run per program.
const SETS: usize = 6;
/// The L2 mailbox the fabric programs write their class to.
const MAILBOX: u32 = 0x40;

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

fn core(model: &BnnModel, naive: bool, pipelining: bool, level: TraceLevel) -> NcpuCore {
    let policy = if naive { SwitchPolicy::Naive } else { SwitchPolicy::ZeroLatency };
    let config = AccelConfig { layer_pipelining: pipelining, ..AccelConfig::default() };
    let mut core = NcpuCore::new(model.clone(), config, policy);
    core.set_obs_level(level);
    core.set_l2_touch_log(true);
    core
}

fn stage(core: &mut NcpuCore, data: &[u8]) {
    let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
    let (bank, off) = banks.resolve(0).expect("data cache starts at 0");
    banks.bank_mut(bank).load(off as usize, data);
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

/// What a run adds on top of its architectural effects.
#[derive(Debug, PartialEq)]
struct Timing {
    cycles: u64,
    pipe: PipeStats,
    core: CoreStats,
    spans: Vec<Event>,
    events: Vec<Event>,
    touches: Vec<u64>,
}

impl Timing {
    fn of(core: &mut NcpuCore) -> Timing {
        Timing {
            cycles: core.total_cycles(),
            pipe: *core.pipeline().stats(),
            core: *core.stats(),
            spans: core.obs().spans().to_vec(),
            events: core.obs().events().to_vec(),
            touches: core.take_l2_touch_cycles(),
        }
    }
}

/// Loads `program` on both cores, runs `functional` functionally and
/// `timed` cycle by cycle, and compares the two. Returns the timed
/// run's retired count and timing.
fn check(
    functional: &mut NcpuCore,
    timed: &mut NcpuCore,
    program: &ncpu_pipeline::Program,
    what: &str,
) -> Result<(u64, Timing), String> {
    functional.load_program(program);
    let retired = functional
        .run_functional(10_000_000)
        .map_err(|e| format!("functional run failed: {e}\n{what}"))?
        .ok_or_else(|| format!("no lw_l2 was generated\n{what}"))?;
    timed.load_program(program);
    let before = timed.pipeline().stats().retired;
    timed.run(100_000_000).map_err(|e| format!("timed run failed: {e}\n{what}"))?;

    prop_assert!(
        functional.replay_state() == timed.replay_state(),
        "functional and timed runs end in different states\n{}",
        what
    );
    for addr in (64..80).step_by(4) {
        let l2 = |c: &NcpuCore| c.pipeline().mem().l2().read_word(addr);
        prop_assert_eq!(l2(functional), l2(timed), "L2 word {} differs\n{}", addr, what);
    }
    prop_assert_eq!(retired, timed.pipeline().stats().retired - before, "retired\n{}", what);
    let timing = Timing::of(timed);
    prop_assert_eq!(Timing::of(functional), timing, "priced timing differs\n{}", what);
    Ok((retired, timing))
}

type Case = (bool, bool, Vec<(u8, u8, u8)>, Vec<Vec<u8>>);

fn case(rng: &mut Rng) -> Case {
    let len = rng.gen_range(1usize..24);
    let blocks: Vec<(u8, u8, u8)> = (0..len)
        .map(|_| (rng.gen_range(0u8..8), rng.gen_range(0u8..8), rng.gen_range(0u8..8)))
        .collect();
    let sets: Vec<Vec<u8>> =
        (0..SETS).map(|_| (0..WORDS).map(|_| rng.gen_range(0u8..3)).collect()).collect();
    (rng.gen_bool(0.3), rng.gen_bool(0.5), blocks, sets)
}

#[test]
fn random_programs_price_to_their_timed_runs() {
    let model = small_model();
    // Cases whose data sets took different paths through one program,
    // runs with a taken transfer (a block closed at a taken branch or
    // jump, the next one entered by it), and runs with a `trans_bnn` (a
    // block entered from a drained pipeline mid-program).
    let split_paths = Cell::new(0u32);
    let taken = Cell::new(0u32);
    let drained = Cell::new(0u32);
    Prop::new("core::random_programs_price_to_their_timed_runs").run(
        case,
        |(naive, counters, blocks, sets)| {
            let level = if *counters { TraceLevel::Counters } else { TraceLevel::Off };
            let probe = core(&model, *naive, true, level);
            let src = render(blocks, probe.image_base(), probe.output_base());
            let words = asm::assemble(&src).map_err(|e| format!("assembly failed: {e}\n{src}"))?;
            // One decoded program for every data set, so later sets run
            // on blocks earlier ones measured.
            let program = ncpu_pipeline::Program::new(words);
            let mut paths = HashSet::new();
            for words in sets {
                let data: Vec<u8> =
                    words.iter().flat_map(|&w| u32::from(w).to_le_bytes()).collect();
                let mut functional = core(&model, *naive, true, level);
                let mut timed = core(&model, *naive, true, level);
                stage(&mut functional, &data);
                stage(&mut timed, &data);
                let (retired, timing) = check(&mut functional, &mut timed, &program, &src)?;
                paths.insert((retired, timing.cycles));
                taken.set(taken.get() + u32::from(timing.pipe.flush_cycles > 0));
                drained.set(drained.get() + u32::from(timing.core.images_inferred > 0));
            }
            split_paths.set(split_paths.get() + u32::from(paths.len() > 1));
            Ok(())
        },
    );
    assert!(split_paths.get() > 0, "no program ever took two paths");
    assert!(taken.get() > 0, "no run ever took a branch or jump");
    assert!(drained.get() > 0, "no run ever ran a trans_bnn");
}

/// A fabric item program: its use-case kind, model, words and the
/// staged bytes of the items it runs.
type FabricProgram = (&'static str, BnnModel, Vec<u32>, Vec<Vec<u8>>);

/// One fabric item program per use-case kind, with its model and the
/// staged bytes of two items (none for the parametric spin loop).
fn fabric_programs() -> Vec<FabricProgram> {
    let probe = |model: &BnnModel| core(model, false, true, TraceLevel::Off);
    let tail = |core: &NcpuCore| Tail::NcpuClassify {
        output_base: core.output_base(),
        result_l2: MAILBOX,
    };
    let mut rng = Rng::seed_from_u64(9);

    let image_model = BnnModel::zeros(&Topology::paper(digits::PIXELS, 100, digits::CLASSES));
    let c = probe(&image_model);
    let layout = image::ImageLayout::default();
    let image_words = image::preprocess_program(&layout, c.image_base(), tail(&c));
    let noise = digits::DigitsConfig::default().noise;
    let images = (0..2)
        .map(|d| image::stage_bytes(&digits::render_raw(d + 3, noise, &mut rng)))
        .collect();

    let motion_model = BnnModel::zeros(&Topology::paper(motion::INPUT_BITS, 100, motion::CLASSES));
    let c = probe(&motion_model);
    let layout = motion_prog::MotionLayout::default();
    let motion_words = motion_prog::feature_program(&layout, c.image_base(), tail(&c));
    let noise = motion::MotionConfig::default().noise;
    let windows = (0..2)
        .map(|l| motion_prog::stage_bytes(&motion::generate_window(l + 1, noise, &mut rng)))
        .collect();

    let spin_model = BnnModel::zeros(&Topology::paper(784, 30, 10));
    let c = probe(&spin_model);
    let src = format!("{}\n{}", spin::spin_source(2_000), tail(&c).asm(0));
    let spin_words = asm::assemble(&src).expect("parametric program");

    vec![
        ("image", image_model, image_words, images),
        ("motion", motion_model, motion_words, windows),
        ("parametric", spin_model, spin_words, vec![Vec::new(); 2]),
    ]
}

#[test]
fn fabric_programs_price_to_their_timed_runs() {
    for (kind, model, words, items) in fabric_programs() {
        let program = ncpu_pipeline::Program::new(words);
        for naive in [false, true] {
            for pipelining in [true, false] {
                for level in [TraceLevel::Off, TraceLevel::Counters] {
                    let mut functional = core(&model, naive, pipelining, level);
                    let mut timed = core(&model, naive, pipelining, level);
                    for (i, staged) in items.iter().enumerate() {
                        stage(&mut functional, staged);
                        stage(&mut timed, staged);
                        let what = format!(
                            "{kind} item {i}, naive {naive}, pipelining {pipelining}, {level:?}"
                        );
                        check(&mut functional, &mut timed, &program, &what).unwrap();
                    }
                }
            }
        }
    }
}
