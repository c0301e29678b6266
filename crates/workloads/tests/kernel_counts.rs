//! Pins every kernel's per-mnemonic retire counts, retired total and
//! cycle count. The counts are the Fig. 11(b) power table's input, so a
//! change to how the pipeline counts retirements (or to the kernels)
//! shows up here as a named mnemonic, not as a drifted percentage.

use ncpu_workloads::kernels;

/// Nonzero retire counts, in `Instruction::MNEMONICS` order.
type Counts = &'static [(&'static str, u64)];

/// `(kernel, retired, cycles, counts)`.
const PINS: &[(&str, u64, u64, Counts)] = &[
    (
        "crc32",
        3839,
        5591,
        &[
            ("lui", 2), ("beq", 512), ("bne", 640), ("lbu", 64), ("sb", 64), ("addi", 839),
            ("xori", 1), ("andi", 512), ("slli", 128), ("srli", 576), ("xor", 500), ("ebreak", 1),
        ],
    ),
    (
        "bitcount",
        4261,
        6247,
        &[
            ("lui", 1), ("bne", 1024), ("addi", 67), ("andi", 992), ("slli", 64), ("srli", 1024),
            ("add", 992), ("xor", 96), ("ebreak", 1),
        ],
    ),
    (
        "sort",
        1494,
        2177,
        &[
            ("lui", 1), ("jal", 158), ("beq", 158), ("bne", 48), ("bge", 24), ("bgeu", 151),
            ("lw", 198), ("sw", 182), ("addi", 311), ("andi", 24), ("slli", 71), ("srli", 24),
            ("add", 47), ("xor", 72), ("mul", 24), ("ebreak", 1),
        ],
    ),
    (
        "stringsearch",
        2271,
        3025,
        &[
            ("lui", 1), ("bne", 412), ("lbu", 158), ("sb", 128), ("addi", 675), ("andi", 128),
            ("slli", 256), ("srli", 128), ("xor", 384), ("ebreak", 1),
        ],
    ),
    (
        "matmul",
        3213,
        5107,
        &[
            ("jal", 605), ("blt", 755), ("lw", 72), ("sw", 72), ("addi", 527), ("slli", 144),
            ("add", 252), ("sub", 605), ("mul", 180), ("ebreak", 1),
        ],
    ),
    (
        "fibonacci",
        204,
        286,
        &[
            ("bne", 40), ("addi", 123), ("add", 40), ("ebreak", 1),
        ],
    ),
    (
        "dijkstra",
        7189,
        9288,
        &[
            ("lui", 497), ("beq", 496), ("bne", 15), ("blt", 496), ("bgeu", 343), ("lw", 840),
            ("sw", 21), ("addi", 1579), ("slli", 1279), ("add", 1622), ("ebreak", 1),
        ],
    ),
    (
        "hashmix",
        1416,
        1930,
        &[
            ("lui", 3), ("bne", 128), ("addi", 132), ("andi", 128), ("slli", 256), ("srli", 128),
            ("xor", 512), ("mul", 128), ("ebreak", 1),
        ],
    ),
    (
        "rle",
        1044,
        1417,
        &[
            ("jal", 112), ("beq", 225), ("bne", 111), ("lbu", 127), ("sb", 32), ("addi", 436),
            ("ebreak", 1),
        ],
    ),
];

#[test]
fn kernel_retire_counts_are_pinned() {
    let all = kernels::all();
    assert_eq!(all.len(), PINS.len(), "every kernel is pinned");
    for (kernel, &(name, retired, cycles, counts)) in all.iter().zip(PINS) {
        assert_eq!(kernel.name, name);
        let (_, stats) = kernel.run();
        assert_eq!((stats.retired, stats.cycles), (retired, cycles), "kernel {name}");
        let got: Vec<(&str, u64)> = stats.per_instr.iter().collect();
        assert_eq!(got, counts, "kernel {name} per-mnemonic retire counts");
        let total: u64 = got.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, stats.retired, "kernel {name}: counts sum to retired");
    }
}
