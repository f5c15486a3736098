//! Regression tests for the pre-install equivalence gate
//! ([`equiv::diff_check`]): no false positive on legitimately shortened
//! blocks whose return addresses land on the stack, and no false
//! negative on seeded real bugs.

use std::collections::HashMap;

use quamachine::asm::Asm;
use quamachine::code::CodeBlock;
use quamachine::isa::{BranchTarget, Cond, Instr, Operand::*, Size::L};
use synthesis_codegen::equiv::{self, DiffConfig, PresetSet, CODE_BASE};
use synthesis_codegen::peephole;
use synthesis_codegen::template::Template;

/// The fd a wrapper is specialized to: 0, so `cmp.l #fd,d1` is a
/// 6-byte compare that peephole shortens to a 2-byte `tst.l d1`.
const FD: u32 = 0;
const OFFSET_SLOT: u32 = 0x3000;
const LEN_SLOT: u32 = 0x3008;
const FILE_BUF: u32 = 0x1_2000;

/// Both guarded paths of a wrapper, the way the emulator steers them:
/// this fd with a 1-byte count, and this fd with a small count.
fn wrapper_presets() -> Vec<PresetSet> {
    vec![
        vec![(true, 1, FD), (true, 2, 1)],
        vec![(true, 1, FD), (true, 2, 5)],
    ]
}

fn gate() -> DiffConfig {
    let presets = wrapper_presets();
    DiffConfig {
        trials: 4 * presets.len() as u32 + 2,
        preset_sets: presets,
        ..DiffConfig::default()
    }
}

/// Absolute address of instruction `idx` once `instrs` is loaded at
/// [`CODE_BASE`].
fn addr_in(instrs: &[Instr], idx: usize) -> u32 {
    CODE_BASE + CodeBlock::new("probe", instrs.to_vec()).offsets[idx]
}

fn bytes(instrs: &[Instr]) -> u32 {
    CodeBlock::new("probe", instrs.to_vec()).size_bytes()
}

/// A fused-wrapper-shaped block: an fd guard, then a `jsr` to a local
/// routine that does the work, and a re-trapping foreign-fd arm. The
/// `jsr` leaves its return address — a code address — in the dead
/// stack slot below the entry stack pointer.
fn wrapper_with_local_routine() -> (Vec<Instr>, HashMap<String, usize>) {
    let routine = 6;
    let mut instrs = vec![
        Instr::Cmp(L, Imm(FD), Dr(1)),              // 0
        Instr::Bcc(Cond::Ne, BranchTarget::Idx(4)), // 1
        Instr::Jsr(Abs(0)),                         // 2: patched below
        Instr::Rts,                                 // 3
        Instr::Move(L, Imm(3), Dr(0)),              // 4: foreign fd
        Instr::Trap(3),                             // 5
        Instr::Move(L, Dr(2), Dr(0)),               // 6: routine
        Instr::Add(L, Imm(1), Abs(OFFSET_SLOT)),
        Instr::Rts,
    ];
    // A `jsr abs.l` has a fixed size, so the target does not move the
    // offsets it is computed from.
    instrs[2] = Instr::Jsr(Abs(addr_in(&instrs, routine)));
    let mut marks = HashMap::new();
    marks.insert("routine".to_string(), routine);
    (instrs, marks)
}

#[test]
fn peephole_shortened_block_with_inner_jsr_passes() {
    let (reference, mut marks) = wrapper_with_local_routine();
    let mut candidate = peephole::optimize(reference.clone(), &mut marks);
    assert!(
        bytes(&candidate) < bytes(&reference),
        "peephole must shorten the guard: {candidate:?}"
    );
    // Re-point the inner jsr at the routine's new address, as the
    // creator's install does for a real block's marks.
    let target = addr_in(&candidate, marks["routine"]);
    for i in &mut candidate {
        if let Instr::Jsr(op) = i {
            *op = Abs(target);
        }
    }
    assert_ne!(
        addr_in(&candidate, 3),
        addr_in(&reference, 3),
        "the pushed return addresses really differ"
    );
    equiv::diff_check(&reference, &candidate, &gate()).unwrap();
}

#[test]
fn faulting_pc_on_the_stack_is_normalized() {
    // A fused file wrapper's copy can read through a random offset and
    // fault; the fault frame's PC is an address in the block, and it
    // differs once peephole shortened anything before it.
    let reference = vec![
        Instr::Cmp(L, Imm(FD), Dr(1)),
        Instr::Move(L, Ind(1), Dr(0)),
        Instr::Rts,
    ];
    let candidate = vec![
        Instr::Tst(L, Dr(1)),
        Instr::Move(L, Ind(1), Dr(0)),
        Instr::Rts,
    ];
    let cfg = DiffConfig {
        preset_sets: vec![vec![(false, 1, 0x7FFF_0000)]],
        ..DiffConfig::default()
    };
    equiv::diff_check(&reference, &candidate, &cfg).unwrap();
}

/// A `read(file)` wrapper body (the fused `read_file` shape): clamp the
/// count to what remains, advance the offset, copy. `bump` is added to
/// the stored offset — 0 is the reference semantics.
fn read_file_wrapper(bump: u32) -> Vec<Instr> {
    let mut a = Asm::new("read_file_probe");
    let ok = a.label();
    let ltrap = a.label();
    let done = a.label();
    let byte_loop = a.label();
    a.cmp(L, Imm(FD), Dr(1));
    a.bcc(Cond::Ne, ltrap);
    a.move_(L, Dr(2), Dr(1));
    a.move_(L, Abs(OFFSET_SLOT), Dr(2));
    a.move_(L, Abs(LEN_SLOT), Dr(3));
    a.sub(L, Dr(2), Dr(3));
    a.cmp(L, Dr(3), Dr(1));
    a.bcc(Cond::Ls, ok);
    a.move_(L, Dr(3), Dr(1));
    a.bind(ok);
    a.move_i(L, FILE_BUF, Ar(1));
    a.and(L, Imm(0xFFF), Dr(2)); // keep the copy source in data memory
    a.add(L, Dr(2), Ar(1));
    a.move_(L, Dr(1), Dr(0));
    a.add(L, Dr(0), Dr(2));
    if bump != 0 {
        a.add(L, Imm(bump), Dr(2));
    }
    a.move_(L, Dr(2), Abs(OFFSET_SLOT));
    a.and(L, Imm(0xFF), Dr(1));
    a.tst(L, Dr(1));
    a.bcc(Cond::Eq, done);
    a.sub(L, Imm(1), Dr(1));
    a.bind(byte_loop);
    a.move_(quamachine::isa::Size::B, PostInc(1), PostInc(0));
    a.dbf(1, byte_loop);
    a.bind(done);
    a.rts();
    a.bind(ltrap);
    a.move_i(L, 3, Dr(0));
    a.trap(3);
    a.rts();
    Template::from_asm(a).expect("assembles").instrs
}

#[test]
fn off_by_one_offset_update_is_rejected() {
    // The correct wrapper passes after peephole shortened it; the same
    // wrapper storing `offset + n + 1` does not.
    let reference = read_file_wrapper(0);
    let good = peephole::optimize(reference.clone(), &mut HashMap::new());
    assert!(bytes(&good) < bytes(&reference));
    equiv::diff_check(&reference, &good, &gate()).unwrap();
    let buggy = peephole::optimize(read_file_wrapper(1), &mut HashMap::new());
    assert!(equiv::diff_check(&reference, &buggy, &gate()).is_err());
}

#[test]
fn wrong_value_stored_through_the_stack_is_rejected() {
    // Push-and-drop leaves the value in the dead slot below the stack
    // pointer. Only code addresses are normalized there: a wrong data
    // value is still a mismatch.
    let store = |reg| {
        vec![
            Instr::Move(L, Dr(reg), PreDec(7)),
            Instr::Add(L, Imm(4), Ar(7)),
            Instr::Rts,
        ]
    };
    let err = equiv::diff_check(&store(1), &store(2), &DiffConfig::default()).unwrap_err();
    assert!(err.detail.contains("memory differs at 0x0000effc"), "{err}");
}

#[test]
fn return_address_of_a_different_call_is_rejected() {
    // Both blocks leave a return address in the same dead slot, but of
    // different calls: normalization keeps the call's identity.
    let leaf = 3;
    let mut reference = vec![
        Instr::Jsr(Abs(0)),
        Instr::Nop,
        Instr::Rts,
        Instr::Rts, // leaf
    ];
    reference[0] = Instr::Jsr(Abs(addr_in(&reference, leaf)));
    let mut candidate = vec![
        Instr::Nop,
        Instr::Jsr(Abs(0)),
        Instr::Rts,
        Instr::Rts, // leaf
    ];
    candidate[1] = Instr::Jsr(Abs(addr_in(&candidate, leaf)));
    let mut twice = vec![
        Instr::Jsr(Abs(0)),
        Instr::Jsr(Abs(0)),
        Instr::Rts,
        Instr::Rts, // leaf
    ];
    let t = addr_in(&twice, leaf);
    twice[0] = Instr::Jsr(Abs(t));
    twice[1] = Instr::Jsr(Abs(t));
    // Same call, moved: equivalent.
    equiv::diff_check(&reference, &candidate, &DiffConfig::default()).unwrap();
    // The dead slot now holds the *second* call's return point.
    let err = equiv::diff_check(&reference, &twice, &DiffConfig::default()).unwrap_err();
    assert!(err.detail.contains("memory differs"), "{err}");
}
