//! Differential-execution equivalence checking.
//!
//! [`crate::verify`] proves structural well-formedness; this module
//! proves *behavior*: a candidate sequence is accepted only if it is
//! indistinguishable from its reference when both run on the
//! cycle-modelled interpreter from the same randomized register and
//! memory states. This is the acceptance check of the offline
//! superoptimizer ([`crate::superopt`]) and the pre-install gate the
//! creator applies to every block synthesized with preset sets — every
//! fused I/O wrapper.
//!
//! # What is compared
//!
//! Both sequences are loaded into otherwise-identical scratch machines,
//! seeded with the same pseudo-random register file and memory image,
//! and run to completion (`halt`, `rts` into a sentinel, a `kcall`, an
//! execution error, or the step budget). The runs must then agree on:
//!
//! - all data and address registers (`a7` included — stack discipline);
//! - the condition codes `N`/`Z`/`V`/`C` (`X` is excluded: no
//!   implemented instruction observes it except a store-SR, and windows
//!   feeding a store-SR are never superoptimized);
//! - every byte of memory, with one normalization (below);
//! - the exit reason, including the `kcall` selector — a fused block
//!   that blocks in the kernel must block through the *same* kcall with
//!   the same visible state.
//!
//! # Code addresses on the stack
//!
//! A `jsr`, a `trap`, and a zero-divide push the address of the next
//! instruction; any other fault pushes the faulting instruction's. Both
//! are addresses inside the sequence under test, and reference and
//! candidate encode to different lengths once peephole has shortened
//! anything, so the same point has a different address in each run. On
//! every exit path the harness therefore rewrites each long on the stack
//! that points into the sequence to a position-independent token: the
//! return point "after the k-th `jsr`" (per kind: `jsr`, `trap`,
//! `divu`), or one generic code token for any other address in the
//! sequence. This covers live frames (a trap exit's frame PC) and the
//! dead slots below the final stack pointer that an inner `jsr` or a
//! fault leaves behind. Registers and all other memory stay compared byte for byte,
//! and a return point is still compared by identity: a candidate that
//! pushes the return address of a *different* call fails.
//!
//! Trials are seeded and replayable: a mismatch reports the trial seed
//! so the exact failing state can be reproduced.

use quamachine::code::CodeBlock;
use quamachine::isa::{Instr, Operand, Size};
use quamachine::machine::{Machine, MachineConfig, RunExit};

/// Where the sequence under test is loaded. Chosen above the data
/// memory so random address-register values can never alias code.
/// Public so tests can build sequences whose `jsr`s target routines
/// inside the sequence itself.
pub const CODE_BASE: u32 = 0x0040_0000;
/// A one-instruction `halt` block: the return target of a terminating
/// `rts`.
const SENTINEL: u32 = 0x0050_0000;
/// Per-vector trap landing pads (`TRAP_LAND + 8 * n`, each a `halt`).
/// Separate pads make the trap *number* part of the exit contract, and
/// let the harness recognize a trap exit so it can normalize the pushed
/// return PC (a code offset — reference and candidate encode to
/// different lengths, so the frame's PC field legitimately differs).
const TRAP_LAND: u32 = 0x0050_0100;
/// Data window randomized each trial (address registers are seeded to
/// point into it).
const DATA_BASE: u32 = 0x0001_0000;
const DATA_LEN: u32 = 0x8000;
/// Initial stack pointer (the long below holds the sentinel return
/// address).
const STACK_TOP: u32 = 0x0000_F000;
/// Bottom of the stack region scanned for pushed code addresses (just
/// above the exception vector table). The region starts zeroed, apart
/// from constants the sequences mention, which start identical in both
/// runs.
const STACK_FLOOR: u32 = 0x0000_0400;
/// Normalized form of a return point: `RET_TOKEN | kind << 12 | k` for
/// the return address of the `k`-th instruction of `kind` (0 `jsr`,
/// 1 `trap`, 2 `divu`). Far outside the sequence's address range.
const RET_TOKEN: u32 = 0xC0DE_0000;
/// Normalized form of any other address inside the sequence.
const CODE_TOKEN: u32 = 0xC0DE_FFFF;

/// One register preset set: `(true, n, v)` sets `d[n] = v`,
/// `(false, n, v)` sets `a[n] = v`.
pub type PresetSet = Vec<(bool, u8, u32)>;

/// Configuration of one differential check.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Independent randomized trials.
    pub trials: u32,
    /// Base seed; trial `t` derives its state from `seed ^ t`.
    pub seed: u64,
    /// Per-trial cycle budget. Runs that exhaust it are compared on the
    /// state reached (identical states at the same budget are accepted:
    /// the runs are observationally equal so far).
    pub cycles: u64,
    /// Register preset *sets*, rotated across the odd trials (trial
    /// `2k+1` applies set `k % len`; even trials stay fully random).
    /// Each entry `(true, n, v)` sets `d[n] = v`, `(false, n, v)` sets
    /// `a[n] = v`. Callers use these to steer trials down *every*
    /// guarded path of a specialized block — e.g. one set seeding
    /// `d1 = fd, d2 = 1` for a fused wrapper's fast path and another
    /// `d1 = fd, d2 = 5` for its general body, so neither path escapes
    /// the trials the way a random `d1` (which practically never equals
    /// the fd) would let it.
    pub preset_sets: Vec<PresetSet>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            trials: 6,
            seed: 0x5337_11AD_BEEF_CAFE,
            cycles: 20_000,
            preset_sets: Vec::new(),
        }
    }
}

/// A differential mismatch: the candidate is observably different from
/// the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffMismatch {
    /// Trial index that diverged.
    pub trial: u32,
    /// The trial's derived seed (replays the exact initial state).
    pub seed: u64,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

impl std::fmt::Display for DiffMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "differential mismatch (trial {}, seed {:#x}): {}",
            self.trial, self.seed, self.detail
        )
    }
}

/// splitmix64 — the standard small seedable generator; good enough to
/// scatter register files and replayable from a single `u64`.
pub(crate) struct Rng(pub u64);

impl Rng {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// What one run ended as, reduced to comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ExitToken {
    Halted,
    /// Exited through `trap #n` — a fused wrapper's fallback path must
    /// raise the *same* trap as its reference.
    Trap(u8),
    KCall(u16),
    CycleLimit,
    Error(String),
}

fn token(exit: &RunExit) -> ExitToken {
    match exit {
        RunExit::Halted => ExitToken::Halted,
        RunExit::KCall(n) => ExitToken::KCall(*n),
        RunExit::CycleLimit => ExitToken::CycleLimit,
        RunExit::Breakpoint(_) => ExitToken::Halted,
        RunExit::Error(e) => ExitToken::Error(format!("{e:?}")),
    }
}

/// Collect the absolute and immediate constants a sequence mentions
/// that fall inside data memory — these get randomized contents so
/// loads through them see varied state. [`diff_check`] seeds both runs
/// from the *union* of the reference's and candidate's constants, so
/// the initial state is identical no matter which sequence runs.
fn interesting_addrs(instrs: &[Instr], mem_size: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for i in instrs {
        for op in i.operands() {
            if let Operand::Abs(a) | Operand::Imm(a) = op {
                let a = a & !3;
                if (0x100..mem_size.saturating_sub(16)).contains(&a) {
                    out.push(a);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Run `instrs` from a seeded state; returns the machine and exit.
/// `addrs` is the union of both sequences' interesting constants, so
/// the reference and candidate runs start byte-identical.
fn run_one(
    instrs: &[Instr],
    addrs: &[u32],
    cfg: &DiffConfig,
    trial_seed: u64,
    trial: u32,
) -> (Machine, ExitToken) {
    let mut m = Machine::new(MachineConfig::sun3_emulation());
    let mut rng = Rng(trial_seed);

    // Seed the data window and the constants the code mentions.
    let fill: Vec<u8> = (0..DATA_LEN)
        .map(|_| (rng.next_u32() & 0xFF) as u8)
        .collect();
    m.mem.poke_bytes(DATA_BASE, &fill);
    for &a in addrs {
        let v = rng.next_u32();
        m.mem.poke(a, Size::L, v);
        m.mem.poke(a + 4, Size::L, rng.next_u32());
    }

    // Register file: data registers full-range, address registers
    // aligned into the data window.
    for i in 0..8 {
        m.cpu.d[i] = rng.next_u32();
    }
    for i in 0..7 {
        m.cpu.a[i] = (DATA_BASE + rng.next_u32() % (DATA_LEN - 0x100)) & !3;
    }
    m.cpu.a[7] = STACK_TOP;
    m.cpu.sr = 0x2000 | (rng.next_u32() as u16 & 0x1F);
    if trial % 2 == 1 && !cfg.preset_sets.is_empty() {
        let set = &cfg.preset_sets[(trial as usize / 2) % cfg.preset_sets.len()];
        for &(is_d, n, v) in set {
            if is_d {
                m.cpu.d[n as usize] = v;
            } else {
                m.cpu.a[n as usize] = v;
            }
        }
    }

    // Sentinel halt block (the rts return target), plus a per-vector
    // halt pad for every trap the sequence can raise.
    m.mem.poke(STACK_TOP, Size::L, SENTINEL);
    m.load_block(
        SENTINEL,
        CodeBlock::new("equiv-sentinel", vec![Instr::Halt]),
    )
    .expect("sentinel loads");
    let mut traps: Vec<u8> = instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Trap(n) => Some(*n),
            _ => None,
        })
        .collect();
    traps.sort_unstable();
    traps.dedup();
    for n in traps {
        let land = TRAP_LAND + 8 * u32::from(n);
        m.mem.poke((32 + u32::from(n)) * 4, Size::L, land);
        m.load_block(land, CodeBlock::new("equiv-trap-land", vec![Instr::Halt]))
            .expect("trap landing loads");
    }

    // The sequence itself, with a trailing halt so falling off the end
    // is well-defined.
    let mut body = instrs.to_vec();
    body.push(Instr::Halt);
    m.load_block(CODE_BASE, CodeBlock::new("equiv-seq", body))
        .expect("sequence loads");

    m.cpu.pc = CODE_BASE;
    let exit = m.run(cfg.cycles);
    let mut tok = token(&exit);
    if tok == ExitToken::Halted && (TRAP_LAND..TRAP_LAND + 8 * 256).contains(&m.cpu.pc) {
        // Halted on a trap pad: record which trap. The frame's return PC
        // (SP+2) is normalized with the rest of the stack below; the
        // pushed SR word at SP stays compared — trap-time flags are
        // semantics — with X masked out, like the final-CCR compare (X
        // is unobservable in superoptimizable windows).
        tok = ExitToken::Trap(((m.cpu.pc - TRAP_LAND) / 8) as u8);
        let sp = m.cpu.a[7];
        let frame_sr = m.mem.peek(sp, Size::W);
        m.mem.poke(sp, Size::W, frame_sr & !0x10);
    }
    normalize_code_addrs(&mut m, instrs);
    (m, tok)
}

/// Rewrite every long in the stack region that points into the loaded
/// sequence to its position-independent token (see the module docs).
/// Scans ascending at 2-byte steps; a rewritten long is skipped whole,
/// so adjacent pushed addresses are each recognized once.
fn normalize_code_addrs(m: &mut Machine, instrs: &[Instr]) {
    let Some(block) = m.code.block(CODE_BASE) else {
        return;
    };
    let end = CODE_BASE + block.size_bytes();
    let mut ordinals = [0u32; 3];
    let mut ret_points = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        let kind = match ins {
            Instr::Jsr(_) => 0,
            Instr::Trap(_) => 1,
            Instr::DivU(..) => 2,
            _ => continue,
        };
        // The trailing halt makes `i + 1` a valid index for every `i`.
        if let Some(ret) = m.code.addr_of(CODE_BASE, i + 1) {
            ret_points.push((ret, RET_TOKEN | kind << 12 | ordinals[kind as usize]));
        }
        ordinals[kind as usize] += 1;
    }
    let stack = m.mem.peek_bytes(STACK_FLOOR, STACK_TOP + 4 - STACK_FLOOR);
    let mut i = 0;
    while i + 4 <= stack.len() {
        let v = u32::from_be_bytes([stack[i], stack[i + 1], stack[i + 2], stack[i + 3]]);
        if (CODE_BASE..end).contains(&v) {
            let tok = ret_points
                .iter()
                .find(|&&(ret, _)| ret == v)
                .map_or(CODE_TOKEN, |&(_, t)| t);
            m.mem.poke(STACK_FLOOR + i as u32, Size::L, tok);
            i += 4;
        } else {
            i += 2;
        }
    }
}

/// Compare two completed runs; `None` means indistinguishable.
fn compare(mr: &Machine, tr: &ExitToken, mc: &Machine, tc: &ExitToken) -> Option<String> {
    if tr != tc {
        return Some(format!("exit differs: reference {tr:?}, candidate {tc:?}"));
    }
    for i in 0..8 {
        if mr.cpu.d[i] != mc.cpu.d[i] {
            return Some(format!(
                "d{i} differs: {:#010x} vs {:#010x}",
                mr.cpu.d[i], mc.cpu.d[i]
            ));
        }
        if mr.cpu.a[i] != mc.cpu.a[i] {
            return Some(format!(
                "a{i} differs: {:#010x} vs {:#010x}",
                mr.cpu.a[i], mc.cpu.a[i]
            ));
        }
    }
    // N/Z/V/C only; X is unobservable in superoptimizable windows.
    if mr.cpu.sr & 0xF != mc.cpu.sr & 0xF {
        return Some(format!(
            "ccr differs: {:#06x} vs {:#06x}",
            mr.cpu.sr & 0xF,
            mc.cpu.sr & 0xF
        ));
    }
    if let Some(addr) = mr.mem.first_diff(&mc.mem) {
        return Some(format!(
            "memory differs at {addr:#010x}: {:#04x} vs {:#04x}",
            mr.mem.peek(addr, Size::B),
            mc.mem.peek(addr, Size::B)
        ));
    }
    None
}

/// Differentially check `candidate` against `reference`.
///
/// # Errors
///
/// Returns the first [`DiffMismatch`] observed across the configured
/// trials.
pub fn diff_check(
    reference: &[Instr],
    candidate: &[Instr],
    cfg: &DiffConfig,
) -> Result<(), DiffMismatch> {
    let mem_size = MachineConfig::sun3_emulation().mem_size;
    let mut addrs = interesting_addrs(reference, mem_size);
    addrs.extend(interesting_addrs(candidate, mem_size));
    addrs.sort_unstable();
    addrs.dedup();
    for trial in 0..cfg.trials {
        let trial_seed = cfg.seed ^ u64::from(trial).wrapping_mul(0xA076_1D64_78BD_642F);
        let (mr, tr) = run_one(reference, &addrs, cfg, trial_seed, trial);
        let (mc, tc) = run_one(candidate, &addrs, cfg, trial_seed, trial);
        if let Some(detail) = compare(&mr, &tr, &mc, &tc) {
            return Err(DiffMismatch {
                trial,
                seed: trial_seed,
                detail,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::{BranchTarget, Cond, Operand::*, ShiftKind, Size::L};

    #[test]
    fn identical_sequences_pass() {
        let seq = vec![
            Instr::Move(L, Imm(5), Dr(0)),
            Instr::Add(L, Dr(1), Dr(0)),
            Instr::Rts,
        ];
        diff_check(&seq, &seq, &DiffConfig::default()).unwrap();
    }

    #[test]
    fn masked_strength_reduction_is_equivalent() {
        // mulu.w #8,d0 == and.l #0xFFFF,d0 ; lsl.l #3,d0 (the 16-bit
        // operand mask makes the shifted-out carry always zero).
        let mul = vec![Instr::MulU(Imm(8), 0)];
        let shift = vec![
            Instr::And(L, Imm(0xFFFF), Dr(0)),
            Instr::Shift(ShiftKind::Lsl, L, Imm(3), Dr(0)),
        ];
        diff_check(&mul, &shift, &DiffConfig::default()).unwrap();
    }

    #[test]
    fn unmasked_shift_is_caught() {
        // lsl.l #3,d0 alone is NOT mulu #8: the high word leaks.
        let mul = vec![Instr::MulU(Imm(8), 0)];
        let shift = vec![Instr::Shift(ShiftKind::Lsl, L, Imm(3), Dr(0))];
        assert!(diff_check(&mul, &shift, &DiffConfig::default()).is_err());
    }

    #[test]
    fn dropped_store_is_caught() {
        let reference = vec![
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Move(L, Imm(1), Dr(1)),
        ];
        let candidate = vec![Instr::Move(L, Imm(1), Dr(1))];
        let err = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert!(err.detail.contains("memory differs"), "{err}");
    }

    #[test]
    fn flag_divergence_is_caught() {
        // tst sets N/Z from d0; dropping it leaves the random initial
        // CCR in place, which some trial is bound to expose.
        let reference = vec![Instr::Tst(L, Dr(0))];
        let candidate = vec![Instr::Nop];
        assert!(diff_check(&reference, &candidate, &DiffConfig::default()).is_err());
    }

    #[test]
    fn kcall_selector_is_part_of_the_contract() {
        let reference = vec![Instr::KCall(0x21)];
        let candidate = vec![Instr::KCall(0x22)];
        let err = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert!(err.detail.contains("exit differs"), "{err}");
    }

    #[test]
    fn branches_and_presets_exercise_both_paths() {
        // A guard on d1 == 42: the taken and fallthrough paths set
        // different registers. Presets steer odd trials down the match
        // path; a candidate that breaks only that path must fail.
        let guarded = |matched: u32| {
            vec![
                Instr::Cmp(L, Imm(42), Dr(1)),
                Instr::Bcc(Cond::Ne, BranchTarget::Idx(3)),
                Instr::Move(L, Imm(matched), Dr(0)),
                Instr::Rts,
            ]
        };
        let cfg = DiffConfig {
            preset_sets: vec![vec![(true, 1, 42)]],
            ..DiffConfig::default()
        };
        diff_check(&guarded(7), &guarded(7), &cfg).unwrap();
        assert!(diff_check(&guarded(7), &guarded(8), &cfg).is_err());
    }

    #[test]
    fn mismatch_is_replayable() {
        let reference = vec![Instr::Move(L, Imm(1), Dr(0))];
        let candidate = vec![Instr::Move(L, Imm(2), Dr(0))];
        let e1 = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        let e2 = diff_check(&reference, &candidate, &DiffConfig::default()).unwrap_err();
        assert_eq!(e1, e2, "same seed, same mismatch");
    }
}
