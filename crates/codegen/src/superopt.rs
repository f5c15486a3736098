//! The cost-guided superoptimizer.
//!
//! Synthesis templates are hand-written for clarity, not for the last
//! cycle. This module closes the gap the way the paper's author closed
//! it by hand: propose candidate instruction sequences, keep only the
//! ones *proven* equivalent, and among those keep the cheapest under
//! the explicit cycle-cost model ([`crate::cost`]).
//!
//! The search is a seeded stochastic hill-climb over the maximal
//! straight-line windows of a block (the shape of stochastic
//! superoptimization à la STOKE, scoped to what our differential
//! checker can certify):
//!
//! - **windows** — runs of side-effect-comparable instructions: no
//!   control flow, no kcalls/traps, no device registers, never entered
//!   mid-run (branch targets and entry marks break windows);
//! - **mutations** — delete an instruction, swap adjacent independent
//!   instructions, or apply an algebraic identity (e.g. `mulu #2ᵏ` →
//!   mask + shift);
//! - **acceptance** — a mutation survives only if it scores strictly
//!   cheaper AND passes differential-execution equivalence against the
//!   window's *original* code ([`crate::equiv`]), so accepted chains
//!   can never drift from the reference semantics.
//!
//! Every run is replayable from its seed.
//!
//! The search runs offline, never when code is synthesized: the
//! creator installs factor + peephole output behind the equivalence
//! gate, and a miner test runs this search over the installed
//! templates and fails if it finds a cheaper equivalent sequence that
//! [`crate::peephole`] misses. Wins it finds are promoted to peephole
//! rewrites (the `mulu #2ᵏ` and store-reload rules came from here).

use std::collections::HashMap;

use quamachine::cost::CostModel;
use quamachine::devices::DEV_BASE;
use quamachine::isa::{Instr, Operand, ShiftKind, Size};

use crate::cost;
use crate::equiv::{self, DiffConfig, Rng};
use crate::peephole;
use crate::rewrite;

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SuperoptConfig {
    /// Seed for the mutation stream (replayable).
    pub seed: u64,
    /// Mutation attempts per window.
    pub budget: u32,
    /// Smallest window worth searching.
    pub min_window: usize,
    /// Differential trials per candidate that passes the cost gate.
    pub trials: u32,
}

impl Default for SuperoptConfig {
    fn default() -> Self {
        SuperoptConfig {
            seed: 0x5EED_50FA_57E5_7EA1,
            budget: 48,
            min_window: 1,
            trials: 4,
        }
    }
}

/// What a search run did (exposed through creator stats and the
/// EXPERIMENTS.md reproduction line).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SuperoptStats {
    /// Straight-line windows searched.
    pub windows: u32,
    /// Mutations proposed.
    pub proposed: u32,
    /// Candidates that passed the cost gate and were equivalence-checked.
    pub checked: u32,
    /// Candidates accepted (equivalent and cheaper).
    pub accepted: u32,
    /// Static cycles shaved off the common path.
    pub cycles_saved: u64,
}

/// Instructions the differential checker can fully observe: data and
/// memory effects only, no control transfer, no host calls.
fn searchable(i: &Instr) -> bool {
    use Instr::*;
    let shape_ok = matches!(
        i,
        Move(..)
            | Lea(..)
            | Add(..)
            | Sub(..)
            | Cmp(..)
            | Tst(..)
            | And(..)
            | Or(..)
            | Eor(..)
            | Not(..)
            | Neg(..)
            | MulU(..)
            | DivU(..)
            | Shift(..)
            | Swap(..)
            | Ext(..)
            | Scc(..)
            | Nop
    );
    shape_ok
        && !i.has_hole()
        && i.operands().iter().all(|op| match op {
            // Device registers are volatile: reads have side effects
            // and dropped writes are invisible to a memory compare.
            Operand::Abs(a) => *a < DEV_BASE,
            _ => true,
        })
}

/// A store-SR observes the X flag, which the checker does not compare;
/// windows feeding one are skipped entirely.
fn observes_x(i: Option<&Instr>) -> bool {
    matches!(i, Some(Instr::MoveSr { to_sr: false, .. }))
}

/// Whether `i` writes all of N/Z/V/C as a pure function of the machine
/// state *after* it executes — its exit flags are recoverable from the
/// final compared state. For a window whose flags are live-out, "the
/// candidate ends with the identical instruction, and it is
/// flags-recoverable" upgrades the statistical CCR trials to a proof:
/// equal final states imply equal exit flags, so a lucky trial run can
/// never smuggle in a flag-changing mutation (the way a deleted `cmp`
/// before a `bcc` once survived four trials whose N bits happened to
/// collide).
///
/// Excluded on purpose: shifts (`C` is the last bit shifted out, lost
/// from the result), `divu` (overflow leaves the operands untouched),
/// and `add`/`sub` whose source aliases their destination (`add d0,d0`
/// loses the pre-state carry bit).
fn flags_recoverable(i: &Instr) -> bool {
    use Instr::*;
    match i {
        Move(_, _, dst) => !matches!(dst, Operand::Ar(_)),
        Add(_, src, dst) | Sub(_, src, dst) => !matches!(dst, Operand::Ar(_)) && src != dst,
        Cmp(..) | Tst(..) | And(..) | Or(..) | Eor(..) | Not(..) | Neg(..) | Swap(..) | Ext(..)
        | MulU(..) => true,
        _ => false,
    }
}

/// Maximal searchable windows `[start, end)` of `instrs`, honoring
/// branch targets and entry marks as hard boundaries.
fn windows(instrs: &[Instr], marks: &HashMap<String, usize>, min: usize) -> Vec<(usize, usize)> {
    let mut boundary = rewrite::branch_target_flags(instrs);
    for &idx in marks.values() {
        if let Some(b) = boundary.get_mut(idx) {
            *b = true;
        }
    }
    let mut out = Vec::new();
    let mut s = 0;
    while s < instrs.len() {
        if !searchable(&instrs[s]) {
            s += 1;
            continue;
        }
        let mut e = s + 1;
        while e < instrs.len() && searchable(&instrs[e]) && !boundary[e] {
            e += 1;
        }
        if e - s >= min && !observes_x(instrs.get(e)) {
            out.push((s, e));
        }
        s = e;
    }
    out
}

/// Propose one mutated copy of `seq`, or `None` if the chosen mutation
/// does not apply.
fn mutate(seq: &[Instr], rng: &mut Rng) -> Option<Vec<Instr>> {
    if seq.is_empty() {
        return None;
    }
    let mut out = seq.to_vec();
    match rng.next_u32() % 3 {
        // Delete one instruction.
        0 => {
            let i = rng.next_u32() as usize % out.len();
            out.remove(i);
        }
        // Swap two adjacent instructions.
        1 => {
            if out.len() < 2 {
                return None;
            }
            let i = rng.next_u32() as usize % (out.len() - 1);
            out.swap(i, i + 1);
        }
        // Algebraic identity: mulu.w #2^k,dN → and.l #0xFFFF,dN ;
        // lsl.l #k,dN (the 16-bit operand mask keeps the shifted-out
        // carry at zero, so N/Z/V/C all match).
        _ => {
            let i = out.iter().position(
                |x| matches!(x, Instr::MulU(Operand::Imm(v), _) if v.is_power_of_two() && *v <= 0x8000),
            )?;
            let Instr::MulU(Operand::Imm(v), d) = out[i] else {
                return None;
            };
            let k = v.trailing_zeros();
            out.splice(
                i..=i,
                [
                    Instr::And(Size::L, Operand::Imm(0xFFFF), Operand::Dr(d)),
                    Instr::Shift(ShiftKind::Lsl, Size::L, Operand::Imm(k), Operand::Dr(d)),
                ],
            );
        }
    }
    Some(out)
}

/// Superoptimize one window: seeded hill-climb, equivalence-gated.
///
/// `flags_live` means the window's exit flags feed a later reader (a
/// branch, typically). Candidates must then keep the reference's final
/// instruction verbatim, and it must be [`flags_recoverable`] — a
/// deterministic guarantee the trials alone cannot give.
fn search_window(
    original: &[Instr],
    flags_live: bool,
    model: &CostModel,
    cfg: &SuperoptConfig,
    rng: &mut Rng,
    stats: &mut SuperoptStats,
) -> Option<Vec<Instr>> {
    if flags_live && !original.last().is_some_and(flags_recoverable) {
        // Exit flags come from deeper inside the window (or from a
        // non-recoverable writer): nothing here can be certified.
        return None;
    }
    let diff = DiffConfig {
        trials: cfg.trials,
        seed: cfg.seed,
        ..DiffConfig::default()
    };
    let mut cur = original.to_vec();
    let mut cur_cost = cost::score(&cur, model);
    for _ in 0..cfg.budget {
        let Some(cand) = mutate(&cur, rng) else {
            continue;
        };
        if flags_live && cand.last() != original.last() {
            continue;
        }
        stats.proposed += 1;
        let cand_cost = cost::score(&cand, model);
        if cand_cost >= cur_cost && cand != cur {
            // Cost gate: allow equal-cost swaps through occasionally to
            // escape local minima, but never regressions.
            if cand_cost > cur_cost || !rng.next_u32().is_multiple_of(4) {
                continue;
            }
        }
        stats.checked += 1;
        if equiv::diff_check(original, &cand, &diff).is_ok() {
            if cand_cost < cur_cost {
                stats.accepted += 1;
            }
            cur = cand;
            cur_cost = cand_cost;
        }
    }
    let orig_cost = cost::score(original, model);
    if cur_cost < orig_cost {
        stats.cycles_saved += orig_cost - cur_cost;
        Some(cur)
    } else {
        None
    }
}

/// Superoptimize a whole block: search every straight-line window,
/// splice in the winners, return the stats.
#[must_use]
pub fn optimize(
    mut instrs: Vec<Instr>,
    marks: &mut HashMap<String, usize>,
    model: &CostModel,
    cfg: &SuperoptConfig,
) -> (Vec<Instr>, SuperoptStats) {
    let mut stats = SuperoptStats::default();
    let mut rng = Rng(cfg.seed);
    // Back to front so accepted splices do not shift pending windows.
    let ws = windows(&instrs, marks, cfg.min_window);
    stats.windows = ws.len() as u32;
    // Liveness is computed against the pre-splice stream (splices run
    // back to front, so indices past a spliced window would be stale).
    let targets = rewrite::branch_target_flags(&instrs);
    let ws: Vec<(usize, usize, bool)> = ws
        .into_iter()
        .map(|(s, e)| (s, e, !peephole::flags_dead_after(&instrs, e - 1, &targets)))
        .collect();
    for &(s, e, flags_live) in ws.iter().rev() {
        if let Some(better) =
            search_window(&instrs[s..e], flags_live, model, cfg, &mut rng, &mut stats)
        {
            rewrite::splice(&mut instrs, marks, s, e, better);
        }
    }
    (instrs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::isa::{BranchTarget, Cond, Operand::*, Size::L};

    fn model() -> CostModel {
        CostModel::sun3_emulation()
    }

    #[test]
    fn finds_strength_reduction() {
        // The seeded search discovers mulu #8 → mask+shift (27 → 6
        // cycles) and proves it equivalent before accepting.
        let instrs = vec![
            Instr::MulU(Imm(8), 0),
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Rts,
        ];
        let mut marks = HashMap::new();
        let cfg = SuperoptConfig::default();
        let (out, stats) = optimize(instrs.clone(), &mut marks, &model(), &cfg);
        assert!(stats.accepted >= 1, "search accepted nothing: {stats:?}");
        assert!(
            cost::score(&out[..out.len() - 1], &model())
                < cost::score(&instrs[..instrs.len() - 1], &model()),
            "result must be cheaper"
        );
        assert!(
            !out.iter().any(|i| matches!(i, Instr::MulU(..))),
            "mulu should be reduced: {out:?}"
        );
    }

    #[test]
    fn optimizes_and_proves_blocks() {
        // The search alone (no peephole pass) finds mask+shift for the
        // multiply, and the whole optimized block passes the same
        // differential check the creator gates fused blocks with.
        let reference = vec![
            Instr::MulU(Imm(8), 0),
            Instr::Move(L, Dr(0), Abs(0x2000)),
            Instr::Rts,
        ];
        let mut marks = HashMap::new();
        let (out, stats) = optimize(
            reference.clone(),
            &mut marks,
            &model(),
            &SuperoptConfig::default(),
        );
        assert!(stats.accepted >= 1, "{stats:?}");
        assert!(stats.cycles_saved >= 20, "{stats:?}");
        assert!(
            !out.iter().any(|i| matches!(i, Instr::MulU(..))),
            "strength-reduced: {out:?}"
        );
        equiv::diff_check(&reference, &out, &DiffConfig::default()).unwrap();
    }

    #[test]
    fn search_is_replayable() {
        let instrs = vec![
            Instr::MulU(Imm(16), 2),
            Instr::Add(L, Dr(2), Dr(3)),
            Instr::Rts,
        ];
        let cfg = SuperoptConfig::default();
        let mut marks1 = HashMap::new();
        let mut marks2 = HashMap::new();
        let (a, sa) = optimize(instrs.clone(), &mut marks1, &model(), &cfg);
        let (b, sb) = optimize(instrs, &mut marks2, &model(), &cfg);
        assert_eq!(a, b, "same seed, same code");
        assert_eq!(sa, sb);
    }

    #[test]
    fn live_out_flags_pin_the_final_compare() {
        // Regression for a soundness hole found in the fused pipe-write
        // general body: in the window `[move #8192,d0; sub d2,d0;
        // cmp d0,d1]` feeding `bhi`, a candidate that *deleted* the cmp
        // once survived every fixed-seed CCR trial — its exit flags
        // were deterministic while the reference's N bit was a coin
        // flip per trial, so the statistical check had a 1-in-16 escape
        // that fired. The deterministic guard closes it: with flags
        // live into the branch, every candidate must end with the
        // reference's own flags-recoverable final instruction, so the
        // cmp can never be deleted no matter what the trials roll.
        let instrs = vec![
            Instr::Move(L, Imm(8192), Dr(0)),
            Instr::Sub(L, Dr(2), Dr(0)),
            Instr::Cmp(L, Dr(0), Dr(1)),
            Instr::Bcc(Cond::Hi, BranchTarget::Idx(5)),
            Instr::Move(L, Dr(1), Abs(0x2000)),
            Instr::Rts,
        ];
        let mut marks = HashMap::new();
        let cfg = SuperoptConfig {
            budget: 512, // plenty of chances to propose the bad deletion
            ..SuperoptConfig::default()
        };
        let (out, _) = optimize(instrs, &mut marks, &model(), &cfg);
        let bcc_at = out
            .iter()
            .position(|i| matches!(i, Instr::Bcc(Cond::Hi, _)))
            .expect("branch survives");
        assert!(
            matches!(out[bcc_at - 1], Instr::Cmp(L, Dr(0), Dr(1))),
            "the branch must still be fed by the compare: {out:?}"
        );
    }

    #[test]
    fn live_flags_block_deletion() {
        // tst feeds the bcc: deleting it would change the branch, and
        // the checker sees the flag divergence. The window also ends at
        // the branch, so final CCR is compared.
        let instrs = vec![
            Instr::Move(L, Imm(3), Dr(0)),
            Instr::Tst(L, Dr(1)),
            Instr::Bcc(Cond::Eq, BranchTarget::Idx(3)),
            Instr::Rts,
        ];
        let mut marks = HashMap::new();
        let (out, _) = optimize(
            instrs.clone(),
            &mut marks,
            &model(),
            &SuperoptConfig::default(),
        );
        assert!(
            out.iter().any(|i| matches!(i, Instr::Tst(..))),
            "live tst must survive: {out:?}"
        );
    }

    #[test]
    fn branch_targets_survive_splices() {
        // Shrinking a window before a branch target must retarget the
        // branch. mulu #1 → and #0xFFFF ... actually mulu #8 becomes 2
        // instrs (delta +1); the loop skeleton must still verify.
        let instrs = vec![
            Instr::MulU(Imm(8), 1),                     // 0: window (grows to 2)
            Instr::Tst(L, Dr(7)),                       // 1
            Instr::Bcc(Cond::Ne, BranchTarget::Idx(4)), // 2
            Instr::Move(L, Imm(1), Dr(0)),              // 3
            Instr::Rts,                                 // 4: branch target
        ];
        let mut marks = HashMap::new();
        marks.insert("out".into(), 4);
        let (out, _) = optimize(instrs, &mut marks, &model(), &SuperoptConfig::default());
        let rts_at = out.iter().position(|i| matches!(i, Instr::Rts)).unwrap();
        let target = out
            .iter()
            .find_map(|i| match i.branch_target() {
                Some(BranchTarget::Idx(t)) => Some(t as usize),
                _ => None,
            })
            .unwrap();
        assert_eq!(target, rts_at, "branch retargeted to the moved rts");
        assert_eq!(marks["out"], rts_at, "mark moved with the code");
    }

    #[test]
    fn windows_respect_device_registers_and_control() {
        let instrs = vec![
            Instr::Move(L, Dr(0), Abs(0xFF00_0100)), // device: excluded
            Instr::Move(L, Imm(1), Dr(0)),           // window
            Instr::Move(L, Imm(2), Dr(1)),           // window
            Instr::KCall(7),                         // excluded
            Instr::Rts,
        ];
        let marks = HashMap::new();
        let ws = windows(&instrs, &marks, 1);
        assert_eq!(ws, vec![(1, 3)]);
    }
}
