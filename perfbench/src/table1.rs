//! `unix_table1`: Table 1 rows 2–7 as seeded, fresh-booted jobs.
//!
//! Each job is one Appendix-A-shaped UNIX binary — pipe write/read-back
//! at 1 B, 1 KB or 4 KB, file write/read at 1 KB, or `open`+`close` of
//! `/dev/null` or `/dev/tty` — with a seeded iteration count. The
//! binary boots fresh under `boot_with_program(measurement_config())`
//! with fusion on (the paper's one-binary-per-run method) and runs,
//! untimed, on the SunOS model as the reference. Unlike the stock
//! programs, these keep their own books: the number of UNIX calls made,
//! the sum of every call's return value, and a running sum of the first
//! word read back. The books live in registers both kernels preserve
//! across calls (`d4`, `a4`, `a5`; the stock programs keep `d5`–`d7` live
//! the same way) and are stored to user memory once, before `exit`. The
//! host compares them and the bytes read back between the two kernels.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
use quamachine::machine::RunExit;
use synthesis_bench::measurement_config;
use synthesis_codegen::creator::CreatorStats;
use synthesis_core::kernel::KernelConfig;
use synthesis_unix::abi;
use synthesis_unix::emu::{boot_with_program, UnixEmulator};
use synthesis_unix::programs::{self, addrs};
use synthesis_unix::sunos::Sunos;

use crate::common::{geomean, median, ratio, Job, Metrics, Rng, Tracer};
use crate::Limits;

/// Job kinds, in Table 1 row order (rows 2–7).
pub const KINDS: [&str; 6] = [
    "pipe_1",
    "pipe_1k",
    "pipe_4k",
    "file_1k",
    "open_null",
    "open_tty",
];

/// Jobs of each kind in one deck of 20. A run is whole decks, each
/// shuffled by the seed, so every run has the same mix: the host-time
/// median always falls among the file jobs and the 90th percentile
/// among the pipe jobs, whatever the seed.
const DECK: [usize; 6] = [2, 2, 1, 6, 5, 4];
/// Jobs per deck.
pub const DECK_LEN: usize = 20;

/// Iterations of each kind at the scale `tables --table 1` uses
/// (`--iters 40`); a job draws its count within ±25 % of this.
const BASE_ITERS: [u32; 6] = [1000, 40, 10, 20, 20, 20];

/// Write-side buffer (the program changes one byte of it per pass).
const BUF_W: u32 = addrs::BUF;
/// Read-side buffer.
const BUF_R: u32 = addrs::BUF + 0x1000;
/// Where the program stores its books before `exit`: UNIX calls made,
/// sum of return values, running sum of the first longword read back.
const NCALLS: u32 = addrs::RESULT;
const RETSUM: u32 = addrs::RESULT + 4;
const XSUM: u32 = addrs::RESULT + 8;

/// One generated job.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Loop iterations.
    pub iters: u32,
}

impl Spec {
    fn chunk(self) -> u32 {
        match self.kind {
            0 => 1,
            2 => 4096,
            _ => 1024,
        }
    }

    fn is_file(self) -> bool {
        self.kind == 3
    }

    /// UNIX calls the binary makes before `exit`.
    fn calls(self) -> u32 {
        match self.kind {
            0..=2 => 1 + 2 * self.iters,
            3 => 2 + 4 * self.iters,
            _ => 2 * self.iters,
        }
    }

    /// Bytes the host compares after the run: the read buffer's
    /// transfer size (none for the open/close kinds).
    fn read_back(self) -> u32 {
        if self.kind <= 3 {
            self.chunk()
        } else {
            0
        }
    }

    /// The job's UNIX binary.
    pub fn program(self) -> Asm {
        binary(KINDS[self.kind], |a| match self.kind {
            0..=2 => pipe_program(a, self.chunk(), self.iters),
            3 => file_program(a, self.iters),
            _ => open_close_program(a, if self.kind == 4 { NULL } else { TTY }, self.iters),
        })
    }
}

/// Offsets of `/dev/null`, `/dev/tty` and `/tmp/bench` in the path
/// blob both kernels load.
pub const NULL: u32 = 0;
pub const TTY: u32 = 0x10;
pub const FILE: u32 = 0x20;

/// A UNIX binary: clear the books, `body`, store the books, `exit(0)`.
fn binary(name: &str, body: impl FnOnce(&mut Asm)) -> Asm {
    let mut a = Asm::new(format!("bench_{name}"));
    a.move_i(L, 0, Dr(4));
    a.move_i(L, 0, Ar(4));
    a.move_i(L, 0, Ar(5));
    body(&mut a);
    a.move_(L, Dr(4), Abs(NCALLS));
    a.move_(L, Ar(4), Abs(RETSUM));
    a.move_(L, Ar(5), Abs(XSUM));
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    a
}

/// `iters` × `open`+`close` of the path at `path_off`.
pub fn open_close_binary(path_off: u32, iters: u32) -> Asm {
    binary("ref_open_close", |a| open_close_program(a, path_off, iters))
}

/// `iters` × pipe `write`+`read` of `chunk` bytes.
pub fn pipe_binary(chunk: u32, iters: u32) -> Asm {
    binary("ref_pipe", |a| pipe_program(a, chunk, iters))
}

/// `open("/dev/null")`, then `iters` writes of `chunk` bytes.
pub fn null_write_binary(chunk: u32, iters: u32) -> Asm {
    binary("ref_null_write", |a| {
        call(a, abi::SYS_OPEN, |a| {
            a.lea(Abs(addrs::PATHS + NULL), 0);
            a.move_i(L, 1, Dr(1)); // O_WRONLY
        });
        a.move_(L, Dr(0), Dr(6));
        a.move_i(L, iters, Dr(7));
        let top = a.here();
        call(a, abi::SYS_WRITE, |a| {
            a.move_(L, Dr(6), Dr(1));
            a.lea(Abs(BUF_W), 0);
            a.move_i(L, chunk, Dr(2));
        });
        a.sub(L, Imm(1), Dr(7));
        a.bcc(Cond::Ne, top);
    })
}

/// Guest µs per UNIX call of `program` on the SunOS model, the calls
/// counted by the program's own books.
///
/// # Errors
///
/// The reason the program did not run to its exit.
pub fn sunos_us_per_call(program: Asm, limits: &Limits) -> Result<f64, String> {
    let mut s = Sunos::boot();
    let entry = s.load_program(program);
    s.m.mem.poke_bytes(addrs::PATHS, &programs::path_blob());
    s.write_bench_file(&[0x5Au8; 4096]);
    let us0 = s.m.now_us();
    match s.run_program(entry, limits.job_cycles) {
        RunExit::Halted => Ok(ratio(
            s.m.now_us() - us0,
            f64::from(s.m.mem.peek(NCALLS, L)),
        )),
        other => Err(format!(
            "reference binary ended with {other:?} on the SunOS model"
        )),
    }
}

/// Guest µs per UNIX call of `program` on Synthesis booted under `cfg`.
///
/// # Errors
///
/// The reason the program did not boot or run to its exit.
pub fn synthesis_us_per_call(
    cfg: &KernelConfig,
    program: Asm,
    limits: &Limits,
) -> Result<f64, String> {
    let (mut emu, tid) = boot_with_program(cfg.clone(), program).map_err(|e| e.to_string())?;
    let us0 = emu.k.m.now_us();
    if !emu.run_until_exit(tid, limits.job_cycles) {
        return Err("reference binary did not exit on Synthesis".into());
    }
    let calls = emu.k.m.mem.peek(NCALLS, L);
    Ok(ratio(emu.k.m.now_us() - us0, f64::from(calls)))
}

/// `trap #3` for call `sysno`, then the books: count the call (`d4`)
/// and add its return value (`a4`).
fn call(a: &mut Asm, sysno: u32, args: impl FnOnce(&mut Asm)) {
    a.move_i(L, sysno, Dr(0));
    args(a);
    a.trap(abi::UNIX_TRAP);
    a.add(L, Imm(1), Dr(4));
    a.add(L, Dr(0), Ar(4));
}

/// Fold the first longword read back into the running sum (`a5`).
fn fold_read_back(a: &mut Asm) {
    a.add(L, Abs(BUF_R), Ar(5));
}

fn pipe_program(a: &mut Asm, chunk: u32, iters: u32) {
    call(a, abi::SYS_PIPE, |_| {});
    a.move_(L, Dr(0), Dr(5));
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    a.add(B, Dr(7), Abs(BUF_W)); // new data every pass
    call(a, abi::SYS_WRITE, |a| {
        a.move_(L, Dr(5), Dr(1));
        a.and(L, Imm(0xFF), Dr(1));
        a.lea(Abs(BUF_W), 0);
        a.move_i(L, chunk, Dr(2));
    });
    call(a, abi::SYS_READ, |a| {
        a.move_(L, Dr(5), Dr(1));
        a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
        a.lea(Abs(BUF_R), 0);
        a.move_i(L, chunk, Dr(2));
    });
    fold_read_back(a);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
}

fn file_program(a: &mut Asm, iters: u32) {
    call(a, abi::SYS_OPEN, |a| {
        a.lea(Abs(addrs::PATHS + FILE), 0);
        a.move_i(L, 2, Dr(1)); // O_RDWR
    });
    a.move_(L, Dr(0), Dr(6));
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    a.add(B, Dr(7), Abs(BUF_W));
    let seek0 = |a: &mut Asm| {
        a.move_(L, Dr(6), Dr(1));
        a.move_i(L, 0, Dr(2));
    };
    call(a, abi::SYS_LSEEK, seek0);
    call(a, abi::SYS_WRITE, |a| {
        a.move_(L, Dr(6), Dr(1));
        a.lea(Abs(BUF_W), 0);
        a.move_i(L, 1024, Dr(2));
    });
    call(a, abi::SYS_LSEEK, seek0);
    call(a, abi::SYS_READ, |a| {
        a.move_(L, Dr(6), Dr(1));
        a.lea(Abs(BUF_R), 0);
        a.move_i(L, 1024, Dr(2));
    });
    fold_read_back(a);
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    call(a, abi::SYS_CLOSE, |a| a.move_(L, Dr(6), Dr(1)));
}

fn open_close_program(a: &mut Asm, path_off: u32, iters: u32) {
    a.move_i(L, iters, Dr(7));
    let top = a.here();
    call(a, abi::SYS_OPEN, |a| {
        a.lea(Abs(addrs::PATHS + path_off), 0);
        a.move_i(L, 0, Dr(1));
    });
    a.move_(L, Dr(0), Dr(6));
    call(a, abi::SYS_CLOSE, |a| a.move_(L, Dr(6), Dr(1)));
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
}

/// The workload's state after set-up.
pub struct State {
    cfg: KernelConfig,
    specs: Vec<Spec>,
    /// Initial contents of the write buffer, the same on both kernels.
    pattern: Vec<u8>,
    /// Per-job layer figures, filled as jobs run.
    detail: Vec<Detail>,
}

/// Layer figures of one job (host spans are in the tracer).
#[derive(Debug, Clone, Default)]
struct Detail {
    instrs: u64,
    exceptions: u64,
    boot_s: f64,
    run_s: f64,
    sunos_s: f64,
    sunos_us: f64,
    sunos_instrs: u64,
    codegen: [u64; 4],
    dropped: u64,
}

/// The Table-1 configuration with every field the numbers depend on set
/// here, so no environment variable can move them.
fn config() -> KernelConfig {
    KernelConfig {
        cpus: 1,
        fuse: true,
        cache_budget: 128 * 1024,
        default_quantum_us: 50_000,
        ..measurement_config()
    }
}

/// Generate `decks` shuffled decks of jobs and run the compute
/// calibration (Table 1 row 1) on both kernels. Returns the state, or
/// the reason the calibration failed.
pub fn setup(seed: u64, decks: usize, limits: &Limits) -> Result<State, String> {
    let mut rng = Rng::new(seed, 1);
    let mut kinds = Vec::with_capacity(decks * DECK_LEN);
    for _ in 0..decks {
        let mut deck: Vec<usize> = DECK
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut deck);
        kinds.extend(deck);
    }
    // Iteration counts per kind are stratified over ±25 % of the base:
    // every job's count is seeded, a run's total work hardly is.
    let mut iters: Vec<Vec<u32>> = (0..KINDS.len())
        .map(|k| {
            let n = kinds.iter().filter(|&&x| x == k).count();
            let base = f64::from(BASE_ITERS[k]);
            rng.stratified(n, 0.75, 1.25)
                .into_iter()
                .map(|f| (base * f).round().max(1.0) as u32)
                .collect()
        })
        .collect();
    let specs: Vec<Spec> = kinds
        .into_iter()
        .map(|kind| Spec {
            kind,
            iters: iters[kind].pop().expect("one count per job"),
        })
        .collect();
    let pattern: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
    let cfg = config();

    // Calibration: the compute-bound program must produce the same
    // checksum on both kernels.
    let cal = || programs::compute(1024, 2);
    let mut s = Sunos::boot();
    let entry = s.load_program(cal());
    if s.run_program(entry, limits.job_cycles) != RunExit::Halted {
        return Err("calibration did not finish on the SunOS model".into());
    }
    let sun_sum = s.m.mem.peek(addrs::RESULT, L);
    let (mut emu, tid) = boot_with_program(cfg.clone(), cal()).map_err(|e| e.to_string())?;
    if !emu.run_until_exit(tid, limits.job_cycles) {
        return Err("calibration did not finish on Synthesis".into());
    }
    let syn_sum = emu.k.m.mem.peek(addrs::RESULT, L);
    if sun_sum != syn_sum {
        return Err(format!(
            "calibration checksums differ: SunOS {sun_sum:#x}, Synthesis {syn_sum:#x}"
        ));
    }
    let mut st = State {
        cfg,
        specs,
        pattern,
        detail: Vec::new(),
    };
    // Warm-up, untimed: one job each of open/close, file and pipe, so
    // every bind-time synthesis path has run once.
    let mut off = Tracer::new(false);
    for kind in [4, 3, 2] {
        let spec = Spec {
            kind,
            iters: BASE_ITERS[kind],
        };
        let (job, _) = run_spec(&st, spec, limits, &mut off);
        if !job.ok {
            return Err(format!("warm-up {} job failed: {}", KINDS[kind], job.why));
        }
    }
    st.detail.clear();
    Ok(st)
}

impl State {
    /// Jobs in the run.
    pub fn len(&self) -> usize {
        self.specs.len()
    }
}

/// What the host compares between the two kernels.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    ncalls: u32,
    retsum: u32,
    xsum: u32,
    read_back: Vec<u8>,
}

fn books(mem: &quamachine::mem::Memory, spec: Spec) -> Books {
    Books {
        ncalls: mem.peek(NCALLS, L),
        retsum: mem.peek(RETSUM, L),
        xsum: mem.peek(XSUM, L),
        read_back: mem.peek_bytes(BUF_R, spec.read_back()),
    }
}

fn make_bench_file(emu: &mut UnixEmulator) -> Result<(), String> {
    let fid = emu
        .k
        .fs
        .create(&mut emu.k.m, &mut emu.k.heap, "/tmp/bench", 65536)
        .map_err(|e| format!("{e:?}"))?;
    emu.k.fs.write_contents(&mut emu.k.m, fid, &[0x5Au8; 4096]);
    Ok(())
}

fn stats_of(s: &CreatorStats) -> [u64; 6] {
    [
        s.synthesized,
        s.superopt_windows,
        s.superopt_accepted,
        s.equiv_checked,
        s.cache_hits,
        s.cache_misses,
    ]
}

/// Run job `i`: boot, run on Synthesis (timed), then the reference run
/// on the SunOS model (untimed) and the comparison.
pub fn run_job(st: &mut State, i: usize, limits: &Limits, tr: &mut Tracer) -> Job {
    let (job, detail) = run_spec(st, st.specs[i], limits, tr);
    st.detail.push(detail);
    job
}

fn run_spec(st: &State, spec: Spec, limits: &Limits, tr: &mut Tracer) -> (Job, Detail) {
    let mut d = Detail::default();
    let t0 = Instant::now();
    let job_span = tr.enter("bench.job");

    let (booted, boot_s) = tr.span("unix.boot", || {
        boot_with_program(st.cfg.clone(), spec.program())
    });
    d.boot_s = boot_s;
    let (mut emu, tid) = match booted {
        Ok(b) => b,
        Err(e) => {
            tr.exit(job_span);
            return (failed(spec, t0, format!("boot: {e}")), d);
        }
    };
    emu.k.m.mem.poke_bytes(BUF_W, &st.pattern);
    if let Err(e) = spec
        .is_file()
        .then(|| make_bench_file(&mut emu))
        .transpose()
    {
        tr.exit(job_span);
        return (failed(spec, t0, format!("bench file: {e}")), d);
    }
    let m0 = emu.k.m.meter.snapshot();
    let c0 = stats_of(&emu.k.creator.stats);
    let us0 = emu.k.m.now_us();

    // Run in slices so a stuck job stops at the host deadline too. The
    // emulator panics on a machine error; that fails the job, not the run.
    let run_span = tr.enter("unix.run");
    let deadline = t0 + limits.job_host;
    let cap = m0.cycles + limits.job_cycles;
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut exited = false;
        while !exited && emu.k.m.meter.cycles < cap && Instant::now() < deadline {
            let slice = limits.slice_cycles.min(cap - emu.k.m.meter.cycles);
            exited = emu.run_until_exit(tid, slice);
        }
        exited
    }));
    d.run_s = tr.exit(run_span);
    let Ok(exited) = ran else {
        tr.exit(job_span);
        return (failed(spec, t0, "machine error under emulation".into()), d);
    };
    let host_s = t0.elapsed().as_secs_f64();
    tr.exit(job_span);

    let guest_us = emu.k.m.now_us() - us0;
    let m1 = emu.k.m.meter.snapshot();
    let dm = m0.delta(&m1);
    let c1 = stats_of(&emu.k.creator.stats);
    let dc: Vec<u64> = c0.iter().zip(&c1).map(|(a, b)| b - a).collect();
    d.instrs = dm.instr_count;
    d.exceptions = dm.exception_count;
    d.codegen = [dc[0], dc[1], dc[2], dc[3]];
    d.dropped = emu.k.trace.dropped;
    let syn = books(&emu.k.m.mem, spec);
    drop(emu);

    // The reference: the same binary on the SunOS model.
    let sun_span = tr.enter("unix.sunos.run");
    let ts = Instant::now();
    let mut s = Sunos::boot();
    let entry = s.load_program(spec.program());
    s.m.mem.poke_bytes(addrs::PATHS, &programs::path_blob());
    s.m.mem.poke_bytes(BUF_W, &st.pattern);
    if spec.is_file() {
        s.write_bench_file(&[0x5Au8; 4096]);
    }
    let s0 = s.m.meter.snapshot();
    let sus0 = s.m.now_us();
    let sun_exit = s.run_program(entry, limits.job_cycles);
    d.sunos_s = ts.elapsed().as_secs_f64();
    tr.exit(sun_span);
    d.sunos_us = s.m.now_us() - sus0;
    let ds = s0.delta(&s.m.meter.snapshot());
    d.sunos_instrs = ds.instr_count;
    let sun = books(&s.m.mem, spec);

    let why = if !exited {
        "did not exit within its limits".to_string()
    } else if sun_exit != RunExit::Halted {
        format!("SunOS reference ended with {sun_exit:?}")
    } else if syn.ncalls != spec.calls() {
        format!("{} UNIX calls counted, {} made", syn.ncalls, spec.calls())
    } else if syn != sun {
        format!("Synthesis {syn:?} differs from SunOS {sun:?}")
    } else {
        String::new()
    };
    let ops = u64::from(syn.ncalls);
    let mut fingerprint = vec![dm.cycles, dm.instr_count, dm.exception_count, ops];
    fingerprint.extend(&dc);
    fingerprint.extend([ds.cycles, ds.instr_count, d.dropped]);
    let job = Job {
        kind: spec.kind,
        host_s,
        guest_us,
        speedup: ratio(d.sunos_us, guest_us),
        ops,
        ok: why.is_empty(),
        why,
        fingerprint,
    };
    (job, d)
}

fn failed(spec: Spec, t0: Instant, why: String) -> Job {
    Job {
        kind: spec.kind,
        host_s: t0.elapsed().as_secs_f64(),
        guest_us: 0.0,
        speedup: 0.0,
        ops: 0,
        ok: false,
        why,
        fingerprint: vec![u64::MAX],
    }
}

/// Per-layer metrics of the traced pass.
pub fn layer_metrics(st: &State, jobs: &[Job], out: &mut Metrics) {
    let d = &st.detail;
    let total_ops: u64 = jobs.iter().map(|j| j.ops).sum();
    let instrs: u64 = d.iter().map(|x| x.instrs).sum();
    let exc: u64 = d.iter().map(|x| x.exceptions).sum();
    let run_s: f64 = d.iter().map(|x| x.run_s).sum();
    out.put(
        "quamachine.guest_mips",
        ratio(instrs as f64, run_s) / 1e6,
        "MIPS",
    );
    out.put(
        "quamachine.instrs_per_op",
        ratio(instrs as f64, total_ops as f64),
        "instr/op",
    );
    out.put(
        "quamachine.exceptions_per_op",
        ratio(exc as f64, total_ops as f64),
        "exc/op",
    );
    let boots: Vec<f64> = d.iter().map(|x| x.boot_s * 1e3).collect();
    out.put("unix.boot.host_ms", median(&boots), "ms");
    for (k, name) in KINDS.iter().enumerate() {
        let of_kind: Vec<(&Job, &Detail)> =
            jobs.iter().zip(d).filter(|(j, _)| j.kind == k).collect();
        if of_kind.is_empty() {
            continue;
        }
        let runs: Vec<f64> = of_kind.iter().map(|(_, x)| x.run_s * 1e3).collect();
        out.put(format!("unix.run.host_ms.{name}"), median(&runs), "ms");
        let kops: u64 = of_kind.iter().map(|(j, _)| j.ops).sum();
        let kexc: u64 = of_kind.iter().map(|(_, x)| x.exceptions).sum();
        out.put(
            format!("unix.traps_per_op.{name}"),
            ratio(kexc as f64, kops as f64),
            "exc/op",
        );
        let n = of_kind.len() as f64;
        let sum = |f: usize| of_kind.iter().map(|(_, x)| x.codegen[f]).sum::<u64>() as f64;
        out.put(
            format!("codegen.superopt_windows_per_job.{name}"),
            sum(1) / n,
            "count",
        );
        out.put(
            format!("codegen.equiv_checked_per_job.{name}"),
            sum(3) / n,
            "count",
        );
    }
    let sun_per_op: Vec<f64> = jobs
        .iter()
        .zip(d)
        .filter(|(j, x)| j.ops > 0 && x.sunos_us > 0.0)
        .map(|(j, x)| x.sunos_us / j.ops as f64)
        .collect();
    if !sun_per_op.is_empty() {
        out.put("unix.sunos.guest_us_per_op", geomean(&sun_per_op), "us");
    }
    let sun_ms: Vec<f64> = d.iter().map(|x| x.sunos_s * 1e3).collect();
    out.put("unix.sunos.host_ms", median(&sun_ms), "ms");
    let sun_instrs: u64 = d.iter().map(|x| x.sunos_instrs).sum();
    let sun_s: f64 = d.iter().map(|x| x.sunos_s).sum();
    out.put(
        "unix.sunos.guest_mips",
        ratio(sun_instrs as f64, sun_s) / 1e6,
        "MIPS",
    );
    let n = d.len() as f64;
    let sum = |f: usize| d.iter().map(|x| x.codegen[f]).sum::<u64>() as f64;
    out.put("codegen.synthesized_per_job", sum(0) / n, "count");
    out.put("codegen.superopt_windows_per_job", sum(1) / n, "count");
    out.put(
        "codegen.superopt_accept_ratio",
        ratio(sum(2), sum(1)),
        "ratio",
    );
    out.put("codegen.equiv_checked_per_job", sum(3) / n, "count");
    out.put(
        "core.trace.dropped",
        d.iter().map(|x| x.dropped).sum::<u64>() as f64,
        "count",
    );
}
