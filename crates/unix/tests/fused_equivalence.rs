//! Fused vs layered pipe and file I/O is observationally equivalent.
//!
//! The contract: collapsing the I/O path into the caller (trap-elided
//! `jsr`-bound wrappers, peephole-optimized bodies behind the
//! equivalence gate) must not change anything a program can see — only
//! how many cycles it costs. These property tests run the same program
//! on two Synthesis kernels, one with `KernelConfig::fuse` on and one
//! layered, on 1/2/4-CPU machines. Every case replays from the test's
//! proptest seed (derived from its name).
//!
//! For pipes, across randomized chunk sizes and data seeds, they
//! compare:
//!
//! - **bytes moved** — the program totals its `read`/`write` return
//!   values into a result slot; both kernels must report the full
//!   `2 × chunk × iters` and the destination buffer must hold the
//!   source bytes (the ring wraps many times for chunks that do not
//!   divide the 8 KB ring),
//! - **TraceQuery event sequence** — the pipe-queue wake events
//!   (`QueuePut`/`QueueGet`, class pipe) must match record for record,
//!   and elision must only ever *remove* syscall traps,
//! - **guest-visible state** — source buffer unclobbered, identical on
//!   both kernels.
//!
//! For files, across random `lseek` + `read`/`write` sequences that hit
//! the `len` (read) and `cap` (write) clamps exactly, one past them, and
//! with zero counts, they compare every call's return value (bytes
//! moved), the bytes each read delivered, the final file contents, and
//! the final offset — on both kernels and against a host model.

use proptest::prelude::*;
use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::L};
use synthesis_core::kernel::KernelConfig;
use synthesis_core::trace::{Kind, TraceQuery, QCLASS_PIPE};
use synthesis_unix::abi;
use synthesis_unix::emu::{boot_with_program, UnixEmulator};
use synthesis_unix::programs::addrs;

/// Destination buffer, disjoint from the source at [`addrs::BUF`].
const DST: u32 = addrs::BUF + 0x4000;

/// Like `programs::pipe_rw`, but reads land in a *separate* buffer and
/// the `read`/`write` return values accumulate into `RESULT` — so the
/// test can check bytes moved and data integrity, not just completion.
fn pipe_xfer(chunk: u32, iters: u32) -> Asm {
    let mut a = Asm::new("prop_pipe_xfer");
    a.move_i(L, abi::SYS_PIPE, Dr(0));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(5)); // (rfd<<8) | wfd
    a.move_i(L, iters, Dr(7));
    a.move_i(L, 0, Dr(6)); // bytes-moved total
    let top = a.here();
    // write(wfd, BUF, chunk)
    a.move_i(L, abi::SYS_WRITE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.and(L, Imm(0xFF), Dr(1));
    a.lea(Abs(addrs::BUF), 0);
    a.move_i(L, chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Dr(6));
    // read(rfd, DST, chunk)
    a.move_i(L, abi::SYS_READ, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.shift(ShiftKind::Lsr, L, Imm(8), Dr(1));
    a.lea(Abs(DST), 0);
    a.move_i(L, chunk, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.add(L, Dr(0), Dr(6));
    a.sub(L, Imm(1), Dr(7));
    a.bcc(Cond::Ne, top);
    a.move_(L, Dr(6), Abs(addrs::RESULT));
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    a
}

/// One run: boot, seed the source buffer, transfer, collect everything
/// a program (or a tracing observer) can see.
struct Observed {
    bytes_moved: u32,
    src: Vec<u8>,
    dst: Vec<u8>,
    pipe_events: Vec<(Kind, u32, u32)>,
    syscall_traps: usize,
}

fn run_one(fuse: bool, cpus: usize, chunk: u32, iters: u32, seed: u64) -> Observed {
    let cfg = KernelConfig {
        fuse,
        cpus,
        ..KernelConfig::default()
    };
    let (mut emu, tid) = boot_with_program(cfg, pipe_xfer(chunk, iters)).expect("boots");
    emu.k
        .m
        .mem
        .poke_bytes(addrs::BUF, &seeded_bytes(seed, chunk));
    assert!(
        emu.run_until_exit(tid, 10_000_000_000),
        "transfer must finish (fuse={fuse}, cpus={cpus}, chunk={chunk}, iters={iters})"
    );
    let bytes_moved = emu.k.m.mem.peek(addrs::RESULT, quamachine::isa::Size::L);
    let src = emu.k.m.mem.peek_bytes(addrs::BUF, chunk);
    let dst = emu.k.m.mem.peek_bytes(DST, chunk);
    let q = TraceQuery::drain(&mut emu.k);
    let pipe_events: Vec<(Kind, u32, u32)> = q
        .records()
        .iter()
        .filter(|r| matches!(r.kind, Kind::QueuePut | Kind::QueueGet) && r.a == QCLASS_PIPE)
        .map(|r| (r.kind, r.a, r.b))
        .collect();
    let syscall_traps = q.thread(tid).count_kind(Kind::SyscallEnter);
    Observed {
        bytes_moved,
        src,
        dst,
        pipe_events,
        syscall_traps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn fused_and_layered_pipes_agree(
        chunk in 1u32..4097,
        iters in 1u32..6,
        seed in any::<u64>(),
        cpus in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let fused = run_one(true, cpus, chunk, iters, seed);
        let layered = run_one(false, cpus, chunk, iters, seed);

        // Bytes moved: both sides count every byte, twice (write+read).
        prop_assert_eq!(fused.bytes_moved, 2 * chunk * iters);
        prop_assert_eq!(fused.bytes_moved, layered.bytes_moved);

        // Data integrity: the destination holds the source bytes and
        // the source is unclobbered, identically on both kernels.
        prop_assert_eq!(&fused.dst, &fused.src);
        prop_assert_eq!(&fused.src, &layered.src);
        prop_assert_eq!(&fused.dst, &layered.dst);

        // The pipe-queue wake events match record for record (a solo
        // pipe that never blocks produces none on either side; any that
        // do fire must agree).
        prop_assert_eq!(&fused.pipe_events, &layered.pipe_events);

        // Trap elision only ever removes syscall traps.
        prop_assert!(
            fused.syscall_traps <= layered.syscall_traps,
            "fused path grew traps: {} > {}",
            fused.syscall_traps,
            layered.syscall_traps
        );
    }
}

/// One file operation of [`file_xfer`]: `lseek(fd, off)` then
/// `write(fd, BUF, n)` or `read(fd, slot, n)`.
#[derive(Debug, Clone, Copy)]
struct FileOp {
    write: bool,
    off: u32,
    n: u32,
}

/// Where each call's return value goes (one long per call, the final
/// offset probe last).
const RESULTS: u32 = addrs::RESULT;
/// Per-read destination slots, one file capacity (≤ 4 KB) apart.
const READ_SLOTS: u32 = addrs::QARRAY;
const SLOT: u32 = 0x1000;
/// Largest file capacity the test creates.
const MAX_CAP: u32 = 4096;

/// Turn raw draws into operations the way the edges want them: each
/// seek lands at 0, at the clamp limit (`cap` for writes, the current
/// `len` for reads), or anywhere up to it; each count is exactly what
/// remains, one past it, zero, or random. Reads never seek past `len`
/// (the file body's remaining-bytes subtraction assumes they do not).
fn plan(raw: &[(bool, u32, u32)], cap: u32, len0: u32) -> Vec<FileOp> {
    let mut len = len0;
    raw.iter()
        .map(|&(write, o, n)| {
            let limit = if write { cap } else { len };
            let off = match o % 4 {
                0 => 0,
                1 => limit,
                _ => (o >> 2) % (limit + 1),
            };
            let room = limit - off;
            let n = match n % 4 {
                0 => room,
                1 => room + 1,
                2 => 0,
                _ => (n >> 2) % 3000,
            };
            if write {
                len = len.max(off + n.min(room));
            }
            FileOp { write, off, n }
        })
        .collect()
}

/// Open `/tmp/bench`, run `ops`, then probe the final offset with a
/// read of everything that remains (the offset never passes `len`), and
/// store every call's return value at [`RESULTS`].
fn file_xfer(ops: &[FileOp]) -> Asm {
    let mut a = Asm::new("prop_file_xfer");
    a.move_i(L, abi::SYS_OPEN, Dr(0));
    a.lea(Abs(addrs::PATHS + 0x20), 0);
    a.move_i(L, 2, Dr(1)); // O_RDWR
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Dr(6));
    let mut result = RESULTS;
    for (i, op) in ops.iter().enumerate() {
        a.move_i(L, abi::SYS_LSEEK, Dr(0));
        a.move_(L, Dr(6), Dr(1));
        a.move_i(L, op.off, Dr(2));
        a.trap(abi::UNIX_TRAP);
        let (sysno, buf) = if op.write {
            (abi::SYS_WRITE, addrs::BUF)
        } else {
            (abi::SYS_READ, READ_SLOTS + i as u32 * SLOT)
        };
        a.move_i(L, sysno, Dr(0));
        a.move_(L, Dr(6), Dr(1));
        a.lea(Abs(buf), 0);
        a.move_i(L, op.n, Dr(2));
        a.trap(abi::UNIX_TRAP);
        a.move_(L, Dr(0), Abs(result));
        result += 4;
    }
    a.move_i(L, abi::SYS_READ, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.lea(Abs(READ_SLOTS + ops.len() as u32 * SLOT), 0);
    a.move_i(L, MAX_CAP + 1, Dr(2));
    a.trap(abi::UNIX_TRAP);
    a.move_(L, Dr(0), Abs(result));
    a.move_i(L, abi::SYS_CLOSE, Dr(0));
    a.move_(L, Dr(6), Dr(1));
    a.trap(abi::UNIX_TRAP);
    a.move_i(L, abi::SYS_EXIT, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(abi::UNIX_TRAP);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    a
}

/// What a file run leaves behind.
#[derive(Debug, PartialEq)]
struct FileObserved {
    /// Return value of every call, the final-offset probe last.
    results: Vec<u32>,
    /// The bytes each read delivered (empty for writes).
    reads: Vec<Vec<u8>>,
    contents: Vec<u8>,
    final_offset: u32,
}

/// Deterministic pseudo-random bytes from `seed`.
fn seeded_bytes(seed: u64, len: u32) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

fn run_file(
    fuse: bool,
    cpus: usize,
    ops: &[FileOp],
    cap: u32,
    initial: &[u8],
    src: &[u8],
) -> (FileObserved, UnixEmulator) {
    let cfg = KernelConfig {
        fuse,
        cpus,
        ..KernelConfig::default()
    };
    let (mut emu, tid) = boot_with_program(cfg, file_xfer(ops)).expect("boots");
    let fid = emu
        .k
        .fs
        .create(&mut emu.k.m, &mut emu.k.heap, "/tmp/bench", cap)
        .expect("file fits");
    emu.k.fs.write_contents(&mut emu.k.m, fid, initial);
    emu.k.m.mem.poke_bytes(addrs::BUF, src);
    assert!(
        emu.run_until_exit(tid, 10_000_000_000),
        "file program must finish (fuse={fuse}, cpus={cpus}, ops={ops:?})"
    );
    let mem = &emu.k.m.mem;
    let results: Vec<u32> = (0..=ops.len() as u32)
        .map(|i| mem.peek(RESULTS + 4 * i, quamachine::isa::Size::L))
        .collect();
    let reads = ops
        .iter()
        .zip(&results)
        .enumerate()
        .map(|(i, (op, &got))| {
            if op.write {
                Vec::new()
            } else {
                mem.peek_bytes(READ_SLOTS + i as u32 * SLOT, got.min(SLOT))
            }
        })
        .collect();
    let contents = emu.k.fs.read_contents(&emu.k.m, fid);
    let final_offset = contents.len() as u32 - results[ops.len()];
    let obs = FileObserved {
        results,
        reads,
        contents,
        final_offset,
    };
    (obs, emu)
}

/// The host model of the same operations.
fn model_file(ops: &[FileOp], cap: u32, initial: &[u8], src: &[u8]) -> FileObserved {
    let mut file = initial.to_vec();
    let mut offset = 0;
    let mut results = Vec::new();
    let mut reads = Vec::new();
    for op in ops {
        offset = op.off;
        if op.write {
            let k = op.n.min(cap - offset);
            let end = (offset + k) as usize;
            if file.len() < end {
                file.resize(end, 0);
            }
            file[offset as usize..end].copy_from_slice(&src[..k as usize]);
            offset += k;
            results.push(k);
            reads.push(Vec::new());
        } else {
            let k = op.n.min(file.len() as u32 - offset);
            reads.push(file[offset as usize..(offset + k) as usize].to_vec());
            offset += k;
            results.push(k);
        }
    }
    results.push(file.len() as u32 - offset);
    FileObserved {
        results,
        reads,
        contents: file,
        final_offset: offset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn fused_and_layered_files_agree(
        raw in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..7),
        cap in prop_oneof![Just(MAX_CAP), 1u32..MAX_CAP + 1],
        len_draw in any::<u32>(),
        seed in any::<u64>(),
        cpus in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let len0 = len_draw % (cap + 1);
        let ops = plan(&raw, cap, len0);
        let initial = seeded_bytes(seed, len0);
        let src = seeded_bytes(!seed, MAX_CAP + 1);

        let (fused, emu) = run_file(true, cpus, &ops, cap, &initial, &src);
        let (layered, _) = run_file(false, cpus, &ops, cap, &initial, &src);

        // The fused run really ran fused: every read/write site bound a
        // wrapper that passed the equivalence gate.
        let st = emu.fusion_stats();
        prop_assert_eq!(st.fallbacks(), 0, "{:?}: {:?}", st, emu.last_bind_error());
        prop_assert!(st.bound > 0, "{:?}", st);

        // Bytes moved, bytes read, file contents, final offset.
        prop_assert_eq!(&fused, &layered, "ops {:?} cap {} len0 {}", ops, cap, len0);
        let model = model_file(&ops, cap, &initial, &src);
        prop_assert_eq!(&fused, &model, "ops {:?} cap {} len0 {}", ops, cap, len0);
    }
}
