//! The Appendix-A programs run correctly on BOTH kernels — the paper's
//! same-binaries methodology — and Synthesis beats the baseline.

use quamachine::isa::Size::L;
use quamachine::machine::RunExit;
use synthesis_core::kernel::KernelConfig;
use synthesis_unix::programs::{self, addrs};
use synthesis_unix::sunos::Sunos;

/// Run a program on the baseline; returns elapsed µs.
fn run_sunos(program: quamachine::asm::Asm, setup: impl FnOnce(&mut Sunos)) -> (Sunos, f64) {
    let mut s = Sunos::boot();
    let entry = s.load_program(program);
    s.m.mem.poke_bytes(addrs::PATHS, &programs::path_blob());
    setup(&mut s);
    let t0 = s.m.now_us();
    let exit = s.run_program(entry, 20_000_000_000);
    assert_eq!(exit, RunExit::Halted, "program must exit cleanly");
    let t = s.m.now_us() - t0;
    (s, t)
}

/// Run a program under the Synthesis UNIX emulator; returns elapsed µs.
fn run_synthesis(
    program: quamachine::asm::Asm,
    setup: impl FnOnce(&mut synthesis_unix::emu::UnixEmulator),
) -> (synthesis_unix::emu::UnixEmulator, f64) {
    let (mut emu, tid) =
        synthesis_unix::emu::boot_with_program(KernelConfig::default(), program).unwrap();
    setup(&mut emu);
    let t0 = emu.k.m.now_us();
    assert!(
        emu.run_until_exit(tid, 20_000_000_000),
        "program must exit cleanly under emulation"
    );
    let t = emu.k.m.now_us() - t0;
    (emu, t)
}

fn make_bench_file_synthesis(emu: &mut synthesis_unix::emu::UnixEmulator) {
    let fid = emu
        .k
        .fs
        .create(&mut emu.k.m, &mut emu.k.heap, "/tmp/bench", 65536)
        .unwrap();
    let data = vec![0xA5u8; 4096];
    emu.k.fs.write_contents(&mut emu.k.m, fid, &data);
}

#[test]
fn compute_program_runs_identically_on_both() {
    // Program 1 validates the "hardware emulation": same binary, same
    // machine model — the checksums must be bit-identical and the times
    // within a few percent (the kernel is not involved).
    let (s, t_sun) = run_sunos(programs::compute(1024, 3), |_| {});
    let sum_sun = s.m.mem.peek(addrs::RESULT, L);
    let (emu, t_syn) = run_synthesis(programs::compute(1024, 3), |_| {});
    let sum_syn = emu.k.m.mem.peek(addrs::RESULT, L);
    assert_eq!(sum_sun, sum_syn, "identical chaotic checksums");
    assert!(sum_syn != 0);
    let ratio = t_sun / t_syn;
    assert!(
        (0.8..1.25).contains(&ratio),
        "compute-bound parity: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs"
    );
}

#[test]
fn pipe_1_byte_synthesis_wins_big() {
    const N: u32 = 50;
    let (_, t_sun) = run_sunos(programs::pipe_rw(1, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::pipe_rw(1, N), |_| {});
    let ratio = t_sun / t_syn;
    // The paper reports 56× here; our baseline models SunOS's structure
    // but not its memory system, so the gap is smaller (see
    // EXPERIMENTS.md). The direction and order must hold.
    assert!(
        ratio > 4.0,
        "1-byte pipes: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn pipe_4k_synthesis_wins_moderately() {
    const N: u32 = 10;
    let (_, t_sun) = run_sunos(programs::pipe_rw(4096, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::pipe_rw(4096, N), |_| {});
    let ratio = t_sun / t_syn;
    assert!(
        ratio > 2.0,
        "4K pipes: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn file_rw_works_on_both() {
    const N: u32 = 5;
    let (s, t_sun) = run_sunos(programs::file_rw(N), |s| {
        s.write_bench_file(&vec![0x5Au8; 4096]);
    });
    assert_eq!(s.m.mem.peek(addrs::BUF, L) >> 24, 0, "read-back happened");
    let (_, t_syn) = run_synthesis(programs::file_rw(N), make_bench_file_synthesis);
    let ratio = t_sun / t_syn;
    assert!(
        ratio > 1.5,
        "file R/W: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn open_close_null_synthesis_wins() {
    const N: u32 = 20;
    let (_, t_sun) = run_sunos(programs::open_close(0, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::open_close(0, N), |_| {});
    let ratio = t_sun / t_syn;
    assert!(
        ratio > 3.0,
        "open/close null: sunos {t_sun:.0}µs vs synthesis {t_syn:.0}µs (ratio {ratio:.1})"
    );
}

#[test]
fn open_close_tty_works_on_both() {
    const N: u32 = 20;
    let (_, t_sun) = run_sunos(programs::open_close(0x10, N), |_| {});
    let (_, t_syn) = run_synthesis(programs::open_close(0x10, N), |_| {});
    assert!(t_sun / t_syn > 1.8, "tty open: {t_sun:.0} vs {t_syn:.0}");
}

#[test]
fn pipe_data_integrity_both_kernels() {
    // Write a pattern through the pipe and read it back: contents must
    // survive on both kernels.
    const N: u32 = 3;
    let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 13 % 251) as u8).collect();
    let (s, _) = run_sunos(programs::pipe_rw(1024, N), |s| {
        s.m.mem.poke_bytes(addrs::BUF, &pattern);
    });
    assert_eq!(s.m.mem.peek_bytes(addrs::BUF, 1024), pattern);
    let (emu, _) = run_synthesis(programs::pipe_rw(1024, N), |e| {
        e.k.m.mem.poke_bytes(addrs::BUF, &pattern);
    });
    assert_eq!(emu.k.m.mem.peek_bytes(addrs::BUF, 1024), pattern);
}

#[test]
fn every_table1_program_binds_with_zero_fallbacks() {
    // Rows 2-7 on the fused boot the Table 1 measurement uses: every
    // `read`/`write` call site binds a fused wrapper, and none falls
    // back to the trap shim — not through the equivalence gate, code
    // space, or any other synthesis error.
    const N: u32 = 3;
    let rows: [(&str, quamachine::asm::Asm, bool, u64); 6] = [
        ("2 pipe 1 B", programs::pipe_rw(1, N), false, 2),
        ("3 pipe 1 KB", programs::pipe_rw(1024, N), false, 2),
        ("4 pipe 4 KB", programs::pipe_rw(4096, N), false, 2),
        ("5 file 1 KB", programs::file_rw(N), true, 2),
        ("6 open /dev/null", programs::open_close(0, N), false, 0),
        ("7 open /dev/tty", programs::open_close(0x10, N), false, 0),
    ];
    for (row, program, file, sites) in rows {
        let cfg = KernelConfig {
            fuse: true,
            ..KernelConfig::default()
        };
        let (mut emu, tid) = synthesis_unix::emu::boot_with_program(cfg, program).unwrap();
        if file {
            make_bench_file_synthesis(&mut emu);
        }
        assert!(emu.run_until_exit(tid, 20_000_000_000), "row {row} exits");
        let st = emu.fusion_stats();
        assert_eq!(
            st.fallbacks(),
            0,
            "row {row}: {st:?}, last error {:?}",
            emu.last_bind_error()
        );
        assert_eq!(st.bound, sites, "row {row}: {st:?}");
        assert_eq!(
            emu.k.creator.stats.equiv_checked, sites,
            "row {row}: every fused wrapper passed the gate"
        );
    }
}
