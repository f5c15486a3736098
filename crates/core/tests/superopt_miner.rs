//! The offline superoptimizer check.
//!
//! Synthesis never runs the stochastic search ([`superopt`]) when it
//! installs code: the creator installs factor + peephole output behind
//! the equivalence gate. This test runs the search offline instead, over
//! every I/O channel template and every fused wrapper as the kernel
//! specializes them (collapse, factor, peephole), and fails if it finds
//! a cheaper equivalent sequence that [`synthesis_codegen::peephole`]
//! misses. A failure names the template and the windows it won on: the
//! fix is a new peephole rewrite, which keeps the promoted rules honest.

use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_codegen::superopt::{self, SuperoptConfig};
use synthesis_codegen::template::Bindings;
use synthesis_core::channel::ChannelSpec;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::syscall::{general, traps};

/// Placeholder addresses for the per-thread slots a real open binds.
const GAUGE: u32 = 0x4_0F18;
const OFFSET_SLOT: u32 = 0x5_1B18;
/// The fd the fused wrappers are specialized to.
const FD: u32 = 3;

/// Every channel end and fused wrapper the kernel synthesizes for I/O,
/// with bindings taken from live kernel objects.
fn io_templates(k: &mut Kernel) -> Vec<(String, Bindings)> {
    let fid =
        k.fs.create(&mut k.m, &mut k.heap, "/tmp/mine", 4096)
            .expect("file fits");
    let mut a = Asm::new("parked");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let map = AddressMap::single(1, 0, k.m.mem.size());
    let tid = k.create_thread(entry, 0x1_0000, map).unwrap();
    k.pipe_for(tid).expect("pipe opens");
    let pipe = k.pipes.last().expect("pipe exists");
    let specs = [
        ChannelSpec::null(GAUGE),
        ChannelSpec::tty(&k.tty_srv, true, GAUGE),
        ChannelSpec::tty(&k.tty_srv, false, GAUGE),
        ChannelSpec::file(k.fs.file(fid).expect("file"), OFFSET_SLOT, GAUGE),
        ChannelSpec::pipe(pipe, true, GAUGE),
        ChannelSpec::pipe(pipe, false, GAUGE),
    ];
    let mut out = Vec::new();
    for spec in &specs {
        for (read_end, end) in [(true, &spec.read), (false, &spec.write)] {
            let Some(end) = end else { continue };
            out.push((end.template.to_string(), end.bindings.clone()));
            if let Some(fused) = spec.fused_end(read_end, FD) {
                out.push(fused);
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

/// Run the search over `name` as the kernel would specialize it.
/// Returns the windows searched, or a report of what the search won.
fn mine(k: &Kernel, name: &str, bindings: &Bindings) -> Result<u32, String> {
    let t = k.creator.lib.get(name).expect("template").clone();
    let (_, mut work) = k
        .creator
        .specialize(&t, bindings, k.opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let before = work.instrs.clone();
    let (after, stats) = superopt::optimize(
        work.instrs,
        &mut work.marks,
        &k.m.cost,
        &SuperoptConfig::default(),
    );
    if stats.accepted == 0 {
        Ok(stats.windows)
    } else {
        Err(format!(
            "{name}: the search found {} cycles peephole misses ({stats:?})\n\
             peephole output: {before:#?}\nsearch output: {after:#?}",
            stats.cycles_saved
        ))
    }
}

fn boot() -> Kernel {
    Kernel::boot(KernelConfig {
        fuse: true,
        ..KernelConfig::default()
    })
    .expect("kernel boots")
}

#[test]
fn peephole_leaves_nothing_for_the_search_to_find() {
    let mut k = boot();
    let templates = io_templates(&mut k);
    let names: Vec<&str> = templates.iter().map(|(n, _)| n.as_str()).collect();
    for want in [
        "fused_pipe_read",
        "fused_write_file",
        "pipe_write",
        "read_tty",
    ] {
        assert!(names.contains(&want), "{want} mined: {names:?}");
    }
    let mut windows = 0;
    for (name, bindings) in &templates {
        windows += mine(&k, name, bindings).unwrap_or_else(|report| panic!("{report}"));
    }
    assert!(windows > 0, "the search actually ran");
}

#[test]
fn the_miner_reports_a_win_peephole_misses() {
    // An `add` into a register the next `move` overwrites is dead, but
    // peephole only deletes dead *moves*; the search deletes it.
    let mut k = boot();
    let mut a = Asm::new("dead_add");
    a.add(L, Imm(5), Dr(3));
    a.move_i(L, 1, Dr(3));
    a.move_(L, Dr(3), Abs(0x2000));
    a.rts();
    k.creator
        .lib
        .add(synthesis_codegen::template::Template::from_asm(a).unwrap());
    let report = mine(&k, "dead_add", &Bindings::new()).unwrap_err();
    assert!(report.contains("dead_add"), "{report}");
}
