//! `sched_mix`: long-lived kernels on 2 simulated CPUs, each running a
//! seeded thread population under fine-grain scheduling.
//!
//! A run boots [`LANES`] kernels in set-up and runs its windows on them
//! in consecutive blocks, one kernel after the other; each keeps its
//! threads, pipes and adapted quanta across its block.
//!
//! The population: CPU spinners (with signal handlers), `/dev/null`
//! writers, and three producer→consumer pipes with one reader each, on
//! the layered (unfused) path. Producers write a self-checking word
//! stream — word `n` carries `n` in its high half and `n ^ key` in its
//! low half — and every consumer checks each word it reads against the
//! next in sequence in the guest, counting mismatches in user memory.
//! Every guest thread keeps its call counts in user memory too; those
//! are the ops.
//!
//! A job is one fixed-length scheduling window, then the host's calls:
//! destroy last window's churn thread, create and start a new one,
//! signal a spinner, and `FineGrain::adapt`. The kernel trace is
//! drained every window on both passes, so draining cannot change the
//! guest schedule between them.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, ShiftKind, Size::*};
use quamachine::mem::AddressMap;
use synthesis_bench::capacity::dispatch_deltas;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout::{self, USER_BASE};
use synthesis_core::sched::FineGrain;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::off;
use synthesis_core::thread::Tid;
use synthesis_core::trace::{Kind, TraceQuery};

use crate::common::{median, quantile, ratio, Job, Metrics, Rng, Tracer};
use crate::{table1, Limits};

/// Simulated CPUs, set here rather than read from `SYNTHESIS_CPUS`.
const CPUS: usize = 2;
/// Mean guest cycles per scheduling window (20 ms at 16 MHz). Window
/// lengths spread over half to one and a half times this, so job times
/// form a broad distribution whose median moves smoothly, not in steps,
/// with the host's speed.
const WINDOW_CYCLES: u64 = 320_000;
/// Trace-ring records per thread: the kernel's default. A ring that
/// fills within a window has wrapped and lost its oldest records, so the
/// windows where that happened are counted.
const TRACE_RECORDS: usize = synthesis_core::trace::DEFAULT_RING_RECORDS;
/// Kernels in a run, each with its own seeded keys and phase (see
/// [`Lane`]), so a run averages over several interleavings.
const LANES: usize = 8;
/// Windows each lane runs in set-up before timing, so quanta have
/// adapted.
const WARMUP_WINDOWS: usize = 10;
const SPINNERS: usize = 3;
/// Calls each reference binary makes per loop (see [`reference_costs`]).
const REF_CALLS: u32 = 40;

/// Per-thread user-memory slots: calls, words moved, check errors,
/// spinner count, fd.
const SLOTS: u32 = USER_BASE + 0x3_0000;
const CALLS: u32 = 0;
const WORDS: u32 = 4;
const ERRS: u32 = 8;
const SPIN: u32 = 12;
const FD: u32 = 16;
/// Signal-handler executions.
const SIGCTR: u32 = USER_BASE + 0x2_F000;
/// Per-thread I/O buffers.
const BUFS: u32 = USER_BASE + 0x4_0000;

fn slot(i: usize, field: u32) -> u32 {
    SLOTS + 0x20 * i as u32 + field
}

fn buf(i: usize) -> u32 {
    BUFS + 0x100 * i as u32
}

fn stack(i: usize) -> u32 {
    USER_BASE + 0x1_0000 + 0x800 * (i as u32 + 1)
}

/// Jobs (windows) for a run of `seconds`: about 110 a second on a
/// 2-core x86-64 host, and never fewer than 100.
pub fn jobs_for(seconds: u64) -> usize {
    ((seconds as f64 * 110.0) as usize).max(100)
}

/// Word `d6` of a stream keyed `key`, left in `d2` (clobbers `d3`).
fn stream_word(a: &mut Asm, key: u32) {
    a.move_(L, Dr(6), Dr(3));
    a.eor(L, Imm(key), Dr(3));
    a.and(L, Imm(0xFFFF), Dr(3));
    a.move_(L, Dr(6), Dr(2));
    a.swap(2);
    a.and(L, Imm(0xFFFF_0000), Dr(2));
    a.or(L, Dr(3), Dr(2));
}

fn spinner(i: usize) -> Asm {
    let mut a = Asm::new("mix_spin");
    let top = a.here();
    a.add(L, Imm(1), Abs(slot(i, SPIN)));
    a.bcc(Cond::T, top);
    a
}

fn handler() -> Asm {
    let mut a = Asm::new("mix_sighandler");
    a.add(L, Imm(1), Abs(SIGCTR));
    a.move_i(L, general::SIG_RETURN, Dr(0));
    a.trap(traps::GENERAL);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    a
}

fn null_writer(i: usize, chunk: u32) -> Asm {
    let mut a = Asm::new("mix_null_writer");
    a.move_(L, Abs(slot(i, FD)), Dr(5));
    let top = a.here();
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(buf(i)), 0);
    a.move_i(L, chunk, Dr(1));
    a.trap(traps::WRITE);
    a.add(L, Imm(1), Abs(slot(i, CALLS)));
    a.bcc(Cond::T, top);
    a
}

fn producer(i: usize, chunk: u32, key: u32) -> Asm {
    let mut a = Asm::new("mix_producer");
    a.move_(L, Abs(slot(i, FD)), Dr(5));
    a.move_i(L, 0, Dr(6));
    let top = a.here();
    a.lea(Abs(buf(i)), 3);
    a.move_i(L, chunk / 4 - 1, Dr(4));
    let fill = a.here();
    stream_word(&mut a, key);
    a.move_(L, Dr(2), PostInc(3));
    a.add(L, Imm(1), Dr(6));
    a.dbf(4, fill);
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(buf(i)), 0);
    a.move_i(L, chunk, Dr(1));
    a.trap(traps::WRITE);
    a.add(L, Imm(1), Abs(slot(i, CALLS)));
    a.add(L, Imm(chunk / 4), Abs(slot(i, WORDS)));
    a.bcc(Cond::T, top);
    a
}

/// A reader of a keyed stream; it checks every word against the next in
/// sequence.
fn consumer(i: usize, chunk: u32, key: u32) -> Asm {
    let mut a = Asm::new("mix_reader");
    a.move_(L, Abs(slot(i, FD)), Dr(5));
    a.move_i(L, 0, Dr(6));
    let top = a.here();
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(buf(i)), 0);
    a.move_i(L, chunk, Dr(1));
    a.trap(traps::READ);
    a.add(L, Imm(1), Abs(slot(i, CALLS)));
    // A read must return whole words.
    let whole = a.label();
    a.move_(L, Dr(0), Dr(4));
    a.and(L, Imm(3), Dr(4));
    a.bcc(Cond::Eq, whole);
    a.add(L, Imm(1), Abs(slot(i, ERRS)));
    a.bind(whole);
    a.move_(L, Dr(0), Dr(4));
    a.shift(ShiftKind::Lsr, L, Imm(2), Dr(4));
    a.add(L, Dr(4), Abs(slot(i, WORDS)));
    a.tst(L, Dr(4));
    a.bcc(Cond::Eq, top);
    a.sub(L, Imm(1), Dr(4));
    a.lea(Abs(buf(i)), 3);
    let check = a.here();
    let good = a.label();
    stream_word(&mut a, key);
    a.add(L, Imm(1), Dr(6));
    a.cmp(L, PostInc(3), Dr(2));
    a.bcc(Cond::Eq, good);
    a.add(L, Imm(1), Abs(slot(i, ERRS)));
    a.bind(good);
    a.dbf(4, check);
    a.bra(top);
    a
}

/// One pipe: its producer and reader thread indices.
struct PipeSet {
    pid: usize,
    producer: usize,
    reader: usize,
}

/// `/dev/null` writers' transfer sizes.
const WRITER_CHUNKS: [u32; 2] = [16, 32];
/// Pipes: the producer's and the reader's transfer sizes. Each pipe has
/// one reader: the ring is SP-SC, and a second reader races the first on
/// its tail (see `METRICS.md`).
const PIPES: [(u32, u32); 3] = [(16, 32), (32, 16), (64, 64)];

/// The workload's state after set-up.
pub struct State {
    lanes: Vec<Lane>,
    /// Guest µs per call of each I/O thread's call, on the SunOS model
    /// and on Synthesis, each measured alone (see [`reference_costs`]).
    costs: Vec<(f64, f64)>,
    jobs: usize,
    windows: Vec<Window>,
}

/// One kernel and its population. Job `i` of `n` runs on lane
/// `i * LANES / n`, so each lane runs one block of consecutive windows.
struct Lane {
    k: Kernel,
    map: AddressMap,
    policy: FineGrain,
    /// Windows run so far, warm-up included.
    windows_run: u64,
    tids: Vec<Tid>,
    spinners: Vec<Tid>,
    io_threads: Vec<usize>,
    pipes: Vec<PipeSet>,
    churn_entry: u32,
    churn: Option<Tid>,
    signals_sent: u64,
    /// Calls of each guest I/O thread at the last window's end.
    calls: Vec<u64>,
    /// Per-CPU busy and idle cycles, steals and offloads when timing
    /// starts.
    cpu_start: Vec<(u64, u64, u64, u64)>,
    /// The checked counters at the last window's end.
    marks: Marks,
}

/// What the checks had seen at the end of the last window, so that each
/// window fails only on what went wrong in it.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// Check errors each I/O thread had counted.
    errs: Vec<u64>,
    /// Per pipe, the words its reader is known to have got twice.
    duplicated: Vec<u64>,
    /// Signals handled beyond those sent.
    extra_signals: u64,
    /// Recovery gauges and log length.
    recovery: [u64; 6],
    /// Threads and CPUs in quarantine.
    quarantined: usize,
}

/// Layer figures of one window (host spans are in the tracer).
#[derive(Debug, Clone, Default)]
struct Window {
    instrs: u64,
    guest_us: f64,
    run_s: f64,
    adapt_s: f64,
    create: (f64, f64),
    destroy: Option<(f64, f64)>,
    signal_us: f64,
    dispatch: Vec<u64>,
    ctx_switches: u64,
    ring_full: bool,
    ops: u64,
}

fn config() -> KernelConfig {
    KernelConfig {
        cpus: CPUS,
        fuse: false,
        cache_budget: 0,
        default_quantum_us: 200,
        trace_records: TRACE_RECORDS,
        ..KernelConfig::default()
    }
}

/// Each I/O thread's call as a one-thread reference binary, in the
/// order of [`Lane::io_threads`].
fn reference_binaries() -> Vec<Asm> {
    let mut refs: Vec<Asm> = WRITER_CHUNKS
        .iter()
        .map(|&c| table1::null_write_binary(c, REF_CALLS))
        .collect();
    for (wchunk, rchunk) in PIPES {
        refs.push(table1::pipe_binary(wchunk, REF_CALLS));
        refs.push(table1::pipe_binary(rchunk, REF_CALLS));
    }
    refs
}

/// Guest µs per call of each binary on the SunOS model and on
/// Synthesis (one CPU, layered like this workload's calls).
///
/// `sched_mix` has no SunOS counterpart: the SunOS model runs one
/// program and has no threads. So its `speedup_vs_sunos` compares the
/// calls its I/O threads make, each kind run alone in a one-thread
/// binary on both kernels, weighted by how often each thread made its
/// call in the window. It moves with the cost of those calls on either
/// kernel and with the call mix the schedule produces.
fn reference_costs(refs: Vec<Asm>) -> Result<Vec<(f64, f64)>, String> {
    let cfg = KernelConfig {
        cpus: 1,
        ..config()
    };
    refs.into_iter()
        .map(|a| {
            let sunos = table1::sunos_us_per_call(a.clone(), &crate::LIMITS)?;
            let synthesis = table1::synthesis_us_per_call(&cfg, a, &crate::LIMITS)?;
            Ok((sunos, synthesis))
        })
        .collect()
}

fn load(k: &mut Kernel, a: Asm) -> Result<u32, String> {
    let block = a.assemble().map_err(|e| format!("{e:?}"))?;
    k.load_user_program(block).map_err(|e| e.to_string())
}

fn cpu_counters(k: &Kernel) -> Vec<(u64, u64, u64, u64)> {
    k.cpus
        .iter()
        .map(|c| (c.busy_cycles, c.idle_cycles, c.steals, c.offloads))
        .collect()
}

/// Boot every lane, build its population, and run its warm-up windows.
pub fn setup(seed: u64, jobs: usize) -> Result<State, String> {
    let mut rng = Rng::new(seed, 3);
    let costs = reference_costs(reference_binaries())?;
    let mut lanes = Vec::with_capacity(LANES);
    for _ in 0..LANES {
        let mut lane = Lane::boot(&mut rng)?;
        // The seed picks the lane's stream keys (in `boot`) and the phase
        // of its first window: the quantum adaptation turns that phase
        // into a different schedule, so each lane runs its own
        // interleaving while the mix, and so the long-run averages, stay
        // the same.
        let phase = rng.below(WINDOW_CYCLES);
        lane.k.run(phase);
        lane.check();
        // Warm-up windows are not jobs; each window's checks compare
        // with the counters at the end of the window before, so the
        // timed windows are checked against what warm-up left.
        let mut off = Tracer::new(false);
        for _ in 0..WARMUP_WINDOWS {
            run_window(&mut lane, &costs, &crate::LIMITS, &mut off);
        }
        lane.cpu_start = cpu_counters(&lane.k);
        lanes.push(lane);
    }
    Ok(State {
        lanes,
        costs,
        jobs,
        windows: Vec::new(),
    })
}

impl State {
    /// Jobs in the run.
    pub fn len(&self) -> usize {
        self.jobs
    }
}

impl Lane {
    /// Boot a kernel and start the population on it. The population's
    /// shape is fixed — transfer sizes, CPU homes and the host calls
    /// included; `rng` picks the stream keys.
    fn boot(rng: &mut Rng) -> Result<Lane, String> {
        let mut k = Kernel::boot(config()).map_err(|e| e.to_string())?;
        let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
        let err = |e: u32| format!("errno {e}");
        let mut progs: Vec<Asm> = Vec::new();
        let mut pipes = Vec::new();
        let mut io_threads = Vec::new();
        for _ in 0..SPINNERS {
            progs.push(spinner(progs.len()));
        }
        let mut writers: Vec<usize> = Vec::new();
        for chunk in WRITER_CHUNKS {
            let i = progs.len();
            writers.push(i);
            io_threads.push(i);
            progs.push(null_writer(i, chunk));
        }
        for (wchunk, rchunk) in PIPES {
            let key = rng.next_u64() as u32 & 0xFFFF;
            let p = progs.len();
            progs.push(producer(p, wchunk, key));
            let r = progs.len();
            progs.push(consumer(r, rchunk, key));
            io_threads.extend([p, r]);
            pipes.push(PipeSet {
                pid: 0,
                producer: p,
                reader: r,
            });
        }
        let handler = load(&mut k, handler())?;
        let mut tids = Vec::new();
        for (i, a) in progs.into_iter().enumerate() {
            let entry = load(&mut k, a)?;
            let tid = k
                .create_thread(entry, stack(i), map.clone())
                .map_err(|e| e.to_string())?;
            k.threads.get_mut(&tid).ok_or("thread vanished")?.cpu = i % CPUS;
            tids.push(tid);
        }
        let spinners: Vec<Tid> = tids[..SPINNERS].to_vec();
        for &t in &spinners {
            let tte = k.threads[&t].tte;
            k.m.mem.poke(tte + off::SIG_HANDLER, L, handler);
        }
        for &w in &writers {
            let fd = k.open_for(tids[w], "/dev/null").map_err(err)?;
            k.m.mem.poke(slot(w, FD), L, fd);
        }
        for p in &mut pipes {
            // The reader creates the pipe and the producer attaches to it;
            // each then closes the end it does not use, so the pipe has
            // one reader and one writer.
            let reader = tids[p.reader];
            let (rfd, wfd) = k.pipe_for(reader).map_err(err)?;
            p.pid = k.pipes.len() - 1;
            let prod = tids[p.producer];
            let (prfd, pwfd) = k.pipe_attach(prod, p.pid as u32).map_err(err)?;
            k.m.mem.poke(slot(p.producer, FD), L, pwfd);
            k.m.mem.poke(slot(p.reader, FD), L, rfd);
            k.close_for(prod, prfd).map_err(err)?;
            k.close_for(reader, wfd).map_err(err)?;
        }
        let churn_entry = load(&mut k, spinner(tids.len()))?;
        for &t in &tids {
            k.start(t).map_err(|e| e.to_string())?;
        }
        let cpu_start = cpu_counters(&k);
        Ok(Lane {
            k,
            map,
            policy: FineGrain::new(),
            windows_run: 0,
            tids,
            spinners,
            calls: vec![0; io_threads.len()],
            io_threads,
            pipes,
            churn_entry,
            churn: None,
            signals_sent: 0,
            cpu_start,
            marks: Marks::default(),
        })
    }

    fn peek(&self, addr: u32) -> u64 {
        u64::from(self.k.m.mem.peek(addr, L))
    }

    fn thread_calls(&self) -> Vec<u64> {
        self.io_threads
            .iter()
            .map(|&i| self.peek(slot(i, CALLS)))
            .collect()
    }

    /// The window's output checks, against the counters at the end of
    /// the window before; the reasons any failed.
    fn check(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        let errs: Vec<u64> = self
            .io_threads
            .iter()
            .map(|&i| self.peek(slot(i, ERRS)))
            .collect();
        for (n, (&i, &e)) in self.io_threads.iter().zip(&errs).enumerate() {
            let before = self.marks.errs.get(n).copied().unwrap_or(0);
            if e > before {
                bad.push(format!(
                    "thread {i}: {} words failed their check",
                    e - before
                ));
            }
        }
        let mut duplicated = Vec::with_capacity(self.pipes.len());
        for (n, p) in self.pipes.iter().enumerate() {
            let written = self.peek(slot(p.producer, WORDS));
            let read = self.peek(slot(p.reader, WORDS));
            // The producer may have written one chunk (at most 16 words)
            // it has not counted yet; words its reader holds beyond that
            // it got twice. A window fails when that surplus grows.
            let known = self.marks.duplicated.get(n).copied().unwrap_or(0);
            let surplus = read.saturating_sub(written + 16);
            if surplus > known {
                bad.push(format!(
                    "pipe {}: {} more words read twice ({read} read, {written} written)",
                    p.pid,
                    surplus - known
                ));
            }
            duplicated.push(surplus.max(known));
        }
        let extra_signals = self.peek(SIGCTR).saturating_sub(self.signals_sent);
        if extra_signals > self.marks.extra_signals {
            bad.push(format!(
                "{} signals handled, {} sent",
                self.peek(SIGCTR),
                self.signals_sent
            ));
        }
        let r = &self.k.recovery;
        let recovery = [
            r.reaped.read(),
            r.quarantined.read(),
            r.io_errors.read(),
            r.cpus_quarantined.read(),
            r.threads_evacuated.read(),
            self.k.recovery_log.len() as u64,
        ];
        if recovery != self.marks.recovery {
            bad.push(format!(
                "recovery activity: {recovery:?} {:?}",
                self.k.recovery_log
            ));
        }
        let quarantined = self
            .tids
            .iter()
            .filter(|&&t| self.k.is_quarantined(t))
            .count()
            + (0..CPUS).filter(|&c| self.k.is_cpu_quarantined(c)).count();
        if quarantined > self.marks.quarantined {
            bad.push("a thread or CPU was quarantined".into());
        }
        self.marks = Marks {
            errs,
            duplicated,
            extra_signals,
            recovery,
            quarantined,
        };
        bad
    }
}

/// Guest µs of `f`'s work on the kernel, and its result.
fn guest<R>(k: &mut Kernel, f: impl FnOnce(&mut Kernel) -> R) -> (R, f64) {
    let us0 = k.m.now_us();
    let r = f(k);
    (r, k.m.now_us() - us0)
}

/// Run job `i` on its lane.
pub fn run_job(st: &mut State, i: usize, limits: &Limits, tr: &mut Tracer) -> Job {
    let lane = (i * st.lanes.len() / st.jobs).min(st.lanes.len() - 1);
    let (job, w) = run_window(&mut st.lanes[lane], &st.costs, limits, tr);
    st.windows.push(w);
    job
}

/// Run one window on `lane` and the host calls after it.
fn run_window(
    lane: &mut Lane,
    costs: &[(f64, f64)],
    limits: &Limits,
    tr: &mut Tracer,
) -> (Job, Window) {
    let mut w = Window::default();
    let m0 = lane.k.m.meter.snapshot();
    let us0 = lane.k.m.now_us();
    let t0 = Instant::now();
    let job_span = tr.enter("bench.job");
    let run_span = tr.enter("core.run");
    let before = lane.k.m.meter.instr_count;
    // Window lengths cycle through a fixed spread, so every run has the
    // same mix of window lengths.
    lane.k
        .run(WINDOW_CYCLES * (2 + lane.windows_run * 3 % 5) / 4);
    lane.windows_run += 1;
    w.instrs = lane.k.m.meter.instr_count - before;
    w.run_s = tr.exit(run_span);
    w.guest_us = lane.k.m.now_us() - us0;

    let mut host_calls = 0u64;
    let mut bad = Vec::new();
    if let Some(old) = lane.churn.take() {
        let o = tr.enter("core.destroy");
        let (r, g) = guest(&mut lane.k, |k| k.destroy(old));
        w.destroy = Some((g, tr.exit(o)));
        if let Err(e) = r {
            bad.push(format!("destroy: {e}"));
        }
        host_calls += 1;
    }
    let o = tr.enter("core.create_thread");
    let (entry, sp, map) = (lane.churn_entry, stack(lane.tids.len()), lane.map.clone());
    let (r, g) = guest(&mut lane.k, |k| {
        let tid = k.create_thread(entry, sp, map)?;
        if let Some(t) = k.threads.get_mut(&tid) {
            t.cpu = 0;
        }
        k.start(tid).map(|()| tid)
    });
    w.create = (g, tr.exit(o));
    match r {
        Ok(tid) => lane.churn = Some(tid),
        Err(e) => bad.push(format!("create_thread: {e}")),
    }
    host_calls += 1;
    let target = lane.spinners[(lane.signals_sent % lane.spinners.len() as u64) as usize];
    let o = tr.enter("core.signal");
    let (r, g) = guest(&mut lane.k, |k| k.signal(target, 1));
    tr.exit(o);
    w.signal_us = g;
    if let Err(e) = r {
        bad.push(format!("signal: {e}"));
    }
    lane.signals_sent += 1;
    host_calls += 1;
    let o = tr.enter("core.sched.adapt");
    lane.policy.adapt(&mut lane.k);
    w.adapt_s = tr.exit(o);

    let q = TraceQuery::drain(&mut lane.k);
    w.ring_full = lane
        .tids
        .iter()
        .any(|&t| q.thread(t).len() >= TRACE_RECORDS);
    w.dispatch = dispatch_deltas(&q);
    w.ctx_switches = q.count_kind(Kind::CtxSwitch) as u64;
    tr.exit(job_span);
    let host_s = t0.elapsed().as_secs_f64();

    let calls = lane.thread_calls();
    let made: Vec<f64> = calls
        .iter()
        .zip(&lane.calls)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    lane.calls = calls;
    let guest_calls = made.iter().sum::<f64>() as u64;
    let sunos_us: f64 = made.iter().zip(costs).map(|(n, c)| n * c.0).sum();
    let synthesis_us: f64 = made.iter().zip(costs).map(|(n, c)| n * c.1).sum();
    w.ops = guest_calls + host_calls;
    bad.extend(lane.check());
    if guest_calls == 0 {
        bad.push("no guest I/O call completed".into());
    }
    if host_s > limits.job_host.as_secs_f64() {
        bad.push("over its host-time limit".into());
    }
    let dm = m0.delta(&lane.k.m.meter.snapshot());
    let mut fingerprint = vec![dm.cycles, dm.instr_count, dm.exception_count, w.ops];
    fingerprint.push(w.ctx_switches);
    fingerprint.push(u64::from(w.ring_full));
    fingerprint.extend(&w.dispatch);
    fingerprint.push(lane.policy.adjustments);
    fingerprint.push(lane.k.trace.dropped);
    let job = Job {
        kind: 0,
        host_s,
        guest_us: lane.k.m.now_us() - us0,
        speedup: ratio(sunos_us, synthesis_us),
        ops: w.ops,
        ok: bad.is_empty(),
        why: bad.join("; "),
        fingerprint,
    };
    (job, w)
}

/// Per-layer metrics of the traced pass.
pub fn layer_metrics(st: &State, jobs: &[Job], out: &mut Metrics) {
    let w = &st.windows;
    let ops: u64 = jobs.iter().map(|j| j.ops).sum();
    let instrs: u64 = w.iter().map(|x| x.instrs).sum();
    let exc: u64 = jobs.iter().map(|j| j.fingerprint[2]).sum();
    let run_s: f64 = w.iter().map(|x| x.run_s).sum();
    let guest_ms: f64 = w.iter().map(|x| x.guest_us).sum::<f64>() / 1e3;
    out.put(
        "quamachine.guest_mips",
        ratio(instrs as f64, run_s) / 1e6,
        "MIPS",
    );
    out.put(
        "quamachine.instrs_per_op",
        ratio(instrs as f64, ops as f64),
        "instr/op",
    );
    out.put(
        "quamachine.exceptions_per_op",
        ratio(exc as f64, ops as f64),
        "exc/op",
    );
    out.put(
        "core.run.host_ms_per_guest_ms",
        ratio(run_s * 1e3, guest_ms),
        "ratio",
    );
    let dispatch: Vec<f64> = w
        .iter()
        .flat_map(|x| x.dispatch.iter().map(|&c| c as f64))
        .collect();
    if !dispatch.is_empty() {
        out.put(
            "core.sched.dispatch_cycles_p50",
            median(&dispatch),
            "cycles",
        );
        out.put(
            "core.sched.dispatch_cycles_p99",
            quantile(&dispatch, 0.99),
            "cycles",
        );
    }
    let ctx: u64 = w.iter().map(|x| x.ctx_switches).sum();
    out.put(
        "core.sched.ctx_switches_per_op",
        ratio(ctx as f64, ops as f64),
        "count/op",
    );
    let adapt: Vec<f64> = w.iter().map(|x| x.adapt_s * 1e6).collect();
    out.put("core.sched.adapt.host_us", median(&adapt), "us");
    out.put(
        "core.sched.quantum_changes",
        st.lanes.iter().map(|l| l.policy.adjustments).sum::<u64>() as f64,
        "count",
    );
    let create_g: Vec<f64> = w.iter().map(|x| x.create.0).collect();
    let create_h: Vec<f64> = w.iter().map(|x| x.create.1 * 1e6).collect();
    out.put("core.create_thread.guest_us", median(&create_g), "us");
    out.put("core.create_thread.host_us", median(&create_h), "us");
    let destroy: Vec<(f64, f64)> = w.iter().filter_map(|x| x.destroy).collect();
    if !destroy.is_empty() {
        let g: Vec<f64> = destroy.iter().map(|d| d.0).collect();
        let h: Vec<f64> = destroy.iter().map(|d| d.1 * 1e6).collect();
        out.put("core.destroy.guest_us", median(&g), "us");
        out.put("core.destroy.host_us", median(&h), "us");
    }
    let sig: Vec<f64> = w.iter().map(|x| x.signal_us).collect();
    out.put("core.signal.guest_us", median(&sig), "us");
    // Per-CPU counter deltas since timing started, summed over lanes.
    let mut cpu = [(0u64, 0u64, 0u64, 0u64); CPUS];
    for l in &st.lanes {
        for (sum, (a, b)) in cpu
            .iter_mut()
            .zip(l.cpu_start.iter().zip(&cpu_counters(&l.k)))
        {
            sum.0 += b.0 - a.0;
            sum.1 += b.1 - a.1;
            sum.2 += b.2 - a.2;
            sum.3 += b.3 - a.3;
        }
    }
    for (c, d) in cpu.iter().enumerate() {
        out.put(
            format!("core.cpu.busy_ratio.{c}"),
            ratio(d.0 as f64, (d.0 + d.1) as f64),
            "ratio",
        );
    }
    let steals: u64 = cpu.iter().map(|d| d.2).sum();
    let offloads: u64 = cpu.iter().map(|d| d.3).sum();
    out.put("blocks.steal.steals", steals as f64, "count");
    out.put("blocks.steal.offloads", offloads as f64, "count");
    let dropped: u64 = st.lanes.iter().map(|l| l.k.trace.dropped).sum();
    out.put("core.trace.dropped", dropped as f64, "count");
    let full = w.iter().filter(|x| x.ring_full).count();
    out.put(
        "core.trace.ring_full_share",
        ratio(full as f64, w.len() as f64),
        "ratio",
    );
}
