//! `open_churn`: host-driven `open_for`/`close_for` pairs over a seeded,
//! skewed stream of (thread, path) keys.
//!
//! Modelled on `capacity::churn_point` at an 8 KB warm budget: 24
//! threads × 8 paths (`/dev/null`, `/dev/tty`, six files) make 192
//! channel keys, several times what the budget retains, so hits, misses
//! and evictions all occur. Three opens in four go to a hot set of one
//! key per path (seeded threads); the rest pick any key. A job is a
//! seeded batch of 250–750 pairs.
//! Almost nothing is interpreted: the time goes to the channel
//! registry, name lookup, the allocator, the creator and the cache.

use std::time::Instant;

use quamachine::asm::Asm;
use quamachine::isa::Cond;
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::monitor;
use synthesis_core::thread::Tid;

use crate::common::{quantile, ratio, Job, Metrics, Rng, Tracer};
use crate::{table1, Limits};

/// Threads whose channels churn.
const THREADS: usize = 24;
/// Files besides the two devices; with them, 8 paths.
const FILES: usize = 6;
/// Warm-entry budget of the specialization cache.
const CACHE_BUDGET: u32 = 8 * 1024;
/// Mean open/close pairs per job. Job sizes are stratified over half
/// to one and a half times this, so job times form a broad distribution
/// whose median moves smoothly, not in steps, with the host's speed.
const PAIRS: usize = 500;
/// Jobs the traced pass runs, spanning every call: 100 000 pairs keep
/// the in-memory span list bounded.
pub const TRACED_JOBS: usize = 200;
/// Warm-up pairs in set-up, so the cache starts in its steady state.
const WARMUP_PAIRS: usize = 30_000;

/// Jobs for a run of `seconds`: about 250 a second on a 2-core x86-64
/// host, and never fewer than 200.
pub fn jobs_for(seconds: u64) -> usize {
    ((seconds as f64 * 250.0) as usize).max(200)
}

/// Byte accounting the end-of-run check compares, taken with the
/// cache flushed: heap and code-buffer bytes in use, and the bytes the
/// cache still holds (live channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bytes {
    heap: u32,
    code: u32,
    resident: u64,
}

fn bytes(k: &Kernel) -> Bytes {
    Bytes {
        heap: monitor::size_report(k).heap_in_use,
        code: k.creator.codebuf.in_use,
        resident: k.creator.cache.resident_bytes(),
    }
}

/// One traced call.
#[derive(Debug, Clone, Copy)]
struct Call {
    host_us: f32,
    guest_us: f32,
}

/// The workload's state after set-up.
pub struct State {
    k: Kernel,
    keys: Vec<(Tid, String)>,
    /// SunOS-model guest µs of one `open`+`close` of each key's path.
    sunos_pair_us: Vec<f64>,
    hot: Vec<usize>,
    rng: Rng,
    jobs: usize,
    /// Pairs in each job not yet run, last job first.
    sizes_left: Vec<usize>,
    baseline: Bytes,
    end: Option<Bytes>,
    /// Per-job cache and codegen deltas: hits, misses, synthesized.
    counts: Vec<[u64; 3]>,
    /// Cache bytes at each job's end: resident, warm.
    cache_bytes: Vec<[u64; 2]>,
    opens_hit: Vec<Call>,
    opens_miss: Vec<Call>,
    closes: Vec<Call>,
    instrs: u64,
}

fn config() -> KernelConfig {
    KernelConfig {
        cpus: 1,
        fuse: false,
        cache_budget: CACHE_BUDGET,
        default_quantum_us: 200,
        ..KernelConfig::default()
    }
}

/// Boot, create the threads and files, and warm the cache.
pub fn setup(seed: u64, jobs: usize) -> Result<State, String> {
    let mut k = Kernel::boot(config()).map_err(|e| e.to_string())?;
    let mut a = Asm::new("churn_idle");
    let top = a.here();
    a.bcc(Cond::T, top);
    let entry = k
        .load_user_program(a.assemble().map_err(|e| format!("{e:?}"))?)
        .map_err(|e| e.to_string())?;
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    let mut tids = Vec::with_capacity(THREADS);
    for i in 0..THREADS {
        let sp = layout::USER_BASE + 0x1_0000 + 0x100 * i as u32;
        tids.push(
            k.create_thread(entry, sp, map.clone())
                .map_err(|e| e.to_string())?,
        );
    }
    let mut paths = vec!["/dev/null".to_string(), "/dev/tty".to_string()];
    for f in 0..FILES {
        let p = format!("/tmp/churn{f}");
        k.fs.create(&mut k.m, &mut k.heap, &p, 4096)
            .map_err(|e| format!("{e:?}"))?;
        paths.push(p);
    }
    let keys: Vec<(Tid, String)> = tids
        .iter()
        .flat_map(|&t| paths.iter().map(move |p| (t, p.clone())))
        .collect();
    // The SunOS model has one file, `/tmp/bench`, as deep as the
    // `/tmp/churn<n>` files; it stands in for each of them.
    let pair_us = |path_off| {
        table1::sunos_us_per_call(table1::open_close_binary(path_off, 40), &crate::LIMITS)
            .map(|us| 2.0 * us)
    };
    let (null_us, tty_us, file_us) = (
        pair_us(table1::NULL)?,
        pair_us(table1::TTY)?,
        pair_us(table1::FILE)?,
    );
    let sunos_pair_us = (0..keys.len())
        .map(|key| match key % paths.len() {
            0 => null_us,
            1 => tty_us,
            _ => file_us,
        })
        .collect();
    // The hot set: every path once, each for a seeded thread, so the
    // hot traffic's mix of device and file opens is the same whatever
    // the seed.
    let mut rng = Rng::new(seed, 2);
    let mut sizes_left: Vec<usize> = rng
        .stratified(jobs, 0.5, 1.5)
        .into_iter()
        .map(|f| (PAIRS as f64 * f).round() as usize)
        .collect();
    sizes_left.reverse();
    let hot: Vec<usize> = (0..paths.len())
        .map(|p| rng.below(THREADS as u64) as usize * paths.len() + p)
        .collect();
    let mut st = State {
        k,
        keys,
        sunos_pair_us,
        hot,
        rng,
        jobs,
        sizes_left,
        baseline: Bytes {
            heap: 0,
            code: 0,
            resident: 0,
        },
        end: None,
        counts: Vec::new(),
        cache_bytes: Vec::new(),
        opens_hit: Vec::new(),
        opens_miss: Vec::new(),
        closes: Vec::new(),
        instrs: 0,
    };
    // Settle lazily-allocated kernel state, take the byte baseline with
    // the cache flushed, then warm the cache for the timed run.
    st.warm_up()?;
    st.k.creator.flush_cache(&mut st.k.m);
    st.baseline = bytes(&st.k);
    st.warm_up()?;
    Ok(st)
}

impl State {
    /// Jobs in the run.
    pub fn len(&self) -> usize {
        self.jobs
    }

    fn warm_up(&mut self) -> Result<(), String> {
        for _ in 0..WARMUP_PAIRS {
            let key = self.next_key();
            let (tid, path) = self.keys[key].clone();
            let fd = self
                .k
                .open_for(tid, &path)
                .map_err(|e| format!("warm-up open: errno {e}"))?;
            self.k
                .close_for(tid, fd)
                .map_err(|e| format!("warm-up close: errno {e}"))?;
        }
        Ok(())
    }

    fn next_key(&mut self) -> usize {
        if self.rng.below(4) != 0 {
            self.hot[self.rng.below(self.hot.len() as u64) as usize]
        } else {
            self.rng.below(self.keys.len() as u64) as usize
        }
    }
}

/// Run one job: a batch of open/close pairs.
pub fn run_job(st: &mut State, limits: &Limits, tr: &mut Tracer) -> Job {
    let pairs = st.sizes_left.pop().unwrap_or(PAIRS);
    let batch: Vec<usize> = (0..pairs).map(|_| st.next_key()).collect();
    let spans = tr.enabled();
    let s = &st.k.creator.stats;
    let c0 = [s.cache_hits, s.cache_misses, s.synthesized];
    let m0 = st.k.m.meter.snapshot();
    let us0 = st.k.m.now_us();
    let t0 = Instant::now();
    let job_span = tr.enter("bench.job");
    let mut done = 0u64;
    let mut sunos_us = 0.0;
    let mut why = String::new();
    for key in batch {
        let (tid, path) = &st.keys[key];
        let tid = *tid;
        let open = if spans {
            let misses = st.k.creator.stats.cache_misses;
            let g0 = st.k.m.now_us();
            let (r, host) = tr.span("core.open_for", || st.k.open_for(tid, path));
            let call = Call {
                host_us: (host * 1e6) as f32,
                guest_us: (st.k.m.now_us() - g0) as f32,
            };
            if st.k.creator.stats.cache_misses > misses {
                st.opens_miss.push(call);
            } else {
                st.opens_hit.push(call);
            }
            r
        } else {
            st.k.open_for(tid, path)
        };
        let fd = match open {
            Ok(fd) => fd,
            Err(e) => {
                why = format!("open_for({tid}, {path}): errno {e}");
                break;
            }
        };
        let closed = if spans {
            let g0 = st.k.m.now_us();
            let (r, host) = tr.span("core.close_for", || st.k.close_for(tid, fd));
            st.closes.push(Call {
                host_us: (host * 1e6) as f32,
                guest_us: (st.k.m.now_us() - g0) as f32,
            });
            r
        } else {
            st.k.close_for(tid, fd)
        };
        if let Err(e) = closed {
            why = format!("close_for({tid}, {fd}): errno {e}");
            break;
        }
        done += 1;
        sunos_us += st.sunos_pair_us[key];
        let over_time = done.is_multiple_of(64) && t0.elapsed() > limits.job_host;
        if st.k.m.meter.cycles - m0.cycles > limits.job_cycles || over_time {
            why = "over its cycle or host-time limit".into();
            break;
        }
    }
    tr.exit(job_span);
    let host_s = t0.elapsed().as_secs_f64();
    let guest_us = st.k.m.now_us() - us0;
    let dm = m0.delta(&st.k.m.meter.snapshot());
    st.instrs += dm.instr_count;
    let s = &st.k.creator.stats;
    let dc = [
        s.cache_hits - c0[0],
        s.cache_misses - c0[1],
        s.synthesized - c0[2],
    ];
    let cache = &st.k.creator.cache;
    let size = [cache.resident_bytes(), cache.warm_bytes()];
    let heap = u64::from(st.k.heap.in_use);
    st.counts.push(dc);
    st.cache_bytes.push(size);
    let mut fingerprint = vec![dm.cycles, dm.instr_count, dm.exception_count, done];
    fingerprint.extend(dc);
    fingerprint.extend(size);
    fingerprint.push(heap);
    Job {
        kind: 0,
        host_s,
        guest_us,
        speedup: ratio(sunos_us, guest_us),
        ops: done,
        ok: why.is_empty(),
        why,
        fingerprint,
    }
}

/// End-of-run check: with every channel closed and the cache flushed,
/// the heap, the code buffer and the cache hold what they held after
/// set-up.
pub fn finish(st: &mut State) -> Vec<String> {
    st.k.creator.flush_cache(&mut st.k.m);
    let end = bytes(&st.k);
    st.end = Some(end);
    if end == st.baseline {
        Vec::new()
    } else {
        vec![format!(
            "open_churn leaked: after set-up {:?}, at the end {:?}",
            st.baseline, end
        )]
    }
}

fn pct(v: &[Call], f: impl Fn(&Call) -> f32, p: f64) -> f64 {
    let xs: Vec<f64> = v.iter().map(|c| f64::from(f(c))).collect();
    if xs.is_empty() {
        0.0
    } else {
        quantile(&xs, p)
    }
}

/// Per-layer metrics of the traced pass.
pub fn layer_metrics(st: &State, jobs: &[Job], out: &mut Metrics) {
    let n = st.counts.len().max(1) as f64;
    let ops: u64 = jobs.iter().map(|j| j.ops).sum();
    let hits: u64 = st.counts.iter().map(|c| c[0]).sum();
    let misses: u64 = st.counts.iter().map(|c| c[1]).sum();
    let synth: u64 = st.counts.iter().map(|c| c[2]).sum();
    out.put(
        "quamachine.instrs_per_op",
        ratio(st.instrs as f64, ops as f64),
        "instr/op",
    );
    out.put("core.trace.dropped", st.k.trace.dropped as f64, "count");
    out.put("codegen.synthesized_per_job", synth as f64 / n, "count");
    out.put(
        "codegen.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    let last = st.cache_bytes.last().copied().unwrap_or([0, 0]);
    out.put("codegen.resident_bytes", last[0] as f64, "bytes");
    out.put("codegen.warm_bytes", last[1] as f64, "bytes");
    let host = |c: &Call| c.host_us;
    let guest = |c: &Call| c.guest_us;
    out.put(
        "codegen.synth_host_us_per_miss",
        pct(&st.opens_miss, host, 0.5) - pct(&st.opens_hit, host, 0.5),
        "us",
    );
    for (class, calls) in [("hit", &st.opens_hit), ("miss", &st.opens_miss)] {
        for (clock, f) in [("guest", guest as fn(&Call) -> f32), ("host", host)] {
            for (p, q) in [("p50", 0.5), ("p99", 0.99)] {
                out.put(
                    format!("core.open_for.{clock}_us_{p}.{class}"),
                    pct(calls, f, q),
                    "us",
                );
            }
        }
    }
    out.put(
        "core.close_for.guest_us_p50",
        pct(&st.closes, guest, 0.5),
        "us",
    );
    out.put(
        "core.close_for.host_us_p50",
        pct(&st.closes, host, 0.5),
        "us",
    );
    if let Some(end) = st.end {
        out.put(
            "core.heap_leak_bytes",
            f64::from(end.heap) - f64::from(st.baseline.heap),
            "bytes",
        );
        out.put(
            "core.code_leak_bytes",
            f64::from(end.code) - f64::from(st.baseline.code),
            "bytes",
        );
    }
}
