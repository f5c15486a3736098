//! Regenerate every table of the paper's evaluation section.
//!
//! ```text
//! tables            # all tables
//! tables --table 3  # one table
//! tables --kernel-size
//! tables --iters 100
//! tables --json BENCH_9.json  # tables 1-3 + cache figures, as records
//! tables --trace-report       # profiler: per-thread I/O rates + quanta
//! tables --trace-report --json BENCH_5.json
//! tables --cpus 4             # SMP scaling table at 1, 2, and 4 CPUs
//! tables --cpus 4 --json BENCH_6.json
//! tables --recovery-report --cpus 4 --seed 7   # chaos-soak scoreboard
//! tables --recovery-report --cpus 4 --json RECOVERY.json
//! tables --capacity                  # 10k-thread capacity soak (BENCH_8)
//! tables --capacity --json BENCH_8.json
//! tables --capacity --threads 2000   # reduced population
//! tables --gate NEW.json BASELINE.json   # CI regression gate
//! ```
//!
//! Every `--json` mode writes the one record schema of
//! [`synthesis_bench::record`]: a JSON array of flat `{suite, name,
//! value, unit, better, paper, tol, floor}` records, one per line.
//! `--gate` holds a fresh file against a baseline using the thresholds
//! the baseline's records carry (see [`record::gate`]).
//!
//! `--cpus 1` (the default) reproduces the uniprocessor kernel byte for
//! byte: every other mode's output is unchanged from the pre-SMP
//! binary. `--cpus N` with N > 1 switches to the SMP scaling report
//! (and makes `--trace-report` profile an N-CPU kernel).

use synthesis_bench::record::{self, Better, Better::*, Record};
use synthesis_bench::{
    capacity, profile, render, smp, table1, table2, table3, table4, table5, Row,
};
use synthesis_core::monitor::{RecoveryReport, LATENCY_BUCKETS};

/// Table 1's default iteration count, the one BENCH_9 records.
const DEFAULT_ITERS: u32 = 40;

/// Absolute floors on Table 1 rows (by index) at the default iteration
/// count: the fused paths of rows 2, 5, 6 and 7 must stay installed.
/// Shorter runs amortize the first-call wrapper syntheses over fewer
/// calls, so they carry no floor.
const TABLE1_FLOORS: [(usize, f64); 4] = [(1, 20.0), (4, 8.0), (5, 15.0), (6, 8.0)];

fn write_json(path: &str, records: &[Record]) {
    if let Err(e) = std::fs::write(path, record::to_json(records)) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// A constructor for records of `suite` whose names start with `prefix`.
fn records_of<'a>(
    suite: &'a str,
    prefix: &'a str,
) -> impl Fn(&str, f64, &str, Option<Better>) -> Record + 'a {
    move |name, v, unit, better| Record::new(suite, format!("{prefix}{name}"), v, unit, better)
}

fn row_records(suite: &str, rows: &[Row], better: Better) -> Vec<Record> {
    let rec = records_of(suite, "");
    let row = |r: &Row| Record {
        paper: r.paper,
        ..rec(&r.what, r.measured, r.unit, Some(better))
    };
    rows.iter().map(row).collect()
}

/// Tables 1–3 plus the specialization-cache figures (BENCH_4, BENCH_9).
/// Table 1 rows may lose at most 5 % of their speedup against a
/// baseline.
fn table_records(iters: u32) -> Vec<Record> {
    eprintln!("[json: running tables 1-3 and the cache benchmark ({iters} iterations)...]");
    let mut t1 = row_records("table1", &table1::run(iters), Higher);
    for r in &mut t1 {
        r.tol = Some(0.05);
    }
    if iters == DEFAULT_ITERS {
        for (row, floor) in TABLE1_FLOORS {
            t1[row].floor = Some(floor);
        }
    }
    let mut out = vec![Record::new(
        "table1",
        "iters",
        f64::from(iters),
        "count",
        None,
    )];
    out.extend(t1);
    out.extend(row_records("table2", &table2::run(), Lower));
    out.extend(row_records("table3", &table3::run(), Lower));
    let c = table2::open_cold_warm();
    let rec = records_of("cache", "");
    out.extend([
        rec("cold_open_us", c.cold_us, "us", Some(Lower)),
        rec("warm_open_us", c.warm_us, "us", Some(Lower)),
        rec("hits", c.hits as f64, "count", Some(Higher)),
        rec("misses", c.misses as f64, "count", Some(Lower)),
        rec("hit_rate", c.hit_rate, "ratio", Some(Higher)),
        rec("shared_bytes", c.shared_bytes as f64, "bytes", Some(Higher)),
    ]);
    out
}

/// The SMP scaling table plus the cross-CPU cache figures (BENCH_6).
fn smp_records(points: &[smp::ScalingPoint], cache: &smp::CacheSmp) -> Vec<Record> {
    let rec = records_of("smp", "");
    let mut out = vec![
        rec("spinners", smp::SPINNERS as f64, "count", None),
        rec("writers", smp::WRITERS as f64, "count", None),
        rec("run_cycles", smp::RUN_CYCLES as f64, "cycles", None),
    ];
    let base = points.first().map_or(0.0, |p| p.ops_per_ms);
    for p in points {
        let at = format!("cpus={} ", p.cpus);
        let rec = records_of("smp", &at);
        let speedup = if base > 0.0 { p.ops_per_ms / base } else { 0.0 };
        out.extend([
            rec("total_ops", p.total_ops as f64, "count", Some(Higher)),
            rec("elapsed_ms", p.elapsed_ms, "ms", None),
            rec("ops_per_ms", p.ops_per_ms, "ops/ms", Some(Higher)),
            rec("speedup", speedup, "x", Some(Higher)),
        ]);
        for c in &p.per_cpu {
            let at = format!("cpus={} cpu={} ", p.cpus, c.cpu);
            let rec = records_of("smp", &at);
            out.extend([
                rec("steals", c.steals as f64, "count", None),
                rec("offloads", c.offloads as f64, "count", None),
                rec("busy_cycles", c.busy_cycles as f64, "cycles", None),
                rec("idle_cycles", c.idle_cycles as f64, "cycles", None),
            ]);
        }
    }
    let rec = records_of("cache_smp", "");
    let bytes = |name, v: u64, better| rec(name, v as f64, "bytes", better);
    out.extend([
        rec("cold_open_us", cache.cold_open_us, "us", Some(Lower)),
        rec("warm_local_us", cache.warm_local_us, "us", Some(Lower)),
        rec("warm_cross_us", cache.warm_cross_us, "us", Some(Lower)),
        rec("hits_local", cache.hits_local as f64, "count", Some(Higher)),
        rec("hits_cross", cache.hits_cross as f64, "count", Some(Higher)),
        bytes("bytes_shared_cross", cache.bytes_shared_cross, Some(Higher)),
        bytes("shared_tier_bytes", cache.shared_tier_bytes, None),
    ]);
    out
}

/// The profiler's result (BENCH_5): per-thread I/O rates, syscall
/// latency histograms and final quanta, plus per-CPU rows on
/// multiprocessor kernels only, so the one-CPU file is byte-identical
/// to the uniprocessor binary's.
fn trace_records(p: &profile::ProfileResult) -> Vec<Record> {
    let r = &p.report;
    let rec = records_of("trace", "");
    let mut out = vec![
        rec("window_start", r.window_start as f64, "cycles", None),
        rec("window_end", r.window_end as f64, "cycles", None),
        rec("records", r.records as f64, "count", None),
        rec("dropped", r.dropped as f64, "count", Some(Lower)),
        rec("adapt_passes", p.passes as f64, "count", None),
        rec("quantum_changes", p.adjustments as f64, "count", None),
    ];
    for c in &r.cpus {
        let at = format!("cpu={} ", c.cpu);
        let rec = records_of("trace", &at);
        out.extend([
            rec("utilization", c.utilization, "ratio", Some(Higher)),
            rec("steals", c.steals as f64, "count", None),
            rec("steal_records", c.steal_records as f64, "count", None),
            rec("offloads", c.offloads as f64, "count", None),
            rec("busy_cycles", c.busy_cycles as f64, "cycles", None),
            rec("idle_cycles", c.idle_cycles as f64, "cycles", None),
        ]);
    }
    for t in &r.threads {
        let (role, quantum) = p
            .threads
            .iter()
            .find(|pt| pt.tid == t.tid)
            .map_or(("kernel/idle", 0), |pt| (pt.role, pt.quantum_us));
        let at = format!("tid={} [{role}] ", t.tid);
        let rec = records_of("trace", &at);
        let count = |name: &str, v: u64| rec(name, v as f64, "count", None);
        out.extend([
            count("ctx_switches", t.ctx_switches),
            count("syscalls", t.syscalls),
            count("irqs", t.irqs),
            count("queue_puts", t.queue_puts),
            count("queue_gets", t.queue_gets),
            count("cache_hits", t.cache_hits),
            count("cache_misses", t.cache_misses),
            count("recoveries", t.recoveries),
            count("io_events", t.io_events),
            rec("io_per_ms", t.io_per_ms, "1/ms", None),
            rec("quantum_us", f64::from(quantum), "us", None),
        ]);
        for (bound, n) in LATENCY_BUCKETS.iter().zip(t.latency) {
            out.push(count(&format!("latency<={bound} cycles"), n));
        }
    }
    out
}

/// The chaos-soak scoreboard; the per-CPU section only on
/// multiprocessor kernels, as in [`trace_records`].
fn recovery_records(r: &RecoveryReport) -> Vec<Record> {
    let i = &r.injected;
    let injected = records_of("recovery", "injected ");
    let count = |name: &str, v: u64| injected(name, v as f64, "count", None);
    let mut out = vec![
        count("total", i.total()),
        count("disk_transient", i.disk_transient),
        count("disk_sticky", i.disk_sticky),
        count("tty_dropped", i.tty_dropped),
        count("tty_duplicated", i.tty_duplicated),
        count("irq_lost", i.irq_lost),
        count("irq_spurious", i.irq_spurious),
        count("timer_jitter", i.timer_jitter),
        count("ipi_lost", i.ipi_lost),
        count("ipi_delayed", i.ipi_delayed),
        count("ipi_spurious", i.ipi_spurious),
        count("cpu_stall", i.cpu_stall),
        count("cpu_sick", i.cpu_sick),
    ];
    let rec = records_of("recovery", "");
    let count = |name: &str, v: u64| rec(name, v as f64, "count", None);
    out.extend([
        count("disk_retries", r.disk_retries),
        rec("disk_backoff_us", r.disk_backoff_us as f64, "us", None),
        count("disk_failed", r.disk_failed),
        count("disk_rejected_quarantined", r.disk_rejected_quarantined),
        count("sectors_quarantined", r.sectors_quarantined as u64),
        count("threads_reaped", r.threads_reaped),
        count("threads_quarantined", r.threads_quarantined),
        count("io_errors", r.io_errors),
    ]);
    if !r.cpus.is_empty() {
        out.extend([
            count("cpus_quarantined", r.cpus_quarantined),
            count("cpus_resumed", r.cpus_resumed),
            count("threads_evacuated", r.threads_evacuated),
            count("ipi_fallbacks", r.ipi_fallbacks),
        ]);
    }
    for c in &r.cpus {
        let at = format!("cpu={} ", c.cpu);
        let rec = records_of("recovery", &at);
        let count = |name: &str, v: u64| rec(name, v as f64, "count", None);
        out.extend([
            count("quarantined", u64::from(c.quarantined)),
            count("fault_events", c.fault_events),
            count("stall_cycles", c.stall_cycles),
            count("strikes", u64::from(c.strikes)),
        ]);
    }
    out
}

/// The capacity soak (BENCH_8). Spawn p99 may grow and ops/ms may drop
/// by at most 10 % against a baseline, at every CPU count.
fn capacity_records(r: &capacity::CapacityReport) -> Vec<Record> {
    let mut out = Vec::new();
    for p in &r.scale {
        let at = format!("cpus={} ", p.cpus);
        let rec = records_of("capacity", &at);
        let us = |name: &str, v: f64| rec(name, v, "us", Some(Lower));
        let count = |name: &str, v: u64| rec(name, v as f64, "count", None);
        let cycles = |name: &str, v: u64| rec(name, v as f64, "cycles", Some(Lower));
        let bytes = |name: &str, v: u32| rec(name, f64::from(v), "bytes", Some(Lower));
        out.extend([
            count("threads", p.threads as u64),
            count("channels_open", p.channels_open as u64),
            us("spawn_p50_us", p.spawn.p50),
            us("spawn_p90_us", p.spawn.p90),
            Record {
                tol: Some(0.10),
                ..us("spawn_p99_us", p.spawn.p99)
            },
            us("spawn_max_us", p.spawn.max),
            rec("spin_ops", p.spin_ops as f64, "count", Some(Higher)),
            rec("elapsed_ms", p.elapsed_ms, "ms", None),
            Record {
                tol: Some(0.10),
                ..rec("ops_per_ms", p.ops_per_ms, "ops/ms", Some(Higher))
            },
            count("signals_sent", p.signals_sent),
            count("signals_delivered", p.signals_delivered),
            cycles("dispatch_median_cycles", p.dispatch.median_cycles),
            cycles("dispatch_max_cycles", p.dispatch.max_cycles),
            count("dispatch_samples", p.dispatch.samples as u64),
            bytes("heap_in_use", p.heap_in_use),
            bytes("code_in_use", p.code_in_use),
        ]);
    }
    for b in &r.baselines {
        let at = format!("cpus={} threads={} ", b.cpus, b.threads);
        let rec = records_of("dispatch", &at);
        out.extend([
            rec("samples", b.samples as f64, "count", None),
            rec(
                "median_cycles",
                b.median_cycles as f64,
                "cycles",
                Some(Lower),
            ),
            rec("max_cycles", b.max_cycles as f64, "cycles", Some(Lower)),
        ]);
    }
    let cycles = r.open_close_cycles as f64;
    out.push(Record::new(
        "eviction",
        "open_close_cycles",
        cycles,
        "count",
        None,
    ));
    for c in &r.curve {
        let at = format!("budget={} ", c.budget);
        let rec = records_of("eviction", &at);
        out.extend([
            rec("cycles", c.cycles as f64, "count", None),
            rec("hits", c.hits as f64, "count", Some(Higher)),
            rec("misses", c.misses as f64, "count", Some(Lower)),
            rec("hit_rate", c.hit_rate, "ratio", Some(Higher)),
            rec(
                "resident_bytes",
                c.resident_bytes as f64,
                "bytes",
                Some(Lower),
            ),
            rec("warm_bytes", c.warm_bytes as f64, "bytes", None),
        ]);
    }
    let l = &r.lifecycle;
    let rec = records_of("lifecycle", "");
    let bytes = |name: &str, v: u32, better| rec(name, f64::from(v), "bytes", better);
    out.extend([
        rec("cycles", l.cycles as f64, "count", None),
        bytes("heap_before", l.heap_before, None),
        bytes("heap_after", l.heap_after, Some(Lower)),
        bytes("code_before", l.code_before, None),
        bytes("code_after", l.code_after, Some(Lower)),
        bytes("heap_high_water", l.heap_high_water, Some(Lower)),
        rec(
            "heap_fragments",
            l.heap_fragments as f64,
            "count",
            Some(Lower),
        ),
        bytes("heap_largest_free", l.heap_largest_free, Some(Higher)),
    ]);
    out
}

/// `tables --gate NEW BASE`: exit non-zero (so CI fails the job) when
/// [`record::gate`] reports any failure.
fn gate(new_path: &str, base_path: &str) {
    let read = |p: &str| {
        record::read(p).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    };
    let (new, base) = (read(new_path), read(base_path));
    let failures = record::gate(&new, &base);
    for f in &failures {
        eprintln!("GATE FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    let held = |f: fn(&Record) -> bool| base.iter().filter(|r| f(r)).count();
    println!(
        "gate ok: all {} records of {base_path} present, {} tolerances and {} floors held",
        base.len(),
        held(|r| r.tol.is_some()),
        held(|r| r.floor.is_some())
    );
}

fn kernel_size() -> Vec<Row> {
    // Section 6.4: the whole kernel assembles to 64 KB; with 3 processes
    // running the resident kernel is 32 KB, growing with threads and
    // open files.
    let mut k = synthesis_bench::boot_kernel();
    let boot_report = synthesis_core::monitor::size_report(&k);
    let boot_code = boot_report.code_resident as f64 / 1024.0;

    // Three threads, like the paper's "3 processes running" figure.
    let map = quamachine::mem::AddressMap::single(
        1,
        synthesis_core::layout::USER_BASE,
        synthesis_core::layout::USER_LEN,
    );
    let mut a = quamachine::asm::Asm::new("spin");
    let top = a.here();
    a.bcc(quamachine::isa::Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let mut tids = Vec::new();
    for i in 0..3 {
        let tid = k
            .create_thread(
                entry,
                synthesis_core::layout::USER_BASE + 0x1000 + i * 0x800,
                map.clone(),
            )
            .unwrap();
        tids.push(tid);
    }
    let three = synthesis_core::monitor::size_report(&k);

    // Open ten files on the first thread: space grows with open files.
    for i in 0..10 {
        let name = format!("/f{i}");
        k.fs.create(&mut k.m, &mut k.heap, &name, 4096).unwrap();
        k.open_for(tids[0], &name).unwrap();
    }
    let ten_files = synthesis_core::monitor::size_report(&k);

    vec![
        Row::new(
            "static kernel code at boot [KB]",
            Some(32.0),
            boot_code,
            "KB",
        ),
        Row::new(
            "code with 3 threads [KB]",
            None,
            three.code_resident as f64 / 1024.0,
            "KB",
        ),
        Row::new(
            "code with 3 threads + 10 open files [KB]",
            None,
            ten_files.code_resident as f64 / 1024.0,
            "KB",
        ),
        Row::new(
            "kernel heap with 3 threads [KB]",
            None,
            f64::from(three.heap_in_use) / 1024.0,
            "KB",
        ),
        Row::new(
            "synthesized blocks resident",
            None,
            ten_files.code_blocks as f64,
            "blocks",
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let only: Option<u32> = match get("--table") {
        Some(s) => match s.parse::<u32>() {
            Ok(n @ 1..=5) => Some(n),
            _ => {
                eprintln!("error: --table takes a number 1-5, got {s:?}");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let iters: u32 = match get("--iters") {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: --iters takes a positive number, got {s:?}");
            std::process::exit(2);
        }),
        None => DEFAULT_ITERS,
    };
    if iters == 0 {
        eprintln!("error: --iters must be at least 1");
        std::process::exit(2);
    }
    let cpus: usize = match get("--cpus") {
        Some(s) => match s.parse::<usize>() {
            Ok(n @ 1..=8) => n,
            _ => {
                eprintln!("error: --cpus takes a number 1-8, got {s:?}");
                std::process::exit(2);
            }
        },
        None => 1,
    };
    let size_only = args.iter().any(|a| a == "--kernel-size");

    if let Some(i) = args.iter().position(|a| a == "--gate") {
        let (Some(new_path), Some(base_path)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("error: --gate takes NEW.json BASELINE.json");
            std::process::exit(2);
        };
        gate(new_path, base_path);
        return;
    }

    if args.iter().any(|a| a == "--capacity") {
        let threads: usize = match get("--threads") {
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("error: --threads takes a positive number, got {s:?}");
                std::process::exit(2);
            }),
            None => capacity::default_threads(),
        };
        eprintln!(
            "[capacity: {threads} threads on 1 and 4 CPUs, eviction curve, lifecycle churn...]"
        );
        let report = capacity::run_capacity(
            threads,
            capacity::default_churn_per_point(),
            capacity::default_lifecycle(),
        );
        if let Some(path) = get("--json") {
            write_json(&path, &capacity_records(&report));
        } else {
            print!("{}", capacity::render(&report));
        }
        return;
    }

    if args.iter().any(|a| a == "--recovery-report") {
        let seed: u64 = match get("--seed") {
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("error: --seed takes a number, got {s:?}");
                std::process::exit(2);
            }),
            None => 42,
        };
        eprintln!("[recovery report: chaos workload on {cpus} CPU(s), seed {seed}...]");
        let k = smp::chaos_run(cpus, seed);
        let report = synthesis_core::monitor::recovery_report(&k);
        if let Some(path) = get("--json") {
            write_json(&path, &recovery_records(&report));
        } else {
            print!("{}", report.render());
        }
        return;
    }

    if args.iter().any(|a| a == "--trace-report") {
        eprintln!("[trace report: profiling the mixed workload...]");
        let p = if cpus > 1 {
            profile::run_on(cpus, 8, 2_000_000)
        } else {
            profile::run(8, 2_000_000)
        };
        if let Some(path) = get("--json") {
            write_json(&path, &trace_records(&p));
        } else {
            print!("{}", p.render());
        }
        return;
    }

    if cpus > 1 {
        eprintln!(
            "[smp: running the mixed workload at {:?} CPUs...]",
            smp::points_for(cpus)
        );
        let points = smp::scaling(cpus);
        let cache = smp::cache_smp();
        if let Some(path) = get("--json") {
            write_json(&path, &smp_records(&points, &cache));
        } else {
            println!("Synthesis kernel reproduction — SMP scaling");
            println!("machine: 16 MHz + 1 wait state (SUN 3/160 emulation mode)");
            print!("{}", smp::render(&points));
            println!(
                "cache: cold {:.1} µs, warm local {:.1} µs, warm cross-CPU {:.1} µs \
                 ({} local / {} cross hits, {} B shared tier)",
                cache.cold_open_us,
                cache.warm_local_us,
                cache.warm_cross_us,
                cache.hits_local,
                cache.hits_cross,
                cache.shared_tier_bytes
            );
        }
        return;
    }

    if let Some(path) = get("--json") {
        write_json(&path, &table_records(iters));
        return;
    }

    println!("Synthesis kernel reproduction — paper (SOSP '89) vs measured");
    println!("machine: 16 MHz + 1 wait state (SUN 3/160 emulation mode)");

    if size_only {
        print!("{}", render("Kernel size (Section 6.4)", &kernel_size()));
        return;
    }

    if only.is_none() || only == Some(1) {
        println!("\n[table 1: running the seven programs on both kernels ({iters} iterations)...]");
        print!(
            "{}",
            render(
                "Table 1: measured UNIX system calls (speedup, SUNOS-like / Synthesis)",
                &table1::run(iters)
            )
        );
    }
    if only.is_none() || only == Some(2) {
        println!("\n[table 2: single-call file and device I/O...]");
        print!(
            "{}",
            render("Table 2: file and device I/O (µs)", &table2::run())
        );
    }
    if only.is_none() || only == Some(3) {
        print!(
            "{}",
            render("Table 3: thread operations (µs)", &table3::run())
        );
    }
    if only.is_none() || only == Some(4) {
        print!(
            "{}",
            render("Table 4: dispatcher/scheduler (µs)", &table4::run())
        );
    }
    if only.is_none() || only == Some(5) {
        print!(
            "{}",
            render("Table 5: interrupt handling (µs)", &table5::run())
        );
    }
    if only.is_none() {
        print!("{}", render("Kernel size (Section 6.4)", &kernel_size()));
    }
}
