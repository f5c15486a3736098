//! Two-clock benchmark of the Synthesis kernel reproduction.
//!
//! ```text
//! perfbench --workload <unix_table1|open_churn|sched_mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! One host thread drives each workload in a closed loop: the next job
//! starts when the previous one returns. The seed fixes every input; the
//! job count follows from `--seconds` and a nominal job rate, so one
//! seed and one length always name the same jobs and the guest clock
//! repeats bit for bit. Host times in the end-to-end metrics are scaled
//! to a reference host speed sampled between jobs
//! ([`common::SpeedRef`]). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! and the metrics — the end-to-end ones with `--trace 0`, the per-layer
//! ones with `--trace 1`.
//!
//! `--trace 1` runs the workload twice from fresh set-ups: untraced,
//! then with a span around every call into a layer. Both passes must
//! agree on every guest-clock figure and layer count; the host-time
//! ratio between them is the tracing overhead. `--trace 0` replays the
//! first jobs from a fresh set-up for the same check. A disagreement is
//! a benchmark error: a message on standard error and exit code 3.

mod churn;
mod common;
mod sched;
mod table1;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{
    geomean, median, peak_rss_mb, quantile, ratio, Job, Metrics, Reference, SpeedRef, Tracer,
};

/// Per-job limits: a stuck job fails instead of hanging the run.
pub struct Limits {
    /// Guest cycles one job may take.
    pub job_cycles: u64,
    /// Guest cycles per run slice between host-deadline checks.
    pub slice_cycles: u64,
    /// Host time one job may take.
    pub job_host: Duration,
}

const LIMITS: Limits = Limits {
    job_cycles: 400_000_000,
    slice_cycles: 20_000_000,
    job_host: Duration::from_secs(20),
};

/// Host seconds after which no further job starts; the rest count as
/// failed, so that a run ends within three minutes.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// Set-ups per run; `setup_s` is the median of their scaled times.
const SETUP_REPS: usize = 5;

/// Speed-reference samples before and after each set-up; the set-up is
/// scaled by their median.
const SETUP_SAMPLES: usize = 3;

/// Speed-reference samples on each side of a job whose median scales it.
/// One sample is taken before each job, so a job's samples are the one
/// before it, `JOB_SAMPLES` before that and `JOB_SAMPLES` after it.
const JOB_SAMPLES: usize = 2;

/// Jobs replayed from a fresh set-up by the untraced determinism check.
const REPLAY_JOBS: usize = 8;

/// A workload after set-up.
enum Work {
    Table1(table1::State),
    Churn(Box<churn::State>),
    Sched(sched::State),
}

impl Work {
    fn setup(name: &str, seed: u64, seconds: u64) -> Result<Work, String> {
        Ok(match name {
            "unix_table1" => Work::Table1(table1::setup(seed, table1_decks(seconds), &LIMITS)?),
            "open_churn" => Work::Churn(Box::new(churn::setup(seed, churn::jobs_for(seconds))?)),
            "sched_mix" => Work::Sched(sched::setup(seed, sched::jobs_for(seconds))?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn len(&self) -> usize {
        match self {
            Work::Table1(s) => s.len(),
            Work::Churn(s) => s.len(),
            Work::Sched(s) => s.len(),
        }
    }

    fn run_job(&mut self, i: usize, tr: &mut Tracer) -> Job {
        match self {
            Work::Table1(s) => table1::run_job(s, i, &LIMITS, tr),
            Work::Churn(s) => churn::run_job(s, &LIMITS, tr),
            Work::Sched(s) => sched::run_job(s, i, &LIMITS, tr),
        }
    }

    /// End-of-run checks; the reasons any failed.
    fn finish(&mut self) -> Vec<String> {
        match self {
            Work::Table1(_) => Vec::new(),
            Work::Churn(s) => churn::finish(s),
            Work::Sched(_) => Vec::new(),
        }
    }

    fn layer_metrics(&self, jobs: &[Job], out: &mut Metrics) {
        match self {
            Work::Table1(s) => table1::layer_metrics(s, jobs, out),
            Work::Churn(s) => churn::layer_metrics(s, jobs, out),
            Work::Sched(s) => sched::layer_metrics(s, jobs, out),
        }
    }

    /// Jobs the traced pass runs: all of them, except that `open_churn`
    /// stops after the jobs whose every call it spans.
    fn traced_len(&self) -> usize {
        match self {
            Work::Churn(_) => self.len().min(churn::TRACED_JOBS),
            _ => self.len(),
        }
    }
}

/// `unix_table1` decks for a run of `seconds`: about 6 jobs a second
/// (SunOS reference runs included) on a 2-core x86-64 host, and at
/// least 100 jobs so that 10 lie beyond the 90th percentile.
fn table1_decks(seconds: u64) -> usize {
    let jobs = (seconds as f64 * 6.0).ceil() as usize;
    jobs.max(100).div_ceil(table1::DECK_LEN)
}

/// The speed reference a workload's host times follow. `unix_table1`'s
/// jobs (fresh boots, bind-time synthesis) did not follow the loop's
/// speed on the host this was tuned on, and scaling by it widened the
/// spread of their figures; the stream narrowed it.
fn reference(workload: &str) -> Reference {
    if workload == "unix_table1" {
        Reference::Stream
    } else {
        Reference::Loop
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val}"))?),
            "--seconds" => {
                seconds = Some(val.parse().map_err(|_| format!("bad --seconds {val}"))?);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds N (N > 0) is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One pass over every job of a fresh set-up.
struct Pass {
    work: Work,
    jobs: Vec<Job>,
    /// Each job's host seconds scaled to the reference speed.
    ref_s: Vec<f64>,
    /// Host seconds inside timed jobs, scaled to the reference speed.
    job_s: f64,
    failures: Vec<String>,
}

/// Run the first `n` jobs of `work`, then its end-of-run checks.
fn run_pass(
    mut work: Work,
    n: usize,
    tr: &mut Tracer,
    speed: &mut SpeedRef,
    started: Instant,
) -> Pass {
    let mut jobs = Vec::with_capacity(n);
    let mut at = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for i in 0..n {
        if started.elapsed() > RUN_DEADLINE {
            failures.push(format!("run deadline reached; jobs {i}.. not run"));
            break;
        }
        tr.set_job(i as u32);
        speed.sample();
        at.push(speed.len());
        let job = work.run_job(i, tr);
        if !job.ok {
            failures.push(format!("job {i}: {}", job.why));
        }
        jobs.push(job);
    }
    tr.set_job(u32::MAX);
    for _ in 0..JOB_SAMPLES {
        speed.sample();
    }
    // Sample `k - 1` was taken just before job `i`.
    let ref_s: Vec<f64> = jobs
        .iter()
        .zip(&at)
        .map(|(j, &k)| {
            let from = k.saturating_sub(1 + JOB_SAMPLES);
            j.host_s * speed.scale(from, k + JOB_SAMPLES)
        })
        .collect();
    let end = work.finish();
    if !end.is_empty() {
        // End-of-run checks belong to the last job.
        if let Some(last) = jobs.last_mut() {
            last.ok = false;
        }
        failures.extend(end);
    }
    let job_s = ref_s.iter().sum();
    Pass {
        work,
        jobs,
        ref_s,
        job_s,
        failures,
    }
}

/// The first job whose guest figures differ between two passes.
fn first_mismatch(a: &[Job], b: &[Job]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x.fingerprint != y.fingerprint || x.ok != y.ok)
}

fn end_to_end(p: &Pass, attempted: usize, setup_s: f64, rss_mb: f64, out: &mut Metrics) {
    let failed = attempted - p.jobs.iter().filter(|j| j.ok).count();
    let per_op: Vec<f64> = p
        .jobs
        .iter()
        .filter(|j| j.ops > 0 && j.guest_us > 0.0)
        .map(|j| j.guest_us / j.ops as f64)
        .collect();
    if !per_op.is_empty() {
        out.put("guest_us_per_op", geomean(&per_op), "us");
    }
    let speedups: Vec<f64> = p
        .jobs
        .iter()
        .filter(|j| j.speedup > 0.0)
        .map(|j| j.speedup)
        .collect();
    if !speedups.is_empty() {
        out.put("speedup_vs_sunos", geomean(&speedups), "x");
    }
    let ops: u64 = p.jobs.iter().map(|j| j.ops).sum();
    out.put("host_ops_per_s", ratio(ops as f64, p.job_s), "ops/s");
    let ms: Vec<f64> = p.ref_s.iter().map(|s| s * 1e3).collect();
    if !ms.is_empty() {
        out.put("host_job_ms_p50", median(&ms), "ms");
        out.put("host_job_ms_p90", quantile(&ms, 0.9), "ms");
    }
    out.put("setup_s", setup_s, "s");
    out.put("host_peak_rss_mb", rss_mb, "MB");
    // Rule-of-succession estimate, never 0: one new failure doubles it.
    out.put(
        "fail_ratio",
        (failed as f64 + 1.0) / (attempted as f64 + 1.0),
        "ratio",
    );
}

fn spans_path(a: &Args) -> std::path::PathBuf {
    std::path::Path::new("perfbench-out").join(format!("{}-seed{}.spans.tsv", a.workload, a.seed))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Set-up, several times; the last one is kept. Each is scaled by the
    // speed reference sampled just before and after it.
    let mut speed = SpeedRef::new(reference(&args.workload));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut work = None;
    for _ in 0..SETUP_REPS {
        // Only one set-up is alive at a time, for the peak RSS.
        drop(work.take());
        for _ in 0..SETUP_SAMPLES {
            speed.sample();
        }
        let from = speed.len().saturating_sub(SETUP_SAMPLES);
        let t = Instant::now();
        match Work::setup(&args.workload, args.seed, args.seconds) {
            Ok(w) => work = Some(w),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(2);
            }
        }
        let raw = t.elapsed().as_secs_f64();
        raw_setups.push(raw);
        for _ in 0..SETUP_SAMPLES {
            speed.sample();
        }
        setups.push(raw * speed.scale(from, speed.len()));
    }
    let setup_s = median(&setups);
    let work = work.expect("SETUP_REPS > 0");
    let attempted = work.len();

    let mut off = Tracer::new(false);
    let plain = run_pass(work, attempted, &mut off, &mut speed, started);
    // The peak of one set-up and the pass, before the second set-up,
    // less the speed reference's own data.
    let rss_mb = peak_rss_mb() - speed.resident_mb();
    let raw_ms: Vec<f64> = plain.jobs.iter().map(|j| j.host_s * 1e3).collect();
    let raw_ops: u64 = plain.jobs.iter().map(|j| j.ops).sum();
    eprintln!(
        "perfbench: unscaled host_ops_per_s {} host_job_ms_p50 {} host_job_ms_p90 {} setup_s {}",
        ratio(raw_ops as f64, raw_ms.iter().sum::<f64>() / 1e3),
        median(&raw_ms),
        quantile(&raw_ms, 0.9),
        median(&raw_setups)
    );
    // A second, fresh set-up: traced in full, or replayed in part, to
    // check the guest clock repeats.
    let mut second = match Work::setup(&args.workload, args.seed, args.seconds) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Metrics::default();

    if args.trace {
        let mut tr = Tracer::new(true);
        let n = second.traced_len().min(plain.jobs.len());
        let traced = run_pass(second, n, &mut tr, &mut speed, started);
        let n = traced.jobs.len();
        if let Some(i) = first_mismatch(&plain.jobs[..n], &traced.jobs) {
            eprintln!("perfbench: traced and untraced runs differ on the guest clock at job {i}");
            return ExitCode::from(3);
        }
        traced.work.layer_metrics(&traced.jobs, &mut out);
        let plain_s: f64 = plain.ref_s[..n].iter().sum();
        out.put(
            "bench.trace_overhead_ratio",
            ratio(traced.job_s, plain_s),
            "ratio",
        );
        let traced_raw: f64 = traced.jobs.iter().map(|j| j.host_s).sum();
        let job_self = tr.self_times().get("bench.job").copied().unwrap_or(0.0);
        out.put("bench.job.self_share", ratio(job_self, traced_raw), "ratio");
        out.put("bench.speed_ref_us_p50", speed.pass_us_p50(), "us");
        let path = spans_path(&args);
        let written = std::fs::create_dir_all("perfbench-out")
            .and_then(|()| std::fs::write(&path, tr.to_tsv()));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans in {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        let k = REPLAY_JOBS.min(plain.jobs.len());
        let again: Vec<Job> = (0..k).map(|i| second.run_job(i, &mut off)).collect();
        if let Some(i) = first_mismatch(&plain.jobs[..k], &again) {
            eprintln!(
                "perfbench: replaying seed {} differs on the guest clock at job {i}",
                args.seed
            );
            return ExitCode::from(3);
        }
        end_to_end(&plain, attempted, setup_s, rss_mb, &mut out);
    }

    let failures = &plain.failures;
    for f in failures.iter().take(5) {
        eprintln!("perfbench: {f}");
    }
    if failures.len() > 5 {
        eprintln!("perfbench: ... {} failures in all", failures.len());
    }
    let failed = attempted - plain.jobs.iter().filter(|j| j.ok).count();
    eprintln!(
        "perfbench: {} {} jobs in {:.1} s host ({:.1} s total)",
        args.workload,
        attempted,
        plain.job_s,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failures.is_empty(),
        out.to_json()
    );
    ExitCode::SUCCESS
}
