//! Shared pieces: the seeded generator, order statistics, the span
//! recorder, the metric sink, and the job record every workload fills.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so two streams drawn from
    /// one seed do not coincide.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `n` factors stratified over `lo..hi`: one uniform draw from each
    /// of `n` equal bins, shuffled. Each value is seeded, while their sum
    /// hardly depends on the seed.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|j| {
                let u =
                    (j as f64 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) / n as f64;
                lo + (hi - lo) * u
            })
            .collect();
        self.shuffle(&mut v);
        v
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The `p`-quantile of `v` by the nearest-rank rule (`v` non-empty).
pub fn quantile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `v` (the lower middle for even counts; `v` non-empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Geometric mean of positive values (`v` non-empty).
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One timed job, as every workload reports it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload-specific job kind (index into the workload's kind names).
    pub kind: usize,
    /// Host seconds inside the timed job.
    pub host_s: f64,
    /// Virtual µs the job took on the Synthesis kernel.
    pub guest_us: f64,
    /// SunOS-model guest µs over Synthesis guest µs for the job's
    /// calls (0 when the job has no reference).
    pub speedup: f64,
    /// Operations the job completed, from the guest's own counters or
    /// the host calls made.
    pub ops: u64,
    /// Whether every output check of the job passed.
    pub ok: bool,
    /// Why the job failed (empty when it passed).
    pub why: String,
    /// Guest-clock figures and layer counts that must repeat bit for bit
    /// across runs of one seed and between traced and untraced runs.
    pub fingerprint: Vec<u64>,
}

/// One recorded span: a call into a layer, timed on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name (`layer.function`).
    pub name: &'static str,
    /// Host ns since the recorder started.
    pub start_ns: u64,
    /// Host ns since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (`u32::MAX` for set-up and finish).
    pub job: u32,
}

/// Span recorder. Disabled, it records nothing and costs one branch per
/// boundary; enabled, it keeps every span in memory until the run ends.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: u32::MAX,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with job `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span; returns its host duration in seconds (0 when
    /// disabled).
    pub fn exit(&mut self, o: Open) -> f64 {
        let Some(idx) = o.0 else { return 0.0 };
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        (end - s.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let o = self.enter(name);
        let r = f();
        let d = self.exit(o);
        (r, d)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as tab-separated lines: index, name, start, end,
    /// parent (-1 for none), job (-1 for none).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("idx\tname\tstart_ns\tend_ns\tparent\tjob\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let job = if s.job == u32::MAX {
                -1
            } else {
                i64::from(s.job)
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{job}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Ordered metric sink: name → (value, unit).
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Record a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The metrics as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (v, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untimed passes of the loop when the reference is made.
const WARM_PASSES: usize = 40;

/// What a [`SpeedRef`] times. Which one follows a workload's host time
/// depends on where that time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// An interpreter dispatching on an opcode stream over a 1 MB array,
    /// hash-map updates, short-string allocation and sorting: work that
    /// stays within the core's own caches, like a long-lived kernel's.
    Loop,
    /// A sequential read of a 64 MB array: work bound by the memory
    /// system beyond the core's caches, like jobs that boot a fresh
    /// machine and synthesize its code.
    Stream,
}

impl Reference {
    /// Host seconds one pass takes at the reference speed, about its
    /// median on a 2-core x86-64 VM at 2.1 GHz (loop: 250–375 µs seen
    /// there).
    fn pass_s(self) -> f64 {
        match self {
            Reference::Loop => 300e-6,
            Reference::Stream => 9e-3,
        }
    }
}

/// Host-speed reference: fixed work that uses none of the repository's
/// code, timed between jobs, so host times can be scaled to one
/// reference speed.
///
/// The host this benchmark was tuned on changes speed by up to 1.8×
/// for seconds to minutes at a time, with the load of other tenants.
/// The reference does the kind of work a workload's host time goes to
/// (see [`Reference`]), so its time follows those swings, and `raw ×
/// pass_s / median(passes around the measurement)` largely cancels them.
/// Each sample runs the pass twice and times the second only: the first
/// brings the loop's data back into the caches the program's job has
/// just used, so the timed pass does not depend on the program's cache
/// footprint, and a program change that grows its footprint shows in
/// scaled times as in raw ones. (The stream is far larger than the
/// caches, so it reads the same whatever ran before it.)
pub struct SpeedRef {
    kind: Reference,
    mem: Vec<u32>,
    prog: Vec<u8>,
    map: HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>,
    stream: Vec<u64>,
    passes: Vec<f64>,
}

impl SpeedRef {
    /// The reference's fixed inputs; the loop is run until its hash map
    /// has every key it will hold, so that the first timed pass is like
    /// the last.
    pub fn new(kind: Reference) -> SpeedRef {
        let mut rng = Rng::new(0x5EED, 7);
        let mut r = SpeedRef {
            kind,
            mem: Vec::new(),
            prog: Vec::new(),
            map: HashMap::default(),
            stream: Vec::new(),
            passes: Vec::new(),
        };
        match kind {
            Reference::Loop => {
                r.mem = (0..1 << 18).map(|_| rng.next_u64() as u32).collect();
                r.prog = (0..4096).map(|_| rng.below(16) as u8).collect();
                for _ in 0..WARM_PASSES {
                    r.pass();
                }
            }
            Reference::Stream => r.stream = (0..1 << 23).collect(),
        }
        r
    }

    fn pass(&mut self) {
        match self.kind {
            Reference::Loop => {
                self.interpret();
                self.hash();
                self.allocate();
            }
            Reference::Stream => {
                let sum = self.stream.iter().fold(0u64, |a, &x| a.wrapping_add(x));
                std::hint::black_box(sum);
            }
        }
    }

    /// MB of data the reference holds for the whole run; a peak resident
    /// set less this is the program's.
    pub fn resident_mb(&self) -> f64 {
        (self.mem.len() * 4 + self.prog.len() + self.stream.len() * 8) as f64 / (1024.0 * 1024.0)
    }

    /// Time one pass after an untimed one.
    pub fn sample(&mut self) {
        self.pass();
        let t = Instant::now();
        self.pass();
        self.passes.push(t.elapsed().as_secs_f64());
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// The factor that scales host seconds to the reference speed, from
    /// the median of samples `from..to` (clamped to those taken); 1 if
    /// there are none.
    pub fn scale(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.passes.len());
        if to == 0 {
            return 1.0;
        }
        self.kind.pass_s() / median(&self.passes[from.min(to - 1)..to])
    }

    /// Median host µs of one pass over every sample so far (0 if none).
    pub fn pass_us_p50(&self) -> f64 {
        if self.passes.is_empty() {
            0.0
        } else {
            median(&self.passes) * 1e6
        }
    }

    fn interpret(&mut self) {
        let mask = self.mem.len() - 1;
        let mut r = [1u32; 8];
        let mut pc = 0usize;
        for _ in 0..12_000 {
            let op = self.prog[pc & 4095];
            let d = usize::from(op & 7);
            let e = (d + 1) & 7;
            match op {
                0 => r[d] = r[d].wrapping_add(r[e]),
                1 => r[d] = self.mem[r[d] as usize & mask],
                2 => self.mem[r[d] as usize & mask] = r[e],
                3 => r[d] ^= r[d] >> 3,
                4 if r[d] & 1 == 1 => pc = pc.wrapping_add(r[d] as usize & 63),
                5 => r[d] = r[d].rotate_left(5),
                6 => r[d] = r[d].wrapping_mul(0x9E37),
                7 if r[d] & 2 == 0 => pc = pc.wrapping_add(3),
                8 => r[d] = r[d].wrapping_sub(r[e]),
                9 => r[d] = self.mem[r[e] as usize & mask].wrapping_add(r[d]),
                10 => r[d] |= 1,
                11 => self.mem[r[e] as usize & mask] ^= r[d],
                12 if r[d] > r[e] => r.swap(d, e),
                _ => r[d] = !r[d],
            }
            pc = pc.wrapping_add(1);
        }
        std::hint::black_box(r);
    }

    fn hash(&mut self) {
        let mut k: u32 = 7;
        let mut acc = 0u32;
        for _ in 0..4_000 {
            k = k.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let key = (k >> 8) % 20_000;
            if k & 0x100 == 0 {
                self.map.insert(key, k);
            } else {
                acc = acc.wrapping_add(self.map.get(&key).copied().unwrap_or(0));
            }
        }
        std::hint::black_box(acc);
    }

    fn allocate(&mut self) {
        let mut v: Vec<String> = Vec::new();
        for i in 0..1_000u32 {
            v.push(format!("/tmp/f{}", i.wrapping_mul(2_654_435_761) % 977));
            if v.len() > 64 {
                v.sort();
                v.truncate(16);
            }
        }
        std::hint::black_box(&v);
    }
}
