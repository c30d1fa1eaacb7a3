//! What the harness reads from the operating system: process CPU time and
//! memory from `/proc/self`, and the facts about the machine recorded with
//! every result.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. It is 100
/// on every Linux ABI; there is no `sysconf` without a libc dependency.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let mut fields = rest.split(' ').skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime")
    };
    (tick() + tick()) / TICKS_PER_SEC
}

fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set size of this process so far, KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set size, KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

extern "C" {
    /// `sched_setaffinity(2)`; std links the C library that provides it.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// one CPU. Returns false if the kernel refuses.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `size_of_val(&mask)` bytes passed as its size, which the call only
    // reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Reference duration of [`yardstick_ns`]: what it takes on the sandbox
/// this benchmark was calibrated on when nothing disturbs it. A timing
/// divided by `yardstick_ns() / YARDSTICK_REFERENCE_NS` is the timing "at
/// reference speed".
pub const YARDSTICK_REFERENCE_NS: f64 = 1_200_000.0;

/// Timed rounds of the yardstick's work: about a millisecond in all, long
/// enough that a context switch next to it does not show.
const YARDSTICK_ROUNDS: usize = 16;

/// A fixed piece of CPU work — scramble, sort and binary-search a few
/// thousand integers: comparisons, branches, dependent loads. It touches
/// no allocator and stays inside the private caches, so its duration says
/// how fast the core is running and nothing about what ran before it.
fn yardstick_work(values: &mut [u64; 4096]) -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for value in values.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *value = state;
    }
    values.sort_unstable();
    let mut found = 0;
    for _ in 0..4096 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        found += values.binary_search(&state).unwrap_or_else(|at| at) as u64;
    }
    found
}

/// How long the yardstick takes *right now*, in nanoseconds: the measure
/// of how fast the machine is at this instant. It runs twice and the
/// second run counts, so the caches hold its own data when it is timed.
pub fn yardstick_ns() -> u64 {
    let mut values = [0u64; 4096];
    std::hint::black_box(yardstick_work(&mut values));
    let started = std::time::Instant::now();
    for _ in 0..YARDSTICK_ROUNDS {
        std::hint::black_box(yardstick_work(&mut values));
    }
    started.elapsed().as_nanos() as u64
}

/// How much slower than its reference the yardstick ran: 1.0 on the quiet
/// reference machine, 2.0 when the machine is delivering half the speed.
pub fn slowness(yardstick_ns: f64) -> f64 {
    yardstick_ns / YARDSTICK_REFERENCE_NS
}

/// A measured duration and how slow the machine was while it ran.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub seconds: f64,
    pub slowness: f64,
}

impl Timed {
    /// The duration the same work would have taken at reference speed.
    pub fn at_reference_speed(&self) -> f64 {
        self.seconds / self.slowness
    }
}

/// Times `f` between two yardstick readings. A one-off timing has no
/// median of slices to lean on, so each reading is the best of three: a
/// preempted yardstick must not pass for a slow machine. Only for work
/// that runs with no other thread of the process busy — the yardstick
/// needs the CPU to itself.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Timed, T) {
    let reading = || {
        (0..3)
            .map(|_| yardstick_ns())
            .min()
            .expect("three readings")
    };
    let before = reading();
    let started = std::time::Instant::now();
    let out = f();
    let seconds = started.elapsed().as_secs_f64();
    let after = reading();
    let timed = Timed {
        seconds,
        slowness: slowness((before + after) as f64 / 2.0),
    };
    (timed, out)
}
