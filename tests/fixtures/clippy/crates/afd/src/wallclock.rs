//! Wall-clock cases (`disallowed-methods` in `clippy.toml`).

use std::thread;
use std::time::{Duration, Instant, SystemTime};

/// Each read, readout and sleep is its own statement.
pub fn timed_pass(d: Duration) -> (Duration, Duration) {
    #[expect(clippy::disallowed_methods, reason = "fixture: Instant::now")]
    let t0 = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: std::time::Instant::now"
    )]
    let t1 = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: thread::sleep")]
    thread::sleep(d);
    #[expect(clippy::disallowed_methods, reason = "fixture: std::thread::sleep")]
    std::thread::sleep(d);
    #[expect(clippy::disallowed_methods, reason = "fixture: Instant::elapsed")]
    let a = t0.elapsed();
    #[expect(clippy::disallowed_methods, reason = "fixture: Instant::elapsed")]
    let b = t1.elapsed();
    (a, b)
}

/// `SystemTime::now` and `SystemTime::elapsed`.
pub fn stamped() -> SystemTime {
    #[expect(clippy::disallowed_methods, reason = "fixture: SystemTime::now")]
    let t = SystemTime::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: SystemTime::elapsed")]
    let _age = t.elapsed();
    t
}

/// Stand-in tick source.
pub struct VirtualClock(pub u64);

impl VirtualClock {
    /// Current tick.
    pub fn now(&self) -> u64 {
        self.0
    }
}

/// Stand-in worker that parks for virtual ticks.
pub struct Worker;

impl Worker {
    /// Advances virtual time; never blocks.
    pub fn sleep(&self, ticks: u64) -> u64 {
        ticks
    }
}

/// Controls: methods named `now`/`sleep` on other receivers.
pub fn virtual_time(clock: &VirtualClock, c: &VirtualClock, w: &Worker, t: u64) -> u64 {
    clock.now() + VirtualClock::now(c) + w.sleep(t)
}

/// Control: `elapsed` as a fn name.
pub fn elapsed(x: u64) -> u64 {
    x
}

/// Control: `elapsed` as a field.
pub struct S {
    /// Ticks spent.
    pub elapsed: u64,
}

/// A tick stopwatch with its own `elapsed` method.
pub struct Stopwatch(pub u64);

impl Stopwatch {
    /// Ticks since start.
    pub fn elapsed(&self) -> u64 {
        self.0
    }
}

/// Control, and an accepted divergence from the lexical rule it
/// replaced: `disallowed-methods` resolves the receiver and bans only
/// `Instant::elapsed`/`SystemTime::elapsed`, so a tick stopwatch's
/// `elapsed()` is not flagged.
pub fn ticks(s: &Stopwatch, f: &S) -> u64 {
    s.elapsed() + f.elapsed + elapsed(1)
}
