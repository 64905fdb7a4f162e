//! Tracing from outside the program: a timing proxy over the engine's
//! memory interface.
//!
//! [`Traced`] implements [`Memory`] by forwarding every call to the
//! [`Simulation`] underneath and timing it, and brackets each application
//! operation with an op span. Daemon time comes from the engine's own
//! `PerfHooks` spans (tick, scan, merge, promote drain, pressure,
//! migrate batch), which run inside the timed memory calls. Self times
//! follow by subtraction:
//!
//! * `workloads` = op spans − memory calls made inside them;
//! * `sim` = memory calls − daemon ticks nested in them;
//! * daemon = tick spans, split into phase spans and the tick's own rest.
//!
//! Everything outside an op span (the drive loop, `record_op`,
//! `finish`) is the unattributed residual.

use crate::workload::{elapsed_ns, Driven};
use mc_mem::{Memory, Nanos, PageKind, VAddr};
use mc_sim::Simulation;
use std::time::Instant;

/// Reads the proxy's clock: the time-stamp counter on x86-64, where it
/// costs well under half of an `Instant::now` on virtualised hosts, and
/// nanoseconds since the first call elsewhere. Units are converted to
/// nanoseconds once per repetition (see [`Traced::finish`]).
#[inline]
fn stamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` is part of the x86-64 baseline instruction set; it
    // only reads the time-stamp counter and has no preconditions.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static BASE: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        elapsed_ns(*BASE.get_or_init(Instant::now))
    }
}

/// Calls and host nanoseconds of one kind of memory call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them, nested daemon work included (clock
    /// units until [`Traced::finish`] converts them).
    pub ns: u64,
}

impl CallTally {
    #[inline]
    fn add(&mut self, start: u64) {
        self.calls += 1;
        self.ns += stamp().wrapping_sub(start);
    }
}

/// What the proxy measured over one drive.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyTally {
    /// `read`, `write` and `mmap`: accounting-only page touches and
    /// address-space growth.
    pub access: CallTally,
    /// `read_bytes` and `write_bytes`: page touches plus the byte store.
    pub bytes: CallTally,
    /// `compute`: CPU time charged between accesses.
    pub compute: CallTally,
    /// Application operations bracketed.
    pub ops: u64,
    /// Host nanoseconds inside op spans.
    pub op_ns: u64,
}

impl ProxyTally {
    /// Host nanoseconds inside every memory call.
    pub fn mem_ns(&self) -> u64 {
        self.access.ns + self.bytes.ns + self.compute.ns
    }
}

/// The timing proxy: a [`Memory`] that forwards to a [`Simulation`].
pub struct Traced<'a> {
    sim: &'a mut Simulation,
    op_start: Option<u64>,
    tally: ProxyTally,
    /// Both clocks read together at creation, to convert clock units.
    origin: (Instant, u64),
}

impl<'a> Traced<'a> {
    /// Wraps `sim`.
    pub fn new(sim: &'a mut Simulation) -> Self {
        Traced {
            sim,
            op_start: None,
            tally: ProxyTally::default(),
            origin: (Instant::now(), stamp()),
        }
    }

    /// Ends the trace: returns the tally in nanoseconds and the host
    /// nanoseconds of the proxy's whole life, against which the clock
    /// units are calibrated. Every span lies inside that life, so no
    /// converted span can exceed it.
    pub fn finish(self) -> (ProxyTally, u64) {
        let units = stamp().wrapping_sub(self.origin.1).max(1);
        let life_ns = elapsed_ns(self.origin.0);
        let ns_per_unit = life_ns as f64 / units as f64;
        let ns = |units: u64| (units as f64 * ns_per_unit).round() as u64;
        let mut t = self.tally;
        for c in [&mut t.access, &mut t.bytes, &mut t.compute] {
            c.ns = ns(c.ns);
        }
        t.op_ns = ns(t.op_ns);
        (t, life_ns)
    }
}

impl Memory for Traced<'_> {
    fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr {
        let t = stamp();
        let a = self.sim.mmap(bytes, kind);
        self.tally.access.add(t);
        a
    }

    fn read(&mut self, addr: VAddr, len: usize) {
        let t = stamp();
        self.sim.read(addr, len);
        self.tally.access.add(t);
    }

    fn write(&mut self, addr: VAddr, len: usize) {
        let t = stamp();
        self.sim.write(addr, len);
        self.tally.access.add(t);
    }

    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        let t = stamp();
        self.sim.write_bytes(addr, data);
        self.tally.bytes.add(t);
    }

    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
        let t = stamp();
        self.sim.read_bytes(addr, buf);
        self.tally.bytes.add(t);
    }

    // A plain read of the virtual clock: not timed.
    fn now(&self) -> Nanos {
        self.sim.now()
    }

    fn compute(&mut self, t: Nanos) {
        let start = stamp();
        self.sim.compute(t);
        self.tally.compute.add(start);
    }
}

impl Driven for Traced<'_> {
    fn sim(&mut self) -> &mut Simulation {
        self.sim
    }

    fn op_begin(&mut self) {
        self.op_start = Some(stamp());
    }

    fn op_end(&mut self) {
        if let Some(t) = self.op_start.take() {
            self.tally.ops += 1;
            self.tally.op_ns += stamp().wrapping_sub(t);
        }
    }
}
