//! The traced run: spans recorded from outside the program, around calls
//! into each layer's public functions.
//!
//! For serial cells, [`trace_cell`] replays the simulator's drive loop
//! through `Machine::build`, `Workload::next_access`, `Mmu::access`,
//! `Machine::service_fault` and `Machine::churn_event`, with the same
//! warmup boundary, churn schedule and fault-retry budget, so its
//! counters must equal those of `Simulation::run` on the same config.

use std::time::Instant;

use mv_core::{HitPath, MmuConfig};
use mv_sim::machine::{
    FaultService, L2Machine, Machine, NativeMachine, ShadowMachine, VirtualizedMachine,
};
use mv_sim::{Env, SimConfig};
use mv_types::Gva;
use mv_workloads::Access;

use crate::cells::Cell;
use crate::digest::Digest;

/// Span names: one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One cell's whole traced run (the root span).
    Cell,
    /// `Machine::build` (machine build and prefill).
    Build,
    /// `WorkloadKind::build` (access generator set-up).
    WorkloadBuild,
    /// `Mmu::reset_counters` + `Machine::window_open` at the warmup boundary.
    WindowOpen,
    /// One `Machine::churn_event`.
    Churn,
    /// One `Machine::ctx` (memory-context borrow).
    Ctx,
    /// A chunk of consecutive `Workload::next_access` calls.
    Next,
    /// A chunk of consecutive `Mmu::access` calls.
    Access,
    /// One `Machine::service_fault`.
    Fault,
    /// The `Mmu::access` retry after a serviced fault.
    Retry,
    /// One grid pass through `mv_par::par_map_with_stats`.
    Grid,
    /// One grid cell's `Simulation::run*` call.
    GridCell,
}

impl Name {
    /// Number of span names.
    pub const COUNT: usize = 12;

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Cell => "cell",
            Name::Build => "sim.build",
            Name::WorkloadBuild => "workloads.build",
            Name::WindowOpen => "sim.window_open",
            Name::Churn => "sim.churn",
            Name::Ctx => "sim.ctx",
            Name::Next => "workloads.next",
            Name::Access => "core.access",
            Name::Fault => "fault.service",
            Name::Retry => "core.retry",
            Name::Grid => "par.grid",
            Name::GridCell => "sim.cell",
        }
    }
}

/// One recorded span; `parent` indexes the recorder's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub cell: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store with one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder's origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span, returning its index.
    #[inline]
    pub fn push(
        &mut self,
        name: Name,
        start: u64,
        end: u64,
        parent: Option<u32>,
        cell: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            cell,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is filled in by [`Recorder::close`].
    pub fn open(&mut self, name: Name, parent: Option<u32>, cell: u32) -> u32 {
        let t = self.now();
        self.push(name, t, t, parent, cell)
    }

    pub fn close(&mut self, id: u32) {
        let t = self.now();
        self.spans[id as usize].end = t;
    }

    /// Writes every span as tab-separated `cell id parent name start end`.
    pub fn write_tsv(
        &self,
        out: &mut impl std::io::Write,
        cell_names: &[String],
    ) -> std::io::Result<()> {
        writeln!(out, "cell\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let cell = cell_names.get(s.cell as usize).map_or("-", String::as_str);
            writeln!(
                out,
                "{cell}\t{id}\t{parent}\t{}\t{}\t{}",
                s.name.as_str(),
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// Every how-many-th access is timed on its own (and bucketed by path).
const SAMPLE_EVERY: u64 = 61;

/// Accesses generated and translated per chunk span.
const CHUNK: u64 = 512;

/// The driver's per-access fault-retry budget.
const MAX_FAULTS_PER_ACCESS: u32 = 64;

/// What one traced cell measured, beyond its spans.
#[derive(Debug, Default, Clone)]
pub struct TracedCell {
    pub digest: Digest,
    /// Individually timed `Mmu::access` calls after warmup, in ns, per
    /// [`path_index`].
    pub samples: [Vec<u32>; 4],
    /// `service_fault` calls and churn events after warmup.
    pub fault_calls: u64,
    pub churn_events: u64,
    /// The walk dimensionality of the machine's layer stack.
    pub dims: u8,
    /// Ns spent in `Machine::build`.
    pub build_ns: u64,
}

/// Bucket index for a hit path.
pub fn path_index(p: HitPath) -> usize {
    match p {
        HitPath::L1Hit => 0,
        HitPath::L2Hit => 1,
        HitPath::SegmentBypass => 2,
        HitPath::PageWalk => 3,
    }
}

/// Replays `cell` traced, dispatching on its environment exactly as
/// `Simulation::run` does.
pub fn trace_cell(
    cell: &Cell,
    rec: &mut Recorder,
    id: u32,
    timer_ns: u64,
) -> Result<TracedCell, String> {
    match cell.cfg.env {
        Env::Native { .. } => drive::<NativeMachine>(&cell.cfg, rec, id, timer_ns),
        Env::Virtualized { .. } => drive::<VirtualizedMachine>(&cell.cfg, rec, id, timer_ns),
        Env::Shadow { .. } => drive::<ShadowMachine>(&cell.cfg, rec, id, timer_ns),
        Env::L2 { .. } => drive::<L2Machine>(&cell.cfg, rec, id, timer_ns),
    }
}

/// Seconds spent in `M::build` for `cfg` (the machine is dropped untimed).
pub fn build_seconds(cfg: &SimConfig) -> Result<f64, String> {
    fn timed<M: Machine>(cfg: &SimConfig) -> Result<f64, String> {
        let t = Instant::now();
        let built = M::build(cfg, MmuConfig::default()).map_err(|e| e.to_string())?;
        let s = t.elapsed().as_secs_f64();
        drop(std::hint::black_box(built));
        Ok(s)
    }
    match cfg.env {
        Env::Native { .. } => timed::<NativeMachine>(cfg),
        Env::Virtualized { .. } => timed::<VirtualizedMachine>(cfg),
        Env::Shadow { .. } => timed::<ShadowMachine>(cfg),
        Env::L2 { .. } => timed::<L2Machine>(cfg),
    }
}

fn drive<M: Machine>(
    cfg: &SimConfig,
    rec: &mut Recorder,
    id: u32,
    timer_ns: u64,
) -> Result<TracedCell, String> {
    let mut out = TracedCell::default();
    let root = rec.open(Name::Cell, None, id);
    let root_p = Some(root);

    let t = rec.now();
    let (mut machine, mut mmu) = M::build(cfg, MmuConfig::default()).map_err(|e| e.to_string())?;
    let t1 = rec.now();
    rec.push(Name::Build, t, t1, root_p, id);
    out.build_ns = t1 - t;
    out.dims = machine.layer_stack().walk_dimensions();

    let t = rec.now();
    let mut workload = cfg.workload.build(cfg.footprint, cfg.seed);
    rec.push(Name::WorkloadBuild, t, rec.now(), root_p, id);

    // The driver's churn schedule: every `1e6 / per_million` accesses,
    // never at access 0, evaluated after the warmup boundary.
    let interval = 1_000_000u64
        .checked_div(workload.churn_per_million())
        .map_or(0, |i| i.max(1));
    let due = |i: u64| interval > 0 && i.is_multiple_of(interval) && i > 0;
    let next_due = |i: u64| {
        i.checked_div(interval)
            .map_or(u64::MAX, |q| (q + 1) * interval)
    };

    let base = machine.arena_base();
    let asid = machine.asid();
    let total = cfg.warmup + cfg.accesses;
    let mut buf: Vec<Access> = Vec::with_capacity(CHUNK as usize);
    let mut measured = false;
    let mut i = 0u64;
    while i < total {
        if i == cfg.warmup {
            let t = rec.now();
            mmu.reset_counters();
            machine.window_open();
            rec.push(Name::WindowOpen, t, rec.now(), root_p, id);
            measured = true;
        }
        if due(i) {
            let t = rec.now();
            machine.churn_event(&mut mmu).map_err(|e| e.to_string())?;
            rec.push(Name::Churn, t, rec.now(), root_p, id);
            out.churn_events += u64::from(measured);
        }
        let mut end = total.min(next_due(i)).min(i + CHUNK);
        if i < cfg.warmup {
            end = end.min(cfg.warmup);
        }

        // The generator never observes the MMU, so drawing a chunk ahead
        // of translating it leaves both streams unchanged.
        let t = rec.now();
        buf.clear();
        for _ in i..end {
            buf.push(workload.next_access());
        }
        rec.push(Name::Next, t, rec.now(), root_p, id);

        let mut k = 0usize;
        while k < buf.len() {
            let t = rec.now();
            let ctx = machine.ctx();
            let t_ctx = rec.now();
            rec.push(Name::Ctx, t, t_ctx, root_p, id);
            let mut faulted = None;
            while k < buf.len() {
                let acc = buf[k];
                let n = i + k as u64;
                let va = Gva::new(base + acc.offset);
                let result = if measured && n.is_multiple_of(SAMPLE_EVERY) {
                    let s = Instant::now();
                    let r = mmu.access(&ctx, asid, va, acc.write);
                    let ns = (s.elapsed().as_nanos() as u64).saturating_sub(timer_ns);
                    if let Ok(o) = &r {
                        out.samples[path_index(o.path)].push(ns.min(u64::from(u32::MAX)) as u32);
                    }
                    r
                } else {
                    mmu.access(&ctx, asid, va, acc.write)
                };
                match result {
                    Ok(_) => k += 1,
                    Err(fault) => {
                        faulted = Some((va, acc.write, fault));
                        break;
                    }
                }
            }
            rec.push(Name::Access, t_ctx, rec.now(), root_p, id);
            let Some((va, write, mut fault)) = faulted else {
                continue;
            };
            let mut tries = 0u32;
            loop {
                let t = rec.now();
                let serviced = machine.service_fault(fault).map_err(|e| e.to_string())?;
                rec.push(Name::Fault, t, rec.now(), root_p, id);
                out.fault_calls += u64::from(measured);
                tries += 1;
                if serviced == FaultService::Unserviceable || tries > MAX_FAULTS_PER_ACCESS {
                    return Err(format!(
                        "access at {:#x} kept faulting: {fault}",
                        va.as_u64()
                    ));
                }
                let t = rec.now();
                let r = mmu.access(&machine.ctx(), asid, va, write);
                rec.push(Name::Retry, t, rec.now(), root_p, id);
                match r {
                    Ok(_) => break,
                    Err(f) => fault = f,
                }
            }
            k += 1;
        }
        i = end;
    }
    out.digest = Digest::of(mmu.counters(), machine.exit_stats().vm_exits);
    rec.close(root);
    Ok(out)
}

/// Median cost of one `Instant::now` + `elapsed` pair, subtracted from
/// each individually timed access.
pub fn timer_overhead_ns() -> u64 {
    let mut v: Vec<u64> = (0..20_001)
        .map(|_| {
            let s = Instant::now();
            std::hint::black_box(());
            s.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Per-span-name totals and each root's self time (the part of its
/// interval no direct child covers).
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    pub ns: [u64; Name::COUNT],
    pub count: [u64; Name::COUNT],
    pub root_ns: u64,
    pub unattributed_ns: u64,
}

impl SpanTotals {
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut t = SpanTotals::default();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            let k = s.name as usize;
            t.ns[k] += s.ns();
            t.count[k] += 1;
            if let Some(p) = s.parent {
                if spans[p as usize].parent.is_none() {
                    children[p as usize].push((s.start, s.end));
                }
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_some() {
                continue;
            }
            t.root_ns += s.ns();
            t.unattributed_ns += s.ns() - covered(&mut children[i], s.start, s.end);
        }
        t
    }

    pub fn get(&self, name: Name) -> (u64, u64) {
        (self.ns[name as usize], self.count[name as usize])
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}
