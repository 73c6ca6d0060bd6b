//! The unified machine layer: one generic access loop over pluggable
//! execution environments.
//!
//! A [`Machine`] packages everything below the driver — the OS / VMM /
//! shadow-pager software stack plus an [`Mmu`] programmed for the
//! environment's translation mode — behind five operations: build the
//! stack, lend the translation structures for one access, service a
//! fault, take an allocation-churn event, and report VM-exit statistics.
//! The driver (`drive`, reached through
//! [`Simulation::run_instrumented`](crate::Simulation::run_instrumented))
//! owns everything environment-independent: the warmup counter reset,
//! instrument attachment, churn scheduling, the sampling schedule, the
//! per-access fault-retry budget, and result assembly.
//!
//! The machines reproduce the paper's environments — [`NativeMachine`]
//! (native ± direct segment), [`VirtualizedMachine`] (nested paging in
//! all four translation modes), and [`ShadowMachine`] (shadow paging,
//! §IX.D) — plus [`L2Machine`], which extends the study one layer down
//! (nested-nested and shadow-on-nested L2 virtualization). A new
//! translation scheme drops in as one more `impl Machine` without
//! touching the driver. The
//! `tests/machine_equiv.rs` golden fixture proves this loop reproduces
//! the three pre-refactor copy-pasted drivers byte for byte.

mod degrade;
mod l2;
mod native;
mod shadow;
mod virtualized;

pub use l2::L2Machine;
pub use native::NativeMachine;
pub use shadow::ShadowMachine;
pub use virtualized::VirtualizedMachine;

use std::ops::Range;

use mv_adapt::{AdaptSpec, ModePlan};
use mv_chaos::ChaosSpec;
use mv_core::{LayerStack, MemoryContext, Mmu, MmuConfig, TranslationFault, TranslationMode};
use mv_obs::{SharedTelemetry, TelemetryConfig, WalkEvent, WalkObserver};
use mv_prof::{ProfileConfig, SharedProfile};
use mv_trace::{RecordingWorkload, ReplaySource, SharedTraceWriter, TraceError};
use mv_types::{Gva, MIB};
use mv_workloads::Workload;

use crate::machine::degrade::{AdaptDriver, ChaosDriver};

use crate::config::SimConfig;
use crate::result::RunResult;
use crate::run::SimError;
use crate::sample::{Phase, SampleError, SampleSpec, SampleSummary};

/// Size of the auxiliary region used to model allocation churn.
pub(crate) const CHURN_REGION: u64 = 8 * MIB;

/// Retry budget per access (a correct setup needs at most a handful).
pub(crate) const MAX_FAULTS_PER_ACCESS: u32 = 64;

/// What a machine did about a translation fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultService {
    /// The fault was serviced (page demand-mapped, nested backing
    /// installed, shadow entry resynced, …) — retry the access.
    Serviced,
    /// No layer of this machine services this fault kind — the driver
    /// aborts with [`SimError::FaultLoop`] carrying the fault.
    Unserviceable,
}

/// VM-exit statistics accumulated over the measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExitStats {
    /// Cycles charged for VM exits within the window.
    pub cycles: f64,
    /// Number of VM exits within the window.
    pub vm_exits: u64,
}

/// One execution environment: the software stack under the driver loop
/// plus the MMU programmed for it.
///
/// Implementations must keep [`Machine::ctx`] side-effect free: the
/// driver calls it once per access attempt, and all state changes happen
/// in `build`, `service_fault`, and `churn_event`.
pub trait Machine: Sized {
    /// Builds the full stack for `cfg` — OS, hypervisor, segments, the
    /// pre-populated steady-state mappings — plus the [`Mmu`] programmed
    /// with the environment's translation mode and segment registers on
    /// the `hw` parameters (whose `mode` field is overridden).
    ///
    /// # Errors
    ///
    /// Any construction failure (fragmented memory, exhausted physical
    /// memory, …) surfaces as a [`SimError`].
    fn build(cfg: &SimConfig, hw: MmuConfig) -> Result<(Self, Mmu), SimError>;

    /// The translation-layer stack this machine's MMU walks: 1 layer
    /// native, 2 virtualized, 3 nested-nested. Shadow paging returns the
    /// *walked* stack (one layer), not the software stack it collapses —
    /// the stack is the ground truth for per-mode walk pricing.
    fn layer_stack(&self) -> LayerStack;

    /// Base virtual address of the workload arena; the driver adds the
    /// workload's offsets to it.
    fn arena_base(&self) -> u64;

    /// Address-space identifier accesses are tagged with.
    fn asid(&self) -> u16;

    /// Lends the translation structures the MMU walks for one access.
    fn ctx(&mut self) -> MemoryContext<'_>;

    /// Services `fault` through the owning layer (guest OS for guest
    /// faults, VMM for nested faults, shadow pager for shadow misses).
    ///
    /// # Errors
    ///
    /// A servicing failure (e.g. out of memory) surfaces as a
    /// [`SimError`]; an unknown fault kind is reported as
    /// [`FaultService::Unserviceable`], not an error.
    fn service_fault(&mut self, fault: TranslationFault) -> Result<FaultService, SimError>;

    /// Takes one allocation-churn event (alternately unmapping and
    /// re-faulting pages of the churn region, as a heap allocator would),
    /// invalidating stale TLB entries through `mmu`. Machines that do not
    /// model churn (native) implement this as a no-op.
    ///
    /// # Errors
    ///
    /// Propagates fault-servicing failures.
    fn churn_event(&mut self, mmu: &mut Mmu) -> Result<(), SimError>;

    /// Called exactly once, at the warmup boundary, right after the MMU
    /// counters reset: the machine snapshots its own cumulative counters
    /// (VM exits, exit cycles) so [`Machine::exit_stats`] can report
    /// window deltas.
    fn window_open(&mut self);

    /// Exit statistics accumulated since [`Machine::window_open`].
    fn exit_stats(&self) -> ExitStats;

    /// Chaos hook: permanently lose physical frames (a DIMM going bad),
    /// returning how many were marked. Only *free* frames are lost; a
    /// machine that cannot inject (or has nothing left to lose) returns 0
    /// — injected chaos failing to land is a no-op, never an abort.
    fn chaos_frame_loss(&mut self, _draw: u64) -> u64 {
        0
    }

    /// Chaos hook: a fragmentation storm — another tenant grabs scattered
    /// free frames that are never returned. Returns frames taken.
    fn chaos_frag_storm(&mut self, _draw: u64) -> u64 {
        0
    }

    /// Chaos hook: a spurious VM exit (interrupt storm, host preemption)
    /// charged to the run without any mapping work. No-op for machines
    /// with no hypervisor.
    fn chaos_spurious_exit(&mut self) {}

    /// Which layers of this machine's translation stack own a direct
    /// segment (outermost first, padded with `false` beyond the stack
    /// depth). Drives per-layer mode planning; machines without segments
    /// (base paging, shadow) report all-`false` and never switch modes.
    fn segment_layers(&self) -> [bool; 3] {
        [false; 3]
    }

    /// Re-programs the MMU from plan `from` to plan `to`, returning
    /// whether anything changed. Only layers whose level differs between
    /// the plans are touched, and all re-programming happens inside one
    /// [`Mmu::mode_switch`] batch — a live transition costs exactly one
    /// full flush. The authoritative segments stay intact in the software
    /// models — only the MMU's copy is nullified or guarded by an escape
    /// filter — so frames demand-mapped while degraded remain
    /// segment-consistent and a later promotion (or a mid-switch rollback)
    /// cannot diverge. `draw` seeds deterministic escape-page placement
    /// for escape-heavy layers.
    fn apply_plan(&mut self, _mmu: &mut Mmu, _from: &ModePlan, _to: &ModePlan, _draw: u64) -> bool {
        false
    }

    /// Independently derives the reference translation for `va` from the
    /// authoritative software structures (page tables first, segment
    /// arithmetic as fallback), for the chaos oracle. `None` means the
    /// reference has no mapping — which the oracle counts as a divergence
    /// for any completed access.
    fn reference_translate(&self, _va: Gva) -> Option<u64> {
        None
    }
}

/// Instrumentation requested for a run. Both instruments attach at the
/// warmup boundary so they cover exactly the measured window.
#[derive(Debug, Clone, Default)]
pub(crate) struct Instruments {
    pub(crate) trace_capacity: Option<usize>,
    pub(crate) telemetry: Option<TelemetryConfig>,
    /// Walk-cost attribution profiling for the run. Only a profiling
    /// observer reports `wants_attribution`, so telemetry-only and
    /// uninstrumented runs take the exact pre-profiler MMU path.
    pub(crate) profile: Option<ProfileConfig>,
    /// Fault injection + oracle for the run; `None` (or an inactive spec)
    /// takes the exact chaos-free path, keeping golden replays
    /// byte-identical.
    pub(crate) chaos: Option<ChaosSpec>,
    /// Replay the access stream from this trace instead of building the
    /// configured generator. The trace is fully validated (and its
    /// footprint checked against the run's) before any machine is built.
    pub(crate) replay: Option<ReplaySource>,
    /// Tee every workload access into this recorder as the run plays.
    /// The stream itself is forwarded unchanged, so recording never
    /// perturbs the measured results.
    pub(crate) record: Option<SharedTraceWriter>,
    /// Online adaptive mode control for the run. When set alongside an
    /// active chaos spec, the chaos driver keeps injection and the oracle
    /// but hands mode policy to the controller; without chaos the
    /// controller still runs (it just never sees faults).
    pub(crate) adapt: Option<AdaptSpec>,
    /// Forces single-access spans in the driver loop. Exists solely so
    /// equivalence tests can run the reference access-at-a-time pacing
    /// against the batched default and assert byte-identical results; it
    /// changes scheduling granularity, never behavior.
    pub(crate) reference_pacing: bool,
    /// Sampled execution: fast-forward functionally between detailed
    /// measurement windows and scale window counters to full-run
    /// estimates. Composes with replay, recording and reference pacing;
    /// incompatible with chaos and adaptation, which act on every
    /// access's detailed outcome.
    pub(crate) sample: Option<SampleSpec>,
}

/// Fans one walk event out to both the telemetry and profile observers.
/// `wants_attribution` ORs, so the MMU attributes whenever either side
/// asks (in practice: whenever the profiler is attached).
#[derive(Debug)]
struct TeeObserver(Box<dyn WalkObserver>, Box<dyn WalkObserver>);

impl WalkObserver for TeeObserver {
    fn on_walk(&mut self, event: &WalkEvent) {
        self.0.on_walk(event);
        self.1.on_walk(event);
    }

    fn wants_attribution(&self) -> bool {
        self.0.wants_attribution() || self.1.wants_attribution()
    }
}

impl Instruments {
    /// Attaches the requested instruments to the MMU (called at the warmup
    /// boundary), returning the handles to collect telemetry and the
    /// profile from later.
    fn attach(&self, mmu: &mut Mmu) -> (Option<SharedTelemetry>, Option<SharedProfile>) {
        if let Some(cap) = self.trace_capacity {
            mmu.enable_miss_trace(cap);
        }
        let telemetry = self.telemetry.map(SharedTelemetry::new);
        let profile = self.profile.map(SharedProfile::new);
        match (&telemetry, &profile) {
            (Some(t), Some(p)) => {
                mmu.set_observer(Box::new(TeeObserver(t.observer(), p.observer())));
            }
            (Some(t), None) => mmu.set_observer(t.observer()),
            (None, Some(p)) => mmu.set_observer(p.observer()),
            (None, None) => {}
        }
        (telemetry, profile)
    }
}

/// Constructs an MMU on `hw` with the environment's translation `mode`.
pub(crate) fn mmu_for(hw: MmuConfig, mode: TranslationMode) -> Mmu {
    Mmu::new(MmuConfig { mode, ..hw })
}

/// Churn schedule: `events_per_million / 1e6` events per access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChurnPlan {
    interval: u64,
}

impl ChurnPlan {
    pub(crate) fn new(per_million: u64) -> ChurnPlan {
        ChurnPlan {
            interval: 1_000_000u64
                .checked_div(per_million)
                .map_or(0, |i| i.max(1)),
        }
    }

    /// Whether a churn event is due before access `i`.
    ///
    /// Invariant (identical for every machine, guarded by
    /// `churn_never_fires_at_access_zero` below): `due(0)` is false, so a
    /// churn event can never coincide with the boot-time population of
    /// the arena — at `i == 0` the counters were just reset by the
    /// machine build (and again by the warmup boundary when `warmup ==
    /// 0`), and firing churn there would charge a boot event to the
    /// measured window and double-count the reset edge. When the schedule
    /// is due exactly at the warmup boundary (`i == warmup`), the driver
    /// evaluates it *after* the counter reset, so the event is charged to
    /// the measured window — again identically for every machine.
    pub(crate) fn due(&self, i: u64) -> bool {
        self.interval > 0 && i % self.interval == 0 && i > 0
    }

    /// The first index strictly after `i` at which a churn event is due —
    /// `u64::MAX` for a churn-free schedule. Together with `due` this is
    /// the batching contract: `due(j)` is false for every `j` in
    /// `(i, next_due(i))`, and true at `next_due(i)` itself, so the
    /// driver may run that whole span without re-checking the schedule.
    pub(crate) fn next_due(&self, i: u64) -> u64 {
        i.checked_div(self.interval)
            .map_or(u64::MAX, |q| (q + 1) * self.interval)
    }
}

/// Where the driver's spans start and end: the warmup boundary, the
/// churn schedule, the optional sampling schedule, and whether per-access
/// work pins every span to a single access.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    total: u64,
    warmup: u64,
    churn: ChurnPlan,
    sample: Option<SampleSpec>,
    /// Chaos, the adaptive controller, or the reference pacing used by
    /// equivalence tests: each needs the driver between every two
    /// accesses.
    per_access: bool,
}

impl Schedule {
    /// The span starting at access `i`: the fidelity to run it at and its
    /// end (exclusive). The driver runs `[i, end)` back to back and
    /// re-checks the per-access schedules only at `end`, so `end` is the
    /// earliest of the run end, the warmup boundary (counter reset +
    /// instrument attach), the next edge of the sampling schedule, and the
    /// next due churn event — every scheduled event fires at exactly the
    /// index it would under access-at-a-time pacing. Without a sampling
    /// schedule every access is detailed. With one, the run's own warmup
    /// is still detailed (it fills the TLBs and walk caches exactly as an
    /// unsampled run would): the schedule tiles the measured region only,
    /// so the first detailed window opens at the warmup boundary.
    fn span(&self, i: u64) -> (Phase, u64) {
        let (phase, end) = match self.sample {
            _ if i < self.warmup => (Phase::Detailed, self.warmup),
            Some(spec) => {
                let (phase, end) = spec.phase_at(i - self.warmup);
                (phase, self.warmup + end)
            }
            None => (Phase::Detailed, self.total),
        };
        if self.per_access {
            return (phase, i + 1);
        }
        (phase, end.min(self.total).min(self.churn.next_due(i)))
    }
}

/// Services `fault` on the access at `va` and retries it through `access`
/// (one of [`Mmu::access`], [`Mmu::access_warm`] and
/// [`Mmu::access_functional`]) until it completes, within the per-access
/// budget. Every fidelity surfaces the same faults, so this one helper
/// serves all of them.
///
/// # Errors
///
/// [`SimError::FaultLoop`] carrying the fault observed on the final
/// iteration — not a synthesized placeholder, so a diverging retry loop
/// names its real cause — when the machine cannot service it or the
/// budget runs out; servicing failures propagate.
fn retry<M: Machine, T>(
    machine: &mut M,
    mmu: &mut Mmu,
    asid: u16,
    va: Gva,
    write: bool,
    mut fault: TranslationFault,
    access: impl Fn(&mut Mmu, &MemoryContext<'_>, u16, Gva, bool) -> Result<T, TranslationFault>,
) -> Result<T, SimError> {
    let mut tries = 0u32;
    loop {
        let serviced = machine.service_fault(fault)? == FaultService::Serviced;
        tries += 1;
        if !serviced || tries > MAX_FAULTS_PER_ACCESS {
            return Err(SimError::FaultLoop {
                va: va.as_u64(),
                last: fault,
            });
        }
        match access(mmu, &machine.ctx(), asid, va, write) {
            Ok(done) => return Ok(done),
            Err(f) => fault = f,
        }
    }
}

/// Runs the accesses of `span` back to back at one fidelity: `access` is
/// the [`Mmu`] method for it, so each fidelity gets its own monomorphized
/// copy of this loop. The memory context is a pure borrow of the
/// machine's tables and spaces (building it costs hash-map lookups), so
/// one context serves the whole span. A fault ends the borrow — servicing
/// needs the machine mutably — after which the span resumes with a fresh
/// one. The sequence of access and `service_fault` calls is identical to
/// per-access pacing; only the borrow's lifetime changes.
fn run_span<M: Machine, T>(
    machine: &mut M,
    mmu: &mut Mmu,
    workload: &mut dyn Workload,
    base: u64,
    asid: u16,
    span: Range<u64>,
    access: impl Fn(&mut Mmu, &MemoryContext<'_>, u16, Gva, bool) -> Result<T, TranslationFault> + Copy,
) -> Result<(), SimError> {
    let Range { mut start, end } = span;
    while start < end {
        let ctx = machine.ctx();
        let mut faulted = None;
        while start < end {
            let acc = workload.next_access();
            let va = Gva::new(base + acc.offset);
            match access(mmu, &ctx, asid, va, acc.write) {
                Ok(_) => start += 1,
                Err(fault) => {
                    faulted = Some((va, acc.write, fault));
                    break;
                }
            }
        }
        if let Some((va, write, fault)) = faulted {
            retry(machine, mmu, asid, va, write, fault, access)?;
            start += 1;
        }
    }
    Ok(())
}

/// The single driver loop: runs `cfg` on machine type `M`.
///
/// Owns everything environment-independent — warmup counter reset and
/// instrument attachment, churn scheduling, the sampling schedule, the
/// per-access retry budget, and result assembly — and delegates the rest
/// to the [`Machine`]. A full-fidelity run is the schedule in which every
/// span is detailed.
pub(crate) fn drive<M: Machine>(
    cfg: &SimConfig,
    hw: MmuConfig,
    instr: &Instruments,
) -> Result<(RunResult, Option<mv_core::MissTrace>), SimError> {
    if let Some(spec) = instr.sample {
        spec.validate()
            .map_err(|e| SimError::Sample(SampleError::Spec(e)))?;
        // Chaos and the controller act on every access's detailed outcome
        // (injection, the oracle, epoch decisions), which a functional gap
        // does not produce.
        let conflict = [
            (instr.chaos.filter(ChaosSpec::active).is_some(), "chaos"),
            (instr.adapt.is_some(), "adapt"),
        ]
        .into_iter()
        .find_map(|(active, name)| active.then_some(name));
        if let Some(what) = conflict {
            return Err(SimError::Sample(SampleError::Incompatible(what)));
        }
    }
    let (mut machine, mut mmu) = M::build(cfg, hw)?;
    let mut workload: Box<dyn Workload> = match &instr.replay {
        Some(src) => {
            // Fully validated up front (header, every chunk and record,
            // trailer), so a malformed trace is a typed error here — not
            // a panic or a fault storm mid-run.
            let replayed = src.open_workload()?;
            if replayed.footprint() != cfg.footprint {
                return Err(SimError::Trace(TraceError::FootprintMismatch {
                    trace: replayed.footprint(),
                    run: cfg.footprint,
                }));
            }
            Box::new(replayed)
        }
        None => cfg.workload.build(cfg.footprint, cfg.seed),
    };
    if let Some(recorder) = &instr.record {
        workload = Box::new(RecordingWorkload::new(workload, recorder.clone()));
    }
    let churn = ChurnPlan::new(workload.churn_per_million());
    let base = machine.arena_base();
    let asid = machine.asid();

    let mut chaos = instr
        .chaos
        .filter(ChaosSpec::active)
        .map(ChaosDriver::new);
    let mut adapt = instr.adapt.map(|spec| {
        AdaptDriver::new(spec, machine.segment_layers(), machine.layer_stack().depth())
    });
    if let (Some(c), Some(_)) = (chaos.as_mut(), adapt.as_ref()) {
        // The controller owns mode policy; the chaos driver keeps
        // injection, the oracle, and accounting, and queues segment losses
        // / balloon denials for the controller to consume.
        c.set_external_policy();
    }
    let mut attached = (None, None);
    let total = cfg.warmup + cfg.accesses;
    // Chaos and the adaptive controller hook in before and/or after
    // *every* access (residency counting, scheduled injection, epoch
    // boundaries, the oracle cross-check), so either pins the span to one
    // access; the uninstrumented hot path amortizes the warmup, churn and
    // sampling checks across whole spans.
    let hooked = chaos.is_some() || adapt.is_some();
    let schedule = Schedule {
        total,
        warmup: cfg.warmup,
        churn,
        sample: instr.sample,
        per_access: hooked || instr.reference_pacing,
    };
    let mut i = 0u64;
    while i < total {
        if i == cfg.warmup {
            // Warmup boundary: counters reset, the machine snapshots its
            // exit counters, and instruments attach — in that order, so
            // all three cover exactly the measured window.
            mmu.reset_counters();
            machine.window_open();
            attached = instr.attach(&mut mmu);
        }
        // Churn is evaluated after the boundary block so a churn event due
        // exactly at `i == warmup` lands inside the measured window (see
        // `ChurnPlan::due` for the full invariant).
        if churn.due(i) {
            machine.churn_event(&mut mmu)?;
        }
        // Everything scheduled by access index fires at the head of a
        // span: `Schedule::span` ends it at the earliest index after `i`
        // at which the warmup boundary, a sampling edge or a churn event
        // could be due, so the checks above need not run inside it.
        let (phase, end) = schedule.span(i);
        debug_assert!(end > i, "a span always advances");
        if hooked {
            // A single detailed access (sampling rejects both hooks), with
            // the machine lent mutably to the hooks around it.
            if let Some(c) = chaos.as_mut() {
                c.pre_access(&mut machine, &mut mmu, i);
            }
            if let Some(a) = adapt.as_mut() {
                a.pre_access(
                    &mut machine,
                    &mut mmu,
                    chaos.as_mut(),
                    attached.0.as_ref(),
                    i,
                    cfg.warmup,
                );
            }
            let acc = workload.next_access();
            let (va, write) = (Gva::new(base + acc.offset), acc.write);
            let outcome = match mmu.access(&machine.ctx(), asid, va, write) {
                Ok(outcome) => outcome,
                Err(f) => retry(&mut machine, &mut mmu, asid, va, write, f, Mmu::access)?,
            };
            if let Some(c) = chaos.as_mut() {
                c.post_access(&machine, i, va, outcome.hpa.as_u64());
            }
        } else {
            let (m, w) = (&mut machine, workload.as_mut());
            match phase {
                Phase::Detailed => run_span(m, &mut mmu, w, base, asid, i..end, Mmu::access)?,
                Phase::Warm => run_span(m, &mut mmu, w, base, asid, i..end, Mmu::access_warm)?,
                Phase::Functional => {
                    run_span(m, &mut mmu, w, base, asid, i..end, Mmu::access_functional)?;
                }
            }
        }
        i = end;
    }

    let exits = machine.exit_stats();
    Ok(finish(
        cfg,
        &mut mmu,
        workload.as_ref(),
        exits,
        attached,
        chaos,
        adapt,
        instr.sample,
    ))
}

/// Assembles the [`RunResult`] from the MMU counters and window deltas,
/// collecting the instruments and the policy drivers' reports. A sampled
/// run's counters, nested-L2 traffic and telemetry window cover only the
/// detailed windows; they are scaled to full-run estimates here. VM exits
/// are *not* scaled: faults are serviced at full cadence through the
/// gaps, so exits are exact, not sampled.
#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &SimConfig,
    mmu: &mut Mmu,
    workload: &dyn Workload,
    exits: ExitStats,
    (telemetry, profile): (Option<SharedTelemetry>, Option<SharedProfile>),
    chaos: Option<ChaosDriver>,
    adapt: Option<AdaptDriver>,
    sample: Option<SampleSpec>,
) -> (RunResult, Option<mv_core::MissTrace>) {
    let chaos = chaos.map(ChaosDriver::finish);
    let adapt = adapt.map(AdaptDriver::finish);
    // Only detailed (measured) accesses move the counters: for a sampled
    // run this is the scaling denominator.
    let measured = mmu.counters().accesses;
    // Detaching the shared observer (the tee, when both instruments ran)
    // leaves the profile handle below the last one alive.
    drop(mmu.take_observer());
    let window = sample.map_or(cfg.accesses, |_| measured);
    let mut telemetry = telemetry.map(|t| t.take(window));
    if let (Some(t), Some((_, records))) = (telemetry.as_mut(), chaos.as_ref()) {
        t.record_transitions(records);
    }
    if let (Some(t), Some((_, records))) = (telemetry.as_mut(), adapt.as_ref()) {
        t.record_transitions(records);
    }
    let profile = profile.map(|p| {
        let mut p = p.take();
        // VM exits are charged by the machine layer outside the walker, so
        // the profiler learns about them here, at run scope.
        p.record_exits(exits.vm_exits, exits.cycles as u64);
        p
    });
    let trace = mmu.take_miss_trace();

    let (counters, nested_l2) = match sample {
        None => (*mmu.counters(), mmu.nested_l2_stats()),
        Some(_) => {
            // Warm accesses accrue nested-L2 traffic into the debt ledger;
            // what remains after subtracting it is the measured windows'
            // share, which scales like every other counter.
            let (lookups, hits) = mmu.nested_l2_stats();
            let (debt_lookups, debt_hits) = mmu.nested_l2_debt();
            let scale = |v: u64| match measured {
                0 => v,
                m => (u128::from(v) * u128::from(cfg.accesses) / u128::from(m)) as u64,
            };
            (
                mmu.counters().scaled(cfg.accesses, measured),
                (
                    scale(lookups.saturating_sub(debt_lookups)),
                    scale(hits.saturating_sub(debt_hits)),
                ),
            )
        }
    };
    let ideal = cfg.accesses as f64 * workload.cycles_per_access();
    let translation = counters.translation_cycles as f64 + exits.cycles;
    let result = RunResult {
        label: cfg.label(),
        // The workload's own name, not the configured kind's label: for
        // generator runs the two are identical strings, and for trace
        // replays this reports the trace's workload instead of the
        // placeholder kind the config carries.
        workload: workload.name(),
        accesses: cfg.accesses,
        counters,
        ideal_cycles: ideal,
        translation_cycles: translation,
        overhead: mv_metrics::overhead(translation, ideal),
        vm_exits: exits.vm_exits,
        nested_l2,
        telemetry,
        profile,
        chaos: chaos.map(|(report, _)| report),
        adapt: adapt.map(|(report, _)| report),
        sample: sample.map(|spec| SampleSummary {
            spec,
            measured_accesses: measured,
        }),
    };
    (result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Env, GuestPaging};
    use mv_phys::PhysMem;
    use mv_pt::PageTable;
    use mv_types::{Gpa, Hpa, PageSize, Prot, MIB};
    use mv_workloads::WorkloadKind;

    #[test]
    fn churn_never_fires_at_access_zero() {
        // The warmup-boundary invariant: even a schedule that is "due" at
        // every access skips i == 0, where the boundary reset (warmup ==
        // 0) would otherwise coincide with a churn event.
        let every = ChurnPlan::new(1_000_000);
        assert_eq!(every.interval, 1);
        assert!(!every.due(0));
        assert!(every.due(1));
        assert!(every.due(2));
    }

    #[test]
    fn next_due_is_the_first_due_index_after_i() {
        for per_million in [0u64, 45_000, 500_000, 1_000_000] {
            let plan = ChurnPlan::new(per_million);
            for i in 0..200u64 {
                let next = plan.next_due(i);
                for j in i + 1..next.min(200) {
                    assert!(!plan.due(j), "due({j}) inside ({i}, {next})");
                }
                if next < u64::MAX {
                    assert!(plan.due(next), "next_due({i}) = {next} must be due");
                }
            }
        }
    }

    #[test]
    fn batched_iteration_fires_events_at_identical_indices() {
        // The boundary invariant, exhaustively: walking a run span by span
        // must visit the warmup boundary and every churn index at exactly
        // the indices the per-access reference loop visits them, and run
        // every access at the same fidelity, for runs where events land
        // mid-span, on span boundaries, and at the warmup boundary itself
        // (churn interval dividing warmup). The sampled schedule's edges
        // fall on multiples of 11, so some coincide with churn events
        // (interval 22) and with the warmup boundary.
        let sampled = SampleSpec {
            window: 11,
            interval: 44,
            warmup: 11,
        };
        for sample in [None, Some(sampled)] {
            for (warmup, accesses, per_million) in [
                (0u64, 50u64, 0u64),
                (10, 50, 0),
                (10, 50, 45_000),   // interval 22: mid-span events
                (22, 200, 45_000),  // interval 22: churn due exactly at warmup
                (20, 40, 100_000),  // interval 10
                (7, 30, 1_000_000), // interval 1: every index is a boundary
                (30, 0, 500_000),   // warmup only
            ] {
                let total = warmup + accesses;
                let churn = ChurnPlan::new(per_million);
                let schedule = Schedule {
                    total,
                    warmup,
                    churn,
                    sample,
                    per_access: false,
                };
                let mut reference = Vec::new();
                for i in 0..total {
                    if i == warmup {
                        reference.push((i, "warmup"));
                    }
                    if churn.due(i) {
                        reference.push((i, "churn"));
                    }
                    let phase = match sample {
                        Some(spec) if i >= warmup => spec.phase_at(i - warmup).0,
                        _ => Phase::Detailed,
                    };
                    reference.push((i, phase_name(phase)));
                }
                let mut spanned = Vec::new();
                let mut i = 0u64;
                while i < total {
                    if i == warmup {
                        spanned.push((i, "warmup"));
                    }
                    if churn.due(i) {
                        spanned.push((i, "churn"));
                    }
                    let (phase, end) = schedule.span(i);
                    assert!(end > i, "spans advance");
                    assert!(end <= total, "spans never overrun the run");
                    // Only the head of a span sees the schedules; the
                    // rest of it runs at the head's fidelity.
                    spanned.push((i, phase_name(phase)));
                    for j in i + 1..end {
                        assert!(!churn.due(j), "churn due at {j} inside a span");
                        spanned.push((j, phase_name(phase)));
                    }
                    i = end;
                }
                assert_eq!(
                    spanned, reference,
                    "warmup={warmup} accesses={accesses} churn/M={per_million} sample={sample:?}"
                );
            }
        }
    }

    fn phase_name(phase: Phase) -> &'static str {
        match phase {
            Phase::Detailed => "detailed",
            Phase::Warm => "warm",
            Phase::Functional => "functional",
        }
    }

    #[test]
    fn per_access_pacing_degenerates_to_single_access_batches() {
        let paced = Schedule {
            total: 100,
            warmup: 0,
            churn: ChurnPlan::new(0),
            sample: None,
            per_access: true,
        };
        let batched = Schedule {
            per_access: false,
            ..paced
        };
        assert_eq!(paced.span(5), (Phase::Detailed, 6));
        assert_eq!(batched.span(5), (Phase::Detailed, 100));
        // A sampled schedule keeps its fidelity under per-access pacing:
        // offsets 2..5 of each 6-access interval are a functional gap.
        let spec = Some(SampleSpec {
            window: 2,
            interval: 6,
            warmup: 1,
        });
        let paced = Schedule {
            sample: spec,
            ..paced
        };
        let batched = Schedule {
            sample: spec,
            ..batched
        };
        assert_eq!(paced.span(3), (Phase::Functional, 4));
        assert_eq!(batched.span(3), (Phase::Functional, 5));
        assert_eq!(paced.span(5), (Phase::Warm, 6));
        assert_eq!(batched.span(5), (Phase::Warm, 6));
    }

    #[test]
    fn churn_plan_schedules_by_interval() {
        let plan = ChurnPlan::new(45_000); // memcached's slab churn
        assert_eq!(plan.interval, 22);
        assert!(!plan.due(0));
        assert!(!plan.due(21));
        assert!(plan.due(22));
        assert!(plan.due(44));
        // A churn-free workload never fires.
        let none = ChurnPlan::new(0);
        assert!(!none.due(0));
        assert!(!none.due(1_000_000));
    }

    /// A deliberately mis-wired machine: guest faults are serviced, but
    /// nested faults are acknowledged without ever mapping backing, so
    /// every access retries until the budget runs out.
    struct NestedBlackHole {
        gpt: PageTable<Gva, Gpa>,
        gmem: PhysMem<Gpa>,
        npt: PageTable<Gpa, Hpa>,
        hmem: PhysMem<Hpa>,
    }

    impl Machine for NestedBlackHole {
        fn build(_cfg: &SimConfig, hw: MmuConfig) -> Result<(Self, Mmu), SimError> {
            let mut gmem = PhysMem::new(32 * MIB);
            let gpt = PageTable::new(&mut gmem).map_err(mv_guestos::OsError::from)?;
            let mut hmem = PhysMem::new(32 * MIB);
            let npt = PageTable::new(&mut hmem).map_err(mv_guestos::OsError::from)?;
            let mmu = mmu_for(hw, TranslationMode::BaseVirtualized);
            Ok((
                NestedBlackHole {
                    gpt,
                    gmem,
                    npt,
                    hmem,
                },
                mmu,
            ))
        }

        fn layer_stack(&self) -> LayerStack {
            TranslationMode::BaseVirtualized.stack()
        }

        fn arena_base(&self) -> u64 {
            0
        }

        fn asid(&self) -> u16 {
            1
        }

        fn ctx(&mut self) -> MemoryContext<'_> {
            MemoryContext::virtualized((&self.gpt, &self.gmem), (&self.npt, &self.hmem))
        }

        fn service_fault(&mut self, fault: TranslationFault) -> Result<FaultService, SimError> {
            match fault {
                TranslationFault::GuestNotMapped { gva } => {
                    let page = Gva::new(gva.as_u64() & !0xfff);
                    let frame = self.gmem.alloc(PageSize::Size4K).expect("guest memory");
                    self.gpt
                        .map(&mut self.gmem, page, frame, PageSize::Size4K, Prot::RW)
                        .expect("guest mapping");
                    Ok(FaultService::Serviced)
                }
                // The bug under test: claim the nested fault was serviced
                // without installing any backing.
                TranslationFault::NestedNotMapped { .. } => Ok(FaultService::Serviced),
                _ => Ok(FaultService::Unserviceable),
            }
        }

        fn churn_event(&mut self, _mmu: &mut Mmu) -> Result<(), SimError> {
            Ok(())
        }

        fn window_open(&mut self) {}

        fn exit_stats(&self) -> ExitStats {
            ExitStats::default()
        }
    }

    #[test]
    fn fault_loop_reports_the_real_last_fault() {
        // Regression test: the pre-refactor drivers synthesized
        // `GuestNotMapped { gva: va }` on retry-budget exhaustion no
        // matter what actually faulted. The unified driver must report
        // the fault observed on the final iteration — here a nested
        // fault, since the black-hole machine never maps nested backing.
        let cfg = SimConfig {
            workload: WorkloadKind::Gups,
            footprint: MIB,
            guest_paging: GuestPaging::Fixed(PageSize::Size4K),
            env: Env::native(), // ignored by the mock machine
            accesses: 1,
            warmup: 0,
            seed: 7,
        };
        let err = drive::<NestedBlackHole>(&cfg, MmuConfig::default(), &Instruments::default())
            .expect_err("the nested black hole can never converge");
        match err {
            SimError::FaultLoop { last, .. } => {
                assert!(
                    matches!(last, TranslationFault::NestedNotMapped { .. }),
                    "expected the real (nested) last fault, got {last:?}"
                );
            }
            other => panic!("expected FaultLoop, got {other:?}"),
        }
    }
}
