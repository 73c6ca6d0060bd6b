//! The simulation entry points: one [`Simulation`] facade that dispatches
//! every environment to the single generic driver loop in
//! [`crate::machine`].

use core::fmt;

use mv_adapt::AdaptSpec;
use mv_chaos::ChaosSpec;
use mv_core::{MmuConfig, TranslationFault};
use mv_guestos::OsError;
use mv_obs::TelemetryConfig;
use mv_prof::ProfileConfig;
use mv_trace::{ReplaySource, SharedTraceWriter, TraceError};
use mv_vmm::VmmError;

use crate::config::{Env, SimConfig};
use crate::machine::{drive, Instruments, L2Machine, NativeMachine, ShadowMachine, VirtualizedMachine};
use crate::result::RunResult;
use crate::sample::{SampleError, SampleSpec};

/// Errors surfaced while constructing or running a simulation.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// Guest/native OS failure.
    Os(OsError),
    /// Hypervisor failure.
    Vmm(VmmError),
    /// An access faulted repeatedly without converging (a wiring bug).
    FaultLoop {
        /// The address that kept faulting.
        va: u64,
        /// The last fault observed.
        last: TranslationFault,
    },
    /// A replayed or recorded trace failed (malformed bytes, I/O, or a
    /// footprint mismatch against the run configuration).
    Trace(TraceError),
    /// A sampled run was rejected (invalid schedule, or sampling combined
    /// with chaos or the adaptive controller).
    Sample(SampleError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Os(e) => write!(f, "os error: {e}"),
            SimError::Vmm(e) => write!(f, "vmm error: {e}"),
            SimError::FaultLoop { va, last } => {
                write!(f, "access at {va:#x} kept faulting: {last}")
            }
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Sample(e) => write!(f, "sampled run rejected: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Os(e) => Some(e),
            SimError::Vmm(e) => Some(e),
            SimError::FaultLoop { .. } => None,
            SimError::Trace(e) => Some(e),
            SimError::Sample(e) => Some(e),
        }
    }
}

impl From<OsError> for SimError {
    fn from(e: OsError) -> Self {
        SimError::Os(e)
    }
}

impl From<VmmError> for SimError {
    fn from(e: VmmError) -> Self {
        SimError::Vmm(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

/// Entry point: runs one configuration to completion.
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Runs the configuration and reports its measurements.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the environment cannot be constructed
    /// (e.g. fragmented memory without compaction) or faults cannot be
    /// serviced.
    pub fn run(cfg: &SimConfig) -> Result<RunResult, SimError> {
        Self::run_with_mmu(cfg, MmuConfig::default())
    }

    /// Like [`Simulation::run`], but with explicit MMU hardware parameters
    /// (TLB geometry, cost model, walk caching) for ablation studies. The
    /// `mode` field of `hw` is ignored — the environment determines it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_with_mmu(cfg: &SimConfig, hw: MmuConfig) -> Result<RunResult, SimError> {
        Ok(Self::run_traced(cfg, hw, None)?.0)
    }

    /// Like [`Simulation::run_with_mmu`], optionally attaching a DTLB-miss
    /// trace of `trace_capacity` records (the simulator's BadgerTrap,
    /// Section VII) and returning it alongside the measurements. The trace
    /// captures post-warmup misses only.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_traced(
        cfg: &SimConfig,
        hw: MmuConfig,
        trace_capacity: Option<usize>,
    ) -> Result<(RunResult, Option<mv_core::MissTrace>), SimError> {
        Self::run_instrumented(cfg, hw, trace_capacity, None)
    }

    /// Like [`Simulation::run_with_mmu`], attaching a walk-event telemetry
    /// collector over the measured window. The returned result carries the
    /// collected [`mv_obs::Telemetry`] in [`RunResult::telemetry`];
    /// attaching it does not change any measured counter (the observer
    /// rides the miss path and reads counter deltas).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_observed(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: TelemetryConfig,
    ) -> Result<RunResult, SimError> {
        Ok(Self::run_instrumented(cfg, hw, None, Some(telemetry))?.0)
    }

    /// The fully-instrumented entry point: optional miss trace plus
    /// optional telemetry in one run. Every environment goes through the
    /// same generic driver loop; only the [`crate::machine::Machine`]
    /// implementation differs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_instrumented(
        cfg: &SimConfig,
        hw: MmuConfig,
        trace_capacity: Option<usize>,
        telemetry: Option<TelemetryConfig>,
    ) -> Result<(RunResult, Option<mv_core::MissTrace>), SimError> {
        let instr = Instruments {
            trace_capacity,
            telemetry,
            ..Instruments::default()
        };
        Self::dispatch(cfg, hw, &instr)
    }

    /// Like [`Simulation::run_with_mmu`], attaching the walk-cost
    /// attribution profiler (optionally alongside telemetry — the two
    /// share the observer hook through a tee). The returned result carries
    /// the collected [`mv_prof::Profile`] in [`RunResult::profile`]: a
    /// per-epoch and run-total matrix of modeled cycles per (guest level ×
    /// nested level) cell, plus TLB/PWC hit tiers and VM-exit costs.
    ///
    /// Attribution never perturbs the simulation: the MMU records per-cell
    /// costs only while a profiling observer is attached, and the costs
    /// are the same charges already summed into the counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_profiled(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        profile: ProfileConfig,
    ) -> Result<RunResult, SimError> {
        let instr = Instruments {
            telemetry,
            profile: Some(profile),
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Runs with the driver's batching disabled: every access is paced
    /// one at a time, re-checking the warmup boundary, the churn schedule
    /// and (when `sample` is set) the sampling schedule before each,
    /// exactly as the pre-batching driver did. Scheduling granularity is
    /// the *only* difference from the batched path, so the results must
    /// be byte-identical — the batch-boundary equivalence tests assert
    /// exactly that. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`], plus [`SimError::Sample`]
    /// as for [`Simulation::run_sampled`].
    #[doc(hidden)]
    pub fn run_reference_paced(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        chaos: Option<ChaosSpec>,
        sample: Option<SampleSpec>,
    ) -> Result<RunResult, SimError> {
        let instr = Instruments {
            telemetry,
            chaos,
            sample,
            reference_pacing: true,
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Like [`Simulation::run_with_mmu`], with deterministic fault
    /// injection and the translation oracle active for the whole run
    /// (optionally alongside telemetry, whose export then carries the
    /// degradation transitions). The returned result carries the
    /// [`mv_chaos::ChaosReport`] in [`RunResult::chaos`]. An inactive spec
    /// (rate 0) takes the exact chaos-free path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`]; injected faults degrade the
    /// run rather than failing it.
    pub fn run_chaos(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        chaos: ChaosSpec,
    ) -> Result<RunResult, SimError> {
        let instr = Instruments {
            telemetry,
            chaos: Some(chaos),
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Like [`Simulation::run_chaos`], with the telemetry-driven adaptive
    /// mode controller deciding per-layer translation modes online. The
    /// controller consumes the run's own epoch snapshots (telemetry is
    /// attached automatically, in lockstep with the decision epoch length,
    /// when the caller does not supply a config) plus the chaos driver's
    /// fault signals, and switches plans live between epochs — demotions
    /// immediately on segment loss, promotions through the hysteresis
    /// gates. The returned result carries the [`mv_adapt::AdaptReport`] in
    /// [`RunResult::adapt`], and the telemetry export carries every plan
    /// transition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_adaptive(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        chaos: Option<ChaosSpec>,
        adapt: AdaptSpec,
    ) -> Result<RunResult, SimError> {
        let telemetry = telemetry.unwrap_or(TelemetryConfig {
            epoch_len: adapt.epoch_len,
            flight_capacity: 0,
        });
        let instr = Instruments {
            telemetry: Some(telemetry),
            chaos,
            adapt: Some(adapt),
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Like [`Simulation::run_with_mmu`], but the access stream comes
    /// from a recorded trace instead of the configured generator
    /// (optionally with telemetry attached). The trace is fully
    /// validated before any machine is built, and its footprint must
    /// equal `cfg.footprint` — the header's churn rate and ideal
    /// cycles-per-access drive the run, so replaying a recording of the
    /// same configuration reproduces the live run byte for byte.
    ///
    /// # Errors
    ///
    /// [`SimError::Trace`] for malformed, unreadable, or mismatched
    /// traces; otherwise the same conditions as [`Simulation::run`].
    pub fn run_replayed(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        trace: ReplaySource,
    ) -> Result<RunResult, SimError> {
        let instr = Instruments {
            telemetry,
            replay: Some(trace),
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Like [`Simulation::run_with_mmu`], additionally teeing every
    /// workload access into `recorder` as the run plays. Recording rides
    /// outside the measured path (the generator's stream is forwarded
    /// unchanged), so the run's results are identical with or without
    /// it. Call [`SharedTraceWriter::finish`] afterwards to seal the
    /// trace and surface any deferred write error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_recorded(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        recorder: SharedTraceWriter,
    ) -> Result<RunResult, SimError> {
        let instr = Instruments {
            telemetry,
            record: Some(recorder),
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Like [`Simulation::run_with_mmu`], but sampled: the measured
    /// region alternates detailed windows with functional fast-forward
    /// gaps per `spec` (optionally with telemetry attached over the
    /// detailed windows), and the returned counters and cycle totals are
    /// full-run **estimates** scaled from the windows. The result carries
    /// the schedule and the raw measured-access count in
    /// [`RunResult::sample`]. VM exits are exact (faults are serviced at
    /// full cadence through the gaps), and the TLBs stay architecturally
    /// warm across gaps; the walk caches are re-heated by each interval's
    /// warm tail instead. Sampling composes with trace replay and
    /// recording (through [`GridCell`](crate::GridCell)); chaos and the
    /// adaptive controller are rejected.
    ///
    /// # Errors
    ///
    /// [`SimError::Sample`] for an invalid schedule; otherwise the same
    /// conditions as [`Simulation::run`].
    pub fn run_sampled(
        cfg: &SimConfig,
        hw: MmuConfig,
        telemetry: Option<TelemetryConfig>,
        spec: SampleSpec,
    ) -> Result<RunResult, SimError> {
        let instr = Instruments {
            telemetry,
            sample: Some(spec),
            ..Instruments::default()
        };
        Ok(Self::dispatch(cfg, hw, &instr)?.0)
    }

    /// Dispatches to the generic driver loop on the configured environment.
    pub(crate) fn dispatch(
        cfg: &SimConfig,
        hw: MmuConfig,
        instr: &Instruments,
    ) -> Result<(RunResult, Option<mv_core::MissTrace>), SimError> {
        match cfg.env {
            Env::Native { .. } => drive::<NativeMachine>(cfg, hw, instr),
            Env::Virtualized { .. } => drive::<VirtualizedMachine>(cfg, hw, instr),
            Env::Shadow { .. } => drive::<ShadowMachine>(cfg, hw, instr),
            Env::L2 { .. } => drive::<L2Machine>(cfg, hw, instr),
        }
    }
}
