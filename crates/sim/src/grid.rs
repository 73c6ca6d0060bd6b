//! Parallel experiment grids: many independent [`SimConfig`] cells run on
//! a worker pool, with deterministic assembly and merge of the results.
//!
//! The paper's evaluation is a grid — {workloads} × {translation modes} ×
//! {trials} — and each cell builds its own guest, VMM, and MMU from its
//! own seed, so cells are embarrassingly parallel. [`Simulation::run_grid`]
//! runs them on an [`mv_par`] pool and returns results **in cell order**:
//! the output (and any [`GridReport::merged`] reduction) is byte-identical
//! whether the grid ran on 1 worker or 16, in whatever completion order.
//!
//! Per-trial seeds come from [`GridCell::trial`], which splits the cell's
//! base seed through [`mv_types::rng::split_seed`] — a pure function of
//! (seed, trial index), never of shared state — so adding workers cannot
//! reassign randomness between cells.

use std::fmt;
use std::num::NonZeroUsize;

use mv_adapt::AdaptSpec;
use mv_chaos::ChaosSpec;
use mv_core::MmuConfig;
use mv_obs::TelemetryConfig;
use mv_par::Reporter;
use mv_prof::ProfileConfig;
use mv_trace::{ReplaySource, SharedTraceWriter};
use mv_types::rng::split_seed;

use crate::config::SimConfig;
use crate::machine::Instruments;
use crate::result::RunResult;
use crate::run::{SimError, Simulation};
use crate::sample::SampleSpec;

/// One cell of an experiment grid: a configuration plus the hardware
/// parameters and instrumentation it should run with.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The experiment configuration (workload, environment, sizing, seed).
    pub cfg: SimConfig,
    /// MMU hardware parameters (TLB geometry, cost model, walk caching).
    pub hw: MmuConfig,
    /// Walk-event telemetry to collect over the measured window, if any.
    pub telemetry: Option<TelemetryConfig>,
    /// Walk-cost attribution profiling over the measured window, if any.
    pub profile: Option<ProfileConfig>,
    /// Fault injection + translation oracle for the cell, if any.
    pub chaos: Option<ChaosSpec>,
    /// Adaptive mode controller for the cell, if any.
    pub adapt: Option<AdaptSpec>,
    /// Trace to replay instead of the configured generator, if any. The
    /// source is shared by reference, so one trace fans out to every
    /// trial cell without copying the bytes.
    pub replay: Option<ReplaySource>,
    /// Recorder every workload access is teed into, if any.
    pub record: Option<SharedTraceWriter>,
    /// Sampled-execution schedule for the cell, if any (see
    /// [`Simulation::run_sampled`]).
    pub sample: Option<SampleSpec>,
}

impl GridCell {
    /// A cell running `cfg` on default hardware, unobserved.
    pub fn new(cfg: SimConfig) -> GridCell {
        GridCell {
            cfg,
            hw: MmuConfig::default(),
            telemetry: None,
            profile: None,
            chaos: None,
            adapt: None,
            replay: None,
            record: None,
            sample: None,
        }
    }

    /// Replaces the MMU hardware parameters (ablation sweeps).
    #[must_use]
    pub fn with_hw(mut self, hw: MmuConfig) -> GridCell {
        self.hw = hw;
        self
    }

    /// Attaches walk-event telemetry collection to the cell.
    #[must_use]
    pub fn observed(mut self, telemetry: TelemetryConfig) -> GridCell {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches walk-cost attribution profiling to the cell. Profiles from
    /// all trials of a cell merge associatively (same discipline as
    /// telemetry), so [`GridReport::merged`] is byte-identical for any
    /// worker count.
    #[must_use]
    pub fn profiled(mut self, profile: ProfileConfig) -> GridCell {
        self.profile = Some(profile);
        self
    }

    /// Attaches deterministic fault injection (and the translation oracle)
    /// to the cell. The chaos seed is independent of the workload seed and
    /// is *not* split per trial — the plan is a pure function of the access
    /// index, so trials of one cell see the same fault schedule.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> GridCell {
        self.chaos = Some(chaos);
        self
    }

    /// Attaches the adaptive mode controller to the cell. Telemetry is
    /// attached too when the cell has none — the controller reads epoch
    /// snapshots, so the telemetry epoch length is forced into lockstep
    /// with the decision epoch length.
    #[must_use]
    pub fn adaptive(mut self, adapt: AdaptSpec) -> GridCell {
        let mut telemetry = self.telemetry.unwrap_or(TelemetryConfig {
            epoch_len: adapt.epoch_len,
            flight_capacity: 0,
        });
        telemetry.epoch_len = adapt.epoch_len;
        self.telemetry = Some(telemetry);
        self.adapt = Some(adapt);
        self
    }

    /// Replays the cell's access stream from `trace` instead of building
    /// the configured generator. Replay is deterministic for any worker
    /// count — the stream is a pure function of the trace bytes — so
    /// trials of a replayed cell differ only in machine-side randomness
    /// (of which there is none today: replayed trials are identical, and
    /// their merge is byte-identical at any `--jobs`).
    #[must_use]
    pub fn replayed(mut self, trace: ReplaySource) -> GridCell {
        self.replay = Some(trace);
        self
    }

    /// Tees every workload access of this cell into `recorder`. Meant
    /// for a single-cell grid: multiple recording cells would interleave
    /// their streams into one trace in completion order.
    #[must_use]
    pub fn recorded(mut self, recorder: SharedTraceWriter) -> GridCell {
        self.record = Some(recorder);
        self
    }

    /// Runs the cell sampled: functional fast-forward between detailed
    /// windows per `spec`, with counters scaled to full-run estimates
    /// (see [`Simulation::run_sampled`]). Composes with replay and
    /// recording; incompatible with chaos and adaptation — such a cell
    /// fails with [`SimError::Sample`] instead of running.
    #[must_use]
    pub fn sampled(mut self, spec: SampleSpec) -> GridCell {
        self.sample = Some(spec);
        self
    }

    /// Derives the cell for trial `index`: the configuration's seed is
    /// split through [`split_seed`], so every trial gets a statistically
    /// independent stream that is a pure function of (base seed, index).
    /// Trial 0 is *also* split — a grid's trials are peers, none reuses
    /// the base seed directly.
    #[must_use]
    pub fn trial(mut self, index: u64) -> GridCell {
        self.cfg.seed = split_seed(self.cfg.seed, index);
        self
    }
}

/// Why a grid cell produced no result. The failure is contained to its
/// row: the rest of the sweep completes normally.
#[derive(Debug)]
#[non_exhaustive]
pub enum CellFailure {
    /// The simulation returned an error (mis-wired configuration).
    Sim(SimError),
    /// The cell's job panicked; the message is the panic payload.
    Panicked(String),
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Sim(e) => write!(f, "simulation error: {e}"),
            CellFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for CellFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CellFailure::Sim(e) => Some(e),
            CellFailure::Panicked(_) => None,
        }
    }
}

/// The outcome of one grid cell, carrying the cell it came from.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: GridCell,
    /// Its measurement, or the contained failure.
    pub outcome: Result<RunResult, CellFailure>,
}

/// Results of a grid run, in cell order (independent of worker count).
#[derive(Debug, Default)]
pub struct GridReport {
    outcomes: Vec<CellOutcome>,
}

impl GridReport {
    /// Per-cell outcomes, in the order the cells were submitted.
    pub fn outcomes(&self) -> &[CellOutcome] {
        &self.outcomes
    }

    /// Consumes the report into its per-cell outcomes.
    pub fn into_outcomes(self) -> Vec<CellOutcome> {
        self.outcomes
    }

    /// Number of cells the grid ran.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the grid was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Successful results, in cell order.
    pub fn results(&self) -> impl Iterator<Item = &RunResult> {
        self.outcomes.iter().filter_map(|o| o.outcome.as_ref().ok())
    }

    /// Failed cells as `(cell index, failure)`, in cell order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &CellFailure)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.outcome.as_ref().err().map(|e| (i, e)))
    }

    /// Deterministically reduces the successful results into one:
    /// counters, cycles, VM exits, and telemetry all merge (see
    /// [`RunResult::merge`]), folding in cell order so the reduction is
    /// identical for any worker count. `None` if no cell succeeded.
    ///
    /// Meaningful when the cells are trials of one configuration (the
    /// label of the first successful cell is kept).
    pub fn merged(&self) -> Option<RunResult> {
        let mut it = self.results();
        let mut acc = it.next()?.clone();
        for r in it {
            acc.merge(r);
        }
        Some(acc)
    }
}

impl Simulation {
    /// Runs every cell of an experiment grid on up to `jobs` worker
    /// threads, silently. See [`Simulation::run_grid_reported`].
    pub fn run_grid(cells: &[GridCell], jobs: NonZeroUsize) -> GridReport {
        Self::run_grid_reported(cells, jobs, &Reporter::new(true))
    }

    /// Runs every cell of an experiment grid on up to `jobs` worker
    /// threads, announcing per-cell progress through `reporter`.
    ///
    /// Results come back in cell order regardless of worker count or
    /// completion order. A cell that fails (simulation error or panic)
    /// becomes a failed row in the report instead of aborting the sweep.
    pub fn run_grid_reported(
        cells: &[GridCell],
        jobs: NonZeroUsize,
        reporter: &Reporter,
    ) -> GridReport {
        let total = cells.len();
        let raw = mv_par::par_map(jobs, cells, |i, cell| {
            reporter.line(format!(
                "  [{:>3}/{total}] {} / {} (seed {})...",
                i + 1,
                cell.cfg.workload.label(),
                cell.cfg.label(),
                cell.cfg.seed
            ));
            let instr = Instruments {
                telemetry: cell.telemetry,
                profile: cell.profile,
                chaos: cell.chaos,
                adapt: cell.adapt,
                replay: cell.replay.clone(),
                record: cell.record.clone(),
                sample: cell.sample,
                ..Instruments::default()
            };
            Simulation::dispatch(&cell.cfg, cell.hw, &instr).map(|(result, _)| result)
        });
        let outcomes = cells
            .iter()
            .zip(raw)
            .map(|(cell, job)| CellOutcome {
                cell: cell.clone(),
                outcome: match job {
                    Ok(Ok(result)) => Ok(result),
                    Ok(Err(sim)) => Err(CellFailure::Sim(sim)),
                    Err(panic) => Err(CellFailure::Panicked(panic.message)),
                },
            })
            .collect();
        GridReport { outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Env, GuestPaging};
    use mv_types::{PageSize, MIB};
    use mv_workloads::WorkloadKind;

    fn cell() -> GridCell {
        GridCell::new(SimConfig {
            workload: WorkloadKind::Gups,
            footprint: 4 * MIB,
            guest_paging: GuestPaging::Fixed(PageSize::Size4K),
            env: Env::native(),
            accesses: 2_000,
            warmup: 500,
            seed: 42,
        })
    }

    #[test]
    fn trial_splitting_is_pure_and_distinct() {
        let t3 = cell().trial(3);
        let t4 = cell().trial(4);
        assert_eq!(t3.cfg.seed, cell().trial(3).cfg.seed);
        assert_ne!(t3.cfg.seed, t4.cfg.seed);
        assert_ne!(t3.cfg.seed, 42, "trials never reuse the base seed");
    }

    #[test]
    fn empty_grid_reports_empty() {
        let report = Simulation::run_grid(&[], NonZeroUsize::new(4).unwrap());
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
        assert!(report.merged().is_none());
    }

    #[test]
    fn single_cell_matches_direct_run() {
        let c = cell();
        let report = Simulation::run_grid(std::slice::from_ref(&c), NonZeroUsize::new(2).unwrap());
        assert_eq!(report.len(), 1);
        let grid = report.merged().expect("cell succeeded");
        let direct = Simulation::run(&c.cfg).unwrap();
        assert_eq!(grid.counters, direct.counters);
        assert_eq!(grid.csv_row(), direct.csv_row());
    }
}
