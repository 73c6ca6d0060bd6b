//! The simulator benchmark.
//!
//! ```text
//! perfbench --workload <walk-heavy|tlb-resident|churn-fault|study-grid>
//!           --seed <n> --seconds <n> --trace <0|1> [--spans-out <path>]
//! perfbench --emit-digests
//! ```
//!
//! With `--trace 0` it repeats passes over the workload's cells for
//! `--seconds` and reports end-to-end metrics from each cell's fastest
//! pass; with `--trace 1` it runs the traced replay instead and reports
//! per-layer metrics (medians over passes). Every cell run is checked;
//! the last stdout line is `{"correct", "attempted", "failed",
//! "metrics"}`, preceded by a record line describing the run.
//! `--emit-digests` prints the expected-digest table at the default
//! seed. Usage errors exit 2.

mod cells;
mod digest;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mv_sim::{RunResult, Simulation};

use crate::cells::{Cell, Mode, Workload, ALL_ENVS};
use crate::digest::{Digest, DEFAULT_SEED};
use crate::trace::{build_seconds, path_index, trace_cell, Name, Recorder, SpanTotals, TracedCell};

const USAGE: &str = "usage: perfbench --workload <walk-heavy|tlb-resident|churn-fault|study-grid> \
--seed <n> --seconds <n> --trace <0|1> [--spans-out <path>]\n       perfbench --emit-digests";

/// Passes every measured run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    EmitDigests,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    if argv == ["--emit-digests"] {
        return Ok(Command::EmitDigests);
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("malformed seed {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| {
                            format!("--seconds wants a whole number in 1..=3600, got {v:?}")
                        })?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                });
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = cells::check_keys() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let expected = digest::expected().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let args = match command {
        Command::EmitDigests => {
            emit_digests();
            return;
        }
        Command::Run(args) => args,
    };
    let mut bench = Bench::new(&args, expected);
    let metrics = match (args.workload, args.trace) {
        (Workload::StudyGrid, false) => bench.grid_end_to_end(),
        (Workload::StudyGrid, true) => bench.grid_traced(),
        (_, false) => bench.serial_end_to_end(),
        (_, true) => bench.serial_traced(),
    };
    bench.finish(metrics);
}

/// Prints `workload cell digest` for every cell at the default seed.
fn emit_digests() {
    println!("# workload cell digest, at seed {DEFAULT_SEED}; regenerate with `perfbench --emit-digests`");
    for w in Workload::ALL {
        for cell in w.cells(DEFAULT_SEED) {
            match cell.run() {
                Ok(r) => println!("{} {} {}", w.name(), cell.name, digest_of(&r)),
                Err(e) => {
                    eprintln!("perfbench: {} {} failed: {e}", w.name(), cell.name);
                    std::process::exit(1);
                }
            }
        }
    }
}

fn digest_of(r: &RunResult) -> Digest {
    Digest::of(&r.counters, r.vm_exits)
}

/// One metric value with its unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// Run state shared by every workload: cells, checks and the record.
struct Bench {
    workload: Workload,
    seed: u64,
    trace: bool,
    budget: Duration,
    spans_out: Option<PathBuf>,
    cells: Vec<Cell>,
    expected: BTreeMap<(String, String), Digest>,
    /// The first digest each cell produced; every later run must match.
    first: Vec<Option<Digest>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    record: Vec<(String, String)>,
    started: Instant,
}

impl Bench {
    fn new(args: &Args, expected: BTreeMap<(String, String), Digest>) -> Bench {
        let cells = args.workload.cells(args.seed);
        Bench {
            workload: args.workload,
            seed: args.seed,
            trace: args.trace,
            budget: Duration::from_secs(args.seconds),
            spans_out: args.spans_out.clone(),
            first: vec![None; cells.len()],
            cells,
            expected,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            record: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Whether the run should start another pass.
    fn more(&self, passes: usize) -> bool {
        passes < MIN_PASSES || self.started.elapsed() < self.budget
    }

    /// Counts one cell run: it fails if it errored, failed a check, or
    /// its digest differs from the committed one (default seed) or from
    /// this cell's earlier runs.
    fn check(&mut self, idx: usize, outcome: Result<Digest, String>) {
        self.attempted += 1;
        let name = &self.cells[idx].name;
        let problem = match outcome {
            Err(e) => Some(e),
            Ok(d) => {
                let key = (self.workload.name().to_string(), name.clone());
                match (
                    self.seed == DEFAULT_SEED,
                    self.expected.get(&key),
                    self.first[idx],
                ) {
                    (true, None, _) => Some(format!("no expected digest (got {d})")),
                    (true, Some(&want), _) if want != d => {
                        Some(format!("digest {d}, expected {want}"))
                    }
                    (_, _, Some(prev)) if prev != d => {
                        Some(format!("digest {d} differs from earlier run {prev}"))
                    }
                    _ => {
                        self.first[idx] = Some(d);
                        None
                    }
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            let msg = format!("{}: {p}", self.cells[idx].name);
            eprintln!("perfbench: FAILED {msg}");
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    /// Times `Machine::build` once per cell, outside any timed run.
    fn time_builds(&mut self, build_s: &mut [Vec<f64>]) {
        for (c, times) in build_s.iter_mut().enumerate() {
            match build_seconds(&self.cells[c].cfg) {
                Ok(s) => times.push(s),
                Err(e) => self.check(c, Err(format!("build failed: {e}"))),
            }
        }
    }

    /// Adds `key` to the record line; `json` is already JSON-encoded.
    fn note(&mut self, key: &str, json: impl Into<String>) {
        self.record.push((key.to_string(), json.into()));
    }

    // ---------------------------------------------------------------
    // Serial workloads.

    fn serial_end_to_end(&mut self) -> Metrics {
        let n = self.cells.len();
        let mut build_s = vec![Vec::new(); n];
        let mut run_s = vec![Vec::new(); n];
        let mut passes = 0;
        while self.more(passes) {
            self.time_builds(&mut build_s);
            for (c, times) in run_s.iter_mut().enumerate() {
                let t = Instant::now();
                let r = self.cells[c].run();
                times.push(t.elapsed().as_secs_f64());
                self.check(c, r.map(|r| digest_of(&r)).map_err(|e| e.to_string()));
            }
            passes += 1;
        }
        self.note("passes", passes.to_string());
        let named = |v: &[Vec<f64>]| -> Vec<(String, String)> {
            self.cells
                .iter()
                .zip(v)
                .map(|(c, x)| (c.name.clone(), json_list(x)))
                .collect()
        };
        let (runs, builds) = (json_raw_obj(&named(&run_s)), json_raw_obj(&named(&build_s)));
        self.note("cell_run_s", runs);
        self.note("cell_build_s", builds);
        self.note_cell_s(&run_s.concat());

        let run: Vec<f64> = run_s.iter().map(|v| min(v)).collect();
        let build: Vec<f64> = build_s.iter().map(|v| min(v)).collect();
        let accesses: u64 = self.cells.iter().map(Cell::total_accesses).sum();
        let drive: f64 = run.iter().zip(&build).map(|(r, b)| r - b).sum();
        self.end_to_end(
            run.iter().sum(),
            build.iter().sum(),
            accesses as f64 / drive,
        )
    }

    fn serial_traced(&mut self) -> Metrics {
        let timer_ns = trace::timer_overhead_ns();
        self.note("timer_overhead_ns", timer_ns.to_string());
        let n = self.cells.len();
        let mut passes = 0;
        let mut samples: [Vec<u32>; 4] = Default::default();
        let mut by_dims: [Vec<u32>; 4] = Default::default();
        let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut results: Vec<RunResult> = Vec::new();
        while self.more(passes) {
            let mut rec = Recorder::new();
            let mut untraced_ns = 0u64;
            let mut traced: Vec<(usize, TracedCell)> = Vec::with_capacity(n);
            results.clear();
            for c in 0..n {
                // Alternate which run goes first: the second one finds the
                // allocator warm, which would bias the overhead ratio.
                let traced_first = passes % 2 == 1;
                let mut t_run = if traced_first {
                    Some(trace_cell(&self.cells[c], &mut rec, c as u32, timer_ns))
                } else {
                    None
                };
                let t = Instant::now();
                let r = self.cells[c].run();
                untraced_ns += t.elapsed().as_nanos() as u64;
                if !traced_first {
                    t_run = Some(trace_cell(&self.cells[c], &mut rec, c as u32, timer_ns));
                }
                let r = match r {
                    Ok(r) => r,
                    Err(e) => {
                        self.check(c, Err(e.to_string()));
                        continue;
                    }
                };
                let want = digest_of(&r);
                self.check(c, Ok(want));
                match t_run.expect("the traced run ran") {
                    Ok(t) if t.digest == want => {
                        self.check(c, Ok(t.digest));
                        traced.push((c, t));
                    }
                    Ok(t) => self.check(
                        c,
                        Err(format!("traced digest {} != untraced {want}", t.digest)),
                    ),
                    Err(e) => self.check(c, Err(format!("traced run failed: {e}"))),
                }
                results.push(r);
            }
            let totals = SpanTotals::of(&rec.spans);
            let mut m = BTreeMap::new();
            let total_acc: u64 = self.cells.iter().map(Cell::total_accesses).sum();
            let measured_acc: u64 = self.cells.iter().map(|c| c.cfg.accesses).sum();
            let per = |(ns, count): (u64, u64)| {
                if count == 0 {
                    0.0
                } else {
                    ns as f64 / count as f64
                }
            };
            m.insert(
                "core.access_ns".into(),
                totals.get(Name::Access).0 as f64 / total_acc as f64,
            );
            m.insert(
                "workloads.next_ns".into(),
                totals.get(Name::Next).0 as f64 / total_acc as f64,
            );
            m.insert("sim.ctx_ns".into(), per(totals.get(Name::Ctx)));
            m.insert("fault.service_ns".into(), per(totals.get(Name::Fault)));
            m.insert("sim.churn_ns".into(), per(totals.get(Name::Churn)));
            let fault_calls: u64 = traced.iter().map(|(_, t)| t.fault_calls).sum();
            m.insert(
                "fault.calls_per_kacc".into(),
                1000.0 * fault_calls as f64 / measured_acc as f64,
            );
            m.insert(
                "sim.churn_events".into(),
                traced.iter().map(|(_, t)| t.churn_events).sum::<u64>() as f64,
            );
            m.insert(
                "sim.build_s".into(),
                traced.iter().map(|(_, t)| t.build_ns).sum::<u64>() as f64 / 1e9,
            );
            for env in ALL_ENVS {
                let ns: u64 = traced
                    .iter()
                    .filter(|(c, _)| self.cells[*c].env == env.name)
                    .map(|(_, t)| t.build_ns)
                    .sum();
                m.insert(format!("sim.build_s.{}", env.name), ns as f64 / 1e9);
            }
            m.insert(
                "trace.overhead_ratio".into(),
                totals.root_ns as f64 / untraced_ns as f64,
            );
            m.insert(
                "trace.unattributed_share".into(),
                totals.unattributed_ns as f64 / totals.root_ns as f64,
            );
            per_pass.push(m);
            for (_, t) in &mut traced {
                for (k, v) in t.samples.iter_mut().enumerate() {
                    // Walks and segment bypasses are the miss path of a
                    // walk of the env's dimensionality (0D: the bypass).
                    if k >= path_index(mv_core::HitPath::SegmentBypass) {
                        by_dims[usize::from(t.dims.min(3))].extend_from_slice(v);
                    }
                    samples[k].append(v);
                }
            }
            if passes == 0 {
                self.write_spans(&rec);
            }
            passes += 1;
        }
        self.note("passes", passes.to_string());
        let mut m = median_maps(&per_pass);
        // An empty bucket means the path never ran: 0, not unknown.
        let med = |v: &[u32]| {
            if v.is_empty() {
                0.0
            } else {
                median(&v.iter().map(|&x| f64::from(x)).collect::<Vec<_>>())
            }
        };
        m.insert("core.l1_hit_ns".into(), med(&samples[0]));
        m.insert("core.l2_hit_ns".into(), med(&samples[1]));
        m.insert("core.bypass_ns".into(), med(&samples[2]));
        m.insert("core.walk_ns".into(), med(&samples[3]));
        for (d, v) in by_dims.iter().enumerate() {
            m.insert(format!("core.walk_ns.{d}d"), med(v));
        }
        self.note(
            "access_samples",
            json_raw_obj(&[
                ("l1_hit".to_string(), samples[0].len().to_string()),
                ("l2_hit".to_string(), samples[1].len().to_string()),
                ("bypass".to_string(), samples[2].len().to_string()),
                ("walk".to_string(), samples[3].len().to_string()),
            ]),
        );
        counter_metrics(&results, &mut m);
        for k in [
            "par.busy_share",
            "par.steals",
            "par.slowest_cell_s",
            "par.idle_s",
            "sim.merge_s",
        ] {
            m.insert(k.into(), 0.0);
        }
        layer_metrics(m)
    }

    // ---------------------------------------------------------------
    // The study grid.

    fn jobs() -> NonZeroUsize {
        mv_sim::default_jobs()
    }

    /// Checks one grid pass's results cell by cell: digests, then each
    /// mode's own condition.
    fn check_grid(&mut self, outcomes: Vec<Result<RunResult, String>>) -> Vec<Option<RunResult>> {
        let plain: BTreeMap<&'static str, usize> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.mode, Mode::Plain))
            .map(|(i, c)| (c.env, i))
            .collect();
        let verdicts: Vec<Result<Digest, String>> = self
            .cells
            .iter()
            .zip(&outcomes)
            .map(|(cell, o)| {
                let r = o.as_ref().map_err(Clone::clone)?;
                let full = plain.get(cell.env).and_then(|&i| outcomes[i].as_ref().ok());
                grid_condition(cell, r, full)?;
                Ok(digest_of(r))
            })
            .collect();
        for (i, v) in verdicts.into_iter().enumerate() {
            self.check(i, v);
        }
        outcomes.into_iter().map(Result::ok).collect()
    }

    fn run_grid(&self, jobs: NonZeroUsize) -> (f64, Vec<Result<RunResult, String>>) {
        let grid: Vec<_> = self.cells.iter().map(Cell::grid_cell).collect();
        let t = Instant::now();
        let report = Simulation::run_grid(&grid, jobs);
        let s = t.elapsed().as_secs_f64();
        let outcomes = report
            .into_outcomes()
            .into_iter()
            .map(|o| o.outcome.map_err(|e| e.to_string()))
            .collect();
        (s, outcomes)
    }

    /// The jobs-1 reference: every later pass at `nproc` jobs must
    /// reproduce its digests.
    fn grid_reference(&mut self) {
        let (_, outcomes) = self.run_grid(NonZeroUsize::MIN);
        self.check_grid(outcomes);
    }

    fn grid_end_to_end(&mut self) -> Metrics {
        let jobs = Self::jobs();
        self.grid_reference();
        let mut wall = Vec::new();
        let mut build_s = vec![Vec::new(); self.cells.len()];
        let mut passes = 0;
        while self.more(passes) {
            self.time_builds(&mut build_s);
            let (s, outcomes) = self.run_grid(jobs);
            wall.push(s);
            self.check_grid(outcomes);
            passes += 1;
        }
        self.note("passes", passes.to_string());
        self.note("jobs", jobs.to_string());
        self.note("pass_wall_s", json_list(&wall));
        let accesses: u64 = self.cells.iter().map(Cell::total_accesses).sum();
        let wall_s = min(&wall);
        self.end_to_end(
            wall_s,
            build_s.iter().map(|v| min(v)).sum(),
            accesses as f64 / wall_s,
        )
    }

    fn grid_traced(&mut self) -> Metrics {
        let jobs = Self::jobs();
        self.grid_reference();
        let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut results = Vec::new();
        let mut cell_s = Vec::new();
        let mut passes = 0;
        while self.more(passes) {
            // Alternate which grid goes first, as for serial cells.
            let untraced_first = passes % 2 == 0;
            let mut untraced = if untraced_first {
                Some(self.run_grid(jobs))
            } else {
                None
            };

            let mut rec = Recorder::new();
            let mut m = BTreeMap::new();
            let mut build = BTreeMap::<&str, f64>::new();
            for c in &self.cells {
                *build.entry(c.env).or_default() += build_seconds(&c.cfg).unwrap_or(0.0);
            }
            m.insert("sim.build_s".into(), build.values().sum());
            for env in ALL_ENVS {
                m.insert(
                    format!("sim.build_s.{}", env.name),
                    build.get(env.name).copied().unwrap_or(0.0),
                );
            }

            let grid = rec.open(Name::Grid, None, u32::MAX);
            let (raw, stats) = mv_par::par_map_with_stats(jobs, &self.cells, |_, c| {
                let t0 = rec.now();
                let r = c.run();
                (t0, rec.now(), r)
            });
            rec.close(grid);
            if !untraced_first {
                untraced = Some(self.run_grid(jobs));
            }
            let (untraced_s, outcomes) = untraced.expect("the untraced grid ran");
            self.check_grid(outcomes);
            let mut outcomes = Vec::new();
            for (i, job) in raw.into_iter().enumerate() {
                match job {
                    Ok((t0, t1, r)) => {
                        rec.push(Name::GridCell, t0, t1, Some(grid), i as u32);
                        outcomes.push(r.map_err(|e| e.to_string()));
                    }
                    Err(p) => outcomes.push(Err(p.to_string())),
                }
            }
            results = self.check_grid(outcomes).into_iter().flatten().collect();

            let t = Instant::now();
            let mut merged = results.first().cloned();
            if let Some(acc) = merged.as_mut() {
                for r in &results[1..] {
                    acc.merge(r);
                }
            }
            std::hint::black_box(merged);
            m.insert("sim.merge_s".into(), t.elapsed().as_secs_f64());

            let totals = SpanTotals::of(&rec.spans);
            let grid_s = rec.spans[grid as usize].ns() as f64 / 1e9;
            let cells: Vec<f64> = rec
                .spans
                .iter()
                .filter(|s| s.name == Name::GridCell)
                .map(|s| s.ns() as f64 / 1e9)
                .collect();
            let busy: f64 = cells.iter().sum();
            let capacity = jobs.get() as f64 * grid_s;
            m.insert("par.busy_share".into(), busy / capacity);
            m.insert("par.idle_s".into(), capacity - busy);
            m.insert("par.steals".into(), stats.total_steals() as f64);
            m.insert(
                "par.slowest_cell_s".into(),
                cells.iter().copied().fold(0.0, f64::max),
            );
            cell_s.extend(cells);
            m.insert("trace.overhead_ratio".into(), grid_s / untraced_s);
            m.insert(
                "trace.unattributed_share".into(),
                totals.unattributed_ns as f64 / totals.root_ns as f64,
            );
            per_pass.push(m);
            if passes == 0 {
                self.write_spans(&rec);
            }
            passes += 1;
        }
        self.note("passes", passes.to_string());
        self.note("jobs", jobs.to_string());
        self.note_cell_s(&cell_s);
        let mut m = median_maps(&per_pass);
        counter_metrics(&results, &mut m);
        let measured: u64 = results.iter().map(|r| r.accesses).sum();
        let faults: u64 = results
            .iter()
            .map(|r| {
                r.counters.guest_faults
                    + r.counters.nested_faults
                    + r.counters.prot_faults
                    + r.counters.mid_faults
            })
            .sum();
        m.insert(
            "fault.calls_per_kacc".into(),
            1000.0 * faults as f64 / measured.max(1) as f64,
        );
        // Cells are traced whole here: the access-level layers read 0.
        for k in [
            "core.access_ns",
            "core.l1_hit_ns",
            "core.l2_hit_ns",
            "core.bypass_ns",
            "core.walk_ns",
            "core.walk_ns.0d",
            "core.walk_ns.1d",
            "core.walk_ns.2d",
            "core.walk_ns.3d",
            "workloads.next_ns",
            "sim.ctx_ns",
            "fault.service_ns",
            "sim.churn_ns",
            "sim.churn_events",
        ] {
            m.insert(k.into(), 0.0);
        }
        layer_metrics(m)
    }

    // ---------------------------------------------------------------
    // Output.

    /// The end-to-end metrics. Times are each cell's fastest run in the
    /// window (study-grid: the fastest grid pass): on a shared host,
    /// co-tenant interference only ever adds time, and comes in stretches
    /// (about 1.8x, for tens of seconds) that a median over one run's
    /// passes cannot average out.
    fn end_to_end(&mut self, wall_s: f64, setup_s: f64, accesses_per_s: f64) -> Metrics {
        vec![
            ("wall_s".into(), wall_s, "s"),
            ("setup_s".into(), setup_s, "s"),
            ("accesses_per_s".into(), accesses_per_s, "1/s"),
            ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
        ]
    }

    /// Records the per-cell time distribution: the median and the highest
    /// percentile with at least ten cell runs beyond it.
    fn note_cell_s(&mut self, cell_s: &[f64]) {
        let (pct, tail) = tail(cell_s);
        self.note("cell_s.p50", json_num(median(cell_s)));
        self.note("cell_s.tail", json_num(tail));
        self.note("cell_s.tail_percentile", pct.to_string());
        self.note("cell_s.count", cell_s.len().to_string());
    }

    fn write_spans(&mut self, rec: &Recorder) {
        let Some(path) = self.spans_out.clone() else {
            return;
        };
        let names: Vec<String> = self.cells.iter().map(|c| c.name.clone()).collect();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
                rec.write_tsv(&mut out, &names)?;
                std::io::Write::flush(&mut out)
            });
        match written {
            Ok(()) => self.note("spans", json_str(&path.display().to_string())),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }

    fn finish(mut self, metrics: Metrics) {
        let digests: Vec<(String, String)> = self
            .cells
            .iter()
            .zip(&self.first)
            .map(|(c, d)| {
                (
                    c.name.clone(),
                    d.map_or_else(|| "-".into(), |d| d.to_string()),
                )
            })
            .collect();
        let mut bad_metric = false;
        for (name, v, _) in &metrics {
            if !v.is_finite() {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                bad_metric = true;
            }
        }
        self.failed += u64::from(bad_metric);

        let mut record = String::new();
        let _ = write!(
            record,
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
             \"cells\": {}, \"elapsed_s\": {}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.budget.as_secs(),
            self.cells.len(),
            self.started.elapsed().as_secs_f64()
        );
        for (k, v) in &self.record {
            let _ = write!(record, ", {}: {v}", json_str(k));
        }
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(record, ", \"failures\": [{}]", failures.join(", "));
        let digests: Vec<String> = digests
            .iter()
            .map(|(k, d)| format!("{}: {}", json_str(k), json_str(d)))
            .collect();
        let _ = write!(record, ", \"digests\": {{{}}}}}}}", digests.join(", "));
        println!("{record}");

        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// The mode-specific correctness condition of a grid cell: chaos cells
/// must see no oracle violations, sampled cells must stay within 2% of
/// the same env's full run, adaptive cells must report.
fn grid_condition(cell: &Cell, r: &RunResult, full: Option<&RunResult>) -> Result<(), String> {
    match cell.mode {
        Mode::Plain => Ok(()),
        Mode::Chaos(_) | Mode::Adaptive(..) => {
            let c = r.chaos.as_ref().ok_or("no chaos report")?;
            if c.oracle_checks == 0 || c.oracle_violations > 0 {
                return Err(format!(
                    "oracle: {} violations in {} checks",
                    c.oracle_violations, c.oracle_checks
                ));
            }
            if matches!(cell.mode, Mode::Adaptive(..)) && r.adapt.is_none() {
                return Err("no adapt report".into());
            }
            Ok(())
        }
        Mode::Sampled(_) => {
            let full = full.ok_or("no full run to compare the sampled estimate with")?;
            // The bound and floors of the repository's sampled-mode test.
            let checks = [
                (
                    "translation_cycles",
                    r.translation_cycles,
                    full.translation_cycles,
                    200.0,
                ),
                (
                    "l1_misses",
                    r.counters.l1_misses as f64,
                    full.counters.l1_misses as f64,
                    20.0,
                ),
                ("overhead", r.overhead, full.overhead, 0.002),
            ];
            for (what, est, act, floor) in checks {
                let err = if (est - act).abs() <= floor {
                    0.0
                } else {
                    (est - act).abs() / act.abs().max(floor)
                };
                if err > 0.02 {
                    return Err(format!(
                        "sampled {what} off by {:.2}% ({est} vs {act})",
                        err * 100.0
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Layer metrics every workload derives from the runs' counters.
fn counter_metrics(results: &[RunResult], m: &mut BTreeMap<String, f64>) {
    let mut c = mv_core::MmuCounters::default();
    let (mut exits, mut nested) = (0u64, (0u64, 0u64));
    for r in results {
        c.merge(&r.counters);
        exits += r.vm_exits;
        nested.0 += r.nested_l2.0;
        nested.1 += r.nested_l2.1;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let walks = c.walks();
    m.insert(
        "core.walks_per_kacc".into(),
        1000.0 * ratio(walks, c.accesses),
    );
    m.insert(
        "core.guest_refs_per_walk".into(),
        ratio(c.guest_walk_refs, walks),
    );
    m.insert(
        "core.nested_refs_per_walk".into(),
        ratio(c.nested_walk_refs, walks),
    );
    m.insert(
        "core.mid_refs_per_walk".into(),
        ratio(c.mid_walk_refs, walks),
    );
    m.insert(
        "tlb.l1_hit_ratio".into(),
        1.0 - ratio(c.l1_misses, c.accesses),
    );
    let lookups = c.l1_misses - c.cat_both - c.ds_hits;
    m.insert(
        "tlb.l2_hit_ratio".into(),
        ratio(lookups - c.l2_misses, lookups),
    );
    m.insert("tlb.nested_l2_hit_ratio".into(), ratio(nested.1, nested.0));
    m.insert(
        "vmm.vm_exits_per_kacc".into(),
        1000.0 * ratio(exits, c.accesses),
    );
}

/// Attaches units to the per-layer metric map.
fn layer_metrics(m: BTreeMap<String, f64>) -> Metrics {
    m.into_iter()
        .map(|(k, v)| {
            let unit = if k.ends_with("_ns") || k.contains("_ns.") {
                "ns"
            } else if k.ends_with("_s") || k.contains("_s.") {
                "s"
            } else if k.ends_with("_kacc") {
                "1/kacc"
            } else if k.ends_with("ratio") || k.ends_with("share") {
                "ratio"
            } else if k.ends_with("per_walk") {
                "refs/walk"
            } else {
                "count"
            };
            (k, v, unit)
        })
        .collect()
}

fn median_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = maps.first() {
        for k in first.keys() {
            let v: Vec<f64> = maps.iter().filter_map(|m| m.get(k).copied()).collect();
            out.insert(k.clone(), median(&v));
        }
    }
    out
}

/// The median (mean of the middle two for an even count); NaN if empty.
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The smallest value; NaN if empty.
fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::min)
}

/// The highest of these percentiles with at least ten samples beyond it
/// (nearest rank), and its value.
fn tail(v: &[f64]) -> (u32, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    for p in [99, 95, 90, 75, 50] {
        let rank = (p * s.len()).div_ceil(100);
        if rank >= 1 && s.len() - rank >= 10 {
            return (p as u32, s[rank - 1]);
        }
    }
    (100, s.last().copied().unwrap_or(f64::NAN))
}

/// The process's host memory high-water mark, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter()
            .map(|x| json_num(*x))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// A JSON object of already-encoded values.
fn json_raw_obj(kv: &[(String, String)]) -> String {
    let body: Vec<String> = kv
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
