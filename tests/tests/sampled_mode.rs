//! Differential validation of sampled execution: for every environment of
//! the PAPER_10 catalog, a sampled run's scaled estimates must track the
//! full-fidelity run's measurements within a small relative error, on both
//! a uniform-random workload (gups) and a churn-heavy one (memcached).
//!
//! The bound asserted here (2%) is the one `scripts/ci.sh` gates on and
//! the one EXPERIMENTS.md quotes; tighten it only with data.

use std::num::NonZeroUsize;

use mv_bench::experiments::env_catalog::{NamedEnv, PAPER_10_ENVS, SHADOW_4K, VIRT_4K_4K};
use mv_chaos::ChaosSpec;
use mv_core::MmuConfig;
use mv_obs::EpochSnapshot;
use mv_sim::{
    AdaptSpec, CellFailure, GridCell, MemSink, ReplaySource, SampleError, SampleSpec,
    SharedTraceWriter, SimConfig, SimError, Simulation, TelemetryConfig,
};
use mv_trace::TraceHeader;
use mv_types::MIB;
use mv_workloads::WorkloadKind;

/// Relative error of `est` against `act`, with an absolute floor so
/// near-zero quantities (e.g. native-DS translation cycles) don't explode
/// the ratio: anything within `floor` absolute counts as exact.
fn rel_err(est: f64, act: f64, floor: f64) -> f64 {
    if (est - act).abs() <= floor {
        0.0
    } else {
        (est - act).abs() / act.abs().max(floor)
    }
}

fn cfg(w: WorkloadKind, (paging, env): NamedEnv) -> SimConfig {
    SimConfig {
        workload: w,
        footprint: 24 * MIB,
        guest_paging: paging,
        env,
        accesses: 40_000,
        // Sampling extrapolates from windows, so it assumes the measured
        // region is (statistically) stationary: the warmup must actually
        // reach steady state. 10k accesses leaves the walk caches still
        // warming on this footprint (per-epoch cycles/miss keeps decaying
        // for ~20k more) and inflates the windows' estimate to ~5%; 30k
        // is comfortably converged.
        warmup: 30_000,
        seed: 42,
    }
}

const SPEC: SampleSpec = SampleSpec {
    window: 2_000,
    interval: 10_000,
    warmup: 500,
};

/// The sampled estimate of the headline quantities stays within 2% of the
/// full-fidelity run across every PAPER_10 environment, for gups and
/// memcached, while measuring only a fifth of the accesses.
#[test]
fn sampled_estimates_track_full_runs_within_two_percent() {
    const BOUND: f64 = 0.02;
    let mut worst: (f64, String) = (0.0, String::new());
    for w in [WorkloadKind::Gups, WorkloadKind::Memcached] {
        for named in PAPER_10_ENVS {
            let cfg = cfg(w, named);
            let full = Simulation::run(&cfg).expect("full run");
            let sampled =
                Simulation::run_sampled(&cfg, MmuConfig::default(), None, SPEC).expect("sampled");
            let summary = sampled.sample.expect("sampled runs carry a summary");
            assert_eq!(summary.spec, SPEC);
            assert_eq!(
                summary.measured_accesses,
                4 * SPEC.window,
                "{}/{}: four windows tile 40k accesses",
                w.label(),
                cfg.label()
            );
            assert_eq!(sampled.accesses, cfg.accesses);
            assert_eq!(sampled.counters.accesses, cfg.accesses);

            // translation_cycles is the figure-of-merit everything else
            // (overhead, the figures' bars) derives from; l1_misses checks
            // that TLB behavior itself — not just its pricing — is tracked.
            let checks = [
                (
                    "translation_cycles",
                    sampled.translation_cycles,
                    full.translation_cycles,
                    // Floor: one walk's worth of cycles per 40k accesses.
                    200.0,
                ),
                (
                    "l1_misses",
                    sampled.counters.l1_misses as f64,
                    full.counters.l1_misses as f64,
                    20.0,
                ),
                ("overhead", sampled.overhead, full.overhead, 0.002),
            ];
            for (what, est, act, floor) in checks {
                let e = rel_err(est, act, floor);
                if e > worst.0 {
                    worst = (
                        e,
                        format!("{}/{} {what}: est {est:.1} vs full {act:.1}", w.label(), cfg.label()),
                    );
                }
                assert!(
                    e <= BOUND,
                    "{}/{}: {what} off by {:.2}% (sampled {est:.1} vs full {act:.1})",
                    w.label(),
                    cfg.label(),
                    e * 100.0
                );
            }
        }
    }
    eprintln!("worst sampled-vs-full deviation: {:.3}% ({})", worst.0 * 100.0, worst.1);
}

/// Sampling refuses the instruments that act on every access's detailed
/// outcome (chaos and the adaptive controller), and refuses malformed
/// schedules, with typed errors.
#[test]
fn sampling_rejects_incompatible_instruments_and_bad_specs() {
    let cfg = cfg(WorkloadKind::Gups, PAPER_10_ENVS[0]);
    let bad = SampleSpec {
        window: 0,
        interval: 10,
        warmup: 0,
    };
    match Simulation::run_sampled(&cfg, MmuConfig::default(), None, bad) {
        Err(SimError::Sample(_)) => {}
        other => panic!("zero window must be rejected, got {other:?}"),
    }
    let fills = SampleSpec {
        window: 10,
        interval: 10,
        warmup: 0,
    };
    assert!(matches!(
        Simulation::run_sampled(&cfg, MmuConfig::default(), None, fills),
        Err(SimError::Sample(_))
    ));

    let cells = [
        GridCell::new(cfg)
            .with_chaos(ChaosSpec::new(7, 1_000))
            .sampled(SPEC),
        GridCell::new(cfg).adaptive(AdaptSpec::new(7)).sampled(SPEC),
    ];
    let report = Simulation::run_grid(&cells, NonZeroUsize::MIN);
    let rejected: Vec<&str> = report
        .failures()
        .map(|(_, failure)| match failure {
            CellFailure::Sim(SimError::Sample(SampleError::Incompatible(what))) => *what,
            other => panic!("expected a typed incompatibility, got {other:?}"),
        })
        .collect();
    assert_eq!(rejected, ["chaos", "adapt"]);
}

fn telemetry() -> TelemetryConfig {
    TelemetryConfig {
        epoch_len: 2_000,
        flight_capacity: 0,
    }
}

/// A memcached run small enough for the trace tests: churn every 22
/// accesses, so a replay must reproduce the churn schedule from the
/// trace header. The stream depends only on (footprint, seed), so one
/// recording serves every environment.
fn trace_cfg(env: NamedEnv) -> SimConfig {
    SimConfig {
        accesses: 20_000,
        warmup: 5_000,
        ..cfg(WorkloadKind::Memcached, env)
    }
}

/// Records the access stream of `cfg`, optionally sampled, through a
/// one-cell grid and returns the sealed trace bytes.
fn record_cell(cfg: &SimConfig, sample: Option<SampleSpec>) -> Vec<u8> {
    let header = TraceHeader::for_workload(
        cfg.workload,
        cfg.footprint,
        cfg.seed,
        cfg.warmup,
        cfg.accesses,
    );
    let sink = MemSink::new();
    let recorder = SharedTraceWriter::create(Box::new(sink.clone()), &header).expect("recorder");
    let mut cell = GridCell::new(*cfg).recorded(recorder.clone());
    if let Some(spec) = sample {
        cell = cell.sampled(spec);
    }
    let report = Simulation::run_grid(&[cell], NonZeroUsize::MIN);
    assert_eq!(report.failures().count(), 0, "recording cell failed");
    assert_eq!(
        recorder.finish().expect("seal trace"),
        cfg.warmup + cfg.accesses
    );
    sink.bytes()
}

/// Everything observable about one sampled result as a byte string.
fn sampled_fingerprint(r: &mv_sim::RunResult) -> Vec<u8> {
    let mut out = r.csv_row().into_bytes();
    out.extend_from_slice(format!("\n{:?}\n", r.sample).as_bytes());
    r.telemetry
        .as_ref()
        .expect("telemetry attached")
        .write_jsonl(&mut out)
        .expect("jsonl export");
    out
}

/// Every access consumes exactly one stream item whatever its fidelity,
/// so recording rides a sampled run without changing the trace.
#[test]
fn trace_recorded_during_sampled_run_matches_unsampled_recording() {
    let cfg = trace_cfg(VIRT_4K_4K);
    let unsampled = record_cell(&cfg, None);
    let sampled = record_cell(&cfg, Some(SPEC));
    assert!(unsampled == sampled, "sampling changed the recorded stream");
}

/// A sampled replay of a trace recorded from the same configuration
/// reproduces the sampled live run byte for byte — CSV row, sample
/// summary and telemetry — at any worker count.
#[test]
fn sampled_replay_reproduces_sampled_live_run() {
    let envs = [VIRT_4K_4K, SHADOW_4K];
    let trace = ReplaySource::bytes(record_cell(&trace_cfg(envs[0]), None));
    let mut expected = Vec::new();
    let mut cells = Vec::new();
    for env in envs {
        let cfg = trace_cfg(env);
        let live = Simulation::run_sampled(&cfg, MmuConfig::default(), Some(telemetry()), SPEC)
            .expect("sampled live run");
        expected.extend(sampled_fingerprint(&live));
        cells.push(
            GridCell::new(cfg)
                .observed(telemetry())
                .replayed(trace.clone())
                .sampled(SPEC),
        );
    }
    for jobs in [1, 4] {
        let report = Simulation::run_grid(&cells, NonZeroUsize::new(jobs).expect("jobs"));
        assert_eq!(report.failures().count(), 0, "sampled replay cell failed");
        let replayed: Vec<u8> = report.results().flat_map(sampled_fingerprint).collect();
        assert!(
            replayed == expected,
            "sampled replay diverged from the sampled live runs at --jobs {jobs}"
        );
    }
}

/// Telemetry rides a sampled run: epochs cover the measured (detailed)
/// accesses only, and the final count is the measured denominator.
#[test]
fn sampled_telemetry_covers_measured_accesses() {
    let cfg = cfg(WorkloadKind::Gups, PAPER_10_ENVS[2]); // 4K+4K
    let r = Simulation::run_sampled(
        &cfg,
        MmuConfig::default(),
        Some(mv_sim::TelemetryConfig {
            epoch_len: 2_000,
            flight_capacity: 0,
        }),
        SPEC,
    )
    .expect("sampled observed run");
    let t = r.telemetry.expect("telemetry collected");
    let measured = r.sample.expect("summary").measured_accesses;
    let spanned: u64 = t.epochs().iter().map(EpochSnapshot::span).sum();
    assert_eq!(
        spanned, measured,
        "epochs partition the measured accesses, not the configured total"
    );
}
