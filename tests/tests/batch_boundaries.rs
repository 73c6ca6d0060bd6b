//! Differential proof of the batched driver's boundary invariants.
//!
//! The driver services accesses in batches (spans), re-checking the
//! warmup boundary, the churn schedule and the sampling schedule only at
//! span heads (see `Schedule::span` in `mv-sim`);
//! `Simulation::run_reference_paced` forces the pre-batching
//! access-at-a-time pacing through the *same* loop. For configurations
//! engineered so that churn events, chaos injections, sampling phase
//! edges and telemetry epoch snapshots land exactly on batch boundaries
//! — and mid-batch, and on the warmup boundary itself — the two pacings
//! must produce byte-identical results: the same CSV row and the same
//! telemetry JSONL export, event for event.

use mv_chaos::ChaosSpec;
use mv_core::MmuConfig;
use mv_obs::TelemetryConfig;
use mv_sim::{SampleSpec, SimConfig, Simulation};
use mv_types::MIB;
use mv_workloads::WorkloadKind;

use mv_bench::experiments::env_catalog::{NATIVE_4K, SHADOW_4K, VIRT_4K_4K};

/// Memcached's churn schedule is 45 000 events per million accesses —
/// an interval of 22 — so warmups and epoch lengths chosen as multiples
/// of 22 put churn events exactly on the boundaries under test.
const CHURN_INTERVAL: u64 = 22;

fn cfg(
    workload: WorkloadKind,
    (paging, env): (mv_sim::GuestPaging, mv_sim::Env),
    accesses: u64,
    warmup: u64,
) -> SimConfig {
    SimConfig {
        workload,
        footprint: 24 * MIB,
        guest_paging: paging,
        env,
        accesses,
        warmup,
        seed: 42,
    }
}

/// The instruments a pacing comparison runs with, beyond telemetry.
#[derive(Clone, Copy, Default)]
struct Mode {
    chaos: Option<ChaosSpec>,
    sample: Option<SampleSpec>,
}

/// Everything observable about one run as a byte string.
fn fingerprint(cfg: &SimConfig, telemetry: TelemetryConfig, mode: Mode, batched: bool) -> Vec<u8> {
    let hw = MmuConfig::default();
    let t = Some(telemetry);
    let r = match (batched, mode.chaos, mode.sample) {
        (true, Some(spec), _) => Simulation::run_chaos(cfg, hw, t, spec),
        (true, None, Some(spec)) => Simulation::run_sampled(cfg, hw, t, spec),
        (true, None, None) => Simulation::run_observed(cfg, hw, telemetry),
        (false, chaos, sample) => Simulation::run_reference_paced(cfg, hw, t, chaos, sample),
    }
    .expect("run completes");
    let mut out = Vec::new();
    out.extend_from_slice(r.csv_row().as_bytes());
    out.push(b'\n');
    r.telemetry
        .as_ref()
        .expect("run is observed")
        .write_jsonl(&mut out)
        .expect("telemetry serializes");
    if let Some(report) = &r.chaos {
        out.extend_from_slice(format!("{report:?}").as_bytes());
    }
    if let Some(summary) = &r.sample {
        out.extend_from_slice(format!("{summary:?}").as_bytes());
    }
    out
}

fn assert_pacing_equivalent(label: &str, cfg: &SimConfig, telemetry: TelemetryConfig, mode: Mode) {
    let batched = fingerprint(cfg, telemetry, mode, true);
    let reference = fingerprint(cfg, telemetry, mode, false);
    assert!(
        batched == reference,
        "{label}: batched and access-at-a-time pacing diverged \
         (batched {} bytes, reference {} bytes)",
        batched.len(),
        reference.len()
    );
}

#[test]
fn churn_heavy_run_with_events_on_batch_boundaries() {
    // Warmup is a churn multiple, so a churn event is due exactly at the
    // warmup boundary (the driver must fire it *after* the counter
    // reset, inside the measured window); the epoch length is a churn
    // multiple too, so epoch snapshots coincide with batch heads.
    let c = cfg(
        WorkloadKind::Memcached,
        VIRT_4K_4K,
        100 * CHURN_INTERVAL,
        100 * CHURN_INTERVAL,
    );
    let t = TelemetryConfig {
        epoch_len: 10 * CHURN_INTERVAL,
        flight_capacity: 4,
    };
    assert_pacing_equivalent("churn-on-boundary", &c, t, Mode::default());
}

#[test]
fn churn_events_landing_mid_epoch_and_mid_warmup() {
    // Nothing aligns: warmup and epoch length are coprime to the churn
    // interval, so every event lands mid-batch somewhere.
    let c = cfg(WorkloadKind::Memcached, VIRT_4K_4K, 2_001, 777);
    let t = TelemetryConfig {
        epoch_len: 500,
        flight_capacity: 2,
    };
    assert_pacing_equivalent("churn-mid-batch", &c, t, Mode::default());
}

#[test]
fn zero_warmup_boundary_at_access_zero() {
    // The warmup boundary degenerates onto access 0, where the batched
    // loop's boundary block and the first batch head coincide.
    let c = cfg(WorkloadKind::Memcached, SHADOW_4K, 1_100, 0);
    let t = TelemetryConfig {
        epoch_len: CHURN_INTERVAL,
        flight_capacity: 0,
    };
    assert_pacing_equivalent("zero-warmup", &c, t, Mode::default());
}

#[test]
fn churn_free_run_is_two_whole_batches() {
    // Gups never churns: the batched driver takes exactly two batches
    // (boot→warmup, warmup→end) while the reference paces one by one.
    let c = cfg(WorkloadKind::Gups, NATIVE_4K, 3_000, 1_000);
    let t = TelemetryConfig {
        epoch_len: 750,
        flight_capacity: 8,
    };
    assert_pacing_equivalent("churn-free", &c, t, Mode::default());
}

#[test]
fn chaos_injections_pin_batches_to_single_accesses() {
    // An active chaos spec must force per-access pacing in the batched
    // driver (injection and the oracle hook around every access), so
    // both pacings take the identical path — including when injections
    // coincide with churn indices (fault interval 44 = 2 × churn 22).
    let c = cfg(
        WorkloadKind::Memcached,
        VIRT_4K_4K,
        50 * CHURN_INTERVAL,
        10 * CHURN_INTERVAL,
    );
    let t = TelemetryConfig {
        epoch_len: 5 * CHURN_INTERVAL,
        flight_capacity: 2,
    };
    let spec = ChaosSpec::new(7, 1_000_000 / 44);
    let mode = Mode {
        chaos: Some(spec),
        sample: None,
    };
    assert_pacing_equivalent("chaos-per-access", &c, t, mode);
}

#[test]
fn sampled_phase_edges_on_churn_events_and_the_warmup_boundary() {
    // Warmup and every edge of the sampling schedule are churn
    // multiples: the first window opens at the warmup boundary together
    // with a churn event, and each later edge (window end, warm-tail
    // start, interval end) coincides with one too — so every fidelity
    // switch shares its span head with a churn event.
    let c = cfg(
        WorkloadKind::Memcached,
        VIRT_4K_4K,
        100 * CHURN_INTERVAL,
        10 * CHURN_INTERVAL,
    );
    let t = TelemetryConfig {
        epoch_len: 5 * CHURN_INTERVAL,
        flight_capacity: 2,
    };
    let mode = Mode {
        chaos: None,
        sample: Some(SampleSpec {
            window: 2 * CHURN_INTERVAL,
            interval: 10 * CHURN_INTERVAL,
            warmup: 3 * CHURN_INTERVAL,
        }),
    };
    assert_pacing_equivalent("sampled-on-churn", &c, t, mode);
}

#[test]
fn sampled_phase_edges_mid_span() {
    // Nothing aligns: warmup, window, interval and re-warm tail are all
    // coprime to the churn interval, so churn events split detailed
    // windows, functional gaps and warm tails mid-span.
    let c = cfg(WorkloadKind::Memcached, SHADOW_4K, 2_001, 777);
    let t = TelemetryConfig {
        epoch_len: 101,
        flight_capacity: 0,
    };
    let mode = Mode {
        chaos: None,
        sample: Some(SampleSpec {
            window: 53,
            interval: 301,
            warmup: 37,
        }),
    };
    assert_pacing_equivalent("sampled-mid-span", &c, t, mode);
}
