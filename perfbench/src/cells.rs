//! The benchmark's workloads: which simulator configurations each one
//! runs, under benchmark-owned names.
//!
//! Envs and cells are keyed by names made here, never by
//! `SimConfig::label()`: two environments can render the same label
//! (both shadow nested sizes print `4K+shadow`), and a record keyed by
//! label would then hold two rows under one key.

use std::collections::BTreeSet;

use mv_chaos::ChaosSpec;
use mv_core::{MmuConfig, TranslationMode};
use mv_sim::{
    AdaptSpec, Env, GridCell, GuestPaging, RunResult, SampleSpec, SimConfig, SimError, Simulation,
};
use mv_types::{PageSize, GIB, MIB};
use mv_workloads::WorkloadKind;

/// One execution environment under its benchmark name.
#[derive(Debug, Clone, Copy)]
pub struct NamedEnv {
    pub name: &'static str,
    pub paging: GuestPaging,
    pub env: Env,
}

const G4K: GuestPaging = GuestPaging::Fixed(PageSize::Size4K);
const G2M: GuestPaging = GuestPaging::Fixed(PageSize::Size2M);

const fn virt(
    name: &'static str,
    paging: GuestPaging,
    nested: PageSize,
    mode: TranslationMode,
) -> NamedEnv {
    NamedEnv {
        name,
        paging,
        env: Env::Virtualized { nested, mode },
    }
}

const fn l2(name: &'static str, guest_ds: bool, mid_ds: bool, host_ds: bool) -> NamedEnv {
    NamedEnv {
        name,
        paging: G4K,
        env: Env::l2_sized(
            guest_ds,
            mid_ds,
            host_ds,
            PageSize::Size4K,
            PageSize::Size4K,
        ),
    }
}

const BASE: TranslationMode = TranslationMode::BaseVirtualized;

const NATIVE_4K: NamedEnv = NamedEnv {
    name: "native-4k",
    paging: G4K,
    env: Env::Native {
        direct_segment: false,
    },
};
const NATIVE_DS: NamedEnv = NamedEnv {
    name: "native-ds",
    paging: G4K,
    env: Env::Native {
        direct_segment: true,
    },
};
const V4K_4K: NamedEnv = virt("4k-4k", G4K, PageSize::Size4K, BASE);
const V4K_2M: NamedEnv = virt("4k-2m", G4K, PageSize::Size2M, BASE);
const V2M_2M: NamedEnv = virt("2m-2m", G2M, PageSize::Size2M, BASE);
const VD: NamedEnv = virt("4k-vd", G4K, PageSize::Size4K, TranslationMode::VmmDirect);
const GD: NamedEnv = virt("4k-gd", G4K, PageSize::Size4K, TranslationMode::GuestDirect);
const DD: NamedEnv = virt("dd", G4K, PageSize::Size4K, TranslationMode::DualDirect);
const SHADOW_4K: NamedEnv = NamedEnv {
    name: "4k-shadow-4k",
    paging: G4K,
    env: Env::Shadow {
        nested: PageSize::Size4K,
    },
};
const L2_3D: NamedEnv = l2("l2-3d", false, false, false);
const L2_MID_DIRECT: NamedEnv = l2("l2-mid-direct", false, true, false);
const L2_MID_HOST: NamedEnv = l2("l2-mid-host-direct", false, true, true);
const L2_TRIPLE: NamedEnv = l2("l2-triple-direct", true, true, true);
const L2_SHADOW: NamedEnv = NamedEnv {
    name: "l2-shadow",
    paging: G4K,
    env: Env::L2 {
        mid: PageSize::Size4K,
        nested: PageSize::Size4K,
        mode: TranslationMode::L2Nested {
            guest_ds: false,
            mid_ds: false,
            host_ds: false,
        },
        strategy: mv_sim::L2Strategy::ShadowOnNested,
    },
};

/// Every env any workload uses; per-env layer metrics are keyed by these.
pub const ALL_ENVS: [NamedEnv; 14] = [
    NATIVE_4K,
    NATIVE_DS,
    V4K_4K,
    V4K_2M,
    V2M_2M,
    VD,
    GD,
    DD,
    SHADOW_4K,
    L2_3D,
    L2_MID_DIRECT,
    L2_MID_HOST,
    L2_TRIPLE,
    L2_SHADOW,
];

/// What a cell runs: which `Simulation::run*` entry it selects.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    Plain,
    Chaos(ChaosSpec),
    Sampled(SampleSpec),
    Adaptive(ChaosSpec, AdaptSpec),
}

/// One cell of a workload: a configuration under a unique name.
#[derive(Debug, Clone)]
pub struct Cell {
    pub name: String,
    pub env: &'static str,
    pub cfg: SimConfig,
    pub mode: Mode,
}

impl Cell {
    /// Runs the cell through the `Simulation::run*` entry its mode selects.
    pub fn run(&self) -> Result<RunResult, SimError> {
        let hw = MmuConfig::default();
        match self.mode {
            Mode::Plain => Simulation::run_with_mmu(&self.cfg, hw),
            Mode::Chaos(chaos) => Simulation::run_chaos(&self.cfg, hw, None, chaos),
            Mode::Sampled(spec) => Simulation::run_sampled(&self.cfg, hw, None, spec),
            Mode::Adaptive(chaos, adapt) => {
                Simulation::run_adaptive(&self.cfg, hw, None, Some(chaos), adapt)
            }
        }
    }

    /// The same cell as a grid cell for `Simulation::run_grid`.
    pub fn grid_cell(&self) -> GridCell {
        let cell = GridCell::new(self.cfg);
        match self.mode {
            Mode::Plain => cell,
            Mode::Chaos(chaos) => cell.with_chaos(chaos),
            Mode::Sampled(spec) => cell.sampled(spec),
            Mode::Adaptive(chaos, adapt) => cell.with_chaos(chaos).adaptive(adapt),
        }
    }

    /// Simulated accesses, warmup included.
    pub fn total_accesses(&self) -> u64 {
        self.cfg.warmup + self.cfg.accesses
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WalkHeavy,
    TlbResident,
    ChurnFault,
    StudyGrid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WalkHeavy,
        Workload::TlbResident,
        Workload::ChurnFault,
        Workload::StudyGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WalkHeavy => "walk-heavy",
            Workload::TlbResident => "tlb-resident",
            Workload::ChurnFault => "churn-fault",
            Workload::StudyGrid => "study-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells for `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            // Uniform random over 256 MiB, far past L2-TLB reach: about
            // half the accesses walk, and there are no faults after
            // prefill, so the walker does most of the host work.
            Workload::WalkHeavy => serial(
                &[(WorkloadKind::Gups, 256 * MIB)],
                &[
                    NATIVE_4K,
                    V4K_4K,
                    V4K_2M,
                    V2M_2M,
                    VD,
                    GD,
                    DD,
                    SHADOW_4K,
                    L2_3D,
                    L2_MID_DIRECT,
                ],
                (100_000, 250_000),
                seed,
            ),
            // 1 MiB, inside L2-TLB reach: no walks after warmup, so
            // access generation and TLB probes dominate.
            Workload::TlbResident => serial(
                &[
                    (WorkloadKind::Streamcluster, MIB),
                    (WorkloadKind::Graph500, MIB),
                ],
                &[V4K_4K, DD, SHADOW_4K],
                (100_000, 1_900_000),
                seed,
            ),
            // Guest map/unmap churn every 22 (memcached) and 47 (omnetpp)
            // accesses at 1 GiB: prefill, fault servicing and the TLB
            // invalidations churn causes carry the load.
            Workload::ChurnFault => serial(
                &[(WorkloadKind::Memcached, GIB), (WorkloadKind::Omnetpp, GIB)],
                &[V4K_4K, GD, SHADOW_4K],
                (100_000, 700_000),
                seed,
            ),
            Workload::StudyGrid => study_grid(seed),
        }
    }
}

/// Every (workload kind, footprint) × env, plain runs.
fn serial(
    kinds: &[(WorkloadKind, u64)],
    envs: &[NamedEnv],
    (warmup, accesses): (u64, u64),
    seed: u64,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(kind, footprint) in kinds {
        for env in envs {
            cells.push(Cell {
                name: format!("{}.{}", kind_name(kind), env.name),
                env: env.name,
                cfg: SimConfig {
                    workload: kind,
                    footprint,
                    guest_paging: env.paging,
                    env: env.env,
                    accesses,
                    warmup,
                    seed,
                },
                mode: Mode::Plain,
            });
        }
    }
    cells
}

/// Chaos fault rates per million accesses, as in the degradation study.
const GRID_RATES: [u64; 2] = [1_000, 10_000];

/// The sampled schedule: a fifth of the measured accesses detailed.
const GRID_SAMPLE: SampleSpec = SampleSpec {
    window: 2_000,
    interval: 10_000,
    warmup: 500,
};

/// A ragged sweep shaped like the degradation study's grid: per env a
/// plain cell and chaos cells (per-access drive plus oracle), sampled
/// cells on the envs whose 2% sampled-error bound the repository's tests
/// establish, and adaptive cells on segment-bearing envs.
fn study_grid(seed: u64) -> Vec<Cell> {
    const CHAOS_SEED: u64 = 0xc4a05;
    let envs = [
        NATIVE_DS,
        V4K_4K,
        VD,
        GD,
        DD,
        SHADOW_4K,
        L2_TRIPLE,
        L2_MID_HOST,
        L2_SHADOW,
    ];
    let sampled = ["native-ds", "4k-4k", "4k-vd", "4k-gd", "dd", "4k-shadow-4k"];
    let adaptive = ["dd", "4k-vd", "l2-triple-direct"];
    let (warmup, accesses) = (30_000, 60_000);
    let mut cells = Vec::new();
    for env in envs {
        let cfg = SimConfig {
            workload: WorkloadKind::Gups,
            footprint: 32 * MIB,
            guest_paging: env.paging,
            env: env.env,
            accesses,
            warmup,
            seed,
        };
        let mut push = |suffix: String, mode| {
            cells.push(Cell {
                name: format!("gups.{}.{suffix}", env.name),
                env: env.name,
                cfg,
                mode,
            });
        };
        push("plain".into(), Mode::Plain);
        for rate in GRID_RATES {
            push(
                format!("chaos-{rate}"),
                Mode::Chaos(ChaosSpec::new(CHAOS_SEED, rate)),
            );
        }
        if sampled.contains(&env.name) {
            push("sampled".into(), Mode::Sampled(GRID_SAMPLE));
        }
        if adaptive.contains(&env.name) {
            let storm =
                ChaosSpec::new(CHAOS_SEED, 2_000).with_storm(warmup + accesses / 4, accesses / 4);
            let adapt = AdaptSpec {
                epoch_len: 2_000,
                seed: 0xada7,
                config: mv_sim::ControllerConfig::default(),
            };
            push("adaptive".into(), Mode::Adaptive(storm, adapt));
        }
    }
    cells
}

/// The workload kind's name, restricted to the benchmark's key alphabet.
fn kind_name(kind: WorkloadKind) -> String {
    kind.label().replace(':', "-")
}

/// Whether `name` is a valid key: letters, digits, `_`, `.` and `-`.
fn valid_key(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Start-up check: every env and every cell of every workload has a valid
/// and unique name.
pub fn check_keys() -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for env in ALL_ENVS {
        if !valid_key(env.name) || !seen.insert(env.name.to_string()) {
            return Err(format!("env name {:?} is invalid or duplicated", env.name));
        }
    }
    for w in Workload::ALL {
        let mut seen = BTreeSet::new();
        for cell in w.cells(0) {
            if !valid_key(&cell.name) || !seen.insert(cell.name.clone()) {
                return Err(format!(
                    "{}: cell name {:?} is invalid or duplicated",
                    w.name(),
                    cell.name
                ));
            }
        }
    }
    Ok(())
}
