//! General-purpose configuration runner: run any workload under any
//! environment from the command line and print the full measurement.
//!
//! ```text
//! cargo run --release -p mv-bench --bin run -- \
//!     --workload graph500 --env dd --footprint 512M --accesses 1000000
//! ```
//!
//! Options:
//!
//! * `--workload <name>` — one of the Table V names
//!   (graph500, memcached, npb:cg, gups, mcf, omnetpp, cactusADM,
//!   GemsFDTD, canneal, streamcluster). Default: graph500.
//! * `--env <cfg>` — `native`, `ds`, `shadow`, `vd`, `gd`, `dd`, or a
//!   page-size pair like `4k+4k`, `4k+2m`, `2m+1g`. Default: 4k+4k.
//! * `--guest <4k|2m|1g|thp>` — guest paging policy. Default: 4k.
//! * `--footprint <N[K|M|G]>` — arena size. Default: 512M.
//! * `--accesses <N>` / `--warmup <N>` — window sizes.
//! * `--seed <N>` — workload seed.
//! * `--trials <N>` — run N independent trials of the configuration,
//!   seeding trial t with `split_seed(seed, t)`, and report per-trial
//!   rows plus the merged measurement. Default 1 (single run, seed used
//!   directly, output unchanged from earlier versions).
//! * `--jobs <N>` — worker threads for the trial grid (default: available
//!   parallelism). Output is byte-identical for every value of `--jobs`.
//! * `--quick` — small smoke-run defaults (64M footprint, 100k accesses,
//!   25k warmup); explicit sizing flags still override.
//! * `--quiet` — suppress progress lines on stderr.
//! * `--telemetry-out <PATH>` — attach walk-event telemetry over the
//!   measured window, write epoch snapshots (and any flight-recorder
//!   events) as JSONL to `PATH`, and print a Prometheus-style counter
//!   dump to stdout after the report. With `--trials`, the written
//!   telemetry is the deterministic merge over all trials.
//! * `--profile` — attach the walk-cost attribution profiler: per-epoch
//!   and run-total matrices of modeled cycles per (guest level × nested
//!   level) cell plus TLB/PWC hit tiers and VM-exit costs. The profile
//!   lines are appended to the `--telemetry-out` JSONL (readers dispatch
//!   on `"type"`), and a cost-split summary joins the report. With
//!   `--trials`, profiles merge associatively, so the output is
//!   byte-identical for any `--jobs` value.
//! * `--folded-out <PATH>` — write the profile as folded stacks
//!   (`gva;gL4;ref 160` lines) for flamegraph tooling. Implies nothing
//!   else; requires `--profile`.
//! * `--epoch-len <N>` — accesses per telemetry/profile epoch
//!   (default 10000). Zero is rejected at parse time: a zero-length
//!   epoch would silently drop every walk event from the epoch stream.
//! * `--sample <WINDOW:INTERVAL:WARMUP>` — sampled fast-forward: run
//!   detailed measurement for WINDOW accesses out of every INTERVAL,
//!   fast-forward the gap functionally, and re-warm the measurement
//!   state for WARMUP accesses before each window. Reported counters
//!   are scaled to full-run estimates (within 2% of full fidelity on
//!   the PAPER_10 catalog; see EXPERIMENTS.md). Telemetry, the
//!   profiler and trace record/replay ride along (telemetry and the
//!   profile cover the measured windows); chaos needs every access
//!   detailed and is rejected.
//! * `--trace <N>` — keep the last N walk events in a flight recorder
//!   (exported into the JSONL file; cleared by a `--trials` merge).
//!   Default 0 (off).
//! * `--fault-rate <N>` — enable chaos: inject N faults per million
//!   accesses under the translation oracle and print the chaos report.
//!   Default 0 (off — output stays byte-identical to earlier versions).
//! * `--chaos-seed <N>` — fault-plan seed (default 0xc4a05); only
//!   meaningful with a non-zero `--fault-rate`.
//! * `--record-trace <PATH>` — tee every workload access (warmup and
//!   measured) into a compact binary trace at `PATH` (format:
//!   `docs/TRACE_FORMAT.md`). Recording rides outside the measured
//!   path, so the printed measurement is unchanged. Requires
//!   `--trials 1`: parallel trials would interleave their streams
//!   into one file.
//! * `--replay-trace <PATH>` — drive the run from a recorded trace
//!   instead of a live generator. The trace header supplies the
//!   workload, footprint, seed, and suggested warmup/measured window
//!   as defaults; explicit flags still override the window (the
//!   stream loops if the run asks for more accesses than the trace
//!   holds), but the footprint must match the trace's. Mutually
//!   exclusive with `--record-trace`.

use std::io::Write;

use mv_bench::experiments::env_catalog;
use mv_chaos::ChaosSpec;
use mv_par::{cli, Reporter};
use mv_prof::fold_profile;
use mv_sim::{
    GridCell, GuestPaging, ProfileConfig, ReplaySource, SampleSpec, SharedTraceWriter, SimConfig,
    Simulation, TelemetryConfig, TraceHeader,
};
use mv_types::{PageSize, GIB, KIB, MIB};
use mv_workloads::WorkloadKind;

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], KIB),
        'm' | 'M' => (&s[..s.len() - 1], MIB),
        'g' | 'G' => (&s[..s.len() - 1], GIB),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

fn parse_page(s: &str) -> Option<PageSize> {
    match s.to_ascii_lowercase().as_str() {
        "4k" => Some(PageSize::Size4K),
        "2m" => Some(PageSize::Size2M),
        "1g" => Some(PageSize::Size1G),
        _ => None,
    }
}

fn parse_workload(s: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(s))
}

fn usage() -> ! {
    eprintln!(
        "usage: run [--workload NAME] [--env native|ds|shadow|vd|gd|dd|4k+4k|...]\n\
         \x20          [--guest 4k|2m|1g|thp] [--footprint N[K|M|G]]\n\
         \x20          [--accesses N] [--warmup N] [--seed N] [--csv]\n\
         \x20          [--trials N] [--jobs N] [--quick] [--quiet]\n\
         \x20          [--telemetry-out PATH] [--epoch-len N] [--trace N]\n\
         \x20          [--profile] [--folded-out PATH]\n\
         \x20          [--sample WINDOW:INTERVAL:WARMUP]\n\
         \x20          [--fault-rate N] [--chaos-seed N]\n\
         \x20          [--record-trace PATH] [--replay-trace PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload: Option<WorkloadKind> = None;
    let mut env = env_catalog::VIRT_4K_4K.1;
    let mut guest = GuestPaging::Fixed(PageSize::Size4K);
    let mut footprint: Option<u64> = None;
    let mut accesses: Option<u64> = None;
    let mut warmup: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut csv = false;
    let mut quick = false;
    let mut quiet = false;
    let mut trials = 1u64;
    let mut jobs = mv_par::default_jobs();
    let mut telemetry_out: Option<String> = None;
    let mut epoch_len = 10_000u64;
    let mut flight = 0usize;
    let mut profile = false;
    let mut folded_out: Option<String> = None;
    let mut record_trace: Option<String> = None;
    let mut replay_trace: Option<String> = None;
    let mut sample: Option<SampleSpec> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    // Chaos flags are parsed by the shared mv_par::cli helpers; both
    // default to off/fixed so chaos-free output is unchanged.
    let numeric_opt = |flag: &str| {
        cli::parse_u64_opt(&args, flag).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        })
    };
    let fault_rate = numeric_opt("--fault-rate").unwrap_or(0);
    let chaos_seed = numeric_opt("--chaos-seed").unwrap_or(0xc4a05);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .as_str()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload");
                workload = Some(parse_workload(v).unwrap_or_else(|| {
                    eprintln!("unknown workload {v:?}");
                    usage()
                }));
            }
            "--env" => {
                let v = value("--env");
                env = env_catalog::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown env {v:?}");
                    usage()
                });
            }
            "--guest" => {
                let v = value("--guest");
                guest = if v.eq_ignore_ascii_case("thp") {
                    GuestPaging::Thp
                } else {
                    GuestPaging::Fixed(parse_page(v).unwrap_or_else(|| {
                        eprintln!("unknown guest paging {v:?}");
                        usage()
                    }))
                };
            }
            "--footprint" => {
                let v = value("--footprint");
                footprint = Some(parse_size(v).unwrap_or_else(|| {
                    eprintln!("bad size {v:?}");
                    usage()
                }));
            }
            "--accesses" => {
                accesses = Some(value("--accesses").parse().unwrap_or_else(|_| usage()))
            }
            "--warmup" => warmup = Some(value("--warmup").parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = Some(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--trials" => {
                trials = value("--trials").parse().unwrap_or_else(|_| usage());
                if trials == 0 {
                    eprintln!("--trials must be at least 1");
                    usage();
                }
            }
            "--jobs" => {
                jobs = value("--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("--jobs wants a positive worker count");
                    usage()
                });
            }
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--csv" => csv = true,
            // Already parsed above; consume the value token here.
            "--fault-rate" | "--chaos-seed" => {
                value(flag);
            }
            "--telemetry-out" => telemetry_out = Some(value("--telemetry-out").to_string()),
            "--epoch-len" => {
                epoch_len = value("--epoch-len").parse().unwrap_or_else(|_| usage());
                // A zero-length epoch used to silently drop every walk
                // event from the epoch stream; reject it up front with
                // the library's own validation error.
                if let Err(e) = mv_sim::TelemetryConfig::new(epoch_len, 0) {
                    eprintln!("--epoch-len: {e}");
                    usage();
                }
            }
            "--trace" => flight = value("--trace").parse().unwrap_or_else(|_| usage()),
            "--profile" => profile = true,
            "--folded-out" => folded_out = Some(value("--folded-out").to_string()),
            "--record-trace" => record_trace = Some(value("--record-trace").to_string()),
            "--replay-trace" => replay_trace = Some(value("--replay-trace").to_string()),
            "--sample" => {
                let v = value("--sample");
                sample = Some(SampleSpec::parse(v).unwrap_or_else(|e| {
                    eprintln!("--sample {v:?}: {e}");
                    usage()
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    if folded_out.is_some() && !profile {
        eprintln!("--folded-out needs --profile (there is no profile to fold)");
        usage();
    }
    if record_trace.is_some() && replay_trace.is_some() {
        eprintln!("--record-trace and --replay-trace are mutually exclusive");
        usage();
    }
    if record_trace.is_some() && trials > 1 {
        eprintln!("--record-trace needs --trials 1 (parallel trials would interleave one file)");
        usage();
    }

    // Replaying: the trace header supplies the workload identity and the
    // suggested run window as *defaults* — explicit flags still win.
    let replay_src = replay_trace.as_ref().map(ReplaySource::path);
    let replay_header = replay_src.as_ref().map(|src| {
        src.header().unwrap_or_else(|e| {
            eprintln!("cannot read trace {}: {e}", src.describe());
            std::process::exit(1);
        })
    });
    let header_window = replay_header.as_ref().filter(|h| h.accesses > 0);

    let workload = workload
        .or_else(|| replay_header.as_ref().and_then(TraceHeader::workload_kind))
        .unwrap_or(WorkloadKind::Graph500);
    let seed = seed
        .or(replay_header.as_ref().map(|h| h.seed))
        .unwrap_or(42);
    let footprint = footprint
        .or(replay_header.as_ref().map(|h| h.footprint))
        .unwrap_or(if quick { 64 * MIB } else { 512 * MIB });
    let accesses = accesses
        .or(header_window.map(|h| h.accesses))
        .unwrap_or(if quick { 100_000 } else { 1_000_000 });
    let warmup = warmup
        .or(header_window.map(|h| h.warmup))
        .unwrap_or(if quick { 25_000 } else { 250_000 });

    let cfg = SimConfig {
        workload,
        footprint,
        guest_paging: guest,
        env,
        accesses,
        warmup,
        seed,
    };
    let reporter = Reporter::new(quiet);
    reporter.line(format!(
        "running {} / {} (footprint {} MiB, {} accesses after {} warmup, seed {seed}, {trials} trial(s))...",
        workload.label(),
        cfg.label(),
        footprint / MIB,
        accesses,
        warmup
    ));
    if let (Some(src), Some(h)) = (&replay_src, &replay_header) {
        reporter.line(format!(
            "replaying trace {} (recorded from {:?}, footprint {} MiB)",
            src.describe(),
            h.name,
            h.footprint / MIB
        ));
    }
    // Recording: the header carries the generator's replay metadata
    // (ideal cycles, churn, duplicate fraction) so a later replay of the
    // file reproduces this run byte for byte.
    let recorder = record_trace.as_ref().map(|path| {
        let header = TraceHeader::for_workload(workload, footprint, seed, warmup, accesses);
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        SharedTraceWriter::create(Box::new(std::io::BufWriter::new(file)), &header)
            .unwrap_or_else(|e| {
                eprintln!("cannot start trace {path}: {e}");
                std::process::exit(1);
            })
    });
    let observe = telemetry_out.is_some() || flight > 0;
    let tcfg = TelemetryConfig {
        epoch_len,
        flight_capacity: flight,
    };

    // A single trial reproduces the classic one-shot run exactly (the seed
    // is used directly); `--trials N` derives trial t's seed from
    // `split_seed(seed, t)` so every cell is an independent stream and the
    // grid can run on any number of workers with byte-identical output.
    let cells: Vec<GridCell> = (0..trials)
        .map(|t| {
            let mut cell = GridCell::new(cfg);
            if trials > 1 {
                cell = cell.trial(t);
            }
            if observe {
                cell = cell.observed(tcfg);
            }
            if profile {
                cell = cell.profiled(ProfileConfig { epoch_len });
            }
            if fault_rate > 0 {
                cell = cell.with_chaos(ChaosSpec::new(chaos_seed, fault_rate));
            }
            if let Some(src) = &replay_src {
                cell = cell.replayed(src.clone());
            }
            if let Some(rec) = &recorder {
                cell = cell.recorded(rec.clone());
            }
            if let Some(spec) = sample {
                cell = cell.sampled(spec);
            }
            cell
        })
        .collect();
    let report = Simulation::run_grid_reported(&cells, jobs, &reporter);
    // Failures are contained to their row: report each one with enough
    // context to re-run it alone (env label + effective trial seed),
    // finish the sweep with whatever succeeded, and exit nonzero below.
    let failed = report.failures().count();
    for (i, failure) in report.failures() {
        eprintln!(
            "trial {i} ({} seed {}) failed: {failure}",
            cells[i].cfg.label(),
            cells[i].cfg.seed
        );
    }
    let fail_exit = move || -> ! {
        eprintln!("{failed} of {trials} trial(s) failed");
        std::process::exit(1);
    };
    let r = match report.merged() {
        Some(r) => r,
        None => {
            eprintln!("simulation failed: no trial succeeded");
            fail_exit();
        }
    };

    // Seal the recorded trace before any other output: a deferred write
    // error must fail the run rather than leave a truncated file behind
    // silently.
    if let (Some(path), Some(rec)) = (&record_trace, &recorder) {
        match rec.finish() {
            Ok(n) => reporter.line(format!("recorded {n} accesses to {path}")),
            Err(e) => {
                eprintln!("recording to {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let (Some(path), Some(t)) = (&telemetry_out, &r.telemetry) {
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        t.write_jsonl(&mut f).expect("telemetry write");
        // Profile lines ride the same JSONL file: every reader in the
        // workspace dispatches on the "type" field, so the streams coexist.
        if let Some(p) = &r.profile {
            p.write_jsonl(&mut f).expect("profile write");
        }
        f.flush().expect("telemetry flush");
        reporter.line(format!(
            "wrote {} epoch snapshots, {} flight events, and {} profile epochs to {path}",
            t.epochs().len(),
            t.flight().len(),
            r.profile.as_ref().map_or(0, |p| p.epochs().len()),
        ));
    }

    if let (Some(path), Some(p)) = (&folded_out, &r.profile) {
        std::fs::write(path, fold_profile(p)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        reporter.line(format!("wrote folded stacks to {path}"));
    }

    if csv {
        // One row per successful trial, in cell order — byte-identical
        // output for any `--jobs` value (the CI determinism check diffs
        // this against itself at different worker counts).
        println!("{}", mv_sim::RunResult::csv_header());
        for trial in report.results() {
            println!("{}", trial.csv_row());
        }
        if failed > 0 {
            fail_exit();
        }
        return;
    }
    if trials > 1 {
        println!(
            "merged over {} of {trials} trials:",
            report.results().count()
        );
    }
    println!("configuration:        {} / {}", r.workload, r.label);
    println!("overhead:             {}", r.overhead_pct());
    println!("translation cycles:   {:.0}", r.translation_cycles);
    println!("ideal cycles:         {:.0}", r.ideal_cycles);
    println!("L1 misses / 1K acc:   {:.1}", r.mpka());
    println!("cycles per miss:      {:.1}", r.cycles_per_miss());
    println!("walks (L2 misses):    {}", r.counters.l2_misses);
    println!("walk refs (g/n):      {} / {}", r.counters.guest_walk_refs, r.counters.nested_walk_refs);
    println!("bound checks:         {}", r.counters.bound_checks);
    println!(
        "miss categories:      both={} vmm={} guest={} neither={} ds={}",
        r.counters.cat_both,
        r.counters.cat_vmm_only,
        r.counters.cat_guest_only,
        r.counters.cat_neither,
        r.counters.ds_hits
    );
    println!(
        "coverage fractions:   F_DD={:.3} F_VD={:.3} F_GD={:.3} F_DS={:.3}",
        r.f_dd(),
        r.f_vd(),
        r.f_gd(),
        r.f_ds()
    );
    println!("escape-filter hits:   {}", r.counters.escape_hits);
    println!("VM exits:             {}", r.vm_exits);
    let (nl, nh) = r.nested_l2;
    println!("nested L2 (lkup/hit): {nl} / {nh}");
    if let Some(s) = &r.sample {
        println!(
            "sampled:              {} of {} accesses measured ({}:{}:{} window:interval:warmup); counters are scaled estimates",
            s.measured_accesses, r.accesses, s.spec.window, s.spec.interval, s.spec.warmup
        );
    }

    if let Some(p) = &r.profile {
        let m = p.total();
        let pct = |part: u64| {
            if m.total_cycles == 0 {
                0.0
            } else {
                100.0 * part as f64 / m.total_cycles as f64
            }
        };
        println!(
            "profile:              {} walk events over {} epochs",
            m.events,
            p.epochs().len()
        );
        println!(
            "  attributed:         {} / {} walk cycles ({:.1}%)",
            m.attributed_cycles(),
            m.total_cycles,
            pct(m.attributed_cycles())
        );
        println!(
            "  dimension split:    guest {} ({:.1}%) / nested {} ({:.1}%) cycles",
            m.guest_dimension_cycles(),
            pct(m.guest_dimension_cycles()),
            m.nested_dimension_cycles(),
            pct(m.nested_dimension_cycles())
        );
        println!(
            "  hit tiers:          l2_hit={} nested_tlb={} pwc={} bound={}",
            m.l2_hit_cycles, m.nested_tlb_cycles, m.pwc_cycles, m.bound_check_cycles
        );
        println!(
            "  faults:             {} events costing {} cycles; VM exits {} ({} cycles)",
            m.fault_events(),
            m.fault_cycles,
            p.vm_exits(),
            p.exit_cycles()
        );
    }

    if let Some(c) = &r.chaos {
        println!(
            "chaos:                {} injected, {} transitions, {} recoveries, {} denials",
            c.injected_total(),
            c.transitions,
            c.recoveries,
            c.denials
        );
        println!(
            "  residency (d/e/p):  {} / {} / {} accesses",
            c.residency[0], c.residency[1], c.residency[2]
        );
        println!(
            "  oracle:             {} checks, {} violations{}",
            c.oracle_checks,
            c.oracle_violations,
            if c.survived() { "" } else { "  ** VIOLATED **" }
        );
    }

    if let Some(t) = &r.telemetry {
        println!("walk latency:         {}", t.hist());
    }
    // Telemetry and chaos runs both expose Prometheus counters (the
    // chaos family covers degradation level, oracle checks, and
    // per-kind injections); either instrument alone is enough.
    if let Some(prom) = r.prometheus() {
        println!("\n--- telemetry (Prometheus text exposition) ---");
        print!("{prom}");
    }

    if failed > 0 {
        fail_exit();
    }
}
