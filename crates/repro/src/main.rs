//! `lit-repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! lit-repro [--quick] [--seed N] [--threads N] [--replicas N] [--out DIR] <command>
//!
//! commands:
//!   fig7        max delay/jitter sweep, MIX ON-OFF, AC1/one class
//!   fig8        jitter control vs none, CROSS + Poisson cross traffic
//!   fig9        delay CCDF vs bounds, Poisson session rho = 0.7
//!   fig10       delay CCDF vs bounds, Poisson session rho = 0.33
//!   fig11       same session, Deterministic (CBR) cross traffic
//!   fig12       buffer distribution, session without jitter control
//!   fig13       buffer distribution, session with jitter control
//!   fig14-17    AC2 two-class delay-shifting sweep
//!   tables      §2 admission examples, PGPS equivalence, §4 Stop-and-Go
//!   firewall    victim vs misbehaving bursts across five disciplines
//!   all         everything above
//! ```
//!
//! `--quick` shrinks every run to ~20 simulated seconds and pools 4
//! replicas per distribution experiment for smoke tests; the default
//! reproduces the paper's 5/10-minute horizons with a single replica.
//! Independent runs (sweep points, disciplines, replicas) spread over
//! `--threads N` workers (default: all cores); the thread count never
//! changes results, only wall-clock time. Tables print to stdout and
//! are also written as CSV under `--out` (default `results/`).

#![forbid(unsafe_code)]

use lit_core::Ac3Backend;
use lit_net::OracleMode;
use lit_repro::experiments::{
    ablation, fig14_17, fig7, fig8, fig9_11, firewall, heavytail, tables, RunConfig,
};
use lit_repro::report::Table;
use lit_repro::scenario::Scenario;
use lit_sim::Duration;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    cfg: RunConfig,
    out: PathBuf,
    command: String,
    extra: Vec<String>,
    /// `--metrics FILE`: write the pooled observability metrics JSON here.
    metrics: Option<PathBuf>,
    /// `--trace FILE`: write the pooled packet-lifecycle trace here
    /// (Chrome `trace_event` JSON; `.jsonl` extension selects JSONL).
    trace: Option<PathBuf>,
    /// `--ac3 exact|fast`: vet scenario sessions through per-node
    /// procedure-3 admission before running, dropping rejected sessions.
    ac3: Option<Ac3Backend>,
    /// `--ladder r1,r2,...`: sweep the scenario's `generate` stanzas over
    /// these offered loads with heavy-traffic cross-checks instead of a
    /// single run.
    ladder: Option<Vec<u32>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lit-repro [--quick] [--seconds N] [--seed N] [--threads N] [--replicas N] [--out DIR] \
         [--oracle off|count|panic] [--regulator per-session|interleaved] [--metrics FILE] [--trace FILE] \
         [--ac3 exact|fast] [--ladder R1,R2,...] \
         <fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14-17|fig14-17-ac1|tables|firewall|ablation-queue|heavytail|scenario FILE|all>\n\
         --ac3 applies to `scenario`: establishment is vetted per node by procedure 3 \
         (the exact enumerator or the incremental fast service) and rejected sessions are dropped\n\
         --ladder applies to `scenario`: re-target the file's `generate` stanzas at each offered \
         load (e.g. 0.5,0.8,0.95,1.2) and cross-check utilization, drainage and the delay frontier\n\
         --regulator overrides the eligibility-regulator backend for every network built"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut seconds = None;
    let mut seed = None;
    let mut threads = None;
    let mut replicas = None;
    let mut out = PathBuf::from("results");
    let mut command = None;
    let mut extra = Vec::new();
    let mut metrics = None;
    let mut trace = None;
    let mut ac3 = None;
    let mut ladder = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let num = |it: &mut dyn Iterator<Item = String>| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--seconds" => seconds = Some(num(&mut it)),
            "--seed" => seed = Some(num(&mut it)),
            "--threads" => threads = Some(num(&mut it).max(1) as usize),
            "--replicas" => replicas = Some(num(&mut it).max(1) as u32),
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--metrics" => metrics = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--trace" => trace = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--ac3" => {
                ac3 = Some(
                    it.next()
                        .and_then(|v| v.parse::<Ac3Backend>().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--oracle" => {
                let mode = it
                    .next()
                    .and_then(|v| v.parse::<OracleMode>().ok())
                    .unwrap_or_else(|| usage());
                lit_net::oracle::set_global_mode(mode);
            }
            "--regulator" => {
                let backend = it
                    .next()
                    .and_then(|v| v.parse::<lit_net::RegulatorBackend>().ok())
                    .unwrap_or_else(|| usage());
                lit_net::set_global_regulator(backend);
            }
            "--ladder" => {
                let spec = it.next().unwrap_or_else(|| usage());
                ladder = Some(lit_repro::heavy::parse_ladder(&spec).unwrap_or_else(|e| {
                    eprintln!("--ladder: {e}");
                    std::process::exit(2);
                }));
            }
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            c if !c.starts_with('-') => extra.push(c.to_string()),
            _ => usage(),
        }
    }
    // --quick selects the reduced preset (20 s horizon, 4 pooled
    // replicas); explicit flags override it regardless of order.
    let mut cfg = if quick {
        RunConfig::quick()
    } else {
        RunConfig::paper()
    };
    if let Some(s) = seconds {
        cfg.seconds = Some(s);
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(t) = threads {
        cfg.threads = Some(t);
    }
    if let Some(r) = replicas {
        cfg.replicas = r;
    }
    // Arm the global observability hub before anything builds a network.
    lit_obs::hub::set_global(metrics.is_some() || trace.is_some(), trace.is_some());
    Args {
        cfg,
        out,
        command: command.unwrap_or_else(|| usage()),
        extra,
        metrics,
        trace,
        ac3,
        ladder,
    }
}

/// Vet a parsed scenario through per-node AC3 (`--ac3`): print one
/// verdict per session line and return the scenario with the rejected
/// sessions dropped, or `None` if nothing was admitted.
fn vet_scenario(sc: &Scenario, backend: Ac3Backend) -> Option<Scenario> {
    let verdicts = sc.ac3_vet(backend);
    let keep: Vec<bool> = verdicts.iter().map(|v| v.is_ok()).collect();
    for (i, v) in verdicts.iter().enumerate() {
        match v {
            Ok(()) => println!("ac3[{backend:?}]: session {i} admitted"),
            Err(e) => println!("ac3[{backend:?}]: session {i} REJECTED ({e})"),
        }
    }
    let admitted = keep.iter().filter(|&&k| k).count();
    println!(
        "ac3[{backend:?}]: {admitted}/{} session(s) admitted",
        keep.len()
    );
    if admitted == 0 {
        return None;
    }
    Some(sc.retain_sessions(&keep))
}

/// After the run: flush the pooled observability output to the paths the
/// `--metrics` / `--trace` flags named. Both exports are deterministic
/// for a given seed and workload, independent of `--threads`.
fn write_obs(args: &Args) {
    if let Some(path) = &args.metrics {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, lit_obs::hub::metrics_json()) {
            Ok(()) => eprintln!("[metrics] {}", path.display()),
            Err(e) => eprintln!("[metrics] failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.trace {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        let body = if path.extension().is_some_and(|e| e == "jsonl") {
            lit_obs::hub::trace_jsonl()
        } else {
            lit_obs::hub::chrome_trace_json()
        };
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("[trace] {}", path.display()),
            Err(e) => eprintln!("[trace] failed to write {}: {e}", path.display()),
        }
    }
}

fn emit(out: &Path, name: &str, t: &Table) {
    print!("{}", t.render());
    println!();
    match t.write_csv(out, name) {
        Ok(()) => println!("[csv] {}/{name}.csv", out.display()),
        Err(e) => eprintln!("[csv] failed to write {name}.csv: {e}"),
    }
    println!();
}

fn run_command(cmd: &str, cfg: &RunConfig, out: &Path) -> bool {
    match cmd {
        "fig7" => {
            let points = fig7::run(cfg);
            emit(out, "fig7", &fig7::table(&points));
        }
        "fig8" | "fig12" | "fig13" => {
            let r = fig8::run(cfg);
            match cmd {
                "fig8" => {
                    emit(out, "fig8_summary", &fig8::table(&r));
                    emit(out, "fig8_pdf", &fig8::pdf_table(&r));
                }
                "fig12" => emit(out, "fig12_buffer_nojc", &fig8::buffer_table(&r, false)),
                _ => emit(out, "fig13_buffer_jc", &fig8::buffer_table(&r, true)),
            }
        }
        "fig9" | "fig10" | "fig11" => {
            let variant = match cmd {
                "fig9" => fig9_11::Variant::Fig9,
                "fig10" => fig9_11::Variant::Fig10,
                _ => fig9_11::Variant::Fig11,
            };
            let r = fig9_11::run(cfg, variant);
            emit(out, cmd, &fig9_11::table(&r));
            if let (Some(ana), Some(emp)) =
                (r.analytic_percentile(1e-4), r.empirical_percentile(1e-4))
            {
                println!(
                    "0.01% tail: analytic bound {:.1} ms, observed {:.1} ms",
                    ana.as_millis_f64(),
                    emp.as_millis_f64()
                );
            }
        }
        "fig14-17" | "fig14" | "fig15" | "fig16" | "fig17" => {
            let points = fig14_17::run(cfg);
            emit(out, "fig14_17", &fig14_17::table(&points));
        }
        "tables" => {
            emit(
                out,
                "table_admission_examples",
                &tables::admission_examples(),
            );
            emit(out, "table_pgps_equivalence", &tables::pgps_equivalence(10));
            emit(out, "table_stop_and_go", &tables::stop_and_go_table());
            emit(
                out,
                "table_virtualclock_bounds",
                &tables::virtualclock_bounds(10),
            );
        }
        "firewall" => {
            let rows = firewall::run(cfg);
            emit(out, "firewall", &firewall::table(&rows));
        }
        "fig14-17-ac1" => {
            let t = fig14_17::procedure_comparison(cfg, Duration::from_ms(88));
            emit(out, "fig14_17_ac1_vs_ac2", &t);
        }
        "ablation-queue" => {
            let rows = ablation::run(cfg);
            emit(out, "ablation_queue", &ablation::table(&rows));
        }
        "heavytail" => {
            let r = heavytail::run(cfg);
            emit(out, "heavytail", &heavytail::table(&r));
        }
        "scenario" => unreachable!("handled in main"),
        "all" => {
            for c in [
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "fig14-17",
                "fig14-17-ac1",
                "tables",
                "firewall",
                "ablation-queue",
                "heavytail",
            ] {
                println!("==> {c}");
                run_command(c, cfg, out);
            }
        }
        _ => return false,
    }
    true
}

/// After a run: report the process-global conformance-oracle tally (every
/// Leave-in-Time network built by the experiments feeds it, drain checks
/// included) and turn a nonzero count into a failing exit.
fn oracle_verdict() -> ExitCode {
    if lit_net::oracle::global_mode() == OracleMode::Off {
        return ExitCode::SUCCESS;
    }
    let v = lit_net::oracle::global_violations();
    if v == 0 {
        eprintln!("oracle: 0 violations");
        ExitCode::SUCCESS
    } else {
        eprintln!("oracle: {v} violation(s) — bounds do not conform");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.command == "scenario" {
        let path = args.extra.first().cloned().unwrap_or_else(|| usage());
        return match Scenario::load(&path) {
            Ok(sc) => {
                if let Some(rungs) = &args.ladder {
                    let opts = lit_repro::scenario::RunOptions {
                        oracle: lit_net::oracle::global_mode(),
                        ..Default::default()
                    };
                    let report = lit_repro::heavy::run_ladder(&sc, rungs, &opts);
                    emit(
                        &args.out,
                        "scenario_ladder",
                        &lit_repro::heavy::table(&report),
                    );
                    for f in &report.failures {
                        eprintln!("ladder: {f}");
                    }
                    write_obs(&args);
                    let verdict = oracle_verdict();
                    return if report.failures.is_empty() {
                        verdict
                    } else {
                        eprintln!("ladder: {} cross-check failure(s)", report.failures.len());
                        ExitCode::FAILURE
                    };
                }
                // Expand `generate` stanzas up front so AC3 vetting and
                // the report index the concrete session list.
                let sc = sc.expanded();
                let sc = match args.ac3 {
                    Some(backend) => match vet_scenario(&sc, backend) {
                        Some(sc) => sc,
                        None => {
                            eprintln!("scenario: ac3 admitted no sessions");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => sc,
                };
                emit(&args.out, "scenario", &sc.run_report());
                write_obs(&args);
                oracle_verdict()
            }
            Err(e) => {
                eprintln!("scenario: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mode = match args.cfg.seconds {
        Some(s) => format!("{s} s (reduced)"),
        None => "paper horizons (5/10 min)".to_string(),
    };
    let oracle = match lit_net::oracle::global_mode() {
        OracleMode::Off => String::new(),
        m => format!(" | oracle {m:?}"),
    };
    eprintln!(
        "lit-repro: {} | seed {} | horizon {mode} | {} worker thread(s) | {} replica(s){oracle}",
        args.command,
        args.cfg.seed,
        args.cfg.worker_count(),
        args.cfg.replicas.max(1),
    );
    if run_command(&args.command, &args.cfg, &args.out) {
        write_obs(&args);
        oracle_verdict()
    } else {
        usage()
    }
}
