//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the default simulation path for `S` seconds of
//! wall time and prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. Run it from
//! the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload mix_paper --seed 1 --seconds 10 --trace 0`.

use perfbench::report::{json_num, json_str};
use perfbench::workload::Workload;
use perfbench::{run, Config, Outcome};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Write the last traced repetition's spans under the build directory,
/// one file per workload (each traced run replaces it).
fn write_spans(cfg: &Config, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("perfbench/target".into()))
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.tsv", cfg.workload.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "# idx\tname\tstart_ns\tend_ns\tparent")?;
    for (i, s) in out.spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            f,
            "{i}\t{}\t{}\t{}\t{parent}",
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let out = run(cfg);
    println!("perfbench record {}", out.record);
    for p in &out.problems {
        println!("perfbench CHECK FAILED: {p}");
    }
    println!(
        "perfbench {} fingerprint={:016x} fail_frac={} ({} failed / {} packet-hops attempted)",
        cfg.workload.name(),
        out.fingerprint,
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    for line in &out.summary {
        println!("perfbench {line}");
    }
    for m in &out.metrics {
        println!("perfbench {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if cfg.trace {
        match write_spans(&cfg, &out) {
            Ok(path) => println!("perfbench spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
