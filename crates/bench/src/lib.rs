//! # lit-bench — benchmarks
//!
//! Performance characterization of the implementation (the paper's
//! figures measure *simulated* service quality; these measure the
//! *simulator and scheduler* themselves):
//!
//! * `sched_ops` — per-packet scheduling cost of each discipline;
//! * `event_queue` — future-event-set throughput;
//! * `end_to_end` — whole-network simulation rate (simulated seconds per
//!   wall second) for the paper's MIX/CROSS configurations;
//! * `admission` — AC1/AC2's O(P) tests vs AC3's exponential subset test;
//! * `analysis` — M/D/1 evaluation and histogram cost.
//!
//! The bench targets are plain `harness = false` binaries on the in-repo
//! [`Bencher`] stopwatch (the workspace carries no external crates), so
//! `cargo bench -p lit-bench` runs them all and
//! `cargo bench -p lit-bench -- --test` does one verifying iteration each.
//! Helpers shared by the bench targets live here too.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use lit_net::{DelayAssignment, Discipline, LinkParams, Packet, SessionId, SessionSpec};
use lit_sim::{Duration, Time};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration as WallDuration, Instant, SystemTime, UNIX_EPOCH};

/// Register `n` sessions with rates spread across a T1 link.
pub fn register_sessions(d: &mut dyn Discipline, n: u32) {
    for i in 0..n {
        let rate = 1_536_000 / u64::from(n.max(1)) - u64::from(i % 7) * 8;
        let spec = SessionSpec::atm(SessionId(i), rate.max(8_000));
        d.register_session(&spec, &DelayAssignment::LenOverRate);
    }
}

/// Drive `packets` arrivals/departures round-robin over `sessions`
/// registered sessions; returns a checksum so the work is not optimized
/// away.
pub fn drive_discipline(d: &mut dyn Discipline, sessions: u32, packets: u64) -> u128 {
    let mut sum = 0u128;
    let link = LinkParams::paper_t1();
    for i in 0..packets {
        let sid = SessionId((i % u64::from(sessions)) as u32);
        let now = Time::ZERO + Duration::from_us(50) * i;
        let mut pkt = Packet::new(sid, i / u64::from(sessions) + 1, 424, now);
        let dec = d.on_arrival(&mut pkt, now);
        sum ^= dec.key;
        d.on_departure(&mut pkt, now.max(dec.eligible) + link.lmax_time());
        // lit-lint: allow(checked-clock-ops, "u128 checksum accumulator defeating dead-code elimination; wrap-around is mixing, not clock math")
        sum = sum.wrapping_add(pkt.hold.as_ps() as u128);
    }
    sum
}

/// Number of read-modify-write iterations [`calibrate`] performs; divide
/// its return by this for a per-iteration "machine speed unit".
pub const CALIBRATE_ITERS: u64 = 10_000_000;

/// Fixed pure-CPU workload whose wall time tracks single-core speed; a
/// measured time divided by this is a machine-independent number a
/// committed baseline can store. Mixed ALU + memory reference load:
/// random read-modify-writes over an L2-sized buffer, roughly the cache
/// behavior of the simulator's heap churn. A pure-ALU spin tracks
/// frequency scaling but not memory contention, and the measured/calib
/// ratio then drifts several percent between contention phases on shared
/// runners. Returns nanoseconds.
pub fn calibrate() -> u128 {
    const WORDS: usize = 1 << 16; // 512 KiB
    let mut rng = lit_sim::SimRng::seed_from(3);
    let mut buf = vec![0u64; WORDS];
    let t = Instant::now();
    for _ in 0..CALIBRATE_ITERS {
        let r = rng.next_u64();
        let idx = (r as usize) & (WORDS - 1);
        buf[idx] = buf[idx].wrapping_add(r);
    }
    black_box(&buf);
    t.elapsed().as_nanos()
}

/// A minimal wall-clock stopwatch harness for the `harness = false` bench
/// targets: estimates a per-iteration cost, then loops for a fixed time
/// budget and reports mean and best. With `--test` (what CI's smoke run
/// passes) every benchmark executes exactly once, as a compile-and-run
/// check.
pub struct Bencher {
    quick: bool,
    budget: WallDuration,
    results: RefCell<Vec<BenchResult>>,
}

/// One timed measurement, as recorded by [`Bencher::run`] and serialized
/// by [`Bencher::write_json`].
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// The benchmark's name as passed to [`Bencher::run`].
    pub name: String,
    /// Timed iterations (1 in `--test`/`--quick` mode).
    pub iters: u32,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Best (minimum) wall time over all iterations, nanoseconds.
    pub best_ns: u128,
}

impl Bencher {
    /// Build from the process arguments: `--test` or `--quick` selects the
    /// single-iteration mode; all other flags (e.g. the `--bench` cargo
    /// appends) are ignored.
    pub fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--test" || a == "--quick");
        Self::new(quick)
    }

    /// Build directly (tests use this to avoid reading the process args).
    pub fn new(quick: bool) -> Self {
        Bencher {
            quick,
            budget: WallDuration::from_millis(300),
            results: RefCell::new(Vec::new()),
        }
    }

    /// Whether this run is the single-iteration smoke mode.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Time `f`, printing one line `name  iters  mean  best` and recording
    /// the measurement for [`Bencher::write_json`].
    pub fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        let t0 = Instant::now();
        black_box(f());
        let est = t0.elapsed();
        if self.quick {
            println!("{name:<56} ok ({})", fmt_ns(est.as_nanos()));
            self.results.borrow_mut().push(BenchResult {
                name: name.to_string(),
                iters: 1,
                mean_ns: est.as_nanos(),
                best_ns: est.as_nanos(),
            });
            return;
        }
        let iters = (self.budget.as_nanos() / est.as_nanos().max(1)).clamp(1, 100_000) as u32;
        let mut best = u128::MAX;
        let mut total = 0u128;
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            let e = t.elapsed().as_nanos();
            total += e;
            best = best.min(e);
        }
        println!(
            "{name:<56} {iters:>6} iters  mean {:>10}  best {:>10}",
            fmt_ns(total / u128::from(iters)),
            fmt_ns(best)
        );
        self.results.borrow_mut().push(BenchResult {
            name: name.to_string(),
            iters,
            mean_ns: total / u128::from(iters),
            best_ns: best,
        });
    }

    /// The measurements recorded so far, in run order.
    pub fn results(&self) -> Vec<BenchResult> {
        self.results.borrow().clone()
    }

    /// Serialize every recorded measurement as the tracked-artifact JSON
    /// (`{"bench": ..., "unix_time_secs": ..., "quick": ..., "results": [...]}`).
    pub fn results_json(&self, bench: &str) -> String {
        let stamp = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut s = format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"unix_time_secs\": {stamp},\n  \"quick\": {},\n  \"results\": [\n",
            self.quick
        );
        let results = self.results.borrow();
        for (i, r) in results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"mean_ns\": {}, \"best_ns\": {}}}{}\n",
                r.name,
                r.iters,
                r.mean_ns,
                r.best_ns,
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write `BENCH_<bench>.json` into `dir`; returns the path.
    pub fn write_json_to(&self, dir: &Path, bench: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{bench}.json"));
        std::fs::write(&path, self.results_json(bench))?;
        Ok(path)
    }

    /// Write the tracked artifact into the workspace's `results/`
    /// directory (override with the `BENCH_OUT` environment variable).
    /// Best-effort: failures go to stderr, never panic a bench run.
    pub fn write_json(&self, bench: &str) {
        let dir = std::env::var_os("BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
            });
        match self.write_json_to(&dir, bench) {
            Ok(path) => println!("[json] {}", path.display()),
            Err(e) => eprintln!("bench {bench}: cannot write artifact: {e}"),
        }
    }
}

impl Default for Bencher {
    fn default() -> Self {
        Self::from_args()
    }
}

/// Nanoseconds in a human unit (ns/µs/ms/s) for the console lines.
fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_artifact_json_parses_with_expected_keys() {
        let b = Bencher::new(true);
        b.run("demo/one", || black_box(1 + 1));
        b.run("demo/two", || black_box(2 + 2));
        let v = lit_obs::json::Value::parse(&b.results_json("demo")).expect("artifact parses");
        assert_eq!(v.get("bench").and_then(|x| x.as_str()), Some("demo"));
        assert!(v.get("unix_time_secs").and_then(|x| x.as_f64()).is_some());
        assert_eq!(v.get("quick").and_then(|x| x.as_bool()), Some(true));
        let results = v
            .get("results")
            .and_then(|r| r.as_array())
            .expect("results array");
        assert_eq!(results.len(), 2);
        for r in results {
            for key in ["name", "iters", "mean_ns", "best_ns"] {
                assert!(r.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn bench_artifact_writes_named_file() {
        let b = Bencher::new(true);
        b.run("demo/one", || black_box(7));
        let dir = std::env::temp_dir().join(format!("lit_bench_json_{}", std::process::id()));
        let path = b.write_json_to(&dir, "demo").expect("write artifact");
        assert!(path.ends_with("BENCH_demo.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        lit_obs::json::Value::parse(&body).expect("written artifact parses");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
