//! Fingerprints of simulated statistics, process memory, statistics of
//! repeated measurements, and the run record.

use lit_net::{Network, NodeId, OracleTotals, SessionId};

/// The statistics a run's correctness is judged on: per session injected,
/// delivered and min/max end-to-end delay; per node transmitted packets
/// and bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a hash of those statistics, sessions then nodes, in id order.
    pub hash: u64,
    /// Packet-hops: Σ over nodes of transmitted packets.
    pub hops: u64,
    /// Sessions that delivered more packets than they injected.
    pub overdelivered: u64,
}

impl Fingerprint {
    /// Fingerprint a finished network.
    pub fn of(net: &Network) -> Fingerprint {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut overdelivered = 0;
        for i in 0..net.num_sessions() {
            let st = net.session_stats(SessionId(i as u32));
            mix(st.injected);
            mix(st.delivered);
            mix(st.e2e.min().map_or(u64::MAX, |d| d.as_ps()));
            mix(st.e2e.max().map_or(u64::MAX, |d| d.as_ps()));
            overdelivered += u64::from(st.delivered > st.injected);
        }
        let mut hops = 0;
        for n in 0..net.num_nodes() {
            let st = net.node_stats(NodeId(n as u32));
            mix(st.transmitted);
            mix(st.bits_transmitted);
            hops += st.transmitted;
        }
        Fingerprint {
            hash: h,
            hops,
            overdelivered,
        }
    }
}

/// Oracle violations of a finished network after its drain-time checks,
/// by kind. Every workload's oracle verdict goes through here.
pub fn oracle_verdict(net: &mut Network) -> OracleTotals {
    net.oracle_drain_check();
    net.oracle_totals()
}

/// Oracle violations by kind, as `(metric suffix, count)`.
pub fn violations_by_kind(t: &OracleTotals) -> [(&'static str, u64); 9] {
    [
        ("eligibility_order", t.eligibility_order),
        ("release_time", t.release_time),
        ("lateness", t.lateness),
        ("delay_bound", t.delay_bound),
        ("jitter_bound", t.jitter_bound),
        ("ccdf_bound", t.ccdf_bound),
        ("shaping_bound", t.shaping_bound),
        ("regulator_fifo", t.regulator_fifo),
        ("work_conservation", t.work_conservation),
    ]
}

/// A `kB` field of `/proc/self/status`, in MB (0 where unavailable).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Resident-set high-water mark of the process, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{r}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
