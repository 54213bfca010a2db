//! The counting probe of the traced run: events by kind, eligible-queue
//! and event-set depth distributions, and same-(session, hop, instant)
//! arrivals — the numbers a decision on batched arrivals needs.
//!
//! Arrivals sharing a (session, hop, instant) key are counted two ways. A
//! *run* is a stretch of consecutive arrivals with one key, with no other
//! event between them: what batched dispatch could drain at once. A
//! *group* is every arrival with one key, interleaved or not: the most any
//! batching could ever combine.

use crate::trace::{self, Kind};
use lit_net::{PacketView, Probe};
use lit_sim::{Duration, Time};
use std::any::Any;

/// Exact counts of one run, gathered through the public `Probe` seam.
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    /// `on_arrive` calls (injections and forwarded arrivals).
    pub arrive: u64,
    /// `on_eligible` calls: packets the regulator held.
    pub eligible: u64,
    /// `on_dispatch` calls.
    pub dispatch: u64,
    /// `on_depart` calls.
    pub depart: u64,
    /// Histogram of the eligible-queue depth seen at each arrival.
    pub equeue_depth: Vec<u64>,
    /// Histogram of the event-set depth seen at each arrival.
    pub event_depth: Vec<u64>,
    /// Closed arrival runs: count, summed length, longest.
    pub runs: u64,
    /// Sum of closed run lengths.
    pub run_sum: u64,
    /// Longest closed run.
    pub run_max: u64,
    /// The open run's key and length.
    run_key: Option<(u32, u32, Time)>,
    run_len: u64,
    /// Closed groups.
    pub groups: u64,
    /// Sum of closed group sizes.
    pub group_sum: u64,
    /// Largest closed group.
    pub group_max: u64,
    /// Arrivals per (session, hop) at the current instant; few keys share
    /// an instant, so a linear scan beats hashing.
    open_groups: Vec<(u32, u32, u64)>,
    group_at: Time,
}

fn bump(hist: &mut Vec<u64>, v: usize) {
    if hist.len() <= v {
        hist.resize(v + 1, 0);
    }
    hist[v] += 1;
}

impl CountingProbe {
    /// End the open arrival run, if any.
    fn close_run(&mut self) {
        if self.run_key.take().is_some() {
            self.runs += 1;
            self.run_sum += self.run_len;
            self.run_max = self.run_max.max(self.run_len);
        }
        self.run_len = 0;
    }

    /// Close every group of the current instant.
    fn close_groups(&mut self) {
        for (_, _, n) in self.open_groups.drain(..) {
            self.groups += 1;
            self.group_sum += n;
            self.group_max = self.group_max.max(n);
        }
    }

    /// Mean arrival-run length.
    pub fn run_mean(&self) -> f64 {
        self.run_sum as f64 / self.runs.max(1) as f64
    }

    /// Mean arrival-group size.
    pub fn group_mean(&self) -> f64 {
        self.group_sum as f64 / self.groups.max(1) as f64
    }
}

/// The smallest value whose cumulative count reaches `q` of the total.
pub fn quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    let want = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (v, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= want {
            return v as f64;
        }
    }
    0.0
}

impl Probe for CountingProbe {
    fn on_arrive(&mut self, now: Time, _node: u32, pkt: PacketView, eq: usize, ev: usize) {
        trace::call(Kind::Probe, || {
            self.arrive += 1;
            bump(&mut self.equeue_depth, eq);
            bump(&mut self.event_depth, ev);
            let key = (pkt.session, pkt.hop, now);
            if self.run_key != Some(key) {
                self.close_run();
                self.run_key = Some(key);
            }
            self.run_len += 1;
            if now != self.group_at {
                self.close_groups();
                self.group_at = now;
            }
            let key = (pkt.session, pkt.hop);
            match self.open_groups.iter_mut().find(|g| (g.0, g.1) == key) {
                Some(g) => g.2 += 1,
                None => self.open_groups.push((key.0, key.1, 1)),
            }
        });
    }

    // A regulator release or a departure is another event between two
    // arrivals, so it ends the open run; a dispatch happens inside the
    // arrival's own event and does not.
    fn on_eligible(&mut self, _now: Time, _node: u32, _pkt: PacketView, _held: Duration) {
        trace::call(Kind::Probe, || {
            self.eligible += 1;
            self.close_run();
        });
    }

    fn on_dispatch(&mut self, _now: Time, _node: u32, _pkt: PacketView) {
        trace::call(Kind::Probe, || self.dispatch += 1);
    }

    fn on_depart(&mut self, _now: Time, _node: u32, _pkt: PacketView, _slack: i64, _last: bool) {
        trace::call(Kind::Probe, || {
            self.depart += 1;
            self.close_run();
        });
    }

    fn finish(&mut self, _now: Time) {
        self.close_run();
        self.close_groups();
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}
