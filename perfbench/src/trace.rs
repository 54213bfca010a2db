//! Outside-in tracing: spans recorded around the calls into each layer's
//! public functions, from decorators on the discipline factory and on
//! every boxed `Source`, plus the counting probe's own hooks. No code
//! inside the program changes.
//!
//! A clock read costs tens of nanoseconds, about as much as one discipline
//! call, so hot-path calls are timed only at a fixed stride
//! ([`STRIDE`]) while every call is counted exactly. Each timed span's
//! duration carries about one clock read, which [`Ledger`] subtracts using
//! the cost [`calibrate_clock_ns`] measured in the same process.
//!
//! Spans stay in a thread-local buffer (the simulation is single-threaded)
//! until [`take_spans`] hands them over when the run ends.

use lit_net::{DelayAssignment, Discipline, Packet, ScheduleDecision, SessionId, SessionSpec};
use lit_sim::{SimRng, Time};
use lit_traffic::{Emission, Source};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Every `STRIDE`-th call of each hot-path kind is timed.
pub const STRIDE: u64 = 16;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Workload inputs to a built network.
    Setup,
    /// `Scenario::parse` + `expanded`.
    ParseExpand,
    /// One AC1 `try_admit` call.
    Admission,
    /// `NetworkBuilder::build`.
    Build,
    /// `Network::run_until`.
    RunUntil,
    /// `Discipline::on_arrival` (and `on_arrival_batch`).
    DiscArrival,
    /// `Discipline::on_service_start`.
    DiscServiceStart,
    /// `Discipline::on_departure`.
    DiscDeparture,
    /// `Source::next_emission`.
    SourceNext,
    /// The counting probe's own hooks.
    Probe,
}

/// Number of span kinds.
pub const KINDS: usize = 10;

impl Kind {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::ParseExpand => "repro.parse_expand",
            Kind::Admission => "core.try_admit",
            Kind::Build => "net.build",
            Kind::RunUntil => "net.run_until",
            Kind::DiscArrival => "core.discipline.on_arrival",
            Kind::DiscServiceStart => "core.discipline.on_service_start",
            Kind::DiscDeparture => "core.discipline.on_departure",
            Kind::SourceNext => "traffic.source.next_emission",
            Kind::Probe => "obs.probe",
        }
    }
}

/// One recorded span. `parent` indexes the same span list; `u32::MAX`
/// marks a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Start, nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
}

struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static CALLS: [Cell<u64>; KINDS] = const { [const { Cell::new(0) }; KINDS] };
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer { epoch: None, spans: Vec::new(), open: Vec::new() })
    };
}

fn ns(t: &mut Tracer, at: Instant) -> u64 {
    let epoch = *t.epoch.get_or_insert(at);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Record a closed span `[t0, t1]` under the innermost open span.
pub fn record_span(kind: Kind, t0: Instant, t1: Instant) {
    TRACER.with(|t| {
        let t = &mut *t.borrow_mut();
        let (start_ns, end_ns) = (ns(t, t0), ns(t, t1));
        let parent = t.open.last().copied().unwrap_or(u32::MAX);
        t.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent,
        });
    });
}

/// Open a span starting at `t0`; later spans nest under it until
/// [`close_span`].
pub fn open_span(kind: Kind, t0: Instant) -> u32 {
    TRACER.with(|t| {
        let t = &mut *t.borrow_mut();
        let start_ns = ns(t, t0);
        let parent = t.open.last().copied().unwrap_or(u32::MAX);
        let idx = t.spans.len() as u32;
        t.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        t.open.push(idx);
        idx
    })
}

/// Close the span `idx` returned by [`open_span`] at `t1`.
pub fn close_span(idx: u32, t1: Instant) {
    TRACER.with(|t| {
        let t = &mut *t.borrow_mut();
        let end_ns = ns(t, t1);
        t.spans[idx as usize].end_ns = end_ns;
        t.open.retain(|&i| i != idx);
    });
}

/// Hand over every span recorded so far and start a fresh buffer.
pub fn take_spans() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Exact call counts so far, by kind.
pub fn calls() -> [u64; KINDS] {
    CALLS.with(|c| std::array::from_fn(|i| c[i].get()))
}

/// Run `f`, counting the call and timing it at every [`STRIDE`]-th call.
#[inline]
pub fn call<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let n = CALLS.with(|c| {
        let cell = &c[kind as usize];
        let n = cell.get() + 1;
        cell.set(n);
        n
    });
    if !n.is_multiple_of(STRIDE) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    record_span(kind, t0, t1);
    r
}

/// The cost of one `Instant::now()` in this process, in nanoseconds: the
/// median over batches of the mean gap between back-to-back reads.
pub fn calibrate_clock_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut per_batch: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let mut last = t0;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - t0).as_nanos() as f64 / READS as f64
        })
        .collect();
    crate::report::median(&mut per_batch)
}

/// Self time per layer of one traced `run_until`, from its spans and the
/// exact call counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// `run_until` wall time minus the clock reads the sampling added, ns.
    pub run_until_ns: f64,
    /// Estimated self time of all discipline calls, ns.
    pub discipline_ns: f64,
    /// Estimated self time of all `next_emission` calls, ns.
    pub source_ns: f64,
    /// Estimated self time of the counting probe's hooks, ns.
    pub probe_ns: f64,
    /// Exact discipline calls.
    pub discipline_calls: u64,
    /// Exact `next_emission` calls.
    pub source_calls: u64,
}

impl Ledger {
    /// Attribute the run span `run` using the spans recorded under it,
    /// the call-count difference `calls` over the run, and the clock cost.
    pub fn from_spans(spans: &[Span], run: u32, calls: [u64; KINDS], clock_ns: f64) -> Ledger {
        let mut sampled = [0u64; KINDS];
        let mut sum_ns = [0f64; KINDS];
        for s in spans.iter().filter(|s| s.parent == run) {
            sampled[s.kind as usize] += 1;
            sum_ns[s.kind as usize] += (s.end_ns - s.start_ns) as f64;
        }
        // Each timed span holds about one clock read; scale the sampled
        // self time up to every call.
        let self_ns = |k: Kind| {
            let (n, c) = (sampled[k as usize], calls[k as usize]);
            if n == 0 {
                return 0.0;
            }
            ((sum_ns[k as usize] - n as f64 * clock_ns) * c as f64 / n as f64).max(0.0)
        };
        let r = spans[run as usize];
        let total_sampled: u64 = sampled.iter().sum();
        let disc = [
            Kind::DiscArrival,
            Kind::DiscServiceStart,
            Kind::DiscDeparture,
        ];
        Ledger {
            // Every sample added two clock reads to the run.
            run_until_ns: (r.end_ns - r.start_ns) as f64 - 2.0 * clock_ns * total_sampled as f64,
            discipline_ns: disc.iter().map(|&k| self_ns(k)).sum(),
            source_ns: self_ns(Kind::SourceNext),
            probe_ns: self_ns(Kind::Probe),
            discipline_calls: disc.iter().map(|&k| calls[k as usize]).sum(),
            source_calls: calls[Kind::SourceNext as usize],
        }
    }

    /// The executor's share: `run_until` minus the layers timed inside it.
    pub fn executor_ns(&self) -> f64 {
        self.run_until_ns - self.discipline_ns - self.source_ns - self.probe_ns
    }
}

/// A discipline decorator that counts and samples every hot-path call.
pub struct TracedDiscipline(pub Box<dyn Discipline>);

impl Discipline for TracedDiscipline {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn register_session(&mut self, spec: &SessionSpec, delay: &DelayAssignment) {
        self.0.register_session(spec, delay);
    }
    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        call(Kind::DiscArrival, || self.0.on_arrival(pkt, now))
    }
    fn on_arrival_batch(
        &mut self,
        pkts: &mut [Packet],
        now: Time,
        out: &mut Vec<ScheduleDecision>,
    ) {
        call(Kind::DiscArrival, || {
            self.0.on_arrival_batch(pkts, now, out)
        });
    }
    fn unregister_session(&mut self, id: SessionId) {
        self.0.unregister_session(id);
    }
    fn on_service_start(&mut self, pkt: &Packet, now: Time) {
        call(Kind::DiscServiceStart, || self.0.on_service_start(pkt, now));
    }
    fn on_departure(&mut self, pkt: &mut Packet, finish: Time) {
        call(Kind::DiscDeparture, || self.0.on_departure(pkt, finish));
    }
}

/// A source decorator that counts and samples `next_emission`.
pub struct TracedSource(pub Box<dyn Source>);

impl Source for TracedSource {
    fn next_emission(&mut self, rng: &mut SimRng) -> Option<Emission> {
        call(Kind::SourceNext, || self.0.next_emission(rng))
    }
    fn mean_rate_bps(&self) -> Option<f64> {
        self.0.mean_rate_bps()
    }
}
