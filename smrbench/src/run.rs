//! The workload engine: scheme lanes, closed-loop phases, probes and
//! teardown.
//!
//! A *lane* is one scheme's structure, live for the whole run, plus its
//! workers' persistent op streams and ledgers. The run interleaves the
//! lanes' phases (MP, HE, EBR, HP, MP, …). The scheme is chosen by one
//! `match` in [`make_lane`]; everything below it is generic, so each
//! lane's hot loop is monomorphized for its scheme and structure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mp_ds::{ConcurrentSet, HashMap, LinkedList, NmTree};
use mp_smr::schemes::{Ebr, He, Hp, Leaky, Mp};
use mp_smr::{Config, Smr, SmrHandle, Telemetry, TelemetrySnapshot};

use crate::gate::{self, Ledger};
use crate::gen::{self, Keys, Mix, Op, OpStream, Rng};
use crate::hist::Hist;
use crate::trace::{ns_since, Span, SpanBuf, SpanName};

/// One op in `SAMPLE_EVERY` (by each worker's sequence number) is timed.
pub const SAMPLE_EVERY: u64 = 8;
/// Span buffer bound per thread and phase; a lane keeps four times this.
const SPAN_CAP: usize = 1 << 12;
/// Waste poll period.
const POLL: Duration = Duration::from_millis(5);
/// Registry size: two workers, the stalled reader, and one spare.
const MAX_THREADS: usize = 4;
/// Threads of the gate's `contains` sweep (between phases, unmeasured).
const SWEEP_THREADS: usize = 2;

/// A reclamation scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Margin pointers.
    Mp,
    /// Hazard eras.
    He,
    /// Epoch-based reclamation.
    Ebr,
    /// Hazard pointers.
    Hp,
    /// Never frees: the traversal floor.
    Leaky,
}

impl Scheme {
    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Mp => "mp",
            Scheme::He => "he",
            Scheme::Ebr => "ebr",
            Scheme::Hp => "hp",
            Scheme::Leaky => "leaky",
        }
    }
}

/// The comparison set every workload runs, in phase order.
pub const COMPARED: [Scheme; 4] = [Scheme::Mp, Scheme::He, Scheme::Ebr, Scheme::Hp];

/// Which structure a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Michael's list.
    List,
    /// Michael's hash map with this many buckets.
    Hash(usize),
    /// Natarajan–Mittal tree.
    Tree,
}

/// Iterations of the `pin()` + guard-drop probe.
pub const PIN_PROBE_OPS: u64 = 400_000;
/// Iterations of the pin → alloc → retire probe.
pub const ALLOC_RETIRE_PROBE_OPS: u64 = 200_000;

/// A workload: everything that defines its inputs and its load.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Structure under test.
    pub structure: Structure,
    /// Prefill size; keys are drawn from `[0, 2 · prefill)`.
    pub prefill: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Zipfian skew, or uniform keys when `None`.
    pub zipf: Option<f64>,
    /// Closed-loop worker threads.
    pub workers: usize,
    /// A worker re-registers its handle every this many ops (0: never).
    pub churn_every: u64,
    /// MP's margin.
    pub margin: u32,
    /// Warm-up `contains` ops of the stalled reader (`None`: no reader).
    pub stalled_reader: Option<u64>,
    /// Backpressure cap in retired bytes (0: ladder off).
    pub bp_bytes: usize,
    /// Interleaved rounds per run.
    pub rounds: usize,
    /// Set-up repetitions per untraced run (`setup_s` is their median).
    pub setup_reps: usize,
    /// `contains` ops of the traced run's hop probe (sized so the probe
    /// takes tens of milliseconds on each structure).
    pub hop_probe_ops: u64,
}

impl Spec {
    /// Size of the key range.
    pub fn range(&self) -> u64 {
        2 * self.prefill as u64
    }

    /// The three workloads of the benchmark, by name.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            structure: Structure::List,
            prefill: 0,
            mix: Mix {
                contains: 0,
                insert: 50,
            },
            zipf: None,
            workers: 1,
            churn_every: 0,
            margin: 1 << 20,
            stalled_reader: None,
            bp_bytes: 0,
            rounds: 30,
            setup_reps: 25,
            hop_probe_ops: 20_000,
        };
        Some(match name {
            "list-read" => Spec {
                name: "list-read",
                prefill: 1_024,
                mix: Mix {
                    contains: 90,
                    insert: 5,
                },
                margin: 1 << 30,
                ..base
            },
            "hash-churn" => Spec {
                name: "hash-churn",
                structure: Structure::Hash(4_096),
                prefill: 4_096,
                mix: Mix {
                    contains: 50,
                    insert: 25,
                },
                zipf: Some(0.99),
                workers: 2,
                churn_every: 20_000,
                margin: 1 << 20,
                hop_probe_ops: 400_000,
                ..base
            },
            "tree-stall" => Spec {
                name: "tree-stall",
                structure: Structure::Tree,
                prefill: 131_072,
                mix: Mix {
                    contains: 0,
                    insert: 50,
                },
                workers: 2,
                margin: 1 << 24,
                stalled_reader: Some(2_000),
                bp_bytes: 2 << 20,
                rounds: 20,
                setup_reps: 5,
                hop_probe_ops: 100_000,
                ..base
            },
            _ => return None,
        })
    }

    fn config(&self) -> Config {
        Config::default()
            .with_max_threads(MAX_THREADS)
            .with_margin(self.margin)
            .with_backpressure_bytes(self.bp_bytes)
    }

    fn keys(&self, seed: u64) -> Keys {
        match self.zipf {
            Some(theta) => Keys::zipf(self.range(), theta, seed),
            None => Keys::uniform(self.range()),
        }
    }
}

/// A structure the benchmark can build for a workload.
pub trait BenchSet<S: Smr>: ConcurrentSet<S> {
    /// An empty structure as the workload specifies it.
    fn build(smr: &Arc<S>, spec: &Spec) -> Self;
}

impl<S: Smr> BenchSet<S> for LinkedList<S> {
    fn build(smr: &Arc<S>, _: &Spec) -> Self {
        LinkedList::new(smr)
    }
}

impl<S: Smr> BenchSet<S> for HashMap<S> {
    fn build(smr: &Arc<S>, spec: &Spec) -> Self {
        let Structure::Hash(buckets) = spec.structure else {
            unreachable!("hash map built for a non-hash workload")
        };
        HashMap::with_buckets(smr, buckets)
    }
}

impl<S: Smr> BenchSet<S> for NmTree<S> {
    fn build(smr: &Arc<S>, _: &Spec) -> Self {
        NmTree::new(smr)
    }
}

/// Span recording and per-span-name duration histograms; inert unless
/// tracing is on.
#[derive(Debug, Default)]
pub struct Recorder {
    epoch: Option<Instant>,
    phase: u32,
    spans: SpanBuf,
    hists: Vec<Hist>,
}

const SPAN_NAMES: usize = SpanName::HopProbe as usize + 1;

impl Recorder {
    /// A recorder for phase `phase`, tracing when `epoch` is given.
    pub fn new(epoch: Option<Instant>, phase: u32) -> Recorder {
        match epoch {
            Some(_) => Recorder {
                epoch,
                phase,
                spans: SpanBuf::with_capacity(SPAN_CAP),
                hists: vec![Hist::default(); SPAN_NAMES],
            },
            None => Recorder::default(),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Records a span from `t0` to `t1`.
    #[inline]
    pub fn span(&mut self, name: SpanName, t0: Instant, t1: Instant) {
        if let Some(epoch) = self.epoch {
            let s = Span {
                name,
                start: ns_since(epoch, t0),
                end: ns_since(epoch, t1),
                phase: self.phase,
            };
            self.hists[name as usize].record(s.ns());
            self.spans.push(s);
        }
    }

    /// Times `f` as a span when tracing.
    #[inline]
    pub fn time<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.span(name, t0, Instant::now());
        r
    }

    /// Folds another recorder in.
    pub fn absorb(&mut self, other: Recorder) {
        if !other.on() {
            return;
        }
        if self.hists.is_empty() {
            self.hists = vec![Hist::default(); SPAN_NAMES];
            self.spans = SpanBuf::with_capacity(4 * SPAN_CAP);
            self.epoch = other.epoch;
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.spans.absorb(other.spans);
    }

    /// The duration histogram of spans named `name`.
    pub fn hist(&self, name: SpanName) -> Option<&Hist> {
        self.hists.get(name as usize)
    }

    /// Moves the kept spans out.
    pub fn take_spans(&mut self) -> SpanBuf {
        std::mem::take(&mut self.spans)
    }
}

/// One phase's parameters.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCfg {
    /// Phase span id.
    pub id: u32,
    /// Measured length.
    pub dur: Duration,
    /// Tracing epoch when this phase is traced.
    pub trace: Option<Instant>,
}

/// Probe results, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Per `pin()` + guard drop.
    pub pin_ns: f64,
    /// Per pin → alloc → retire.
    pub alloc_retire_ns: f64,
    /// Per hop of a contains-only traversal of the live structure.
    pub ns_per_hop: f64,
}

/// Everything a lane measured over the run.
#[derive(Debug, Default)]
pub struct LaneStats {
    /// Worker ops/s (×10⁶) of each untraced phase.
    pub mops: Vec<f64>,
    /// Worker ops/s (×10⁶) of each traced phase.
    pub traced_mops: Vec<f64>,
    /// Time-mean retired bytes of each untraced phase (phases are of
    /// equal length, so their mean is the time-mean over all of them).
    pub waste_mean: Vec<f64>,
    /// Highest retired bytes polled in any phase.
    pub waste_peak: u64,
    /// Sampled worker op latency (untraced phases).
    pub lat: Hist,
    /// Median sampled latency of each untraced phase.
    pub p50: Vec<f64>,
    /// 99th-percentile sampled latency of each untraced phase.
    pub p99: Vec<f64>,
    /// Spans and span histograms (traced phases and probes).
    pub rec: Recorder,
    /// Telemetry of every workload handle (workers, reader), each read
    /// after its final drain.
    pub tele: TelemetrySnapshot,
    /// Telemetry of every handle the lane ever made.
    pub acct: TelemetrySnapshot,
    /// Ops issued (workers and reader).
    pub attempted: u64,
    /// Failed ops: gate mismatches plus every op of a panicked worker.
    pub failed: u64,
    /// Probe results (traced runs).
    pub probes: Probes,
    /// Retires − frees − pending after the final drain.
    pub accounting_gap: i64,
    /// Backpressure help-rung engagements over the run.
    pub help_engagements: u64,
    /// Backpressure throttle-rung engagements over the run.
    pub throttle_engagements: u64,
}

/// A scheme's live structure and its run state, behind one virtual call
/// per phase.
pub trait Lane: Send {
    /// The scheme.
    fn scheme(&self) -> Scheme;
    /// Runs one closed-loop phase and checks its results.
    fn run_phase(&mut self, spec: &Spec, cfg: PhaseCfg);
    /// Runs the three probe loops (traced runs).
    fn probe(&mut self, spec: &Spec, seed: u64, trace: Instant);
    /// Reads the final accounting and returns the statistics; the
    /// structure and scheme are dropped with the lane.
    fn finish(self: Box<Self>) -> LaneStats;
    /// The statistics so far.
    fn stats(&self) -> &LaneStats;
}

/// Builds and prefills `scheme`'s lane: the one place a scheme is chosen.
pub fn make_lane(scheme: Scheme, spec: &Spec, seed: u64, prefill: &[u64]) -> Box<dyn Lane> {
    match scheme {
        Scheme::Mp => lane_for::<Mp>(scheme, spec, seed, prefill),
        Scheme::He => lane_for::<He>(scheme, spec, seed, prefill),
        Scheme::Ebr => lane_for::<Ebr>(scheme, spec, seed, prefill),
        Scheme::Hp => lane_for::<Hp>(scheme, spec, seed, prefill),
        Scheme::Leaky => lane_for::<Leaky>(scheme, spec, seed, prefill),
    }
}

fn lane_for<S: Smr>(scheme: Scheme, spec: &Spec, seed: u64, prefill: &[u64]) -> Box<dyn Lane> {
    match spec.structure {
        Structure::List => Box::new(SetLane::<S, LinkedList<S>>::build(
            scheme, spec, seed, prefill,
        )),
        Structure::Hash(_) => {
            Box::new(SetLane::<S, HashMap<S>>::build(scheme, spec, seed, prefill))
        }
        Structure::Tree => Box::new(SetLane::<S, NmTree<S>>::build(scheme, spec, seed, prefill)),
    }
}

/// A worker's state that persists across phases.
struct Worker {
    index: usize,
    stream: OpStream,
    ledger: Ledger,
    seq: u64,
}

/// What one thread hands back at the end of a phase.
struct ThreadOut {
    ops: u64,
    panicked: bool,
    end: Instant,
    lat: Hist,
    rec: Recorder,
    tele: TelemetrySnapshot,
}

/// A lane over scheme `S` and structure `D`.
pub struct SetLane<S: Smr, D: BenchSet<S>> {
    scheme: Scheme,
    smr: Arc<S>,
    set: D,
    keys: Keys,
    expected: Vec<u8>,
    workers: Vec<Worker>,
    reader_rng: Rng,
    stats: LaneStats,
}

impl<S: Smr, D: BenchSet<S>> SetLane<S, D> {
    /// Builds the scheme and structure and inserts `prefill`.
    pub fn build(scheme: Scheme, spec: &Spec, seed: u64, prefill: &[u64]) -> Self {
        let smr = S::try_new(spec.config()).expect("benchmark config is valid");
        let set = D::build(&smr, spec);
        let mut stats = LaneStats::default();
        let mut h = smr
            .try_register()
            .expect("registry has room for the prefill handle");
        for &k in prefill {
            if !set.insert(&mut h, k) {
                stats.failed += 1;
            }
        }
        h.force_empty();
        stats.acct.merge(&h.snapshot());
        drop(h);
        SetLane {
            scheme,
            smr,
            set,
            keys: spec.keys(seed),
            expected: gate::expected_from(prefill, spec.range()),
            workers: (0..spec.workers)
                .map(|i| Worker {
                    index: i,
                    stream: OpStream::new(seed, i, spec.mix),
                    ledger: Ledger::new(spec.range()),
                    seq: 0,
                })
                .collect(),
            reader_rng: Rng::stream(seed, gen::READER_STREAM),
            stats,
        }
    }

    fn register(&self, rec: &mut Recorder) -> S::Handle {
        rec.time(SpanName::Register, || {
            self.smr
                .try_register()
                .expect("registry sized for every concurrent handle")
        })
    }

    /// Drains, reads and drops a workload handle, timing each step.
    fn release(h: S::Handle, rec: &mut Recorder, tele: &mut TelemetrySnapshot) {
        let mut h = h;
        rec.time(SpanName::ForceEmpty, || h.force_empty());
        tele.merge(&h.snapshot());
        rec.time(SpanName::Drop, || drop(h));
    }
}

#[inline]
fn apply<S: Smr, D: ConcurrentSet<S>>(set: &D, h: &mut S::Handle, op: Op, key: u64) -> bool {
    match op {
        Op::Contains => set.contains(h, key),
        Op::Insert => set.insert(h, key),
        Op::Remove => set.remove(h, key),
    }
}

fn op_span(op: Op) -> SpanName {
    match op {
        Op::Contains => SpanName::Contains,
        Op::Insert => SpanName::Insert,
        Op::Remove => SpanName::Remove,
    }
}

impl<S: Smr, D: BenchSet<S>> SetLane<S, D> {
    fn worker(
        &self,
        w: &mut Worker,
        spec: &Spec,
        cfg: PhaseCfg,
        start: &Barrier,
        stop: &AtomicBool,
    ) -> ThreadOut {
        let mut rec = Recorder::new(cfg.trace, cfg.id);
        let mut tele = TelemetrySnapshot::default();
        let mut lat = Hist::default();
        let mut slot = Some(self.register(&mut rec));
        // Stagger churn points across workers.
        let churn_offset = spec.churn_every * w.index as u64 / spec.workers as u64;
        let mut ops = 0u64;
        start.wait();
        let run = catch_unwind(AssertUnwindSafe(|| {
            while !stop.load(Ordering::Relaxed) {
                let h = slot
                    .as_mut()
                    .expect("a handle is held between churn points");
                let (op, key) = w.stream.next(&self.keys);
                let ok = if w.seq.is_multiple_of(SAMPLE_EVERY) {
                    let t0 = Instant::now();
                    let ok = apply(&self.set, h, op, key);
                    let t1 = Instant::now();
                    lat.record((t1 - t0).as_nanos() as u64);
                    rec.span(op_span(op), t0, t1);
                    ok
                } else {
                    apply(&self.set, h, op, key)
                };
                w.ledger.record(op, key, ok);
                w.seq += 1;
                ops += 1;
                if spec.churn_every != 0 && (w.seq + churn_offset).is_multiple_of(spec.churn_every)
                {
                    // Churn point: drain, drop, then register afresh.
                    let old = slot.take().expect("handle present");
                    Self::release(old, &mut rec, &mut tele);
                    slot = Some(self.register(&mut rec));
                }
            }
        }));
        let end = Instant::now();
        if let Some(h) = slot {
            Self::release(h, &mut rec, &mut tele);
        }
        ThreadOut {
            ops,
            panicked: run.is_err(),
            end,
            lat,
            rec,
            tele,
        }
    }
}

impl<S: Smr, D: BenchSet<S>> SetLane<S, D> {
    /// The stalled reader (§1): a fixed warm-up of `contains` ops, so the
    /// scheme holds real protections (margins, eras, hazards), then one
    /// pinned operation held until the phase ends. The warm-up finishes
    /// before the workers start, so no more than `workers` threads are
    /// ever busy at once.
    fn stalled_reader(
        &self,
        rng: &mut Rng,
        warmup: u64,
        cfg: PhaseCfg,
        start: &Barrier,
        stop: &AtomicBool,
    ) -> ThreadOut {
        let mut rec = Recorder::new(cfg.trace, cfg.id);
        let mut tele = TelemetrySnapshot::default();
        let mut h = self.register(&mut rec);
        let warm = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..warmup {
                let key = self.keys.sample(rng);
                if i.is_multiple_of(SAMPLE_EVERY) {
                    let t0 = Instant::now();
                    self.set.contains(&mut h, key);
                    rec.span(SpanName::Contains, t0, Instant::now());
                } else {
                    self.set.contains(&mut h, key);
                }
            }
        }));
        let stalled = h.pin();
        start.wait();
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(stalled);
        let end = Instant::now();
        Self::release(h, &mut rec, &mut tele);
        ThreadOut {
            ops: warmup,
            panicked: warm.is_err(),
            end,
            lat: Hist::default(),
            rec,
            tele,
        }
    }
}

impl<S: Smr, D: BenchSet<S>> Lane for SetLane<S, D> {
    fn scheme(&self) -> Scheme {
        self.scheme
    }

    fn run_phase(&mut self, spec: &Spec, cfg: PhaseCfg) {
        let stop = AtomicBool::new(false);
        let readers = spec.stalled_reader.is_some() as usize;
        let start = Barrier::new(spec.workers + readers + 1);
        let mut workers = std::mem::take(&mut self.workers);
        let mut reader_rng = self.reader_rng.clone();
        let this = &*self;
        let (t0, t_stop, waste, outs) = std::thread::scope(|sc| {
            let mut threads: Vec<_> = workers
                .iter_mut()
                .map(|w| {
                    let (start, stop) = (&start, &stop);
                    sc.spawn(move || this.worker(w, spec, cfg, start, stop))
                })
                .collect();
            if let Some(warmup) = spec.stalled_reader {
                let (start, stop, rng) = (&start, &stop, &mut reader_rng);
                threads.push(sc.spawn(move || this.stalled_reader(rng, warmup, cfg, start, stop)));
            }
            start.wait();
            let t0 = Instant::now();
            // Poll the scheme's retired bytes until the phase ends.
            let mut waste = Vec::new();
            loop {
                let left = cfg.dur.saturating_sub(t0.elapsed());
                if left.is_zero() {
                    break;
                }
                std::thread::sleep(left.min(POLL));
                waste.push(this.smr.telemetry().pending_bytes() as u64);
            }
            let t_stop = Instant::now();
            stop.store(true, Ordering::Relaxed);
            let outs: Vec<_> = threads
                .into_iter()
                .map(|t| t.join().expect("panics are caught in-thread"))
                .collect();
            (t0, t_stop, waste, outs)
        });
        self.workers = workers;
        self.reader_rng = reader_rng;

        let st = &mut self.stats;
        let traced = cfg.trace.is_some();
        let mut rec = Recorder::new(cfg.trace, cfg.id);
        rec.span(SpanName::Phase, t0, t_stop);
        let mut worker_ops = 0;
        let mut end = t0;
        let mut lat = Hist::default();
        for (i, o) in outs.into_iter().enumerate() {
            st.attempted += o.ops;
            if o.panicked {
                st.failed += o.ops;
            }
            if i < spec.workers {
                worker_ops += o.ops;
                end = end.max(o.end);
                lat.merge(&o.lat);
            }
            st.tele.merge(&o.tele);
            st.acct.merge(&o.tele);
            rec.absorb(o.rec);
        }
        st.rec.absorb(rec);
        let mops = worker_ops as f64 / (end - t0).as_secs_f64() / 1e6;
        st.waste_peak = st.waste_peak.max(waste.iter().copied().max().unwrap_or(0));
        if traced {
            st.traced_mops.push(mops);
        } else {
            st.mops.push(mops);
            st.p50.push(lat.quantile(0.5).unwrap_or(0.0));
            st.p99.push(lat.quantile(0.99).unwrap_or(0.0));
            st.lat.merge(&lat);
            st.waste_mean
                .push(waste.iter().sum::<u64>() as f64 / waste.len().max(1) as f64);
        }

        // Gate: fold every worker's ledger into the expected membership
        // and sweep the whole key range.
        for w in &mut self.workers {
            w.ledger.fold_into(&mut self.expected);
        }
        st.failed += gate::sweep(
            &self.smr,
            &self.set,
            &mut self.expected,
            SWEEP_THREADS,
            &mut st.acct,
        );
    }

    fn probe(&mut self, spec: &Spec, seed: u64, trace: Instant) {
        let mut rec = Recorder::new(Some(trace), 0);
        let mut h = self
            .smr
            .try_register()
            .expect("registry has room for the probe handle");
        let mut timed = |name: SpanName, n: u64, body: &mut dyn FnMut()| {
            let t0 = Instant::now();
            body();
            let t1 = Instant::now();
            rec.span(name, t0, t1);
            (t1 - t0).as_nanos() as f64 / n.max(1) as f64
        };
        // Leaky never frees, so it only takes the read-only hop probe.
        if self.scheme != Scheme::Leaky {
            let n = PIN_PROBE_OPS;
            self.stats.probes.pin_ns = timed(SpanName::PinProbe, n, &mut || {
                for _ in 0..n {
                    drop(std::hint::black_box(h.pin()));
                }
            });
            let n = ALLOC_RETIRE_PROBE_OPS;
            self.stats.probes.alloc_retire_ns = timed(SpanName::AllocRetireProbe, n, &mut || {
                for i in 0..n {
                    let mut op = h.pin();
                    let node = op.alloc_with_index(i, 7 << 16);
                    // SAFETY: [INV-04] `node` was never linked, so no shared
                    // pointer leads to it; it is non-null and retired once.
                    unsafe { op.retire(node) };
                }
            });
            h.force_empty();
        }
        let before = h.snapshot().nodes_traversed();
        let mut rng = Rng::stream(seed, gen::PROBE_STREAM);
        let n = spec.hop_probe_ops;
        let (set, range) = (&self.set, spec.range());
        let ns = timed(SpanName::HopProbe, 1, &mut || {
            for _ in 0..n {
                std::hint::black_box(set.contains(&mut h, rng.below(range)));
            }
        });
        let hops = h.snapshot().nodes_traversed() - before;
        self.stats.probes.ns_per_hop = ns / hops.max(1) as f64;

        h.force_empty();
        self.stats.acct.merge(&h.snapshot());
        drop(h);
        self.stats.rec.absorb(rec);
    }

    fn finish(mut self: Box<Self>) -> LaneStats {
        let t = self.smr.telemetry();
        let st = &mut self.stats;
        st.accounting_gap = st.acct.retires() as i64 - st.acct.frees() as i64 - t.pending() as i64;
        st.help_engagements = t.backpressure().help_engagements();
        st.throttle_engagements = t.backpressure().throttle_engagements();
        std::mem::take(&mut self.stats)
    }

    fn stats(&self) -> &LaneStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A list that misbehaves once: at its `FAULT_AT`-th insert call it
    /// either claims success without inserting or, if `PANIC`, panics.
    struct Faulty<S: Smr, const PANIC: bool> {
        inner: LinkedList<S>,
        inserts: AtomicU64,
    }

    /// Faults start after the prefill's inserts.
    const FAULT_AT: u64 = 64 + 40;

    impl<S: Smr, const PANIC: bool> ConcurrentSet<S> for Faulty<S, PANIC> {
        fn new(smr: &Arc<S>) -> Self {
            Faulty {
                inner: LinkedList::new(smr),
                inserts: AtomicU64::new(0),
            }
        }
        fn insert(&self, h: &mut S::Handle, key: u64) -> bool {
            if self.inserts.fetch_add(1, Ordering::Relaxed) == FAULT_AT {
                assert!(!PANIC, "injected worker panic");
                return true;
            }
            self.inner.insert(h, key)
        }
        fn remove(&self, h: &mut S::Handle, key: u64) -> bool {
            self.inner.remove(h, key)
        }
        fn contains(&self, h: &mut S::Handle, key: u64) -> bool {
            self.inner.contains(h, key)
        }
        fn name() -> &'static str {
            "faulty-list"
        }
    }

    impl<S: Smr, const PANIC: bool> BenchSet<S> for Faulty<S, PANIC> {
        fn build(smr: &Arc<S>, _: &Spec) -> Self {
            ConcurrentSet::new(smr)
        }
    }

    fn small_spec() -> Spec {
        Spec {
            prefill: 64,
            mix: Mix {
                contains: 50,
                insert: 25,
            },
            workers: 2,
            ..Spec::named("list-read").expect("known workload")
        }
    }

    fn one_phase<D: BenchSet<Ebr>>(spec: &Spec) -> LaneStats {
        let prefill = gen::prefill_keys(5, spec.range(), spec.prefill);
        let mut lane = SetLane::<Ebr, D>::build(Scheme::Ebr, spec, 5, &prefill);
        lane.run_phase(
            spec,
            PhaseCfg {
                id: 1,
                dur: Duration::from_millis(100),
                trace: None,
            },
        );
        Box::new(lane).finish()
    }

    #[test]
    fn gate_passes_a_correct_set() {
        let st = one_phase::<LinkedList<Ebr>>(&small_spec());
        assert!(
            st.attempted > 1_000,
            "phase too short to mean anything: {}",
            st.attempted
        );
        assert_eq!(st.failed, 0);
    }

    #[test]
    fn gate_catches_a_silently_dropped_insert() {
        let st = one_phase::<Faulty<Ebr, false>>(&small_spec());
        assert!(st.attempted > FAULT_AT, "the fault was never reached");
        assert_eq!(st.failed, 1, "one lost insert is one failed op");
    }

    #[test]
    fn a_panicked_worker_fails_all_its_ops() {
        let st = one_phase::<Faulty<Ebr, true>>(&small_spec());
        // The panicking worker issued at least the faulty insert; its ops
        // all count, whatever the sweep then finds.
        assert!(
            st.failed >= 1 && st.failed < st.attempted,
            "{} of {}",
            st.failed,
            st.attempted
        );
    }

    #[test]
    fn every_workload_is_named_and_sized_as_documented() {
        for (name, prefill, workers) in [
            ("list-read", 1_024, 1),
            ("hash-churn", 4_096, 2),
            ("tree-stall", 131_072, 2),
        ] {
            let s = Spec::named(name).expect("known workload");
            assert_eq!(
                (s.name, s.prefill, s.range(), s.workers),
                (name, prefill, 2 * prefill as u64, workers)
            );
        }
        assert!(Spec::named("nope").is_none());
    }
}
