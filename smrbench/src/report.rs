//! One run of one workload, start to finish, and the metrics it yields.

use std::time::{Duration, Instant};

use mp_smr::gauge;

use crate::gen;
use crate::hist::Hist;
use crate::run::{
    make_lane, Lane, LaneStats, PhaseCfg, Recorder, Scheme, Spec, ALLOC_RETIRE_PROBE_OPS, COMPARED,
    PIN_PROBE_OPS,
};
use crate::trace::{SpanBuf, SpanName};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Ops issued by workers and the stalled reader.
    pub attempted: u64,
    /// Failed ops.
    pub failed: u64,
    /// Whether the live-node gauge came back to its pre-run value.
    pub live_restored: bool,
    /// Sample count behind each timing.
    pub samples: Vec<(String, u64)>,
    /// Length of one phase.
    pub phase: Duration,
    /// Per-scheme phase throughputs and time-mean waste (bytes), for the
    /// report table.
    pub rounds: Vec<(Scheme, Vec<f64>, Vec<f64>)>,
    /// Spans (traced runs) and the scheme of each phase id.
    pub spans: Option<(SpanBuf, Vec<&'static str>)>,
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Runs `spec` for `seconds` of measured phases under `seed`.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let baseline = gauge::live_nodes();
    let epoch = Instant::now();
    let trace = traced.then_some(epoch);
    let prefill = gen::prefill_keys(seed, spec.range(), spec.prefill);
    let mut failed = 0;

    // Set-up: build and prefill every scheme's structure. The first build
    // is kept for the run; an untraced run repeats the set-up with
    // throwaway copies spread evenly between rounds, so `setup_s`, their
    // median, samples the host over the whole run rather than one moment.
    let reps = if traced { 1 } else { spec.setup_reps };
    let mut setup = Vec::new();
    let mut rec = Recorder::new(trace, 0);
    let mut set_up = |rec: &mut Recorder| {
        let t0 = Instant::now();
        let lanes: Vec<Box<dyn Lane>> = COMPARED
            .iter()
            .map(|&s| rec.time(SpanName::Prefill, || make_lane(s, spec, seed, &prefill)))
            .collect();
        setup.push(t0.elapsed().as_secs_f64());
        lanes
    };
    let mut lanes = set_up(&mut rec);

    // Interleaved phases; a traced run alternates untraced and traced
    // phases so the tracing overhead is measured in the same run.
    let modes: &[bool] = if traced { &[false, true] } else { &[false] };
    let phases = (spec.rounds * lanes.len() * modes.len()) as u32;
    let phase = Duration::from_secs(seconds) / phases;
    let mut names = Vec::new();
    let mut extra = 1;
    for r in 0..spec.rounds {
        while extra < reps && extra * spec.rounds / reps <= r {
            let spare = set_up(&mut rec);
            failed += spare.iter().map(|l| l.stats().failed).sum::<u64>();
            extra += 1;
        }
        for lane in lanes.iter_mut() {
            for k in 0..modes.len() {
                names.push(lane.scheme().name());
                let cfg = PhaseCfg {
                    id: names.len() as u32,
                    dur: phase,
                    trace: modes[(k + r) % modes.len()].then_some(epoch),
                };
                lane.run_phase(spec, cfg);
            }
        }
    }

    let mut leaky = None;
    if let Some(t) = trace {
        let mut floor = make_lane(Scheme::Leaky, spec, seed, &prefill);
        floor.probe(spec, seed, t);
        for lane in lanes.iter_mut() {
            lane.probe(spec, seed, t);
        }
        leaky = Some(floor.finish());
    }
    let mut stats: Vec<(Scheme, LaneStats)> = lanes
        .into_iter()
        .map(|l| (l.scheme(), l.finish()))
        .collect();
    // Every structure and scheme is gone now.
    let live_restored = gauge::live_nodes() == baseline;

    let attempted = stats.iter().map(|(_, s)| s.attempted).sum();
    failed += stats.iter().map(|(_, s)| s.failed).sum::<u64>();
    failed += leaky.as_ref().map_or(0, |s| s.failed);
    let mp = &stats
        .iter()
        .find(|(s, _)| *s == Scheme::Mp)
        .expect("MP runs on every workload")
        .1;

    let mut samples = vec![("mp.lat".to_string(), mp.lat.count())];
    for (s, st) in &stats {
        samples.push((format!("{}.phases", s.name()), st.mops.len() as u64));
    }
    let mut m = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    if !traced {
        for (s, st) in &stats {
            put(format!("{}.mops", s.name()), median(&st.mops), "Mops");
        }
        put("mp.p50_ns".into(), median(&mp.p50), "ns");
        put("mp.p99_ns".into(), median(&mp.p99), "ns");
        put("mp.waste_kb".into(), mean(&mp.waste_mean) / 1024.0, "KiB");
        put("setup_s".into(), median(&setup), "s");
        samples.push(("setup".into(), setup.len() as u64));
    } else {
        let floor = leaky
            .as_ref()
            .expect("traced runs probe the floor")
            .probes
            .ns_per_hop;
        put("ds.leaky.ns_per_hop".into(), floor, "ns");
        let mut overhead = Vec::new();
        for (s, st) in &stats {
            let n = s.name();
            let span_median = |name: SpanName| {
                st.rec
                    .hist(name)
                    .and_then(|h| h.quantile(0.5))
                    .unwrap_or(0.0)
            };
            let t = &st.tele;
            let ops = st.attempted;
            let rows = [
                ("ds", "contains_ns", span_median(SpanName::Contains), "ns"),
                ("ds", "insert_ns", span_median(SpanName::Insert), "ns"),
                ("ds", "remove_ns", span_median(SpanName::Remove), "ns"),
                (
                    "ds",
                    "hops_per_op",
                    ratio(t.nodes_traversed(), ops),
                    "count",
                ),
                ("ds", "ns_per_hop", st.probes.ns_per_hop, "ns"),
                ("smr", "hop_tax_ns", st.probes.ns_per_hop - floor, "ns"),
                ("smr", "fences_per_op", ratio(t.fences(), ops), "count"),
                ("smr", "pin_ns", st.probes.pin_ns, "ns"),
                ("smr", "alloc_retire_ns", st.probes.alloc_retire_ns, "ns"),
                (
                    "smr",
                    "scans_per_kop",
                    1e3 * ratio(t.empties(), ops),
                    "count",
                ),
                (
                    "smr",
                    "scan_ns_per_free",
                    ratio(t.scan_nanos(), t.frees()),
                    "ns",
                ),
                (
                    "smr",
                    "frees_per_retire",
                    ratio(t.frees(), t.retires()),
                    "ratio",
                ),
                ("smr", "drain_ns", span_median(SpanName::ForceEmpty), "ns"),
                ("smr", "waste_peak_kb", st.waste_peak as f64 / 1024.0, "KiB"),
                ("smr", "accounting_gap", st.accounting_gap as f64, "count"),
                (
                    "registry",
                    "register_ns",
                    span_median(SpanName::Register),
                    "ns",
                ),
                ("registry", "drop_ns", span_median(SpanName::Drop), "ns"),
                (
                    "bp",
                    "help_engagements",
                    st.help_engagements as f64,
                    "count",
                ),
                (
                    "bp",
                    "throttle_engagements",
                    st.throttle_engagements as f64,
                    "count",
                ),
            ];
            for (layer, what, value, unit) in rows {
                put(format!("{layer}.{n}.{what}"), value, unit);
            }
            if *s == Scheme::Mp {
                let announce = ratio(t.fences_announce(), ops);
                put("smr.mp.announce_fences_per_op".into(), announce, "count");
                let fallback = ratio(t.hp_fallback_reads(), t.nodes_traversed());
                put("smr.mp.hp_fallback_rate".into(), fallback, "ratio");
            } else {
                put(
                    format!("smr.{n}.waste_kb"),
                    mean(&st.waste_mean) / 1024.0,
                    "KiB",
                );
            }
            overhead.push(median(&st.traced_mops) / median(&st.mops));
            for name in [
                SpanName::Contains,
                SpanName::Insert,
                SpanName::Remove,
                SpanName::ForceEmpty,
                SpanName::Register,
                SpanName::Drop,
            ] {
                let c = st.rec.hist(name).map_or(0, Hist::count);
                samples.push((format!("{n}.{}", name.as_str()), c));
            }
        }
        samples.extend([
            ("probe.pin".into(), PIN_PROBE_OPS),
            ("probe.alloc_retire".into(), ALLOC_RETIRE_PROBE_OPS),
            ("probe.hop".into(), spec.hop_probe_ops),
        ]);
        put(
            "trace.overhead_pct".into(),
            100.0 * (1.0 - overhead.iter().sum::<f64>() / overhead.len() as f64),
            "%",
        );
        put(
            "mp.p999_ns".into(),
            mp.lat.quantile(0.999).unwrap_or(0.0),
            "ns",
        );
        let (pct, ns) = mp.lat.deepest_tail().unwrap_or((0.0, 0.0));
        put("mp.tail_pct".into(), pct, "%");
        put("mp.tail_ns".into(), ns, "ns");
        put("mp.lat_samples".into(), mp.lat.count() as f64, "count");
    }

    let spans = trace.map(|_| {
        let mut all = SpanBuf::with_capacity(1 << 18);
        all.absorb(rec.take_spans());
        for st in stats.iter_mut().map(|(_, st)| st).chain(leaky.as_mut()) {
            all.absorb(st.rec.take_spans());
        }
        (all, names)
    });
    Outcome {
        metrics: m,
        attempted,
        failed,
        live_restored,
        samples,
        phase,
        rounds: stats
            .iter()
            .map(|(s, st)| (*s, st.mops.clone(), st.waste_mean.clone()))
            .collect(),
        spans,
    }
}
