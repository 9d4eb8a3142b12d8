//! `smrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones. Lines before it
//! give the host and run fingerprint, per-round throughput and the sample
//! count behind every timing. Exits non-zero on any correctness failure.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use smrbench::report::{self, Outcome};
use smrbench::run::{Spec, SAMPLE_EVERY};

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: smrbench --workload <list-read|hash-churn|tree-stall> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec =
                    Some(Spec::named(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => match value.parse() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` in the working directory
/// only (a checkout without history reports "unknown").
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn spans_path(a: &Args) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("smrbench/target"));
    root.join("smrbench-spans")
        .join(format!("{}-seed{}.jsonl", a.spec.name, a.seed))
}

fn print_report(a: &Args, o: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let busy = a.spec.workers;
    println!(
        "{{\"fingerprint\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"phase_s\":{},\
         \"rounds\":{},\"workers\":{busy},\"stalled_reader\":{},\"nproc\":{nproc},\"oversubscribed\":{},\
         \"sample_every\":{SAMPLE_EVERY},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{}}}}}",
        json_str(a.spec.name),
        a.seed,
        a.trace,
        a.seconds,
        o.phase.as_secs_f64(),
        a.spec.rounds,
        a.spec.stalled_reader.is_some(),
        busy > nproc,
        json_str(&cpu_model()),
        json_str(env!("SMRBENCH_RUSTC")),
        json_str(&git_commit()),
    );
    let label = if busy > nproc {
        "oversubscription"
    } else {
        "within nproc"
    };
    let list = |xs: &[f64], scale: f64| {
        xs.iter()
            .map(|x| format!("{:.4}", x * scale))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (s, mops, waste) in &o.rounds {
        println!(
            "# {} {} workers={busy} ({label}): Mops per round [{}] median {:.4}; waste KiB per round [{}]",
            a.spec.name,
            s.name(),
            list(mops, 1.0),
            report::median(mops),
            list(waste, 1.0 / 1024.0),
        );
    }
    let mut samples = String::new();
    for (i, (name, n)) in o.samples.iter().enumerate() {
        let _ = write!(
            samples,
            "{}{}:{n}",
            if i == 0 { "" } else { "," },
            json_str(name)
        );
    }
    println!("{{\"samples\":{{{samples}}}}}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = report::run(&args.spec, args.seed, args.seconds, args.trace);
    print_report(&args, &outcome);
    if let Some((spans, phases)) = &outcome.spans {
        let path = spans_path(&args);
        match smrbench::trace::write_spans(&path, spans, phases) {
            Ok(()) => eprintln!(
                "smrbench: {} spans ({} dropped) written to {}",
                spans.spans().len(),
                spans.dropped(),
                path.display()
            ),
            Err(e) => eprintln!("smrbench: could not write spans to {}: {e}", path.display()),
        }
    }

    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && outcome.live_restored && finite;
    if !outcome.live_restored {
        eprintln!("smrbench: live-node gauge did not return to its baseline after teardown");
    }
    if !finite {
        eprintln!("smrbench: a metric is not a finite number");
    }
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{v},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
