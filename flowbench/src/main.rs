//! Run one workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload suite_tight --seed 0 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the flow runs untraced and the last stdout line
//! carries the end-to-end metrics; with `--trace 1` untraced and traced
//! passes alternate and it carries the per-layer metrics. Either way
//! that line is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use flowbench::check::{svt_leakage_nw, Tally};
use flowbench::trace::{self_ns, Tracer};
use flowbench::twin::{optimize_circuit_traced, Counts};
use flowbench::workload::{setup, Case, Workload, DEFAULT_SEED};
use pops::delay::Library;
use pops::flow::{optimize_circuit, FlowError, FlowOptions, FlowResult};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

const USAGE: &str =
    "usage: flowbench --workload <suite_tight|suite_hard|fabric_vt> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                let s: u32 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = f64::from(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed call: wall seconds and what the flow returned.
type Call = (f64, Result<FlowResult, FlowError>);

struct Ctx {
    lib: Library,
    options: FlowOptions,
    seed: u64,
}

fn untraced_pass(cases: &[Case], ctx: &Ctx) -> Vec<Call> {
    cases
        .iter()
        .map(|case| {
            let start = Instant::now();
            let r = optimize_circuit(&case.circuit, &ctx.lib, case.tc_ps, &ctx.options);
            (start.elapsed().as_secs_f64(), r)
        })
        .collect()
}

fn traced_pass(cases: &[Case], ctx: &Ctx, tr: &mut Tracer, counts: &mut Counts) -> Vec<Call> {
    cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            tr.set_request(i);
            let start = Instant::now();
            let r = optimize_circuit_traced(
                &case.circuit,
                &ctx.lib,
                case.tc_ps,
                &ctx.options,
                tr,
                counts,
            );
            (start.elapsed().as_secs_f64(), r)
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when nothing was counted.
fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let ctx = Ctx {
        lib: Library::cmos025(),
        options: w.options(),
        seed: args.seed,
    };
    println!(
        "flowbench: workload={} seed={} seconds={} trace={} instances={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.instances()
    );

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        cases = setup(w, args.seed, &ctx.lib)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    if args.trace {
        traced_run(args, &ctx, &cases)
    } else {
        untraced_run(args, &ctx, &cases, median(&setup_s))
    }
}

/// Start another pass only while one more of the last pass's length
/// still fits in `seconds`; always measure at least once.
fn another_pass(clock: &Instant, last_s: Option<f64>, seconds: f64) -> bool {
    last_s.is_none_or(|last| clock.elapsed().as_secs_f64() + last <= seconds)
}

/// Median call time of each profile (s), pooled over its instances
/// and every pass: a slow spell of the host that hits a few calls does
/// not move it.
fn profile_medians(profiles: usize, cases: &[Case], call_s: &[Vec<f64>]) -> Vec<f64> {
    (0..profiles)
        .map(|p| {
            let pooled: Vec<f64> = cases
                .iter()
                .zip(call_s)
                .filter(|(c, _)| c.profile == p)
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            median(&pooled)
        })
        .collect()
}

/// End-to-end metrics, tracing off: passes over every instance until
/// `--seconds` are used. `flow_s` is a typical pass over the workload's
/// profiles — the sum of their median call times — and `flow_gmean_ms`
/// the geometric mean of those medians, so small circuits count as
/// much as large ones.
fn untraced_run(args: &Args, ctx: &Ctx, cases: &[Case], setup_s: f64) -> Result<String, String> {
    let mut tally = Tally::default();
    let mut first: Vec<Call> = Vec::new();
    let mut call_s = vec![Vec::new(); cases.len()];
    let mut pass_s = Vec::new();
    let clock = Instant::now();
    while another_pass(&clock, pass_s.last().copied(), args.seconds) {
        let start = Instant::now();
        let calls = untraced_pass(cases, ctx);
        pass_s.push(start.elapsed().as_secs_f64());
        for (i, (case, call)) in cases.iter().zip(&calls).enumerate() {
            call_s[i].push(call.0);
            let reference = first.get(i).and_then(|c: &Call| c.1.as_ref().ok());
            tally.account(
                case,
                &ctx.lib,
                &ctx.options,
                ctx.seed,
                &call.1,
                reference.map(|r| (r, "result differs from the first pass")),
            );
        }
        if first.is_empty() {
            first = calls;
        }
    }
    let medians = profile_medians(args.workload.profiles().len(), cases, &call_s);

    let results: Vec<(&Case, &FlowResult)> = cases
        .iter()
        .zip(&first)
        .filter_map(|(case, call)| call.1.as_ref().ok().map(|r| (case, r)))
        .collect();
    for (case, call) in cases.iter().zip(&first) {
        let Ok(r) = &call.1 else { continue };
        println!(
            "flowbench: {}#{} gates={} ms={} final/tc={} rounds={} edits={} hvt={}",
            case.circuit.name(),
            case.instance,
            case.circuit.gate_count(),
            1e3 * call.0,
            r.final_delay_ps / case.tc_ps,
            r.rounds,
            r.edits_applied,
            r.hvt_gates
        );
    }
    println!("flowbench: measured pass walls (s): {pass_s:?}");
    let metrics = [
        ("setup_s", setup_s, "s"),
        ("flow_s", medians.iter().sum(), "s"),
        ("flow_gmean_ms", 1e3 * gmean(medians.iter().copied()), "ms"),
        (
            "delay_ratio",
            gmean(results.iter().map(|(c, r)| r.final_delay_ps / c.tc_ps)),
            "ratio",
        ),
        (
            "leakage_ratio",
            gmean(
                results
                    .iter()
                    .map(|(_, r)| r.leakage_nw / svt_leakage_nw(&ctx.lib, r)),
            ),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        (
            "ok_share",
            1.0 - share(tally.failed, tally.attempted),
            "share",
        ),
    ];
    result_line(&tally, &metrics)
}

/// Span time per layer name over one traced pass (ms), plus the flow's
/// self time.
fn layer_ms(tr: &Tracer, name: &str) -> f64 {
    let ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum();
    ns as f64 / 1e6
}

fn flow_self_ms(tr: &Tracer) -> f64 {
    let own = self_ns(tr.spans());
    let ns: u64 = tr
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "flow")
        .map(|(_, &n)| n)
        .sum();
    ns as f64 / 1e6
}

/// The timed layers, as (metric, span name).
const TIMED_LAYERS: [(&str, &str); 13] = [
    ("flow.ms", "flow"),
    ("bounds.ms", "bounds"),
    ("bounds.repeat_ms", "bounds.repeat"),
    ("distribute.ms", "distribute"),
    ("kpaths.ms", "kpaths"),
    ("extract.ms", "extract"),
    ("sta.build_ms", "sta.build"),
    ("sta.query_ms", "sta.query"),
    ("sta.resize_ms", "sta.resize"),
    ("surgery.plan_ms", "surgery.plan"),
    ("surgery.apply_ms", "surgery.apply"),
    ("vt.build_ms", "vt.build"),
    ("vt.probe_ms", "vt.probe"),
];

/// Per-layer metrics: an untraced and a traced pass alternate until
/// `--seconds` are used. Each traced result must match the untraced
/// result of the same pair bit for bit. Times are medians over traced
/// passes and, like counts, given per pass over the workload's profiles
/// (one instance set).
fn traced_run(args: &Args, ctx: &Ctx, cases: &[Case]) -> Result<String, String> {
    let instances = args.workload.instances() as f64;
    let mut tally = Tally::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut counts = Counts::default();
    let mut agrees = true;
    let mut results: Vec<FlowResult> = Vec::new();
    let clock = Instant::now();
    let mut last_pair = None;
    while another_pass(&clock, last_pair, args.seconds) {
        let start = Instant::now();
        let plain = untraced_pass(cases, ctx);
        untraced_s.push(start.elapsed().as_secs_f64());
        for (case, call) in cases.iter().zip(&plain) {
            tally.account(case, &ctx.lib, &ctx.options, ctx.seed, &call.1, None);
        }
        let mut tr = Tracer::new();
        counts = Counts::default();
        let start = Instant::now();
        let traced = traced_pass(cases, ctx, &mut tr, &mut counts);
        traced_s.push(start.elapsed().as_secs_f64());
        for ((case, call), reference) in cases.iter().zip(&traced).zip(&plain) {
            let reference = reference
                .1
                .as_ref()
                .ok()
                .map(|r| (r, "traced twin disagrees"));
            agrees &= tally.account(case, &ctx.lib, &ctx.options, ctx.seed, &call.1, reference);
        }
        last_pair = Some(untraced_s[untraced_s.len() - 1] + traced_s[traced_s.len() - 1]);
        tracers.push(tr);
        results = traced.into_iter().filter_map(|c| c.1.ok()).collect();
    }
    write_spans(args, &tracers);

    let per_set_ms =
        |f: &dyn Fn(&Tracer) -> f64| median(&tracers.iter().map(f).collect::<Vec<_>>()) / instances;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for (metric, span) in TIMED_LAYERS {
        metrics.push((metric, per_set_ms(&|t| layer_ms(t, span)), "ms"));
    }
    metrics.push(("flow.self_ms", per_set_ms(&flow_self_ms), "ms"));
    let n = &counts;
    let count = |x: usize| x as f64 / instances;
    let by_case = cases.iter().zip(&results);
    metrics.extend([
        ("flow.rounds", count(n.rounds), "count"),
        ("flow.noop_rounds", count(n.noop_rounds), "count"),
        ("flow.paths_sized", count(n.paths_sized), "count"),
        (
            "flow.area_ratio",
            gmean(by_case.clone().map(|(c, r)| r.total_cin_ff / c.min_cin_ff)),
            "ratio",
        ),
        (
            "flow.met_share",
            share(
                by_case
                    .clone()
                    .filter(|(c, r)| r.final_delay_ps <= c.tc_ps)
                    .count(),
                results.len(),
            ),
            "share",
        ),
        ("bounds.calls", count(n.bounds_calls), "count"),
        (
            "bounds.sweeps_per_call",
            share(n.bounds_sweeps, n.bounds_calls),
            "count",
        ),
        ("bounds.repeat_calls", count(n.repeat_calls), "count"),
        ("distribute.calls", count(n.distribute_calls), "count"),
        (
            "distribute.feasible_share",
            share(n.distribute_feasible, n.distribute_calls),
            "share",
        ),
        ("kpaths.calls", count(n.kpaths_calls), "count"),
        ("kpaths.paths", count(n.kpaths_paths), "count"),
        (
            "sta.gates_reevaluated",
            count(n.sta.gates_reevaluated),
            "count",
        ),
        (
            "sta.required_reevaluated",
            count(n.sta.required_reevaluated),
            "count",
        ),
        (
            "sta.completion_reevaluated",
            count(n.sta.completion_reevaluated),
            "count",
        ),
        ("sta.forward_flushes", count(n.sta.forward_flushes), "count"),
        (
            "sta.backward_flushes",
            count(n.sta.backward_flushes),
            "count",
        ),
        (
            "sta.converged_early_share",
            share(n.sta.converged_early, n.sta.gates_reevaluated),
            "share",
        ),
        ("surgery.edits", count(n.surgery_edits), "count"),
        ("surgery.kept_edits", count(n.kept_edits), "count"),
        ("vt.probes", count(n.vt_probes), "count"),
        ("vt.demotions", count(n.vt_demotions), "count"),
        (
            "vt.gates_reevaluated",
            count(n.vt.gates_reevaluated),
            "count",
        ),
        (
            "vt.required_reevaluated",
            count(n.vt.required_reevaluated),
            "count",
        ),
        ("vt.threads", n.vt_threads as f64, "count"),
        ("trace.agrees", f64::from(u8::from(agrees)), "bool"),
        (
            "trace.overhead_ms",
            1e3 * (median(&traced_s) - median(&untraced_s)) / instances,
            "ms",
        ),
    ]);
    println!("flowbench: untraced pass walls (s): {untraced_s:?}");
    println!("flowbench: traced pass walls (s): {traced_s:?}");
    result_line(&tally, &metrics)
}

/// Write every traced pass's spans as JSON lines under `flowbench/out/`
/// (relative to the working directory). A failed write only warns.
fn write_spans(args: &Args, tracers: &[Tracer]) {
    let dir = std::path::Path::new("flowbench").join("out");
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (pass, tr) in tracers.iter().enumerate() {
            tr.write_jsonl(pass, &mut out)?;
        }
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => println!("flowbench: spans written to {}", path.display()),
        Err(e) => eprintln!("flowbench: warning: cannot write {}: {e}", path.display()),
    }
}
