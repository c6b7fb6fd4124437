//! The repository benchmark: seeded closed-loop workloads against the
//! public API that `enforce` and `enforce serve` call, with every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload check-grid|certify-audit|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). The line before it records the host, the seed, sample
//! counts and why the workload exists. A traced run also writes its spans
//! to `.perfbench_out/<workload>.trace.jsonl`.

mod certify_audit;
mod check_grid;
mod inputs;
mod serve_mixed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Where runs leave their traces and scratch files, relative to the
/// checkout root.
const OUT_DIR: &str = ".perfbench_out";

/// The workloads; `BENCHMARK.json` records why each exists.
const WORKLOADS: [&str; 3] = ["check-grid", "certify-audit", "serve-mixed"];

/// The manifest declaring the benchmark, relative to the checkout root.
const MANIFEST: &str = "BENCHMARK.json";

/// The `"name"` values of `BENCHMARK.json` between two keys, in order.
/// (The repository's JSON reader has no floats, so the manifest, whose
/// bounds are fractions, is scanned instead.)
#[cfg(test)]
fn manifest_names<'m>(manifest: &'m str, from: &str, to: &str) -> Vec<&'m str> {
    let start = manifest.find(from).unwrap_or(manifest.len());
    let end = manifest[start..]
        .find(to)
        .map_or(manifest.len(), |e| start + e);
    manifest[start..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect()
}

/// The workload's rationale as `BENCHMARK.json` states it.
fn rationale(manifest: &str, workload: &str) -> Option<String> {
    let entry = manifest
        .split(&format!("\"name\": \"{workload}\""))
        .nth(1)?;
    let why = entry.split("\"why\": \"").nth(1)?;
    Some(why.split('"').next()?.to_string())
}

/// How much of a workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The workload as measured.
    Full,
    /// A short pass that only feeds per-layer spans to another workload's
    /// traced run.
    Probe,
}

/// What every workload shares.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Worker threads and clients (`available_parallelism`).
    pub threads: usize,
    /// The program pool.
    pub pool: Vec<inputs::Program>,
    /// Expected verdicts.
    pub expected: inputs::Expected,
    /// Scratch directory of this process.
    pub work_dir: PathBuf,
    /// Why the workload exists.
    pub why: String,
}

/// Named sums reported by a workload.
#[derive(Default, Debug)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The measurements of one workload pass.
#[derive(Default, Debug)]
pub struct Run {
    /// Operations attempted and how they ended.
    pub tally: stats::Tally,
    /// Latency of every answered job, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Time the jobs were running, in seconds.
    pub busy_s: f64,
    /// Program inputs decided.
    pub inputs: u64,
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Output checks made.
    pub checks: u64,
    /// The first failed checks.
    pub wrong: Vec<String>,
    /// Failed checks in all.
    pub wrong_count: u64,
    /// Workload-specific sums.
    pub counters: Counters,
    /// Closed windows; see [`Window`].
    pub windows: Vec<Window>,
}

/// A stretch of a run over which throughput is taken; the reported figure
/// is the median over windows, so a burst of noise in one window does not
/// move it. `certify-audit` closes one per trail cycle, `serve-mixed` one
/// per server round; a run that closed none is one window. Latency
/// percentiles are taken over the whole run.
#[derive(Clone, Debug)]
pub struct Window {
    /// Jobs answered.
    pub jobs: u64,
    /// Job time, in seconds.
    pub busy_s: f64,
    /// Inputs decided.
    pub inputs: u64,
}

impl Run {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.wrong_count += 1;
            if self.wrong.len() < 8 {
                self.wrong.push(what());
            }
        }
    }

    fn correct(&self) -> bool {
        self.wrong_count == 0
    }

    /// The start of a window opened now.
    pub fn mark(&self) -> Window {
        Window {
            jobs: self.tally.ok,
            busy_s: self.busy_s,
            inputs: self.inputs,
        }
    }

    /// Closes the window opened at `mark`.
    pub fn close_window(&mut self, mark: &Window) {
        self.windows.push(Window {
            jobs: self.tally.ok - mark.jobs,
            busy_s: self.busy_s - mark.busy_s,
            inputs: self.inputs - mark.inputs,
        });
    }

    /// The closed windows, or the whole run as one window.
    fn all_windows(&self) -> Vec<Window> {
        if self.windows.is_empty() {
            vec![Window {
                jobs: self.tally.ok,
                busy_s: self.busy_s,
                inputs: self.inputs,
            }]
        } else {
            self.windows.clone()
        }
    }

    /// Median over windows of `f`.
    fn per_window(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let v: Vec<f64> = self.all_windows().iter().map(f).collect();
        stats::median(&v).unwrap_or(0.0)
    }
}

/// Traced only: times parsing and rendering one JSON document the job
/// produced, as siblings.
pub fn trace_json(tr: &mut Tracer, job: u64, text: &str) {
    if let Some(Ok(doc)) = tr.sibling("core.json.parse", job, || enf_core::json::parse(text)) {
        tr.sibling("core.json.render", job, || doc.render());
    }
}

fn run_workload(
    name: &str,
    ctx: &Ctx,
    size: Size,
    tr: &mut Tracer,
    budget: Duration,
) -> Result<Run, String> {
    match name {
        "check-grid" => check_grid::run(ctx, size, tr, budget),
        "certify-audit" => certify_audit::run(ctx, size, tr, budget),
        "serve-mixed" => serve_mixed::run(ctx, size, tr, budget),
        _ => Err(format!("unknown workload `{name}`")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-expected") {
        return Ok(None);
    }
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments {argv:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|_| format!("bad --{k}"))
    };
    let seconds = num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Some(Args {
        workload,
        seed: get("seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace,
    }))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

/// The end-to-end metrics of a pass: name, value, unit.
fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let rate = |n: u64, w: &Window| n as f64 / w.busy_s.max(f64::MIN_POSITIVE);
    vec![
        ("setup_s", stats::median(&run.setup_s).unwrap_or(0.0), "s"),
        ("jobs_per_s", run.per_window(|w| rate(w.jobs, w)), "1/s"),
        (
            "job_ms_p50",
            stats::median(&run.latency_ms).unwrap_or(0.0),
            "ms",
        ),
        ("inputs_per_s", run.per_window(|w| rate(w.inputs, w)), "1/s"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ]
}

/// The per-layer metrics, from the traced pass's spans and counters
/// (falling back to the probes' for layers the workload does not call),
/// plus the untraced pass's job latency tail.
fn per_layer(
    tr: &Tracer,
    counters: &[&Counters],
    untraced_ms: &[f64],
    overhead_pct: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let us = |name: &str| tr.median_us(name).unwrap_or(0.0);
    let counter = |name: &str| counters.iter().find_map(|c| c.get(name)).unwrap_or(0.0);
    m.push(("flowchart.parse_us".into(), us("flowchart.parse"), "us"));
    m.push(("flowchart.compile_us".into(), us("flowchart.compile"), "us"));
    let keys = [
        "surveillance",
        "scoped",
        "value",
        "relational",
        "dynamic",
        "lattice",
    ];
    for k in keys {
        m.push((
            format!("staticflow.certify_us.{k}"),
            us(&format!("staticflow.certify.{k}")),
            "us",
        ));
    }
    m.push((
        "staticflow.certified_count".into(),
        counter("staticflow.certified_count"),
        "count",
    ));
    m.push(("surveillance.run_us".into(), us("surveillance.run"), "us"));
    let runs = tr.named("surveillance.run");
    let steps: u64 = runs.iter().filter_map(|s| s.count).sum();
    let ns: u64 = runs.iter().map(|s| s.ns()).sum();
    m.push((
        "surveillance.steps_per_s".into(),
        steps as f64 / (ns.max(1) as f64 / 1e9),
        "1/s",
    ));
    let labels = ["j0", "j1", "jall"];
    for l in labels {
        m.push((
            format!("core.sweep_s.{l}"),
            us(&format!("core.sweep.{l}")) / 1e6,
            "s",
        ));
    }
    for l in labels {
        let classes: Vec<f64> = tr
            .named(&format!("core.sweep.{l}"))
            .iter()
            .filter_map(|s| s.count.map(|c| c as f64))
            .collect();
        m.push((
            format!("core.sweep_classes.{l}"),
            stats::median(&classes).unwrap_or(0.0),
            "count",
        ));
    }
    m.push(("core.json_parse_us".into(), us("core.json.parse"), "us"));
    m.push(("core.json_render_us".into(), us("core.json.render"), "us"));
    m.push((
        "policy.enforcer_new_us".into(),
        us("policy.enforcer_new"),
        "us",
    ));
    let pooled = |outer: &str, inner: &str, names: &[&str]| -> f64 {
        let mut all = Vec::new();
        for n in names {
            all.extend(tr.self_samples_us(&format!("{outer}.{n}"), &format!("{inner}.{n}")));
        }
        stats::median(&all).unwrap_or(0.0)
    };
    m.push((
        "policy.certify_self_us".into(),
        pooled("policy.certify", "staticflow.certify", &keys),
        "us",
    ));
    m.push((
        "policy.sweep_self_s".into(),
        pooled("policy.sweep", "core.sweep", &labels) / 1e6,
        "s",
    ));
    for layer in ["audit_resume", "audit_append", "sink_release"] {
        for b in ["lt1k", "ge1k"] {
            m.push((
                format!("policy.{layer}_us.{b}"),
                us(&format!("policy.{layer}.{b}")),
                "us",
            ));
        }
    }
    m.push((
        "policy.audit_records".into(),
        counter("policy.audit_records"),
        "count",
    ));
    // Every trail write that does no other work (`Capability::issue`,
    // `Sink::release`), both buckets: its p99 is where trail stalls show.
    let mut writes = Vec::new();
    for layer in ["audit_append", "sink_release"] {
        for b in ["lt1k", "ge1k"] {
            let spans = tr.named(&format!("policy.{layer}.{b}"));
            writes.extend(spans.iter().map(|s| s.ns() as f64 / 1e6));
        }
    }
    m.push((
        "policy.audit_write_ms_p99".into(),
        stats::tail(&writes, 99).map_or(0.0, |t| t.value),
        "ms",
    ));
    let pings: Vec<f64> = tr
        .named("serve.ping")
        .iter()
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    m.push((
        "serve.ping_ms_p50".into(),
        stats::median(&pings).unwrap_or(0.0),
        "ms",
    ));
    m.push((
        "serve.ping_ms_p99".into(),
        stats::tail(&pings, 99).map_or(0.0, |t| t.value),
        "ms",
    ));
    m.push(("serve.frame_us".into(), us("serve.frame"), "us"));
    m.push((
        "serve.queue_wait_ms_p50".into(),
        counter("serve.queue_wait_ms_p50"),
        "ms",
    ));
    let hits = counter("serve.cache_hits");
    let sweeps = counter("serve.sweep_jobs").max(1.0);
    m.push(("serve.cache_hit_ratio".into(), hits / sweeps, "ratio"));
    for c in ["served", "shed", "quarantined"] {
        m.push((
            format!("serve.{c}"),
            counter(&format!("serve.{c}")),
            "count",
        ));
    }
    // The end-to-end tail, ungated: it follows the host's scheduling noise
    // more than the program (see the README).
    for pct in [95, 99] {
        m.push((
            format!("bench.job_ms_p{pct}"),
            stats::tail(untraced_ms, pct).map_or(0.0, |t| t.value),
            "ms",
        ));
    }
    m.push(("bench.trace_overhead_pct".into(), overhead_pct, "%"));
    m
}

fn detail(args: &Args, ctx: &Ctx, run: &Run, extra: &str) -> String {
    let p95 = stats::tail(&run.latency_ms, 95);
    let p99 = stats::tail(&run.latency_ms, 99);
    let mut wrong = String::new();
    for w in &run.wrong {
        let _ = write!(
            wrong,
            "{}\"{}\"",
            if wrong.is_empty() { "" } else { ", " },
            w.replace('"', "'")
        );
    }
    format!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"why\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"host\": {{\"nproc\": {}, \"commit\": \"{}\", \"profile\": \"{}\", \
         \"os\": \"{}\", \"arch\": \"{}\"}}, \"samples\": {{\"jobs\": {}, \"setups\": {}, \
         \"windows\": {}, \"job_ms_p95\": {:.3}, \"job_ms_p95_pct\": {:.2}, \"job_ms_p99\": {:.3}, \"job_ms_p99_pct\": {:.2}}}, \"attempted\": {}, \"ok\": {}, \"failed\": {}, \
         \"shed_exhausted\": {}, \"refused\": {}, \"failed_frac\": {}, \"checks\": {}, \
         \"checks_failed\": {}, \"wrong\": [{wrong}]{extra}}}}}",
        args.workload,
        ctx.why.replace('"', "'"),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.threads,
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::consts::OS,
        std::env::consts::ARCH,
        run.latency_ms.len(),
        run.setup_s.len(),
        run.all_windows().len(),
        p95.as_ref().map_or(0.0, |t| t.value),
        p95.as_ref().map_or(0.0, |t| t.pct),
        p99.as_ref().map_or(0.0, |t| t.value),
        p99.as_ref().map_or(0.0, |t| t.pct),
        run.tally.attempted,
        run.tally.ok,
        run.tally.failed,
        run.tally.shed_exhausted,
        run.tally.refused,
        run.tally.failed_frac(),
        run.checks,
        run.wrong_count,
    )
}

fn bench(args: &Args, ctx: &Ctx) -> Result<(String, bool), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    if !args.trace {
        let mut off = Tracer::new(false, epoch);
        let run = run_workload(&args.workload, ctx, Size::Full, &mut off, budget)?;
        let mut metrics = String::new();
        for (name, value, unit) in end_to_end(&run) {
            metric(&mut metrics, name, value, unit);
        }
        println!("{}", detail(args, ctx, &run, ""));
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            run.correct(),
            run.tally.attempted,
            run.tally.not_ok()
        );
        return Ok((line, run.correct()));
    }
    // Traced: half the time untraced, half traced, then short probes of
    // the layers this workload does not call.
    let half = budget / 2;
    let mut off = Tracer::new(false, epoch);
    let plain = run_workload(&args.workload, ctx, Size::Full, &mut off, half)?;
    let mut tr = Tracer::new(true, epoch);
    let traced = run_workload(&args.workload, ctx, Size::Full, &mut tr, half)?;
    tr.probe = true;
    let mut probes = Vec::new();
    for w in WORKLOADS.iter().filter(|w| **w != args.workload) {
        probes.push(run_workload(
            w,
            ctx,
            Size::Probe,
            &mut tr,
            Duration::from_secs(20),
        )?);
    }
    let p50 = |r: &Run| stats::median(&r.latency_ms).unwrap_or(0.0);
    let overhead = 100.0 * (p50(&traced) - p50(&plain)) / p50(&plain).max(f64::MIN_POSITIVE);
    let mut counters = vec![&traced.counters];
    counters.extend(probes.iter().map(|p| &p.counters));
    let mut metrics = String::new();
    for (name, value, unit) in per_layer(&tr, &counters, &plain.latency_ms, overhead) {
        metric(&mut metrics, &name, value, unit);
    }
    let trace_path = format!("{OUT_DIR}/{}.trace.jsonl", args.workload);
    let mut text = tr.render();
    text.push_str("{\"self_times_us\": [");
    for (i, (name, calls, total, own)) in tr.self_times().iter().enumerate() {
        let _ = write!(
            text,
            "{}{{\"name\": \"{name}\", \"calls\": {calls}, \"total\": {total:.1}, \"self\": {own:.1}}}",
            if i == 0 { "" } else { ", " }
        );
    }
    text.push_str("]}\n");
    std::fs::write(&trace_path, text).map_err(|e| format!("{trace_path}: {e}"))?;
    let mut extra = format!(
        ", \"trace_file\": \"{trace_path}\", \"spans\": {}",
        tr.spans().len()
    );
    for (label, r) in [("untraced", &plain), ("traced", &traced)] {
        let mut m = String::new();
        for (name, value, unit) in end_to_end(r) {
            metric(&mut m, name, value, unit);
        }
        let _ = write!(extra, ", \"{label}\": {{{m}}}");
    }
    let mut all = plain;
    for r in std::iter::once(&traced).chain(probes.iter()) {
        all.tally.merge(&r.tally);
        all.checks += r.checks;
        all.wrong_count += r.wrong_count;
        all.wrong.extend(r.wrong.iter().cloned());
    }
    println!("{}", detail(args, ctx, &all, &extra));
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        all.correct(),
        all.tally.attempted,
        all.tally.not_ok()
    );
    Ok((line, all.correct()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = match inputs::pool() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot load the program pool: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(args) = args else {
        return match inputs::render_expected(&pool)
            .and_then(|t| std::fs::write(inputs::EXPECTED_PATH, t).map_err(|e| e.to_string()))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    };
    let manifest = std::fs::read_to_string(MANIFEST).unwrap_or_default();
    let Some(why) = rationale(&manifest, &args.workload) else {
        eprintln!(
            "perfbench: {MANIFEST} states no rationale for `{}`",
            args.workload
        );
        return ExitCode::from(2);
    };
    let expected = match inputs::Expected::load() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: cannot load expected verdicts: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(format!("{OUT_DIR}/work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool,
        expected,
        work_dir,
        why,
    };
    let result = bench(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../",
            "BENCHMARK.json"
        ))
        .expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn manifest_declares_every_workload_with_a_rationale() {
        let m = manifest();
        assert_eq!(
            manifest_names(&m, "\"workloads\"", "\"end_to_end\""),
            WORKLOADS
        );
        for w in WORKLOADS {
            assert!(rationale(&m, w).is_some_and(|r| !r.is_empty()), "{w}");
        }
    }

    #[test]
    fn manifest_metrics_are_the_ones_reported() {
        let m = manifest();
        let e2e: Vec<&str> = end_to_end(&Run::default())
            .iter()
            .map(|(n, _, _)| *n)
            .collect();
        assert_eq!(manifest_names(&m, "\"end_to_end\"", "\"per_layer\""), e2e);
        let tr = Tracer::new(true, Instant::now());
        let layers: Vec<String> = per_layer(&tr, &[], &[], 0.0)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(manifest_names(&m, "\"per_layer\"", "\u{0}"), layers);
    }

    #[test]
    fn throughput_is_a_median_over_windows_and_the_tail_spans_the_run() {
        let mut run = Run::default();
        for (k, secs) in [1.0, 2.0, 4.0].into_iter().enumerate() {
            let mark = run.mark();
            for j in 0..100 {
                run.tally.record(stats::OpOutcome::Ok);
                // Six stalls per window, 6% of the run: beyond p94.
                run.latency_ms
                    .push(if j < 6 { 1000.0 } else { (k + 1) as f64 });
            }
            run.busy_s += secs;
            run.inputs += 300;
            run.close_window(&mark);
        }
        let m: BTreeMap<&str, f64> = end_to_end(&run)
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(m["jobs_per_s"], 50.0);
        assert_eq!(m["inputs_per_s"], 150.0);
        assert_eq!(m["job_ms_p50"], 2.0);
        let tr = Tracer::new(true, Instant::now());
        let layers: BTreeMap<String, f64> = per_layer(&tr, &[], &run.latency_ms, 0.0)
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(layers["bench.job_ms_p95"], 1000.0);
        run.windows.clear();
        let m: BTreeMap<&str, f64> = end_to_end(&run)
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(m["jobs_per_s"], 300.0 / 7.0);
    }
}
