//! `certify-audit`: one caller repeats what `enforce certify|surveil
//! --audit F` does, one invocation per job, against a file-backed trail.
//!
//! Each job reopens the trail with `AuditLog::resume` (read and
//! `verify_chain`), certifies its program (rotating the five fixed-policy
//! analyses; labeled examples go through `certify_lattice`), takes a
//! capability, surveils one input and releases the value through a `Sink`.
//! Every record is persisted as it is appended (`FlushPolicy::EveryRecord`).
//! Every run starts from the same pre-grown trail, built in set-up, and the
//! trail is restored to it whenever it reaches [`TRAIL_MAX`] records, so the
//! cost per job does not drift with how many jobs a run completes.

use crate::inputs::{self, Program};
use crate::stats::OpOutcome;
use crate::trace::Tracer;
use crate::{Ctx, Run, Size};
use enf_core::label::Level;
use enf_core::IndexSet;
use enf_flowchart::{Compiled, ExecConfig};
use enf_policy::{
    verify_chain, AuditLog, Capability, ChainVerdict, Enforcer, Engine, FlushPolicy, RunVerdict,
    Sink, Tainted,
};
use enf_static::certify::Analysis;
use enf_surveillance::{run_surveillance_vm, SurvConfig, SurvOutcome};
use std::path::Path;
use std::time::{Duration, Instant};

/// Records in the pre-grown trail every run starts from.
const TRAIL_BASE: usize = 768;
/// Trail length at which the trail is restored to the pre-grown one.
const TRAIL_MAX: usize = 1280;
/// Trail lengths of a probe from another workload.
const PROBE_BASE: usize = 960;
const PROBE_MAX: usize = 1088;
/// Trail length splitting the two buckets of the audit metrics.
const BUCKET_SPLIT: usize = 1024;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// One job in this many runs the lattice certifier.
const LATTICE_EVERY: u64 = 8;
/// Fuel of every monitored run, as `enforce surveil` defaults it.
const FUEL: u64 = 1_000_000;
/// Jobs at the head of the seed's stream that the traced counts cover.
const COUNTED_JOBS: u64 = 256;

/// Bucket suffix of an audit metric for a trail of `len` records.
fn bucket(len: usize) -> &'static str {
    if len < BUCKET_SPLIT {
        "lt1k"
    } else {
        "ge1k"
    }
}

/// One job: a program, its policy, the analysis and the surveilled input.
struct Spec<'p> {
    prog: &'p Program,
    /// Allowed inputs (ignored for labeled programs, whose labels decide).
    allow: IndexSet,
    /// Fixed-policy analysis (labeled programs use the lattice certifier).
    analysis: Analysis,
    input: Vec<i64>,
}

/// The `i`-th job of a seeded stream: every [`LATTICE_EVERY`]-th job
/// certifies a labeled example under its lattice policy, the others draw
/// from the unlabeled programs and rotate the five fixed analyses.
fn spec<'p>(pool: &'p [Program], rng: &mut enf_flowchart::generate::SplitMix, i: u64) -> Spec<'p> {
    let lattice = i % LATTICE_EVERY == LATTICE_EVERY - 1;
    let eligible: Vec<&Program> = pool.iter().filter(|p| p.labeled == lattice).collect();
    let prog = eligible[rng.below(eligible.len() as u64) as usize];
    let sets = inputs::allow_sets(prog.arity);
    Spec {
        prog,
        allow: sets[rng.below(sets.len() as u64) as usize],
        analysis: inputs::FIXED_ANALYSES[(i % 5) as usize],
        input: inputs::input(rng, prog.arity),
    }
}

/// What a job produced, for the checks made after its clock stops.
struct Done {
    fc: enf_flowchart::Flowchart,
    enforcer: Enforcer,
    certified: bool,
    released: Option<i64>,
    appended: usize,
}

/// The job body on an open trail: parse, bind, certify, grant, surveil,
/// release.
fn job(spec: &Spec, log: &mut AuditLog, tr: &mut Tracer, id: u64) -> Result<Done, String> {
    let b = bucket(log.len());
    let before = log.len();
    let text = &spec.prog.text;
    let (fc, enforcer, certified) = if spec.prog.labeled {
        let lp = tr.span("flowchart.parse", id, |_| {
            enf_flowchart::parse_labeled(text)
        });
        let lp = lp.map_err(|e| e.to_string())?;
        let fc = lp.flowchart.clone();
        let inner = lp.clone();
        let e = tr.span("policy.enforcer_new", id, |_| {
            Enforcer::new_lattice(lp, Level::Unclassified)
        });
        let e = e.map_err(|e| e.to_string())?.with_fuel(FUEL);
        let c = tr.span("policy.certify.lattice", id, |_| e.certify_lattice(log));
        let certified = c.map_err(|e| e.to_string())?.is_certified();
        tr.sibling("staticflow.certify.lattice", id, || {
            enf_static::label::certify_lattice(
                &inner.flowchart,
                &inner.classification,
                &inner.flow,
                &Level::Unclassified,
            )
        });
        (fc, e, certified)
    } else {
        let fc = tr.span("flowchart.parse", id, |_| enf_flowchart::parse(text));
        let fc = fc.map_err(|e| e.to_string())?;
        let e = tr.span("policy.enforcer_new", id, |_| {
            Enforcer::new(fc.clone(), spec.allow)
        });
        let e = e.map_err(|e| e.to_string())?.with_fuel(FUEL);
        let key = inputs::analysis_key(spec.analysis);
        let c = tr.span(&format!("policy.certify.{key}"), id, |_| {
            e.certify(spec.analysis, log)
        });
        let certified = c.map_err(|e| e.to_string())?.is_certified();
        tr.sibling(&format!("staticflow.certify.{key}"), id, || {
            enf_static::certify::certify(&fc, spec.allow, spec.analysis)
        });
        (fc, e, certified)
    };
    let cap = tr.span(&format!("policy.audit_append.{b}"), id, |_| {
        Capability::issue("stdout", log)
    });
    let cap = cap.map_err(|e| e.to_string())?;
    let verdict = tr.span("policy.surveil", id, |_| {
        enforcer.surveil(Tainted::new(spec.input.clone()), log)
    });
    let verdict = verdict.map_err(|e| e.to_string())?;
    if tr.on() {
        let compiled = tr.sibling("flowchart.compile", id, || Compiled::new(&fc));
        if let Some(compiled) = compiled {
            let cfg = SurvConfig::surveillance(enforcer.allow()).with_fuel(FUEL);
            let out = tr.sibling("surveillance.run", id, || {
                run_surveillance_vm(&compiled, &spec.input, &cfg)
            });
            if let Some(
                SurvOutcome::Accepted { steps, .. } | SurvOutcome::Violation { steps, .. },
            ) = out
            {
                tr.count(steps);
            }
        }
    }
    let released = match verdict {
        RunVerdict::Released(v) => {
            let y = tr.span(&format!("policy.sink_release.{b}"), id, |_| {
                Sink::new(cap, log).release(v)
            });
            Some(y.map_err(|e| e.to_string())?)
        }
        RunVerdict::Refused(_) => None,
    };
    if let Some(last) = log.lines().last() {
        crate::trace_json(tr, id, last);
    }
    Ok(Done {
        fc,
        enforcer,
        certified,
        released,
        appended: log.len() - before,
    })
}

/// Checks a finished job against the expected verdicts and the reference
/// engines: the AST monitor must agree on release, and a released `y` must
/// equal the AST interpreter's.
fn check(ctx: &Ctx, run: &mut Run, spec: &Spec, done: &Done) {
    let key = if spec.prog.labeled {
        inputs::lattice_key(spec.prog)
    } else {
        inputs::certify_key(spec.prog, &spec.allow, spec.analysis)
    };
    let word = inputs::cert_word(done.certified);
    run.check(ctx.expected.matches(&key, word), || {
        format!("{key}: got {word}")
    });
    let reference = done
        .enforcer
        .clone()
        .with_engine(Engine::Ast)
        .surveil(Tainted::new(spec.input.clone()), &mut AuditLog::in_memory());
    let ast_released = matches!(reference, Ok(RunVerdict::Released(_)));
    run.check(ast_released == done.released.is_some(), || {
        format!(
            "{} {:?}: VM and AST monitors disagree",
            spec.prog.id, spec.input
        )
    });
    if let Some(y) = done.released {
        let want = enf_flowchart::run(&done.fc, &spec.input, &ExecConfig::with_fuel(FUEL)).value();
        run.check(want == Some(y), || {
            format!(
                "{} {:?}: released {y}, interpreter {want:?}",
                spec.prog.id, spec.input
            )
        });
    }
}

/// Set-up: grows a fresh trail to `base` records the way a long-lived
/// embedder would (one open log, persisted at the end) and returns its
/// record count.
fn grow(ctx: &Ctx, path: &Path, base: usize) -> Result<usize, String> {
    let mut log = AuditLog::create(path, FlushPolicy::Manual).map_err(|e| e.to_string())?;
    let mut rng = inputs::rng(ctx.seed, 3);
    let mut off = Tracer::new(false, Instant::now());
    let mut i = 0;
    while log.len() < base {
        job(&spec(&ctx.pool, &mut rng, i), &mut log, &mut off, i)?;
        i += 1;
    }
    log.persist().map_err(|e| e.to_string())?;
    Ok(log.len())
}

/// Verifies the trail on disk holds exactly `records` intact records.
fn verify(run: &mut Run, path: &Path, records: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let v = verify_chain(&text);
    let ok = matches!(v, ChainVerdict::Intact { records: r, .. } if r == records);
    run.check(ok, || {
        format!("trail: {v:?}, want {records} intact records")
    });
    Ok(())
}

/// Traced only: runs the first [`COUNTED_JOBS`] jobs of the seed's stream
/// on an in-memory trail, checks each, and counts certified jobs and
/// appended records. Both counts are fixed by the seed and the program, not
/// by how many jobs the clock let through.
fn count_head(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let mut rng = inputs::rng(ctx.seed, 4);
    let mut log = AuditLog::in_memory();
    let mut off = Tracer::new(false, Instant::now());
    let (mut certified, mut records) = (0u64, 0usize);
    for i in 0..COUNTED_JOBS {
        let spec = spec(&ctx.pool, &mut rng, i);
        let done = job(&spec, &mut log, &mut off, i)?;
        check(ctx, run, &spec, &done);
        certified += u64::from(done.certified);
        records += done.appended;
    }
    run.counters
        .add("staticflow.certified_count", certified as f64);
    run.counters.add("policy.audit_records", records as f64);
    Ok(())
}

/// Runs the workload for `budget`.
pub fn run(ctx: &Ctx, size: Size, tr: &mut Tracer, budget: Duration) -> Result<Run, String> {
    let (base_len, max_len) = match size {
        Size::Full => (TRAIL_BASE, TRAIL_MAX),
        Size::Probe => (PROBE_BASE, PROBE_MAX),
    };
    let base = ctx.work_dir.join("trail-base.jsonl");
    let trail = ctx.work_dir.join("trail.jsonl");
    let mut run = Run::default();
    let mut base_records = 0;
    for _ in 0..SETUPS {
        let t = Instant::now();
        base_records = grow(ctx, &base, base_len)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let restore = |trail: &Path| std::fs::copy(&base, trail).map_err(|e| e.to_string());
    restore(&trail)?;
    let mut records = base_records;
    let mut rng = inputs::rng(ctx.seed, 4);
    let start = Instant::now();
    let mut window = run.mark();
    let mut i = 0u64;
    while start.elapsed() < budget || i == 0 {
        let spec = spec(&ctx.pool, &mut rng, i);
        let t0 = Instant::now();
        let s0 = tr.sibling_ns();
        let done = tr.span("job", i, |tr| -> Result<Done, String> {
            let b = bucket(records);
            let log = tr.span(&format!("policy.audit_resume.{b}"), i, |_| {
                AuditLog::resume(&trail, FlushPolicy::EveryRecord)
            });
            let mut log = log.map_err(|e| e.to_string())?;
            tr.count(log.len() as u64);
            job(&spec, &mut log, tr, i)
        });
        let busy = t0.elapsed().as_secs_f64() - (tr.sibling_ns() - s0) as f64 / 1e9;
        let done = match done {
            Ok(done) => done,
            Err(e) => {
                run.tally.record(OpOutcome::Failed);
                run.check(false, || e);
                break;
            }
        };
        run.tally.record(OpOutcome::Ok);
        run.latency_ms.push(busy * 1e3);
        run.busy_s += busy;
        run.inputs += 1;
        records += done.appended;
        check(ctx, &mut run, &spec, &done);
        if records >= max_len {
            run.close_window(&window);
            window = run.mark();
            verify(&mut run, &trail, records)?;
            restore(&trail)?;
            records = base_records;
        }
        i += 1;
        if size == Size::Probe && records == base_records {
            break;
        }
    }
    verify(&mut run, &trail, records)?;
    if tr.on() {
        count_head(ctx, &mut run)?;
    }
    Ok(run)
}
