//! `check-grid`: one caller runs what `enforce check` runs, an exhaustive
//! surveillance sweep on the VM engine, over the `[-511, 511]²` grid.
//!
//! A job checks one program under `allow()`, `allow(1)` and `allow(1, 2)`:
//! about one, about a thousand and about a million view classes, the last
//! above the class evaluator's 2¹⁶ flat-table limit. Programs are a seeded
//! draw from the arity-2 pool, one per cost stratum, so every run sweeps a
//! similar mix of program costs.

use crate::inputs::{self, Program};
use crate::trace::Tracer;
use crate::{Ctx, Run, Size};
use enf_core::{Allow, CancelToken, EvalConfig, Grid, IndexSet, SoundnessReport, Verdict};
use enf_flowchart::{Compiled, FlowchartProgram};
use enf_policy::{AuditLog, Enforcer};
use enf_surveillance::{run_surveillance_vm, SurvConfig, SurvOutcome, VmSurveillance};
use std::time::{Duration, Instant};

/// Grid half-width of a full run: the class-evaluator benchmark's size.
const SPAN: i64 = 511;
/// Grid half-width when probing the sweep layers from another workload.
const PROBE_SPAN: i64 = 63;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Programs drawn per run (one per cost stratum).
const STRATA: usize = 8;
/// Input coordinates, across the grid, on which a program's steps are
/// counted to place it in a cost stratum.
const STEP_SAMPLES: [i64; 5] = [-511, -256, 0, 256, 511];
/// Grid inputs replayed through the VM monitor per traced sweep.
const RUN_SAMPLES: usize = 64;
/// Fuel of every sweep, as `enforce check` defaults it.
const FUEL: u64 = 1_000_000;
/// The leak that only shows when fuel runs out (see the notes on
/// `enforce check --span 10 --fuel 20`).
const FUEL_LEAK: &str = "program(2) { r1 := x1; while r1 > 0 { r1 := r1 - 1; } y := 0; }";

/// The three policies of a job, with the label used in metric names.
fn policies() -> [(&'static str, IndexSet); 3] {
    [
        ("j0", IndexSet::empty()),
        ("j1", IndexSet::single(1)),
        ("jall", IndexSet::from_iter([1, 2])),
    ]
}

/// Metric label of an allow set: none, some or all of the inputs.
pub fn policy_label(allow: &IndexSet, arity: usize) -> &'static str {
    if allow.is_empty() {
        "j0"
    } else if allow.len() == arity {
        "jall"
    } else {
        "j1"
    }
}

/// Distinct policy views on the grid: the expected class count.
fn expected_classes(allow: &IndexSet, span: i64) -> usize {
    (2 * span as usize + 1).pow(allow.len() as u32)
}

/// Seeded draw: one program from each of [`STRATA`] strata of the arity-2
/// pool ordered by interpreter steps on a few inputs (what a sweep's cost
/// follows), visited lowest, highest, second lowest, and so on, so that
/// every prefix of the job sequence has a similar cost mix. Programs with
/// policy boxes are left out: their soundness is the scheduled oracle's
/// question.
fn draw(pool: &[Program], seed: u64) -> Result<Vec<&Program>, String> {
    let mut eligible = Vec::new();
    for p in pool.iter().filter(|p| p.arity == 2 && !p.policy_boxes) {
        let fc = parse(&p.text)?;
        let mut steps = 0;
        for a in STEP_SAMPLES {
            for b in STEP_SAMPLES {
                let cfg = enf_flowchart::ExecConfig::with_fuel(FUEL);
                match enf_flowchart::run(&fc, &[a, b], &cfg) {
                    enf_flowchart::Outcome::Halted(h) => steps += h.steps,
                    enf_flowchart::Outcome::OutOfFuel => {
                        return Err(format!("{} ran out of fuel", p.id))
                    }
                }
            }
        }
        eligible.push((steps, p));
    }
    eligible.sort_by(|(sa, a), (sb, b)| sa.cmp(sb).then_with(|| a.id.cmp(&b.id)));
    let mut rng = inputs::rng(seed, 1);
    let per = eligible.len() / STRATA;
    let order = (0..STRATA).map(|k| {
        if k % 2 == 0 {
            k / 2
        } else {
            STRATA - 1 - k / 2
        }
    });
    Ok(order
        .map(|s| eligible[s * per + rng.below(per as u64) as usize].1)
        .collect())
}

/// Set-up: draw the programs, confirm the fuel-starved leak is refuted,
/// and warm the sweep path on a small grid with a fixed program.
fn setup<'p>(ctx: &'p Ctx, run: &mut Run) -> Result<Vec<&'p Program>, String> {
    let programs = draw(&ctx.pool, ctx.seed)?;
    let eval = EvalConfig::with_threads(ctx.threads);
    let leak = Enforcer::new(parse(FUEL_LEAK)?, IndexSet::single(2))
        .map_err(|e| e.to_string())?
        .with_fuel(20);
    let o = leak
        .sweep(10, &eval, &CancelToken::new(), &mut AuditLog::in_memory())
        .map_err(|e| e.to_string())?;
    run.check(o.verdict() == Verdict::Refuted, || {
        format!("fuel-starved leak: {:?}, want Refuted", o.verdict())
    });
    let warm = Enforcer::new(parse(FUEL_LEAK)?, IndexSet::single(1)).map_err(|e| e.to_string())?;
    let o = warm
        .sweep(
            PROBE_SPAN,
            &eval,
            &CancelToken::new(),
            &mut AuditLog::in_memory(),
        )
        .map_err(|e| e.to_string())?;
    run.check(o.verdict() == Verdict::Confirmed, || {
        "warm-up sweep not confirmed".into()
    });
    Ok(programs)
}

fn parse(text: &str) -> Result<enf_flowchart::Flowchart, String> {
    enf_flowchart::parse(text).map_err(|e| e.to_string())
}

/// Runs the workload for `budget` (a probe runs one job on a small grid).
pub fn run(ctx: &Ctx, size: Size, tr: &mut Tracer, budget: Duration) -> Result<Run, String> {
    let span = match size {
        Size::Full => SPAN,
        Size::Probe => PROBE_SPAN,
    };
    let mut run = Run::default();
    let mut programs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        programs = setup(ctx, &mut run)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let eval = EvalConfig::with_threads(ctx.threads);
    let start = Instant::now();
    for (i, prog) in programs.iter().cycle().enumerate() {
        if i > 0 && (size == Size::Probe || start.elapsed() >= budget) {
            break;
        }
        let job = i as u64;
        let t0 = Instant::now();
        let s0 = tr.sibling_ns();
        let outcomes = tr.span("job", job, |tr| -> Result<_, String> {
            let fc = tr.span("flowchart.parse", job, |_| parse(&prog.text))?;
            let mut log = AuditLog::in_memory();
            let mut outcomes = Vec::new();
            for (label, allow) in policies() {
                let e = tr.span("policy.enforcer_new", job, |_| {
                    Enforcer::new(fc.clone(), allow)
                });
                let e = e.map_err(|e| e.to_string())?;
                let o = tr.span(&format!("policy.sweep.{label}"), job, |_| {
                    e.sweep(span, &eval, &CancelToken::new(), &mut log)
                });
                let o = o.map_err(|e| e.to_string())?;
                outcomes.push((label, o.verdict(), o.checked(), o.total()));
                trace_layers(tr, &mut run, job, label, &fc, allow, span, &eval, &log);
            }
            Ok(outcomes)
        })?;
        let busy = t0.elapsed().as_secs_f64() - (tr.sibling_ns() - s0) as f64 / 1e9;
        run.latency_ms.push(busy * 1e3);
        run.busy_s += busy;
        for (label, verdict, checked, total) in outcomes {
            run.inputs += checked as u64;
            let ok = verdict == Verdict::Confirmed && checked == total && total == grid_len(span);
            run.check(ok, || {
                format!("{} {label}: {verdict:?} {checked}/{total}", prog.id)
            });
        }
        run.tally.record(crate::stats::OpOutcome::Ok);
    }
    Ok(run)
}

fn grid_len(span: i64) -> usize {
    (2 * span as usize + 1).pow(2)
}

/// Traced only: the inner layers of one `Enforcer::sweep`, replayed on the
/// same mechanism, policy and grid as siblings.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    tr: &mut Tracer,
    run: &mut Run,
    job: u64,
    label: &str,
    fc: &enf_flowchart::Flowchart,
    allow: IndexSet,
    span: i64,
    eval: &EvalConfig,
    log: &AuditLog,
) {
    if !tr.on() {
        return;
    }
    let mech = VmSurveillance::new(FlowchartProgram::with_fuel(fc.clone(), FUEL), allow);
    let policy = Allow::from_set(2, allow);
    let grid = Grid::hypercube(2, -span..=span);
    let cov = tr.sibling(&format!("core.sweep.{label}"), job, || {
        enf_core::try_check_soundness_with(&mech, &policy, &grid, false, eval, &CancelToken::new())
    });
    let classes = match cov {
        Some(Ok(enf_core::Coverage {
            report: Some(SoundnessReport::Sound { classes, .. }),
            ..
        })) => classes,
        _ => 0,
    };
    tr.count(classes as u64);
    let want = expected_classes(&allow, span);
    run.check(classes == want, || {
        format!("{label}: {classes} classes, want {want}")
    });
    let compiled = tr.sibling("flowchart.compile", job, || Compiled::new(fc));
    let (Some(compiled), Some(record)) = (compiled, log.lines().last()) else {
        return;
    };
    let cfg = SurvConfig::surveillance(allow).with_fuel(FUEL);
    let mut rng = inputs::rng(job, 2);
    for _ in 0..RUN_SAMPLES {
        let a: Vec<i64> = (0..2)
            .map(|_| rng.below(2 * span as u64 + 1) as i64 - span)
            .collect();
        let out = tr.sibling("surveillance.run", job, || {
            run_surveillance_vm(&compiled, &a, &cfg)
        });
        if let Some(SurvOutcome::Accepted { steps, .. } | SurvOutcome::Violation { steps, .. }) =
            out
        {
            tr.count(steps);
        }
    }
    crate::trace_json(tr, job, record);
}
