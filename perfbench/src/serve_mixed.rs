//! `serve-mixed`: closed-loop clients (one per core) against an in-process
//! policy server with the default configuration.
//!
//! Jobs rotate through surveil, check, refute and certify across three
//! tenants, as the repository's service load rows do, on seeded programs.
//! A check or refute job repeats, with probability one half, one of the
//! same op that the same client completed earlier in the round, so the seed
//! fixes the verdict-cache hit ratio; the others carry a fuel bound no other
//! job uses, so they always miss. The server is started afresh for each round
//! of [`ROUND_JOBS`] jobs, so its in-memory trails and job table stay
//! bounded and peak memory does not grow with throughput.

use crate::check_grid::policy_label;
use crate::inputs::{self, Program, SMALL_SPAN};
use crate::stats::OpOutcome;
use crate::trace::Tracer;
use crate::{Ctx, Run, Size};
use enf_core::{Allow, CancelToken, EvalConfig, Grid, Identity, Json, SoundnessReport};
use enf_flowchart::{Compiled, ExecConfig, FlowchartProgram};
use enf_policy::{AuditLog, Capability, Enforcer, Engine, RunVerdict, Sink, Tainted};
use enf_serve::{
    read_frame, reply_is_ok, write_frame, Client, ClientConfig, ClientError, Op, Request,
    ServerConfig, ServerHandle,
};
use enf_static::certify::Analysis;
use enf_surveillance::{run_surveillance_vm, SurvConfig, SurvOutcome, VmSurveillance};
use std::time::{Duration, Instant};

/// Jobs per server lifetime.
const ROUND_JOBS: usize = 1000;
/// Jobs of a probe from another workload.
const PROBE_JOBS: usize = 200;
/// Tenant namespaces the jobs spread over.
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
/// Fuel the server applies when a request sets none.
const SERVER_FUEL: u64 = 10_000;
/// Fuel of fresh check and refute jobs starts here and is unique per job.
const FRESH_FUEL: u64 = 20_000;
/// A program every tenant's warm-up surveil releases.
const WARM: &str = "program(1) { y := x1; }";

/// One planned request.
struct Job<'p> {
    req: Request,
    prog: &'p Program,
    /// Repeats a completed check or refute: must be a cache hit.
    repeat: bool,
}

fn request(op: Op, tenant: &str, job: String, program: &str) -> Request {
    Request {
        op,
        tenant: tenant.to_string(),
        job,
        program: program.to_string(),
        allow: enf_core::IndexSet::empty(),
        input: Vec::new(),
        span: SMALL_SPAN,
        deadline_ms: None,
        budget: None,
        block: 256,
        fuel: 0,
        chaos: None,
    }
}

/// The seeded job list of one client in one round.
///
/// The op rotation (surveil, check, refute, certify: a quarter each), the
/// tenant rotation over three tenants and the span of check and refute
/// grids are those of the repository's service load rows
/// (`enf_bench::serve_eval`), so the two stay comparable; the programs,
/// policies and inputs are drawn from the seed. Those rows send one fixed
/// program, so every sweep after the first is a cache hit. Here each check
/// or refute instead repeats an earlier one of the same op with probability
/// one half, so cache hits and real sweeps carry equal weight among sweeps
/// and the seed fixes which is which.
fn plan<'p>(ctx: &'p Ctx, round: u64, client: u64, n: usize) -> Vec<Job<'p>> {
    let mut rng = inputs::rng(ctx.seed, 100 + round * 64 + client);
    let mut out: Vec<Job> = Vec::with_capacity(n);
    // Earlier fresh check and refute jobs, by op.
    let mut sweeps: [Vec<usize>; 2] = Default::default();
    for i in 0..n {
        let id = format!("r{round}c{client}j{i}");
        let op = match i % 4 {
            0 => Op::Surveil,
            1 => Op::Check,
            2 => Op::Refute,
            _ => Op::Certify,
        };
        let earlier = match op {
            Op::Check => Some(0),
            Op::Refute => Some(1),
            _ => None,
        };
        if let Some(k) = earlier {
            if !sweeps[k].is_empty() && rng.below(2) == 0 {
                let from = sweeps[k][rng.below(sweeps[k].len() as u64) as usize];
                let mut req = out[from].req.clone();
                req.job = id;
                let prog = out[from].prog;
                out.push(Job {
                    req,
                    prog,
                    repeat: true,
                });
                continue;
            }
        }
        let prog = &ctx.pool[rng.below(ctx.pool.len() as u64) as usize];
        let sets = inputs::allow_sets(prog.arity);
        let mut req = request(op, TENANTS[i % TENANTS.len()], id, &prog.text);
        req.allow = sets[rng.below(sets.len() as u64) as usize];
        if let Some(k) = earlier {
            req.fuel = FRESH_FUEL + (round * 64 + client) * ROUND_JOBS as u64 + i as u64;
            sweeps[k].push(out.len());
        } else {
            req.input = inputs::input(&mut rng, prog.arity);
        }
        out.push(Job {
            req,
            prog,
            repeat: false,
        });
    }
    out
}

/// One attempted job as its client saw it.
struct Reply {
    /// Latency in milliseconds.
    ms: f64,
    reply: Result<Json, ClientError>,
    /// Round trip of the ping sent just before (traced runs only).
    ping_ms: Option<f64>,
}

/// What one client thread saw; `replies[k]` answers the `k`-th job.
#[derive(Default)]
struct ClientOut {
    tally: crate::stats::Tally,
    replies: Vec<Reply>,
}

fn client_loop(
    addr: &str,
    idx: u64,
    jobs: &[Job],
    deadline: Instant,
    tr: &mut Tracer,
    id0: u64,
) -> ClientOut {
    let client = Client::with_config(
        addr,
        ClientConfig {
            seed: idx,
            ..ClientConfig::default()
        },
    );
    let ping = request(Op::Ping, TENANTS[0], String::new(), "");
    let mut out = ClientOut::default();
    for (k, job) in jobs.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = id0 + k as u64;
        let mut ping_ms = None;
        if tr.on() {
            let t = Instant::now();
            let r = tr.span("serve.ping", id, |_| client.request(&ping));
            if r.as_ref().is_ok_and(reply_is_ok) {
                ping_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            }
            tr.sibling("core.json.render", id, || job.req.to_json().render());
            tr.sibling("serve.frame", id, || {
                let mut buf = Vec::new();
                write_frame(&mut buf, &job.req.to_json()).ok()?;
                read_frame(&mut std::io::Cursor::new(buf)).ok()?
            });
        }
        let t0 = Instant::now();
        let reply = tr.span("job", id, |_| client.request(&job.req));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = match &reply {
            Ok(doc) if reply_is_ok(doc) => OpOutcome::Ok,
            Ok(_) => OpOutcome::Refused,
            Err(ClientError::Exhausted { last, .. }) if last.starts_with("retryable rejection") => {
                OpOutcome::ShedExhausted
            }
            Err(_) => OpOutcome::Failed,
        };
        out.tally.record(outcome);
        if let Ok(doc) = &reply {
            crate::trace_json(tr, id, &doc.render());
        }
        out.replies.push(Reply { ms, reply, ping_ms });
    }
    out
}

fn int(doc: &Json, key: &str) -> Option<i128> {
    doc.get(key).and_then(Json::as_int)
}

/// The AST monitor's decision and the interpreter's `y` for one input.
fn reference(
    prog: &Program,
    allow: enf_core::IndexSet,
    input: &[i64],
) -> Result<(bool, Option<i64>), String> {
    let fc = enf_flowchart::parse(&prog.text).map_err(|e| e.to_string())?;
    let y = enf_flowchart::run(&fc, input, &ExecConfig::with_fuel(SERVER_FUEL)).value();
    let e = Enforcer::new(fc, allow).map_err(|e| e.to_string())?;
    let v = e
        .with_fuel(SERVER_FUEL)
        .with_engine(Engine::Ast)
        .surveil(Tainted::new(input.to_vec()), &mut AuditLog::in_memory())
        .map_err(|e| e.to_string())?;
    Ok((matches!(v, RunVerdict::Released(_)), y))
}

/// Checks one answered job against the expected verdicts and references.
fn check(ctx: &Ctx, run: &mut Run, job: &Job, doc: &Json) -> Result<(), String> {
    let req = &job.req;
    let verdict = doc.get("verdict").and_then(Json::as_str).unwrap_or("");
    let cached = doc.get("cached") == Some(&Json::Bool(true));
    let what = || {
        format!(
            "{} {} allow {:?}: {}",
            req.op.name(),
            job.prog.id,
            req.allow,
            doc.render()
        )
    };
    match req.op {
        Op::Surveil => {
            let (released, y) = reference(job.prog, req.allow, &req.input)?;
            let ok = match verdict {
                "released" => released && int(doc, "value") == y.map(i128::from),
                "refused" => !released,
                _ => false,
            };
            run.check(ok, what);
        }
        Op::Certify => {
            let key = inputs::certify_key(job.prog, &req.allow, Analysis::Surveillance);
            let mut ok = ctx.expected.matches(&key, verdict);
            if verdict == "certified" {
                let (_, y) = reference(job.prog, req.allow, &req.input)?;
                ok &=
                    doc.get("value").and_then(Json::as_str) == y.map(|v| v.to_string()).as_deref();
            }
            run.check(ok, what);
        }
        Op::Check => {
            let total = (2 * SMALL_SPAN as i128 + 1).pow(job.prog.arity as u32);
            let ok = ctx
                .expected
                .matches(&inputs::check_key(job.prog, &req.allow), verdict)
                && int(doc, "total") == Some(total)
                && (verdict != "confirmed" || int(doc, "checked") == Some(total))
                && cached == job.repeat;
            run.check(ok, what);
        }
        Op::Refute => {
            let ok = ctx
                .expected
                .matches(&inputs::refute_key(job.prog, &req.allow), verdict)
                && cached == job.repeat;
            run.check(ok, what);
        }
        Op::Ping => {}
    }
    Ok(())
}

/// Inputs a reply decided: one per monitored or natively run input, the
/// grid for sweeps.
fn decided(job: &Job, doc: &Json) -> u64 {
    match job.req.op {
        Op::Check | Op::Refute => int(doc, "total").unwrap_or(0) as u64,
        Op::Surveil => 1,
        Op::Certify => u64::from(doc.get("value").is_some()),
        Op::Ping => 0,
    }
}

/// Traced only: replays one executed job in-process through the same
/// public calls the server makes, returning its time in milliseconds.
fn replay(job: &Job, tr: &mut Tracer, id: u64) -> Result<f64, String> {
    let req = &job.req;
    let fuel = if req.fuel > 0 { req.fuel } else { SERVER_FUEL };
    let t = Instant::now();
    let s0 = tr.sibling_ns();
    tr.span("serve.replay", id, |tr| -> Result<(), String> {
        let fc = tr.span("flowchart.parse", id, |_| {
            enf_flowchart::parse(&req.program)
        });
        let fc = fc.map_err(|e| e.to_string())?;
        let arity = fc.arity();
        let label = policy_label(&req.allow, arity);
        let grid = Grid::hypercube(arity, -req.span..=req.span);
        let policy = Allow::from_set(arity, req.allow);
        let eval = EvalConfig::new();
        if req.op == Op::Refute {
            let program = FlowchartProgram::with_fuel(fc, fuel);
            let cov = tr.span(&format!("core.sweep.{label}"), id, |_| {
                enf_core::try_check_soundness_with(
                    &Identity::new(program),
                    &policy,
                    &grid,
                    false,
                    &eval,
                    &CancelToken::new(),
                )
            });
            if let Ok(enf_core::Coverage {
                report: Some(SoundnessReport::Sound { classes, .. }),
                ..
            }) = cov
            {
                tr.count(classes as u64);
            }
            return Ok(());
        }
        let e = tr.span("policy.enforcer_new", id, |_| {
            Enforcer::new(fc.clone(), req.allow)
        });
        let e = e.map_err(|e| e.to_string())?.with_fuel(fuel);
        let mut log = AuditLog::in_memory();
        match req.op {
            Op::Surveil => {
                let v = tr.span("policy.surveil", id, |_| {
                    e.surveil(Tainted::new(req.input.clone()), &mut log)
                });
                let compiled = tr.sibling("flowchart.compile", id, || Compiled::new(&fc));
                if let Some(compiled) = compiled {
                    let cfg = SurvConfig::surveillance(req.allow).with_fuel(fuel);
                    let out = tr.sibling("surveillance.run", id, || {
                        run_surveillance_vm(&compiled, &req.input, &cfg)
                    });
                    if let Some(
                        SurvOutcome::Accepted { steps, .. } | SurvOutcome::Violation { steps, .. },
                    ) = out
                    {
                        tr.count(steps);
                    }
                }
                if let Ok(RunVerdict::Released(v)) = v {
                    let cap = Capability::issue("serve", &mut log).map_err(|e| e.to_string())?;
                    Sink::new(cap, &mut log)
                        .release(v)
                        .map_err(|e| e.to_string())?;
                }
            }
            Op::Certify => {
                let c = tr.span("policy.certify.surveillance", id, |_| {
                    e.certify(Analysis::Surveillance, &mut log)
                });
                c.map_err(|e| e.to_string())?;
                tr.sibling("staticflow.certify.surveillance", id, || {
                    enf_static::certify::certify(&fc, req.allow, Analysis::Surveillance)
                });
            }
            _ => {
                let o = tr.span(&format!("policy.sweep.{label}"), id, |_| {
                    e.sweep(req.span, &eval, &CancelToken::new(), &mut log)
                });
                o.map_err(|e| e.to_string())?;
                let mech = VmSurveillance::new(FlowchartProgram::with_fuel(fc, fuel), req.allow);
                let cov = tr.sibling(&format!("core.sweep.{label}"), id, || {
                    enf_core::try_check_soundness_with(
                        &mech,
                        &policy,
                        &grid,
                        false,
                        &eval,
                        &CancelToken::new(),
                    )
                });
                if let Some(Ok(enf_core::Coverage {
                    report: Some(SoundnessReport::Sound { classes, .. }),
                    ..
                })) = cov
                {
                    tr.count(classes as u64);
                }
            }
        }
        Ok(())
    })?;
    Ok((t.elapsed().as_secs_f64() - (tr.sibling_ns() - s0) as f64 / 1e9) * 1e3)
}

/// Runs rounds until `budget` is spent (a probe runs one short round).
pub fn run(ctx: &Ctx, size: Size, tr: &mut Tracer, budget: Duration) -> Result<Run, String> {
    let round_jobs = match size {
        Size::Full => ROUND_JOBS,
        Size::Probe => PROBE_JOBS,
    };
    let clients = ctx.threads as u64;
    let mut run = Run::default();
    let mut queue_wait = Vec::new();
    let mut timed = Duration::ZERO;
    let mut round = 0u64;
    while timed < budget && (size == Size::Full || round == 0) {
        // Set-up: plan the round, start the server, wait until it answers,
        // and open every tenant's namespace.
        let t = Instant::now();
        let plans: Vec<Vec<Job>> = (0..clients)
            .map(|c| plan(ctx, round, c, round_jobs / clients as usize))
            .collect();
        let server = ServerHandle::spawn(ServerConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.addr().to_string();
        let admin = Client::new(&addr);
        for (k, tenant) in TENANTS.iter().enumerate() {
            let mut req = request(Op::Surveil, tenant, format!("r{round}warm{k}"), WARM);
            req.allow = enf_core::IndexSet::single(1);
            req.input = vec![k as i64];
            let r = admin.request(&req).map_err(|e| e.to_string())?;
            run.check(int(&r, "value") == Some(k as i128), || {
                format!("warm-up: {}", r.render())
            });
        }
        run.setup_s.push(t.elapsed().as_secs_f64());

        let window = run.mark();
        let window_attempted = run.tally.attempted;
        let start = Instant::now();
        // A traced run finishes its first round whatever the budget, since
        // the server counts it reports cover exactly that round.
        let deadline = if round == 0 && tr.on() {
            start + Duration::from_secs(3600)
        } else {
            start + budget.saturating_sub(timed)
        };
        let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(c, jobs)| {
                    let addr = &addr;
                    let mut ctr = Tracer::new(tr.on(), tr.epoch());
                    ctr.probe = tr.probe;
                    let id0 = (round * clients + c as u64) * ROUND_JOBS as u64;
                    s.spawn(move || {
                        let out = client_loop(addr, c as u64, jobs, deadline, &mut ctr, id0);
                        (out, ctr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        timed += elapsed;
        run.busy_s += elapsed.as_secs_f64();
        let stats = server.stop();
        run.check(
            stats.quarantined == 0 && stats.internal_errors == 0 && stats.usage_errors == 0,
            || format!("server stats {}", stats.to_json().render()),
        );
        let mut repeats = 0u64;
        let mut sweeps = 0u64;
        for (c, (out, ctr)) in outs.into_iter().enumerate() {
            tr.absorb(ctr);
            run.tally.merge(&out.tally);
            let id0 = (round * clients + c as u64) * ROUND_JOBS as u64;
            for (k, Reply { ms, reply, ping_ms }) in out.replies.into_iter().enumerate() {
                let job = &plans[c][k];
                let Ok(doc) = reply else { continue };
                if !reply_is_ok(&doc) {
                    run.check(false, || format!("refused: {}", doc.render()));
                    continue;
                }
                run.latency_ms.push(ms);
                run.inputs += decided(job, &doc);
                check(ctx, &mut run, job, &doc)?;
                if matches!(job.req.op, Op::Check | Op::Refute) {
                    sweeps += 1;
                    repeats += u64::from(job.repeat);
                }
                if tr.on() {
                    let cached = doc.get("cached") == Some(&Json::Bool(true));
                    let work = if cached {
                        0.0
                    } else {
                        replay(job, tr, id0 + k as u64)?
                    };
                    if let Some(ping) = ping_ms {
                        queue_wait.push((ms - ping - work).max(0.0));
                    }
                }
            }
        }
        let complete = run.tally.attempted - window_attempted
            == plans.iter().map(Vec::len).sum::<usize>() as u64;
        if complete {
            run.close_window(&window);
        }
        run.check(stats.cache_hits == repeats, || {
            format!(
                "cache hits {} for {repeats} repeated sweeps",
                stats.cache_hits
            )
        });
        // The server's counts cover the first round only: a job set the
        // seed fixes, whatever the clock lets through afterwards.
        if round == 0 && complete {
            run.counters
                .add("serve.cache_hits", stats.cache_hits as f64);
            run.counters.add("serve.sweep_jobs", sweeps as f64);
            run.counters.add("serve.served", stats.served as f64);
            run.counters.add("serve.shed", stats.shed as f64);
            run.counters
                .add("serve.quarantined", stats.quarantined as f64);
        }
        round += 1;
    }
    if let Some(q) = crate::stats::median(&queue_wait) {
        run.counters.add("serve.queue_wait_ms_p50", q);
    }
    Ok(run)
}
