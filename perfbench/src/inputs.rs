//! Workload inputs: the program pool, seeded draws from it, and the
//! expected verdicts kept beside the benchmark.

use enf_core::label::Level;
use enf_core::IndexSet;
use enf_flowchart::generate::{random_structured, GenConfig, SplitMix};
use enf_flowchart::pretty::structured_to_string;
use enf_static::certify::Analysis;
use std::collections::HashMap;

/// Programs drawn from `random_structured(k)` for `k` in `0..GENERATED`.
const GENERATED: u64 = 64;

/// Where the example programs live, relative to the checkout root.
const EXAMPLES_DIR: &str = "examples/programs";

/// Where the expected verdicts live, relative to the checkout root.
pub const EXPECTED_PATH: &str = "perfbench/expected/verdicts.txt";

/// Half-width of the grids `check` and `refute` jobs sweep in
/// `serve-mixed`, and of the grids behind the expected `refute` verdicts:
/// the span of the repository's service load rows (`enf_bench::serve_eval`).
pub const SMALL_SPAN: i64 = 2;

/// The five fixed-policy analyses, as `enforce certify` selects them.
pub const FIXED_ANALYSES: [Analysis; 5] = [
    Analysis::Surveillance,
    Analysis::Scoped,
    Analysis::ValueRefined,
    Analysis::Relational,
    Analysis::DynamicPolicy,
];

/// Short analysis name used in metric names and the expected file.
pub fn analysis_key(a: Analysis) -> &'static str {
    match a {
        Analysis::Surveillance => "surveillance",
        Analysis::Scoped => "scoped",
        Analysis::ValueRefined => "value",
        Analysis::Relational => "relational",
        Analysis::DynamicPolicy => "dynamic",
        Analysis::LatticeCertified => "lattice",
    }
}

/// One program as the user would hand it over: source text.
#[derive(Clone, Debug)]
pub struct Program {
    /// Stable name: the example's file stem or `gen-NN`.
    pub id: String,
    /// Source text.
    pub text: String,
    /// Number of inputs.
    pub arity: usize,
    /// Carries a `labels` section with a non-public label.
    pub labeled: bool,
    /// Has `setpolicy` or `declassify` boxes, which the fixed-policy
    /// surveillance sweep does not model (`enforce check --schedules` does).
    pub policy_boxes: bool,
}

/// The pool every workload draws from: `examples/programs/*.fc` in name
/// order, then the generated programs.
pub fn pool() -> Result<Vec<Program>, String> {
    let dir = std::fs::read_dir(EXAMPLES_DIR).map_err(|e| format!("{EXAMPLES_DIR}: {e}"))?;
    let mut files: Vec<_> = dir
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "fc"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let id = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        out.push(program(id, text)?);
    }
    let cfg = GenConfig::default();
    for k in 0..GENERATED {
        out.push(program(
            format!("gen-{k:02}"),
            structured_to_string(&random_structured(k, &cfg)),
        )?);
    }
    Ok(out)
}

fn program(id: String, text: String) -> Result<Program, String> {
    let lp = enf_flowchart::parse_labeled(&text).map_err(|e| format!("{id}: {e}"))?;
    Ok(Program {
        arity: lp.flowchart.arity(),
        labeled: lp
            .classification
            .labels()
            .iter()
            .any(|l| *l != Level::Unclassified),
        policy_boxes: text.contains("setpolicy") || text.contains("declassify"),
        id,
        text,
    })
}

/// Every allow set over `1..=arity`, smallest first.
pub fn allow_sets(arity: usize) -> Vec<IndexSet> {
    (0u64..1 << arity)
        .map(|bits| IndexSet::from_bits(bits << 1))
        .collect()
}

/// `1,2` rendering of an allow set (`-` for the empty set).
fn allow_key(allow: &IndexSet) -> String {
    if allow.is_empty() {
        return "-".to_string();
    }
    allow
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The workload's random stream number `salt`. Seed and salt both pass
/// through the splitmix finalizer first: splitmix states that differ by a
/// multiple of its increment would yield shifted copies of one stream.
pub fn rng(seed: u64, salt: u64) -> SplitMix {
    SplitMix::new(SplitMix::new(seed).next_u64() ^ SplitMix::new(!salt).next_u64())
}

/// A seeded input tuple with entries in `-8..=8`.
pub fn input(rng: &mut SplitMix, arity: usize) -> Vec<i64> {
    (0..arity).map(|_| rng.below(17) as i64 - 8).collect()
}

/// Verdicts the program must reproduce, keyed by a line prefix such as
/// `certify gen-03 1,2 scoped`.
pub struct Expected(HashMap<String, String>);

impl Expected {
    /// Loads the expected file.
    pub fn load() -> Result<Expected, String> {
        let text =
            std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
        let mut map = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, verdict) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed expected line `{line}`"))?;
            map.insert(key.to_string(), verdict.to_string());
        }
        Ok(Expected(map))
    }

    /// Whether `verdict` is the expected answer for `key`; a missing key
    /// is a mismatch.
    pub fn matches(&self, key: &str, verdict: &str) -> bool {
        self.0.get(key).is_some_and(|v| v == verdict)
    }
}

/// Key of an expected fixed-policy certification verdict.
pub fn certify_key(p: &Program, allow: &IndexSet, a: Analysis) -> String {
    format!("certify {} {} {}", p.id, allow_key(allow), analysis_key(a))
}

/// Key of an expected lattice certification verdict (public clearance).
pub fn lattice_key(p: &Program) -> String {
    format!("lattice {}", p.id)
}

/// Key of an expected `check` verdict (the surveillance monitor's sweep)
/// over `[-SMALL_SPAN, SMALL_SPAN]^k`.
pub fn check_key(p: &Program, allow: &IndexSet) -> String {
    format!("check {} {} {}", p.id, allow_key(allow), SMALL_SPAN)
}

/// Key of an expected `refute` verdict over `[-SMALL_SPAN, SMALL_SPAN]^k`.
pub fn refute_key(p: &Program, allow: &IndexSet) -> String {
    format!("refute {} {} {}", p.id, allow_key(allow), SMALL_SPAN)
}

/// Renders the expected file from the current program. Only for
/// regenerating the file after an intended change in verdicts.
pub fn render_expected(pool: &[Program]) -> Result<String, String> {
    use enf_core::{Allow, CancelToken, EvalConfig, Grid, Identity};
    let mut out = String::from(
        "# Expected verdicts for the perfbench workloads.\n\
         # Regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --write-expected`\n\
         # only after a change meant to alter verdicts.\n",
    );
    for p in pool {
        let fc = enf_flowchart::parse(&p.text).map_err(|e| e.to_string())?;
        for allow in allow_sets(p.arity) {
            for a in FIXED_ANALYSES {
                let v = enf_static::certify::certify(&fc, allow, a);
                out += &format!(
                    "{} {}\n",
                    certify_key(p, &allow, a),
                    cert_word(v.is_certified())
                );
            }
            let e = enf_policy::Enforcer::new(fc.clone(), allow)
                .map_err(|e| e.to_string())?
                .with_fuel(10_000);
            let eval = EvalConfig::with_threads(1);
            let mut log = enf_policy::AuditLog::in_memory();
            let sweep = e.sweep(SMALL_SPAN, &eval, &CancelToken::new(), &mut log);
            let verdict = sweep.map_err(|e| e.to_string())?.verdict();
            out += &format!("{} {}\n", check_key(p, &allow), verdict.tag());
            let prog = enf_flowchart::FlowchartProgram::with_fuel(fc.clone(), 10_000);
            let cov = enf_core::try_check_soundness_with(
                &Identity::new(prog),
                &Allow::from_set(p.arity, allow),
                &Grid::hypercube(p.arity, -SMALL_SPAN..=SMALL_SPAN),
                false,
                &EvalConfig::with_threads(1),
                &CancelToken::new(),
            )
            .map_err(|e| e.to_string())?;
            out += &format!("{} {}\n", refute_key(p, &allow), cov.verdict.tag());
        }
        if p.labeled {
            let lp = enf_flowchart::parse_labeled(&p.text).map_err(|e| e.to_string())?;
            let v = enf_static::label::certify_lattice(
                &lp.flowchart,
                &lp.classification,
                &lp.flow,
                &Level::Unclassified,
            );
            out += &format!("{} {}\n", lattice_key(p), cert_word(v.is_certified()));
        }
    }
    Ok(out)
}

/// Verdict word of a certification.
pub fn cert_word(certified: bool) -> &'static str {
    if certified {
        "certified"
    } else {
        "rejected"
    }
}
