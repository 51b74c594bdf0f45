//! The `serve_science` workload: open-loop sb-serve traffic.
//!
//! One `QueryService` over the three `SizeClass::Full` snapshots is
//! driven with seeded Poisson arrivals (see [`crate::openloop`]); every
//! response is serialized with `QueryResponse::to_json` inside the timed
//! call. An untraced run is:
//!
//! 1. one unmeasured round, then [`ROUNDS`] measured rounds, each on a
//!    service set up afresh (the median over all set-ups is `setup_s`):
//!    build the snapshots, construct the service and send each distinct
//!    statement once; then a closed-loop pass over two decks' worth of statements (median is
//!    `wall_s`), a stretch at [`RATE_QPS`] and every step of
//!    [`LADDER_QPS`];
//! 2. `p50_us` / `p99_us` from all rounds' samples at the fixed rate,
//!    each a median over windows of [`WINDOW`] samples, and `slo_qps`,
//!    the ladder rate where the service stops meeting its limits
//!    (medians over the rounds), interpolated between steps.
//!
//! Every response is checked after the timed work.

use crate::openloop::{self, Timing};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::util::{self, hash_bytes, SplitMix64};
use sb_core::BenchmarkDataset;
use sb_data::{Domain, SizeClass};
use sb_engine::Database;
use sb_serve::{ErrorCode, QueryRequest, QueryService, RequestProfile, ServeConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The workload's name, as `BENCHMARK.json` lists it.
pub const NAME: &str = "serve_science";

/// The fixed offered rate for `p50_us` / `p99_us`: well below the knee
/// measured on a 2-vCPU x86-64 VM, so p99 there reflects service time
/// rather than a queue on the edge of growing.
const RATE_QPS: f64 = 1_000.0;

/// The p99 latency limit of `slo_qps`: 5–10× the low-load p99 (single
/// SDSS statements take 5–15 ms), so single slow requests do not decide
/// it.
const P99_LIMIT_US: f64 = 50_000.0;

/// How much the median start delay of a ladder step's last quarter may
/// exceed that of its first quarter: a backlog that grows through the
/// step fails it before p99 reaches [`P99_LIMIT_US`]. Over the
/// 0.3 s between the quarters' middles, offering `r` to a capacity `c`
/// adds about `0.3 · (r / c − 1)` s, so this catches `r ≥ 1.03 c`.
const GROWTH_LIMIT_US: f64 = 10_000.0;

/// The rate ladder for `slo_qps`, ascending: finer around the knee
/// measured on that VM (5–7k qps), and up to 1.6× its closed-loop
/// capacity (about 6.2k qps), so a faster service has room to show.
const LADDER_QPS: &[f64] = &[
    3_000.0, 4_000.0, 5_000.0, 5_500.0, 6_000.0, 6_500.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0,
];

/// Length of a ladder step, as seconds of arrivals at the step's rate.
const STEP_S: f64 = 0.4;

/// Share of the run's seconds each round spends at [`RATE_QPS`].
const FIXED_SHARE: f64 = 0.1;

/// Samples per window that a run's latencies at one rate (all rounds'
/// samples, in order) are cut into; a quantile is the median over the
/// windows. Short windows keep a stall from moving more than one value,
/// but each needs enough samples for its p99.
const WINDOW: usize = 1_000;

/// Requests in one closed-loop pass (`wall_s`): two decks' worth.
const PASS_REQUESTS: usize = 2 * 1_249;

/// Load-generator threads: the box's two cores at most, so the load
/// shape does not change with the machine.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A workload's inputs: distinct statements and the request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Distinct `(snapshot, sql)` statements.
    pub statements: Vec<(&'static str, String)>,
    /// Statement id of each request, in schedule order.
    pub requests: Vec<u32>,
}

impl Workload {
    /// The request stream as bytes (`db TAB sql NL` per request): what
    /// the service sees, for determinism tests.
    pub fn request_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &id in &self.requests {
            let (db, sql) = &self.statements[id as usize];
            out.extend_from_slice(db.as_bytes());
            out.push(b'\t');
            out.extend_from_slice(sql.as_bytes());
            out.push(b'\n');
        }
        out
    }

    fn request(&self, index: usize) -> QueryRequest {
        let (db, sql) = &self.statements[self.requests[index] as usize];
        QueryRequest::new(index as u64, db, sql)
    }
}

/// Every seed/dev/synth statement of the released datasets, in file
/// order, as `(db, sql)`.
pub fn science_statements(datasets: &Path) -> Result<Vec<(&'static str, String)>, String> {
    let mut out = Vec::new();
    for domain in Domain::ALL {
        let path = datasets.join(format!("{}.json", domain.name()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let ds =
            BenchmarkDataset::from_json(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        for pair in ds.seed.iter().chain(&ds.dev).chain(&ds.synth) {
            out.push((domain.name(), pair.sql.clone()));
        }
    }
    Ok(out)
}

/// `serve_science` inputs: `n` requests drawn uniformly from `all` as
/// a sequence of seeded shuffles ("decks") of the whole list, so every
/// stretch of the stream has nearly the same statement mix.
pub fn science_workload(all: &[(&'static str, String)], seed: u64, n: usize) -> Workload {
    let mut ids: HashMap<&(&'static str, String), u32> = HashMap::new();
    let mut w = Workload {
        statements: Vec::new(),
        requests: Vec::with_capacity(n),
    };
    let mut rng = SplitMix64::new(seed);
    let mut deck: Vec<usize> = (0..all.len()).collect();
    while w.requests.len() < n {
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
        for &d in deck.iter().take(n - w.requests.len()) {
            let s = &all[d];
            let id = *ids.entry(s).or_insert_with(|| {
                w.statements.push(s.clone());
                (w.statements.len() - 1) as u32
            });
            w.requests.push(id);
        }
    }
    w
}

/// A response's content digest: its `to_json` bytes without the
/// request id, so equal statements give equal digests.
pub fn content_digest(json: &str) -> u64 {
    let body = json.find(", \"code\"").map_or(json, |at| &json[at..]);
    hash_bytes(body.as_bytes())
}

/// What the timed call hands back.
struct Answer {
    code: ErrorCode,
    json: String,
    total_rows: usize,
    kept_rows: usize,
    profile: Option<RequestProfile>,
    handle_ns: u64,
    to_json_ns: u64,
    called: Instant,
}

/// What is kept of one response for the checks and the per-layer
/// numbers.
#[derive(Debug, Clone, Copy)]
struct Record {
    stmt: u32,
    code: ErrorCode,
    digest: u64,
    total_rows: usize,
    kept_rows: usize,
    bytes: usize,
    profile: Option<Profile>,
}

#[derive(Debug, Clone, Copy)]
struct Profile {
    admission_us: u64,
    guardrail_us: u64,
    prepare_us: u64,
    execute_us: u64,
    handle_us: f64,
    to_json_us: f64,
}

/// Tracing for one phase: spans of every `sample`-th request go to
/// `tracer`.
struct Tracing<'a> {
    tracer: &'a Tracer,
    sample: usize,
}

fn answer(service: &QueryService, req: QueryRequest) -> Answer {
    let called = Instant::now();
    let resp = service.handle(&req);
    let handled = Instant::now();
    let json = resp.to_json();
    let done = Instant::now();
    Answer {
        code: resp.code,
        json,
        total_rows: resp.total_rows,
        kept_rows: resp.rows.len(),
        profile: resp.profile,
        handle_ns: (handled - called).as_nanos() as u64,
        to_json_ns: (done - handled).as_nanos() as u64,
        called,
    }
}

/// Run stream requests `first..first + due_ns.len()` on the `due_ns`
/// schedule.
fn drive(
    service: &QueryService,
    w: &Workload,
    first: usize,
    due_ns: &[u64],
    tracing: Option<&Tracing>,
) -> openloop::Run<Record> {
    openloop::run(
        due_ns,
        threads(),
        |i| {
            let mut req = w.request(first + i);
            req.profile = tracing.is_some();
            req
        },
        |_, req| answer(service, req),
        |i, timing, a| {
            if let (Some(t), Some(p)) = (tracing, a.profile.as_ref()) {
                if i % t.sample == 0 {
                    record_spans(t.tracer, (first + i) as u64, timing, &a, p);
                }
            }
            Record {
                stmt: w.requests[first + i],
                code: a.code,
                digest: content_digest(&a.json),
                total_rows: a.total_rows,
                kept_rows: a.kept_rows,
                bytes: a.json.len(),
                profile: a.profile.map(|p| Profile {
                    admission_us: p.admission_us,
                    guardrail_us: p.parse_us,
                    prepare_us: p.plan_us,
                    execute_us: p.execute_us,
                    handle_us: a.handle_ns as f64 / 1e3,
                    to_json_us: a.to_json_ns as f64 / 1e3,
                }),
            }
        },
    )
}

/// One request's spans: `loadgen.request` (due → serialized) over
/// `loadgen.wait` (due → call), `serve.handle` and
/// `serve.envelope.to_json`; the handle phases from its
/// `RequestProfile` are laid end to end under `serve.handle`.
fn record_spans(t: &Tracer, group: u64, timing: &Timing, a: &Answer, p: &RequestProfile) {
    let called = t.at(a.called);
    let due = called.saturating_sub(timing.late_ns);
    let handled = called + a.handle_ns;
    let done = handled + a.to_json_ns;
    let root = t.record("loadgen.request", group, 0, due, done);
    t.record("loadgen.wait", group, root, due, called);
    let handle = t.record("serve.handle", group, root, called, handled);
    t.record("serve.envelope.to_json", group, root, handled, done);
    let mut at = called;
    for (name, us) in [
        ("serve.admission", p.admission_us),
        ("serve.guardrail", p.parse_us),
        ("serve.prepare", p.plan_us),
        ("engine.execute", p.execute_us),
    ] {
        t.record(name, group, handle, at, at + us * 1_000);
        at += us * 1_000;
    }
}

/// The snapshot the service holds for `domain`.
fn snapshot(domain: Domain) -> Database {
    domain.build(SizeClass::Full).db
}

/// Set the service up: snapshots, service, and one request per distinct
/// statement, which fills the plan cache.
fn set_up(w: &Workload, tracer: Option<&Tracer>) -> QueryService {
    let build = Instant::now();
    let mut service = QueryService::new(ServeConfig::default());
    for domain in Domain::ALL {
        service = service.with_snapshot(domain.name(), Arc::new(snapshot(domain)));
    }
    if let Some(t) = tracer {
        t.record("data.build", 0, 0, t.at(build), t.now_ns());
    }
    for (i, (db, sql)) in w.statements.iter().enumerate() {
        let _ = service
            .handle(&QueryRequest::new(i as u64, db, sql))
            .to_json();
    }
    service
}

/// Build the workload's inputs for `seed`, sized for `seconds`.
pub fn inputs(seed: u64, seconds: f64, repo: &Path) -> Result<Workload, String> {
    // Untraced rounds, or the traced run's two fixed-rate stretches.
    let n = ((ROUNDS + 1) * round_len(seconds)).max(2 * traced_len(seconds));
    Ok(science_workload(
        &science_statements(&repo.join("datasets"))?,
        seed,
        n,
    ))
}

/// Requests at the fixed rate in one round of a run of `seconds`.
fn fixed_len(seconds: f64) -> usize {
    (seconds * FIXED_SHARE * RATE_QPS).max(1_000.0) as usize
}

/// Latencies of a phase in µs, in request order.
fn latencies_us(samples: &[(Timing, Record)]) -> Vec<f64> {
    samples
        .iter()
        .map(|(t, _)| t.latency_ns as f64 / 1e3)
        .collect()
}

/// The median over consecutive windows of about `size` latencies of
/// each window's `q` quantile.
fn windowed(latencies: &[f64], size: usize, q: f64) -> f64 {
    let n = (latencies.len() / size.max(1)).max(1);
    let per = latencies.len().div_ceil(n).max(1);
    let mut qs: Vec<f64> = latencies
        .chunks(per)
        .map(|w| util::quantile(&mut w.to_vec(), q))
        .collect();
    util::median(&mut qs)
}

/// How much later, in µs, the calls of the last quarter of a step
/// started than those of its first quarter (medians of each quarter's
/// start delays). It stays near 0 while the service keeps up and grows
/// with the step's length once it does not.
fn backlog_growth_us(samples: &[(Timing, Record)]) -> f64 {
    let quarter = (samples.len() / 4).max(1);
    let late = |s: &[(Timing, Record)]| {
        util::median(
            &mut s
                .iter()
                .map(|(t, _)| t.late_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    late(&samples[samples.len().saturating_sub(quarter)..]) - late(&samples[..quarter])
}

/// One ladder step's verdict.
#[derive(Debug, Clone, Copy)]
struct Step {
    rate: f64,
    p99_us: f64,
    growth_us: f64,
    shed: bool,
}

impl Step {
    fn pass(&self) -> bool {
        self.p99_us <= P99_LIMIT_US && self.growth_us <= GROWTH_LIMIT_US && !self.shed
    }
}

/// The highest rate that meets the limits: the highest passing step,
/// moved toward the next (failing) step to where the first of its
/// limits is crossed — p99 interpolated log-linearly, the backlog's
/// growth linearly. Below the lowest step, the lowest rate scaled by
/// how far it overshoots.
fn slo_qps(steps: &[Step]) -> f64 {
    let Some(j) = steps.iter().rposition(Step::pass) else {
        return steps.first().map_or(0.0, |s| {
            let growth = if s.growth_us > 0.0 {
                GROWTH_LIMIT_US / s.growth_us
            } else {
                1.0
            };
            s.rate * (P99_LIMIT_US / s.p99_us).min(growth).min(1.0)
        });
    };
    let lo = steps[j];
    let Some(&hi) = steps.get(j + 1) else {
        return lo.rate;
    };
    // `lo` meets each limit that `hi` crosses, so every ratio is defined.
    let mut t: f64 = if hi.shed { 0.0 } else { 1.0 };
    if hi.p99_us > P99_LIMIT_US {
        t = t.min((P99_LIMIT_US / lo.p99_us).ln() / (hi.p99_us / lo.p99_us).ln());
    }
    if hi.growth_us > GROWTH_LIMIT_US {
        t = t.min((GROWTH_LIMIT_US - lo.growth_us) / (hi.growth_us - lo.growth_us));
    }
    lo.rate + t.clamp(0.0, 1.0) * (hi.rate - lo.rate)
}

/// Whether a response is a failure by itself (load shedding).
fn shed(code: ErrorCode) -> bool {
    matches!(code, ErrorCode::Timeout | ErrorCode::Overloaded)
}

/// Measured rounds of (pass, fixed rate, ladder) in an untraced run.
/// Interleaving the phases spreads each one over the whole run, so a
/// slow spell of the machine moves few of the values a median is taken
/// over; each round sets up its own service for the same reason. A
/// first, unmeasured round lets the heap settle.
const ROUNDS: usize = 5;

/// One ladder step's raw observations in one round.
struct StepObs {
    p99_us: f64,
    growth_us: f64,
    shed: bool,
}

/// One round's raw observations.
struct Round {
    wall_s: f64,
    fixed_us: Vec<f64>,
    ladder: Vec<StepObs>,
}

/// Requests one round draws from the stream.
fn round_len(seconds: f64) -> usize {
    PASS_REQUESTS
        + fixed_len(seconds)
        + LADDER_QPS
            .iter()
            .map(|r| (r * STEP_S) as usize)
            .sum::<usize>()
}

/// One round on stream requests `first..first + round_len`. Every
/// ladder step runs, so every run issues the same requests.
fn round(
    service: &QueryService,
    w: &Workload,
    first: usize,
    seconds: f64,
    rng: &mut SplitMix64,
    records: &mut Vec<Record>,
) -> Round {
    let mut next = first;
    let pass = drive(service, w, next, &vec![0; PASS_REQUESTS], None);
    next += PASS_REQUESTS;
    records.extend(pass.samples.into_iter().map(|(_, r)| r));

    let due = openloop::poisson_due_ns(RATE_QPS, fixed_len(seconds), rng);
    let fixed = drive(service, w, next, &due, None);
    next += due.len();
    let fixed_us = latencies_us(&fixed.samples);
    records.extend(fixed.samples.into_iter().map(|(_, r)| r));

    let mut ladder = Vec::new();
    for &rate in LADDER_QPS {
        let due = openloop::poisson_due_ns(rate, (rate * STEP_S) as usize, rng);
        let run = drive(service, w, next, &due, None);
        next += due.len();
        ladder.push(StepObs {
            p99_us: util::quantile(&mut latencies_us(&run.samples), 0.99),
            growth_us: backlog_growth_us(&run.samples),
            shed: run.samples.iter().any(|(_, r)| shed(r.code)),
        });
        records.extend(run.samples.into_iter().map(|(_, r)| r));
    }
    let steps: Vec<String> = LADDER_QPS
        .iter()
        .zip(&ladder)
        .map(|(r, o)| format!("{r}:{:.0}/{:.0}", o.p99_us, o.growth_us))
        .collect();
    eprintln!(
        "  pass {:.4} s, p50 {:.1} us, p99 {:.1} us ({} samples), ladder p99/growth us {}",
        pass.elapsed_s,
        util::quantile(&mut fixed_us.clone(), 0.50),
        util::quantile(&mut fixed_us.clone(), 0.99),
        fixed_us.len(),
        steps.join(" ")
    );
    Round {
        wall_s: pass.elapsed_s,
        fixed_us,
        ladder,
    }
}

/// Each rate's verdict over all rounds: p99 and growth are medians over
/// the rounds, so one slow spell of the machine does not decide a step.
fn ladder_steps(rounds: &[Round]) -> Vec<Step> {
    let median = |i: usize, f: fn(&StepObs) -> f64| {
        util::median(&mut rounds.iter().map(|r| f(&r.ladder[i])).collect::<Vec<_>>())
    };
    LADDER_QPS
        .iter()
        .enumerate()
        .map(|(i, &rate)| Step {
            rate,
            p99_us: median(i, |o| o.p99_us),
            growth_us: median(i, |o| o.growth_us),
            shed: rounds.iter().any(|r| r.ladder[i].shed),
        })
        .collect()
}

/// Run the workload untraced: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, repo: &Path) -> Result<Outcome, String> {
    sb_obs::set_mode(sb_obs::Mode::Off);
    let t = Instant::now();
    let w = inputs(seed, seconds, repo)?;
    eprintln!(
        "[{NAME}] inputs: {} requests, {} distinct statements ({:.2} s)",
        w.requests.len(),
        w.statements.len(),
        t.elapsed().as_secs_f64()
    );

    let mut setups = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    let mut rng = SplitMix64::new(seed ^ 0xD0E);
    let rounds: Vec<Round> = (0..=ROUNDS)
        .map(|r| {
            let t = Instant::now();
            let service = set_up(&w, None);
            setups.push(t.elapsed().as_secs_f64());
            round(
                &service,
                &w,
                r * round_len(seconds),
                seconds,
                &mut rng,
                &mut records,
            )
        })
        .skip(1)
        .collect();
    let steps = ladder_steps(&rounds);
    let verdicts: Vec<String> = steps
        .iter()
        .map(|s| {
            format!(
                "{}:{:.0}/{:.0}{}",
                s.rate,
                s.p99_us,
                s.growth_us,
                if s.pass() { "" } else { "!" }
            )
        })
        .collect();
    eprintln!(
        "[{NAME}] ladder p99/growth us over rounds: {}",
        verdicts.join(" ")
    );
    let fixed: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.fixed_us.iter().copied())
        .collect();

    let mut out = Outcome::default();
    let t = Instant::now();
    check(&w, &records, repo, &mut out)?;
    eprintln!("[{NAME}] checks: {:.2} s", t.elapsed().as_secs_f64());
    out.set("setup_s", util::median(&mut setups));
    out.set(
        "wall_s",
        util::median(&mut rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    out.set("p50_us", windowed(&fixed, WINDOW, 0.50));
    out.set("p99_us", windowed(&fixed, WINDOW, 0.99));
    out.set("slo_qps", slo_qps(&steps));
    out.set("peak_rss_mb", util::peak_rss_mb());
    eprintln!(
        "[{NAME}] {} responses checked; {ROUNDS} rounds of {} requests at {RATE_QPS} qps each",
        out.attempted,
        fixed_len(seconds),
    );
    Ok(out)
}

/// Requests in each of the traced run's two fixed-rate stretches.
fn traced_len(seconds: f64) -> usize {
    ROUNDS * fixed_len(seconds)
}

/// Run the workload traced: every per-layer metric, the span file, and
/// the tracing overhead.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    repo: &Path,
    spans_path: &Path,
) -> Result<Outcome, String> {
    sb_obs::set_mode(sb_obs::Mode::Off);
    let w = inputs(seed, seconds, repo)?;
    let tracer = Tracer::new();
    let service = set_up(&w, Some(&tracer));
    let n = traced_len(seconds);
    let mut rng = SplitMix64::new(seed ^ 0xD0E);
    let due = openloop::poisson_due_ns(RATE_QPS, n, &mut rng);

    // Untraced baseline, then the same schedule traced, on the next
    // stretch of the request stream.
    let plain = drive(&service, &w, 0, &due, None);
    sb_obs::set_mode(sb_obs::Mode::Summary);
    sb_obs::reset();
    let (hits0, misses0) = service.cache_stats();
    let tracing = Tracing {
        tracer: &tracer,
        sample: (n / 5_000).max(1),
    };
    let traced = drive(&service, &w, n, &due, Some(&tracing));
    let (hits1, misses1) = service.cache_stats();
    let obs = sb_obs::snapshot();
    sb_obs::set_mode(sb_obs::Mode::Off);

    let mut out = Outcome::default();
    let mut records: Vec<Record> = plain.samples.iter().map(|(_, r)| *r).collect();
    records.extend(traced.samples.iter().map(|(_, r)| *r));
    check(&w, &records, repo, &mut out)?;

    let profiles: Vec<Profile> = traced
        .samples
        .iter()
        .filter_map(|(_, r)| r.profile)
        .collect();
    let mean = |f: &dyn Fn(&Profile) -> f64| {
        profiles.iter().map(f).sum::<f64>() / profiles.len().max(1) as f64
    };
    let mut late: Vec<f64> = traced
        .samples
        .iter()
        .map(|(t, _)| t.late_ns as f64 / 1e3)
        .collect();
    let mut exec: Vec<f64> = profiles.iter().map(|p| p.execute_us as f64).collect();
    let rows_out: usize = traced.samples.iter().map(|(_, r)| r.total_rows).sum();
    let kept: usize = traced.samples.iter().map(|(_, r)| r.kept_rows).sum();
    let bytes: usize = traced.samples.iter().map(|(_, r)| r.bytes).sum();
    let p50 = |run: &openloop::Run<Record>| util::median(&mut latencies_us(&run.samples));
    for (label, run) in [("untraced", &plain), ("traced", &traced)] {
        let mut late: Vec<f64> = run
            .samples
            .iter()
            .map(|(t, _)| t.late_ns as f64 / 1e3)
            .collect();
        eprintln!(
            "[{NAME}] {label}: p50 {:.1} us, p99 {:.1} us, late p50 {:.1} us, late p99 {:.1} us",
            p50(run),
            util::quantile(&mut latencies_us(&run.samples), 0.99),
            util::median(&mut late),
            util::quantile(&mut late, 0.99)
        );
    }

    let spans = tracer.spans();
    let selfs = trace::self_s(&spans);
    trace::write_jsonl(spans_path, &spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "[{NAME}] spans: {} ({} of {n} requests sampled) -> {}",
        spans.len(),
        n.div_ceil(tracing.sample),
        spans_path.display()
    );
    for (layer, s) in &selfs {
        eprintln!("[{NAME}] self time {layer}: {s:.6} s");
    }

    for (metric, _) in crate::report::PER_LAYER {
        out.set(metric, 0.0);
    }
    out.set("loadgen.late_us.p99", util::quantile(&mut late, 0.99));
    out.set("serve.admission_us", mean(&|p| p.admission_us as f64));
    out.set("serve.guardrail_us", mean(&|p| p.guardrail_us as f64));
    out.set("serve.prepare_us", mean(&|p| p.prepare_us as f64));
    out.set(
        "serve.handle.self_us",
        mean(&|p| {
            p.handle_us - (p.admission_us + p.guardrail_us + p.prepare_us + p.execute_us) as f64
        }),
    );
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    out.set(
        "serve.cache.hit_ratio",
        (hits1 - hits0) as f64 / lookups.max(1) as f64,
    );
    out.set("engine.execute_us.sum", exec.iter().sum());
    out.set("engine.execute_us.p99", util::quantile(&mut exec, 0.99));
    out.set("engine.rows_out", rows_out as f64);
    out.set(
        "serve.rows.kept_ratio",
        kept as f64 / rows_out.max(1) as f64,
    );
    out.set("serve.envelope.to_json_us", mean(&|p| p.to_json_us));
    out.set(
        "serve.envelope.bytes",
        bytes as f64 / traced.samples.len().max(1) as f64,
    );
    out.set("engine.scan.rows", obs.counter("engine.scan.rows") as f64);
    out.set(
        "engine.statements",
        (obs.counter("engine.dispatch.compiled") + obs.counter("engine.dispatch.interpreted"))
            as f64,
    );
    out.set(
        "data.build_s",
        selfs.get("data.build").copied().unwrap_or(0.0),
    );
    out.set("trace.overhead_ratio", p50(&traced) / p50(&plain) - 1.0);
    Ok(out)
}

/// Check every response. All responses to one statement must agree, and
/// that content must equal the committed digest. Load shedding is a
/// failure.
fn check(w: &Workload, records: &[Record], repo: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut seen: HashMap<u32, (ErrorCode, u64)> = HashMap::new();
    let mut inconsistent = 0u64;
    for r in records {
        let first = *seen.entry(r.stmt).or_insert((r.code, r.digest));
        if first != (r.code, r.digest) {
            inconsistent += 1;
        }
    }
    let wrong = check_science(w, &seen, repo)?;
    for (id, why) in wrong.iter().take(5) {
        let (db, sql) = &w.statements[*id as usize];
        eprintln!("[{NAME}] wrong response for {db}: {sql}\n    {why}");
    }
    let failed = records
        .iter()
        .filter(|r| shed(r.code) || wrong.contains_key(&r.stmt))
        .count() as u64;
    out.attempted = records.len() as u64;
    out.failed = failed.max(inconsistent);
    out.correct = out.failed == 0 && inconsistent == 0;
    if inconsistent > 0 {
        eprintln!(
            "[{NAME}] {inconsistent} responses differ from an earlier response to the same statement"
        );
    }
    Ok(())
}

/// Whether `resp` is what the reference interpreter gives for `sql`:
/// the same error/ok outcome, column count and row count, and, when the
/// row cap did not cut the result, the same rows as a multiset.
pub fn matches_reference(
    db: &Database,
    sql: &str,
    resp: &sb_serve::QueryResponse,
) -> Result<(), String> {
    let reference = match sb_sql::parse(sql) {
        Err(_) => {
            return if resp.code == ErrorCode::ParseError {
                Ok(())
            } else {
                Err(format!("expected parse_error, got {}", resp.code.as_str()))
            }
        }
        Ok(q) => sb_engine::execute_reference(db, &q),
    };
    match reference {
        Err(e) if resp.code == ErrorCode::Ok => {
            Err(format!("reference errors ({e}), service answered ok"))
        }
        Err(_) if shed(resp.code) => Err(format!("shed: {}", resp.code.as_str())),
        Err(_) => Ok(()),
        Ok(_) if resp.code != ErrorCode::Ok => Err(format!(
            "reference answers, service errors: {} {}",
            resp.code.as_str(),
            resp.error.as_deref().unwrap_or("")
        )),
        Ok(rs) => {
            if rs.columns.len() != resp.columns.len() || rs.rows.len() != resp.total_rows {
                return Err(format!(
                    "shape {}x{} vs reference {}x{}",
                    resp.total_rows,
                    resp.columns.len(),
                    rs.rows.len(),
                    rs.columns.len()
                ));
            }
            let got = sb_engine::ResultSet {
                columns: resp.columns.clone(),
                rows: resp.rows.clone(),
                ordered: false,
            };
            if !resp.truncated
                && !got.same_result(&sb_engine::ResultSet {
                    ordered: false,
                    ..rs
                })
            {
                return Err("rows differ from the reference".to_string());
            }
            Ok(())
        }
    }
}

/// The committed digests of `serve_science` responses:
/// `db TAB sql-hash TAB source TAB code TAB digest` per statement.
pub const SCIENCE_DIGESTS: &str = "benchmark/expected/serve_science.tsv";

/// Key of a statement in the digest file.
pub fn statement_key(db: &str, sql: &str) -> String {
    format!("{db}\t{:016x}", hash_bytes(sql.as_bytes()))
}

fn check_science(
    w: &Workload,
    seen: &HashMap<u32, (ErrorCode, u64)>,
    repo: &Path,
) -> Result<HashMap<u32, String>, String> {
    let path = repo.join(SCIENCE_DIGESTS);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut expected: HashMap<String, (String, u64)> = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 {
            return Err(format!("{}: malformed line `{line}`", path.display()));
        }
        let digest =
            u64::from_str_radix(f[4], 16).map_err(|e| format!("{}: {e}", path.display()))?;
        expected.insert(format!("{}\t{}", f[0], f[1]), (f[3].to_string(), digest));
    }
    let mut wrong = HashMap::new();
    for (&id, &(code, digest)) in seen {
        let (db, sql) = &w.statements[id as usize];
        match expected.get(&statement_key(db, sql)) {
            None => {
                wrong.insert(id, "no committed digest".to_string());
            }
            Some((c, d)) if c != code.as_str() || *d != digest => {
                wrong.insert(
                    id,
                    format!("got {} {digest:016x}, expected {c} {d:016x}", code.as_str()),
                );
            }
            Some(_) => {}
        }
    }
    Ok(wrong)
}

/// Regenerate [`SCIENCE_DIGESTS`] from the current engine. A statement
/// whose result the reference interpreter can compute in reasonable
/// time (every CORDIS statement; single-table, subquery-free SDSS and
/// OncoMX statements) is confirmed against it and marked `reference`;
/// the rest are marked `engine`. Returns the file's text.
pub fn science_digests(repo: &Path) -> Result<String, String> {
    let all = science_statements(&repo.join("datasets"))?;
    let mut distinct: Vec<(&'static str, String)> = Vec::new();
    for s in &all {
        if !distinct.contains(s) {
            distinct.push(s.clone());
        }
    }
    let mut service = QueryService::new(ServeConfig::default());
    let mut dbs: HashMap<&str, Arc<Database>> = HashMap::new();
    for domain in Domain::ALL {
        let db = Arc::new(snapshot(domain));
        service = service.with_snapshot(domain.name(), Arc::clone(&db));
        dbs.insert(domain.name(), db);
    }
    let mut text = String::from(
        "# serve_science expected responses: db, sql hash, source, code, content digest.\n\
         # source `reference`: the engine's response matched the reference interpreter;\n\
         # source `engine`: taken from the engine alone (the reference is too slow there).\n",
    );
    let mut disputed = Vec::new();
    for (db, sql) in &distinct {
        let resp = service.handle(&QueryRequest::new(0, db, sql));
        let upper = sql.to_ascii_uppercase();
        let cheap =
            *db == "cordis" || (upper.matches("SELECT").count() == 1 && !upper.contains(" JOIN "));
        let source = if cheap {
            match matches_reference(&dbs[db], sql, &resp) {
                Ok(()) => "reference",
                Err(why) => {
                    disputed.push(format!("{db}: {sql}: {why}"));
                    "engine"
                }
            }
        } else {
            "engine"
        };
        text.push_str(&format!(
            "{}\t{source}\t{}\t{:016x}\n",
            statement_key(db, sql),
            resp.code.as_str(),
            content_digest(&resp.to_json())
        ));
    }
    for d in &disputed {
        eprintln!("reference disagrees: {d}");
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p99_us: f64, growth_us: f64) -> Step {
        Step {
            rate,
            p99_us,
            growth_us,
            shed: false,
        }
    }

    #[test]
    fn slo_interpolates_where_p99_crosses_the_limit() {
        let l = P99_LIMIT_US;
        let steps = [
            step(10.0, 0.5 * l, 0.0),
            step(20.0, 0.8 * l, 0.0),
            step(30.0, 8.0 * l, 0.0),
        ];
        let slo = slo_qps(&steps);
        // The crossing sits where log(p99) reaches log(limit).
        let t = (1.0f64 / 0.8).ln() / 10.0f64.ln();
        assert!((slo - (20.0 + 10.0 * t)).abs() < 1e-9, "{slo}");
        assert_eq!(slo_qps(&[step(10.0, 2.0 * l, 0.0)]), 5.0);
        // A noisy failure below a passing step does not end the ladder:
        // the highest passing rate counts.
        let noisy = [
            step(10.0, 0.5 * l, 0.0),
            step(20.0, 1.5 * l, 0.0),
            step(30.0, 0.8 * l, 0.0),
            step(40.0, 8.0 * l, 0.0),
        ];
        assert!(slo_qps(&noisy) > 30.0);
        assert_eq!(slo_qps(&noisy[..3]), 30.0);
    }

    #[test]
    fn a_growing_backlog_fails_a_step_before_p99_does() {
        let g = GROWTH_LIMIT_US;
        // p99 stays under its limit; the backlog grows past its own at
        // the second step, a quarter of the way from 0.5 g to 2.5 g.
        let steps = [
            step(10.0, 0.2 * P99_LIMIT_US, 0.5 * g),
            step(20.0, 0.4 * P99_LIMIT_US, 2.5 * g),
        ];
        assert!(!steps[1].pass());
        assert!((slo_qps(&steps) - 12.5).abs() < 1e-9);
        // Whichever limit is crossed first decides.
        let both = [
            step(10.0, 0.5 * P99_LIMIT_US, 0.5 * g),
            step(20.0, 50.0 * P99_LIMIT_US, 1.5 * g),
        ];
        assert!(slo_qps(&both) < 15.0);
        let shed = [
            step(10.0, 0.5 * P99_LIMIT_US, 0.0),
            Step {
                shed: true,
                ..step(20.0, 0.5 * P99_LIMIT_US, 0.0)
            },
        ];
        assert_eq!(slo_qps(&shed), 10.0);
    }

    #[test]
    fn backlog_growth_compares_the_last_quarter_with_the_first() {
        let record = Record {
            stmt: 0,
            code: ErrorCode::Ok,
            digest: 0,
            total_rows: 0,
            kept_rows: 0,
            bytes: 0,
            profile: None,
        };
        let samples: Vec<(Timing, Record)> = (0..100u64)
            .map(|i| {
                let t = Timing {
                    due_ns: i,
                    late_ns: i * 1_000,
                    latency_ns: i * 1_000,
                };
                (t, record)
            })
            .collect();
        // Quarter medians: 12 µs (0..25) and 87 µs (75..100).
        assert_eq!(backlog_growth_us(&samples), 75.0);
    }

    #[test]
    fn content_digest_ignores_the_request_id() {
        let a = "{\"id\": 1, \"code\": \"ok\", \"rows\": []}";
        let b = "{\"id\": 22, \"code\": \"ok\", \"rows\": []}";
        assert_eq!(content_digest(a), content_digest(b));
        assert_ne!(
            content_digest(a),
            content_digest("{\"id\": 1, \"code\": \"ok\", \"rows\": [[1]]}")
        );
    }
}
