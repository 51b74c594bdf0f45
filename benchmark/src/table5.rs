//! The `table5_quick` workload: the `--quick` Table 5 grid.
//!
//! The untraced run calls exactly what the `table5 --quick` binary
//! calls — `SpiderPairs::build` (set-up), then `run_domain_grid` per
//! domain and `run_spider_rows` — and checks every cell against the
//! expected grid. The traced run replays the same grid, on the same
//! schedule, through the crates' lower-level public functions with a
//! span around each call, and must reproduce the untraced cells exactly.
//!
//! A grid takes longer than a run's usual `--seconds`, so a run times
//! one grid, in four sections (three domain grids, the control rows).
//! `p50_us`, `p99_us` and `slo_qps` are derived from those section
//! times: this workload has no requests or latency limit, and the three
//! repeat what `wall_s` shows.

use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::util;
use rayon::prelude::*;
use sb_bench::TextTable;
use sb_core::experiments::{
    fresh_systems, paper_quotas, run_domain_grid, run_spider_rows, ExperimentResult,
};
use sb_core::{
    assemble_expert_set, assemble_expert_set_styled, ExperimentConfig, NlSqlPair, Pipeline,
    PipelineConfig, Quotas, SpiderPairs, TrainRegime,
};
use sb_data::{Domain, DomainData};
use sb_engine::Database;
use sb_metrics::{execution_match_cached, GoldCache};
use sb_nl2sql::{DbCatalog, NlToSql, Pair};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The repository's `--quick` experiment seed: every benchmark seed but
/// the held-out one runs it. Grids at other experiment seeds differ too
/// much in cost to share one bound (experiment seed 21 peaks at about
/// 1 GB in its SDSS section, against 45–70 MB for 7, 13 and 99).
pub const DEFAULT_VARIANT: u64 = 99;

/// Experiment seed of the held-out benchmark seed.
pub const HELD_OUT_VARIANT: u64 = 31;

/// The experiment seed for benchmark seed `seed`.
pub fn variant(seed: u64) -> u64 {
    if seed == crate::HELD_OUT_SEED {
        HELD_OUT_VARIANT
    } else {
        DEFAULT_VARIANT
    }
}

fn config(experiment_seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: experiment_seed,
        ..ExperimentConfig::quick()
    }
}

/// Where the expected grid of an experiment seed lives: the committed
/// `table5 --quick` output for the default, the benchmark's own
/// expected files for the others.
pub fn expected_path(repo: &Path, experiment_seed: u64) -> PathBuf {
    if experiment_seed == DEFAULT_VARIANT {
        repo.join("results_table5.txt")
    } else {
        repo.join(format!(
            "benchmark/expected/table5_seed{experiment_seed}.txt"
        ))
    }
}

/// The Table 5 grid as rendered by `table5` (table lines only).
pub fn grid_lines(results: &[ExperimentResult]) -> Vec<String> {
    let systems = ["ValueNet", "T5-Large w/o PICARD", "SmBoP+GraPPa"];
    let mut t = TextTable::new(&[
        "Train Set",
        "Dev Set",
        "ValueNet",
        "T5-Large w/o PICARD",
        "SmBoP+GraPPa",
    ]);
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for r in results {
        if !seen.contains(&(r.domain.as_str(), r.regime.as_str())) {
            seen.push((&r.domain, &r.regime));
        }
    }
    let find = |domain: &str, regime: &dyn Fn(&str) -> bool, system: &str| {
        results
            .iter()
            .find(|r| r.domain == domain && regime(&r.regime) && r.system == system)
            .map(|r| r.accuracy)
    };
    for (domain, regime) in seen {
        let mut cells = vec![regime.to_string(), domain.to_uppercase()];
        for system in systems {
            let cell = match find(domain, &|r| r == regime, system) {
                None => "-".to_string(),
                Some(acc) if regime.contains("Zero-Shot") => format!("{acc:.2}"),
                Some(acc) => {
                    let base = find(domain, &|r| r.contains("Zero-Shot"), system).unwrap_or(acc);
                    format!("{acc:.2} ({:+.2})", acc - base)
                }
            };
            cells.push(cell);
        }
        t.row(&cells);
    }
    t.render().lines().map(str::to_string).collect()
}

/// Cells of `got` that differ from the expected grid text (table lines
/// are those starting with `|`), counted per system cell; a missing or
/// extra row counts all of its cells.
pub fn differing_cells(got: &[String], expected_text: &str) -> u64 {
    let expected: Vec<&str> = expected_text
        .lines()
        .filter(|l| l.starts_with('|'))
        .collect();
    let cells = |l: &str| {
        l.split('|')
            .map(|c| c.trim().to_string())
            .collect::<Vec<_>>()
    };
    let mut wrong = 0;
    for i in 0..got.len().max(expected.len()) {
        match (got.get(i), expected.get(i)) {
            (Some(g), Some(e)) if g == e => {}
            (Some(g), Some(e)) => {
                let (g, e) = (cells(g), cells(e));
                wrong += (0..g.len().max(e.len()))
                    .filter(|&j| g.get(j) != e.get(j))
                    .count()
                    .max(1) as u64;
            }
            _ => wrong += 3,
        }
    }
    wrong
}

/// The grid, one section per domain plus the Spider control rows, with
/// each section's wall time. `before` runs ahead of each section,
/// untimed.
fn grid(
    cfg: &ExperimentConfig,
    spider: &SpiderPairs,
    before: &mut dyn FnMut(),
) -> (Vec<ExperimentResult>, Vec<f64>) {
    let mut results = Vec::new();
    let mut sections = Vec::new();
    for domain in Domain::ALL {
        before();
        let t = Instant::now();
        results.extend(run_domain_grid(cfg, spider, &[domain]));
        sections.push(t.elapsed().as_secs_f64());
        note_section(domain.name(), t);
    }
    before();
    let t = Instant::now();
    results.extend(run_spider_rows(cfg, spider));
    sections.push(t.elapsed().as_secs_f64());
    note_section("spider", t);
    (results, sections)
}

fn note_section(name: &str, started: Instant) {
    eprintln!(
        "[table5_quick] section {name}: {:.3} s, peak RSS so far {:.1} MB",
        started.elapsed().as_secs_f64(),
        util::peak_rss_mb()
    );
}

/// Check a grid against its expected text; sets `attempted`, `failed`
/// and `correct`.
fn check(
    results: &[ExperimentResult],
    experiment_seed: u64,
    repo: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = expected_path(repo, experiment_seed);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines = grid_lines(results);
    out.attempted += results.len() as u64;
    let wrong = differing_cells(&lines, &text);
    if wrong > 0 {
        eprintln!(
            "[table5_quick] {wrong} cells differ from {}:",
            path.display()
        );
        for l in &lines {
            eprintln!("  {l}");
        }
    }
    out.failed += wrong;
    out.correct = out.failed == 0;
    Ok(())
}

/// `SpiderPairs::build` runs ahead of each grid section in an untraced
/// run; `setup_s` is the median of all builds. Spreading them over the
/// run keeps one slow spell of the machine from deciding `setup_s`.
const SETUPS_PER_SECTION: usize = 3;

/// Untraced run at `experiment_seed`: every end-to-end metric.
pub fn run(experiment_seed: u64, seconds: f64, repo: &Path) -> Result<Outcome, String> {
    sb_obs::set_mode(sb_obs::Mode::Off);
    let cfg = config(experiment_seed);
    let build = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let spider = SpiderPairs::build(&cfg.spider);
        setups.push(t.elapsed().as_secs_f64());
        spider
    };
    let mut setups = Vec::new();
    let spider = build(&mut setups);

    // Whole grids until `seconds` have passed; at least one.
    let started = Instant::now();
    let (mut walls, mut sections, mut questions) = (Vec::new(), Vec::new(), 0usize);
    let mut out = Outcome::default();
    loop {
        let (results, secs) = grid(&cfg, &spider, &mut || {
            for _ in 0..SETUPS_PER_SECTION {
                build(&mut setups);
            }
        });
        walls.push(secs.iter().sum::<f64>());
        sections.extend(secs.iter().map(|s| s * 1e6));
        questions += results.iter().map(|r| r.n_dev).sum::<usize>();
        check(&results, experiment_seed, repo, &mut out)?;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let total: f64 = walls.iter().sum();
    out.set("setup_s", util::median(&mut setups));
    out.set("wall_s", util::median(&mut walls));
    out.set("p50_us", util::quantile(&mut sections.clone(), 0.50));
    out.set("p99_us", util::quantile(&mut sections, 0.99));
    out.set("slo_qps", questions as f64 / total);
    out.set("peak_rss_mb", util::peak_rss_mb());
    eprintln!(
        "[table5_quick] experiment seed {}: {} grid(s), {} sections, {questions} dev questions scored",
        cfg.seed,
        walls.len(),
        4 * walls.len()
    );
    Ok(out)
}

/// Write the held-out experiment seed's expected grid, and confirm the
/// default one against `results_table5.txt`.
pub fn write_expected(repo: &Path) -> Result<(), String> {
    for experiment_seed in [DEFAULT_VARIANT, HELD_OUT_VARIANT] {
        let cfg = config(experiment_seed);
        let spider = SpiderPairs::build(&cfg.spider);
        let t = Instant::now();
        let (results, _) = grid(&cfg, &spider, &mut || {});
        let lines = grid_lines(&results);
        let path = expected_path(repo, experiment_seed);
        eprintln!(
            "experiment seed {experiment_seed}: grid in {:.1} s",
            t.elapsed().as_secs_f64()
        );
        if experiment_seed == DEFAULT_VARIANT {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let wrong = differing_cells(&lines, &text);
            if wrong > 0 {
                return Err(format!("{wrong} cells differ from {}", path.display()));
            }
        } else {
            std::fs::write(&path, lines.join("\n") + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The traced replica.
// ---------------------------------------------------------------------

fn system_key(name: &str) -> usize {
    match name {
        "ValueNet" => 0,
        "T5-Large w/o PICARD" => 1,
        _ => 2,
    }
}

const TRAIN: [&str; 3] = [
    "nl2sql.train.valuenet",
    "nl2sql.train.t5",
    "nl2sql.train.smbop",
];
const PREDICT: [&str; 3] = [
    "nl2sql.predict.valuenet",
    "nl2sql.predict.t5",
    "nl2sql.predict.smbop",
];

/// What the replica counts besides its spans.
#[derive(Default)]
struct Counts {
    gold_hits: u64,
    gold_misses: u64,
    gen_accepted: usize,
    gen_attempts: usize,
    /// Dev questions predicted and scored.
    questions: usize,
    /// Engine statements run while predicting and scoring them.
    evaluate_statements: u64,
}

fn engine_statements() -> u64 {
    let r = sb_obs::snapshot();
    r.counter("engine.dispatch.compiled") + r.counter("engine.dispatch.interpreted")
}

struct Replica<'a> {
    cfg: &'a ExperimentConfig,
    tracer: &'a Tracer,
    root: u64,
    cell: u64,
    counts: Counts,
}

/// Pins a database lookup closure's signature (a returned reference
/// outlives the name it was looked up by).
fn by_name<'d, F: Fn(&str) -> Option<&'d Database> + Sync>(f: F) -> F {
    f
}

fn to_pairs(pairs: &[NlSqlPair]) -> Vec<Pair> {
    pairs
        .iter()
        .map(|p| Pair::new(p.question.clone(), p.sql.clone(), p.db.clone()))
        .collect()
}

fn scaled(q: Quotas, scale: f64) -> Quotas {
    Quotas(q.0.map(|n| {
        if n > 0 {
            ((n as f64 * scale).round() as usize).max(1)
        } else {
            0
        }
    }))
}

impl Replica<'_> {
    /// Time a call under `parent` in the current cell's group (group 0
    /// outside the cells: data, assembly and pipeline spans).
    fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let group = if parent == self.root { 0 } else { self.cell };
        self.tracer.time(name, group, parent, f)
    }

    fn pipeline(
        &mut self,
        data: &DomainData,
        target: usize,
        gen_seed: u64,
        llm_seed: u64,
        seeds: &[String],
    ) -> Vec<NlSqlPair> {
        let report = self.time("core.pipeline", self.root, |_| {
            Pipeline::new(
                data,
                PipelineConfig {
                    target_pairs: target,
                    gen_seed,
                    llm_seed,
                    ..Default::default()
                },
            )
            .run(seeds)
        });
        self.counts.gen_accepted += report.gen_stats.accepted;
        self.counts.gen_attempts += report.gen_stats.attempts();
        report.pairs
    }

    /// One grid cell: train, then predict and score every dev question
    /// in one parallel loop, as `evaluate` does, with a span around
    /// each question's prediction and its scoring.
    fn cell<'d>(
        &mut self,
        mut system: Box<dyn NlToSql>,
        training: &[Pair],
        catalog: &DbCatalog,
        dev: &[NlSqlPair],
        cache: &GoldCache,
        lookup: &(dyn Fn(&str) -> Option<&'d Database> + Sync),
    ) -> (String, f64) {
        self.cell += 1;
        let tracer = self.tracer;
        let group = self.cell;
        let cell_id = tracer.new_id();
        let start = tracer.now_ns();
        let key = system_key(system.name());
        self.time(TRAIN[key], cell_id, |_| system.train(training, catalog));
        let system = system.as_ref();
        let before = engine_statements();
        let hits: Vec<bool> = dev
            .par_iter()
            .map(|pair| {
                let Some(db) = lookup(&pair.db) else {
                    return false;
                };
                let predicted = tracer.time(PREDICT[key], group, cell_id, |_| {
                    system.predict(&pair.question, db)
                });
                tracer.time("metrics.exec_match", group, cell_id, |_| {
                    execution_match_cached(cache, db, &pair.sql, &predicted)
                })
            })
            .collect();
        self.counts.evaluate_statements += engine_statements() - before;
        self.counts.questions += dev.len();
        tracer.record_with_id(
            cell_id,
            "table5.cell",
            group,
            self.root,
            start,
            tracer.now_ns(),
        );
        let acc = if dev.is_empty() {
            0.0
        } else {
            hits.iter().filter(|h| **h).count() as f64 / dev.len() as f64
        };
        (system.name().to_string(), acc)
    }

    fn domain(
        &mut self,
        domain: Domain,
        spider: &SpiderPairs,
        results: &mut Vec<ExperimentResult>,
    ) {
        let cfg = self.cfg;
        let data = self.time("data.build", self.root, |_| domain.build(cfg.size));
        let (seed_q, dev_q, synth_n) = paper_quotas(domain);
        let (seed, dev) = self.time("core.assemble", self.root, |_| {
            let mut exclude = HashSet::new();
            let seed = assemble_expert_set(
                &data.db,
                &data.enhanced,
                &data.seed_patterns,
                scaled(seed_q, cfg.scale),
                cfg.seed,
                &mut exclude,
            );
            let dev = assemble_expert_set_styled(
                &data.db,
                &data.enhanced,
                &data.seed_patterns,
                scaled(dev_q, cfg.scale),
                cfg.seed ^ 0xDE,
                &mut exclude,
                3,
            );
            (seed, dev)
        });
        let seed_sql: Vec<String> = seed.iter().map(|p| p.sql.clone()).collect();
        let target = ((synth_n as f64 * cfg.scale).round() as usize).max(8);
        let synth = self.pipeline(&data, target, cfg.seed ^ 0x51, cfg.seed ^ 0x52, &seed_sql);

        let spider_train = to_pairs(&spider.train);
        let (seed_pairs, synth_pairs) = (to_pairs(&seed), to_pairs(&synth));
        let cache = GoldCache::new();
        let lookup = by_name(|name| name.eq_ignore_ascii_case(domain.name()).then_some(&data.db));
        for regime in TrainRegime::ALL {
            let mut training = spider_train.clone();
            if matches!(regime, TrainRegime::PlusSeed | TrainRegime::PlusSeedSynth) {
                training.extend(seed_pairs.clone());
            }
            if matches!(regime, TrainRegime::PlusSynth | TrainRegime::PlusSeedSynth) {
                training.extend(synth_pairs.clone());
            }
            let mut dbs: Vec<&Database> = spider.corpus.databases.iter().map(|d| &d.db).collect();
            dbs.push(&data.db);
            let catalog = DbCatalog::new(dbs);
            for system in fresh_systems() {
                let (name, accuracy) =
                    self.cell(system, &training, &catalog, &dev, &cache, &lookup);
                results.push(ExperimentResult {
                    domain: domain.name().to_string(),
                    regime: regime.label(domain.name()),
                    system: name,
                    accuracy,
                    n_dev: dev.len(),
                });
            }
        }
        self.counts.gold_hits += cache.hits();
        self.counts.gold_misses += cache.misses();
    }

    fn spider_rows(&mut self, spider: &SpiderPairs, results: &mut Vec<ExperimentResult>) {
        let cfg = self.cfg;
        let dbs = &spider.corpus.databases;
        let per_db =
            ((spider.train.len() as f64 * 0.25 / dbs.len() as f64).round() as usize).max(6);
        let mut synth = Vec::new();
        for (i, d) in dbs.iter().enumerate() {
            let data = DomainData {
                db: d.db.clone(),
                enhanced: d.enhanced.clone(),
                real_rows: d.db.total_rows() as f64,
                real_bytes: d.db.approx_bytes() as f64,
                seed_patterns: d.seed_patterns.clone(),
            };
            let (g, l) = (cfg.seed ^ (0x600 + i as u64), cfg.seed ^ (0x700 + i as u64));
            synth.extend(self.pipeline(&data, per_db, g, l, &d.seed_patterns));
        }
        let spider_train = to_pairs(&spider.train);
        let synth_train = to_pairs(&synth);
        let mut both = spider_train.clone();
        both.extend(synth_train.clone());
        let regimes = [
            ("Spider Train (Zero-Shot)", spider_train),
            ("Spider Train + Synth Spider", both),
            ("Synth Spider", synth_train),
        ];
        let catalog = DbCatalog::new(dbs.iter().map(|d| &d.db));
        let cache = GoldCache::new();
        let lookup = by_name(|name| {
            dbs.iter()
                .find(|d| d.db.schema.name.eq_ignore_ascii_case(name))
                .map(|d| &d.db)
        });
        for (label, training) in regimes {
            for system in fresh_systems() {
                let (name, accuracy) =
                    self.cell(system, &training, &catalog, &spider.dev, &cache, &lookup);
                results.push(ExperimentResult {
                    domain: "spider".to_string(),
                    regime: label.to_string(),
                    system: name,
                    accuracy,
                    n_dev: spider.dev.len(),
                });
            }
        }
        self.counts.gold_hits += cache.hits();
        self.counts.gold_misses += cache.misses();
    }
}

/// Traced run: the untraced grid, then the traced replica, which must
/// give the same cells; every per-layer metric and the span file.
pub fn run_traced(experiment_seed: u64, repo: &Path, spans_path: &Path) -> Result<Outcome, String> {
    sb_obs::set_mode(sb_obs::Mode::Off);
    let cfg = config(experiment_seed);
    let tracer = Tracer::new();
    let spider = tracer.time("core.spider_build", 0, 0, |_| {
        SpiderPairs::build(&cfg.spider)
    });
    let (plain, sections) = grid(&cfg, &spider, &mut || {});
    let plain_wall: f64 = sections.iter().sum();
    let mut out = Outcome::default();
    check(&plain, experiment_seed, repo, &mut out)?;

    sb_obs::set_mode(sb_obs::Mode::Summary);
    sb_obs::reset();
    let root = tracer.new_id();
    let start = tracer.now_ns();
    let mut replica = Replica {
        cfg: &cfg,
        tracer: &tracer,
        root,
        cell: 0,
        counts: Counts::default(),
    };
    let mut traced = Vec::new();
    for domain in Domain::ALL {
        replica.domain(domain, &spider, &mut traced);
    }
    replica.spider_rows(&spider, &mut traced);
    let end = tracer.now_ns();
    tracer.record_with_id(root, "table5.grid", 0, 0, start, end);
    let obs = sb_obs::snapshot();
    sb_obs::set_mode(sb_obs::Mode::Off);

    // The replica must reproduce the untraced cells exactly.
    let same = |a: &ExperimentResult, b: &ExperimentResult| {
        (
            &a.domain,
            &a.regime,
            &a.system,
            a.accuracy.to_bits(),
            a.n_dev,
        ) == (
            &b.domain,
            &b.regime,
            &b.system,
            b.accuracy.to_bits(),
            b.n_dev,
        )
    };
    let mismatched = (0..plain.len().max(traced.len()))
        .filter(|&i| !matches!((plain.get(i), traced.get(i)), (Some(a), Some(b)) if same(a, b)))
        .count() as u64;
    if mismatched > 0 {
        eprintln!("[table5_quick] the traced replica differs from the untraced grid in {mismatched} cells");
    }
    out.attempted += traced.len() as u64;
    out.failed += mismatched;
    out.correct = out.failed == 0;

    let spans = tracer.spans();
    let totals = trace::total_s(&spans);
    let selfs = trace::self_s(&spans);
    trace::write_jsonl(spans_path, &spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "[table5_quick] spans: {} -> {}",
        spans.len(),
        spans_path.display()
    );
    for (layer, s) in &selfs {
        eprintln!(
            "[table5_quick] self time {layer}: {s:.6} s (total {:.6} s)",
            totals[layer]
        );
    }
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let mut question_ms: Vec<f64> = spans
        .iter()
        .filter(|s| PREDICT.contains(&s.name))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let c = &replica.counts;

    for (metric, _) in crate::report::PER_LAYER {
        out.set(metric, 0.0);
    }
    out.set("engine.scan.rows", obs.counter("engine.scan.rows") as f64);
    out.set(
        "engine.statements",
        (obs.counter("engine.dispatch.compiled") + obs.counter("engine.dispatch.interpreted"))
            as f64,
    );
    out.set("data.build_s", total("data.build"));
    out.set("core.spider_build_s", total("core.spider_build"));
    out.set("core.assemble_s", total("core.assemble"));
    out.set("core.pipeline_s", total("core.pipeline"));
    out.set(
        "core.pipeline.accept_ratio",
        c.gen_accepted as f64 / c.gen_attempts.max(1) as f64,
    );
    let systems = [
        ("nl2sql.train_s.valuenet", "nl2sql.predict_s.valuenet"),
        ("nl2sql.train_s.t5", "nl2sql.predict_s.t5"),
        ("nl2sql.train_s.smbop", "nl2sql.predict_s.smbop"),
    ];
    for (k, (train, predict)) in systems.into_iter().enumerate() {
        out.set(train, total(TRAIN[k]));
        out.set(predict, total(PREDICT[k]));
    }
    out.set(
        "nl2sql.predict_ms.p99",
        util::quantile(&mut question_ms, 0.99),
    );
    out.set(
        "nl2sql.engine_statements_per_question",
        c.evaluate_statements as f64 / c.questions.max(1) as f64,
    );
    out.set("metrics.exec_match_s", total("metrics.exec_match"));
    out.set(
        "metrics.gold_cache.hit_ratio",
        c.gold_hits as f64 / (c.gold_hits + c.gold_misses).max(1) as f64,
    );
    out.set(
        "table5.self_s",
        selfs.get("table5.grid").copied().unwrap_or(0.0)
            + selfs.get("table5.cell").copied().unwrap_or(0.0),
    );
    let traced_wall = (end - start) as f64 / 1e9;
    out.set("trace.overhead_ratio", traced_wall / plain_wall - 1.0);
    eprintln!("[table5_quick] untraced grid {plain_wall:.3} s, traced replica {traced_wall:.3} s");
    Ok(out)
}
