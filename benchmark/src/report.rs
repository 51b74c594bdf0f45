//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them equal). Every workload prints
//! every end-to-end metric in its untraced run and every per-layer
//! metric in its traced run; a layer a workload does not exercise reads
//! `0` there.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("slo_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sb-serve request path (serve_science).
    ("loadgen.late_us.p99", "us"),
    ("serve.admission_us", "us"),
    ("serve.guardrail_us", "us"),
    ("serve.prepare_us", "us"),
    ("serve.handle.self_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("engine.execute_us.sum", "us"),
    ("engine.execute_us.p99", "us"),
    ("engine.rows_out", "count"),
    ("serve.rows.kept_ratio", "ratio"),
    ("serve.envelope.to_json_us", "us"),
    ("serve.envelope.bytes", "bytes"),
    // sb-engine work as sb-obs counts it (every workload).
    ("engine.scan.rows", "count"),
    ("engine.statements", "count"),
    // Table 5 harness stages, pipeline and systems (table5_quick).
    ("data.build_s", "s"),
    ("core.spider_build_s", "s"),
    ("core.assemble_s", "s"),
    ("core.pipeline_s", "s"),
    ("core.pipeline.accept_ratio", "ratio"),
    ("nl2sql.train_s.valuenet", "s"),
    ("nl2sql.train_s.t5", "s"),
    ("nl2sql.train_s.smbop", "s"),
    ("nl2sql.predict_s.valuenet", "s"),
    ("nl2sql.predict_s.t5", "s"),
    ("nl2sql.predict_s.smbop", "s"),
    ("nl2sql.predict_ms.p99", "ms"),
    ("nl2sql.engine_statements_per_question", "count"),
    ("metrics.exec_match_s", "s"),
    ("metrics.gold_cache.hit_ratio", "ratio"),
    ("table5.self_s", "s"),
    // Traced minus untraced, over untraced, of the workload's main time.
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong (or that failed outright).
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line for `names`. Errors if a metric is missing, is
    /// not in `names`, or is not a finite number.
    pub fn render(&self, names: &[(&str, &str)]) -> Result<String, String> {
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !names.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric `{extra}` is not in the metric list"));
        }
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_requires_exactly_the_listed_metrics() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.set("a", 1.25);
        assert!(o.render(&[("a", "s"), ("b", "s")]).is_err());
        o.set("b", 2.0);
        let line = o.render(&[("a", "s"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(o.render(&[("a", "s")]).is_err(), "b is not listed");
    }
}
