//! The prepared-plan cache: normalize → parse → plan **once**, execute
//! the cached plan on every subsequent request.
//!
//! Serving workloads repeat: the same templated statements arrive over
//! and over with cosmetic differences (whitespace, keyword case). The
//! cache removes the per-request parse and plan cost in two layers:
//!
//! 1. **Raw layer** — the exact request text `(snapshot, sql)` maps
//!    straight to its prepared entry, so a verbatim repeat pays one
//!    `HashMap` probe. Parse *errors* are cached here too: a busted
//!    statement hammered in a retry loop fails fast without re-lexing.
//! 2. **Normalized layer** — on a raw miss the statement is parsed and
//!    re-printed through the AST printer, which is the dialect's
//!    canonical form. Cosmetic variants collapse onto one entry:
//!    `select  A from T` and `SELECT a FROM t` share a single plan.
//!
//! ## Why a cached plan is safe to reuse
//!
//! A [`Prepared`] entry stores the statement AST (`Arc<Query>`) and an
//! [`sb_opt::OwnedPlan`] captured by `sb_engine::plan_top_select`. The
//! planner is a pure function of the statement, the snapshot's schema
//! and its row counts — and a service snapshot is immutable — so the
//! cached plan is *the same plan* fresh planning would produce, and
//! execution through it is byte-identical, errors included. This is
//! pinned by the cold/warm equivalence suite in `tests/plan_cache.rs`.
//! Statements the planner does not cover (set operations, derived
//! tables, unknown relations) prepare with `plan: None` and execute
//! through the ordinary path, planning per request as before.
//!
//! One cache instance is bound to one service: entries are keyed by
//! snapshot name and embed decisions derived from that snapshot's
//! schema and row counts, so they must never be shared with a service
//! whose snapshot of the same name differs. Plans do not depend on
//! `ExecOptions`; the options apply when a plan is executed.

use sb_engine::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One statement, prepared: parsed once, planned once.
#[derive(Debug)]
pub struct Prepared {
    /// Canonical (printer-normalized) SQL text.
    pub normalized: String,
    /// The parsed statement.
    pub query: Arc<sb_sql::Query>,
    /// The captured optimizer plan, when the statement is a plannable
    /// top-level `SELECT` over base tables (`None` falls back to
    /// per-request planning inside the engine).
    pub plan: Option<sb_opt::OwnedPlan>,
}

/// Outcome of parsing one raw statement, cached either way.
#[derive(Debug, Clone)]
enum RawEntry {
    Prepared(Arc<Prepared>),
    ParseErr(String),
}

#[derive(Debug, Default)]
struct Inner {
    /// `(snapshot, raw sql)` → parse outcome.
    by_raw: HashMap<(String, String), RawEntry>,
    /// `(snapshot, normalized sql)` → prepared entry, shared by every
    /// raw spelling that normalizes onto it.
    by_norm: HashMap<(String, String), Arc<Prepared>>,
}

/// Concurrent prepared-statement cache. Read-mostly: lookups take the
/// read lock, only first-touch preparation takes the write lock.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look up or prepare `sql` against snapshot `db_name`. Returns the
    /// prepared entry (or the cached parse error) and whether this call
    /// was a raw-layer hit.
    ///
    /// Under concurrent first-touch of the same statement, several
    /// threads may parse and plan it simultaneously; the planner is
    /// deterministic, so whichever entry lands in the map is
    /// interchangeable with the rest. Which thread observes the miss is
    /// scheduling-dependent — the reason `cache_hit` stays out of the
    /// response serialization.
    pub fn prepare(
        &self,
        db_name: &str,
        db: &Database,
        sql: &str,
    ) -> (Result<Arc<Prepared>, String>, bool) {
        let raw_key = (db_name.to_string(), sql.to_string());
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = inner.by_raw.get(&raw_key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (
                    match entry {
                        RawEntry::Prepared(p) => Ok(Arc::clone(p)),
                        RawEntry::ParseErr(e) => Err(e.clone()),
                    },
                    true,
                );
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Parse and plan outside the lock: planning walks the statement
        // and consults row counts, and holding a write lock across it
        // would serialize unrelated first-touch requests.
        let entry = match sb_sql::parse(sql) {
            Err(e) => RawEntry::ParseErr(e.to_string()),
            Ok(query) => {
                let normalized = query.to_string();
                let norm_key = (db_name.to_string(), normalized.clone());
                let existing = {
                    let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
                    inner.by_norm.get(&norm_key).map(Arc::clone)
                };
                let prepared = existing.unwrap_or_else(|| {
                    let plan = sb_engine::plan_top_select(db, &query);
                    Arc::new(Prepared {
                        normalized,
                        query: Arc::new(query),
                        plan,
                    })
                });
                let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
                let shared = inner
                    .by_norm
                    .entry(norm_key)
                    .or_insert_with(|| Arc::clone(&prepared));
                RawEntry::Prepared(Arc::clone(shared))
            }
        };
        let result = match &entry {
            RawEntry::Prepared(p) => Ok(Arc::clone(p)),
            RawEntry::ParseErr(e) => Err(e.clone()),
        };
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.by_raw.entry(raw_key).or_insert(entry);
        (result, false)
    }

    /// Raw-layer hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Raw-layer misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct raw statements cached.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .by_raw
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct normalized statements (≤ [`Self::len`]).
    pub fn normalized_len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .by_norm
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::{Domain, SizeClass};

    #[test]
    fn raw_repeat_hits_and_cosmetic_variants_share_one_plan() {
        let db = Domain::Sdss.build(SizeClass::Tiny).db;
        let cache = PlanCache::new();
        let sql = "SELECT s.class FROM specobj AS s WHERE s.z > 0.5";

        let (first, hit) = cache.prepare("sdss", &db, sql);
        assert!(!hit);
        let first = first.expect("parses");
        let (second, hit) = cache.prepare("sdss", &db, sql);
        assert!(hit, "verbatim repeat must hit the raw layer");
        assert!(Arc::ptr_eq(&first, &second.expect("parses")));

        // Different spelling, same canonical statement: raw miss, but
        // the normalized layer hands back the very same entry.
        let variant = "select  s.class  from specobj as s where s.z > 0.5";
        let (third, hit) = cache.prepare("sdss", &db, variant);
        assert!(!hit);
        assert!(Arc::ptr_eq(&first, &third.expect("parses")));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.normalized_len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn parse_errors_are_cached() {
        let db = Domain::Sdss.build(SizeClass::Tiny).db;
        let cache = PlanCache::new();
        let (r1, hit1) = cache.prepare("sdss", &db, "SELECT FROM WHERE");
        let (r2, hit2) = cache.prepare("sdss", &db, "SELECT FROM WHERE");
        assert!(!hit1);
        assert!(hit2, "second failure must come from the cache");
        assert_eq!(r1.unwrap_err(), r2.unwrap_err());
    }

    #[test]
    fn snapshot_name_partitions_the_cache() {
        let db = Domain::Sdss.build(SizeClass::Tiny).db;
        let cache = PlanCache::new();
        let sql = "SELECT s.class FROM specobj AS s";
        let (_, hit_a) = cache.prepare("a", &db, sql);
        let (_, hit_b) = cache.prepare("b", &db, sql);
        assert!(!hit_a && !hit_b, "different snapshots never share entries");
        assert_eq!(cache.len(), 2);
    }
}
