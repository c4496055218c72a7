//! In-place partial grounding of incomplete databases.
//!
//! The exhaustive counters used to clone a full [`Database`] per valuation
//! and re-run model checking from scratch. A [`Grounding`] is the mutable
//! workspace that replaces that pattern: it snapshots the naïve table once
//! — into a single flat value arena with per-fact spans — then lets a
//! search [`bind`](Grounding::bind) and [`unbind`](Grounding::unbind)
//! individual nulls in `O(occurrences)` time, keeping a *partially
//! resolved* view of every fact. Query evaluators can inspect that view
//! directly (see `BooleanQuery::holds_partial` in `incdb-query`), and a
//! completion only has to be materialised — into a reusable scratch
//! [`Database`] — when a caller genuinely needs one.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::database::Database;
use crate::error::DataError;
use crate::fingerprint::CompletionKey;
use crate::incomplete::{DeltaOp, IncompleteDatabase};
use crate::interner::SymbolRegistry;
use crate::valuation::{Valuation, ValuationIter};
use crate::value::{Constant, NullId, Value};

/// One resolved write of [`Grounding::apply_delta`]: the relation, the
/// **row** (local fact position within the relation's contiguous range,
/// after the splice for inserts / before it for removals) and the
/// direction. This is the coordinate system residual watchers index their
/// per-relation status slabs by, so a watcher can patch slot `row` in place
/// without re-deriving the whole relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splice {
    /// The relation index (see [`Grounding::relation_index`]).
    pub rel: usize,
    /// The local row within [`Grounding::relation_facts`]`(rel)`.
    pub row: usize,
    /// `true` for an inserted row, `false` for a retired one.
    pub added: bool,
}

/// One occurrence of a null in the table: the owning fact and the absolute
/// position of the value in the grounding's flat arena, so a bind rewrites
/// `arena[pos]` directly without an indirection through the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// The fact index (dense, stable for the lifetime of the grounding).
    pub fact: u32,
    /// The absolute index of the occurrence in the value arena.
    pub pos: u32,
}

/// The result of the static separability analysis of one table
/// ([`Grounding::separability`]).
///
/// A fact is **clean** when it contains at least one null, every null in it
/// is globally single-occurrence, and the fact is non-unifiable with every
/// other fact of its relation (no resolution of one can equal a resolution
/// of the other). A null is **separable** when its host fact is clean.
/// Resolutions of a clean fact are pairwise distinct (its nulls sit at
/// disjoint positions) and can never coincide with a resolution of any
/// other fact — so across valuations that agree on the non-separable nulls,
/// **distinct separable assignments induce distinct completions**. That
/// injectivity is what lets distinct-completion counters take the
/// `∏|dom|` closed form below a `Satisfied` residual instead of walking
/// and fingerprinting every leaf.
#[derive(Debug, Clone)]
pub struct Separability {
    /// Per fact (grounding fact index): is the fact clean?
    clean: Vec<bool>,
    /// Per null (position in [`Grounding::nulls`]): is the null separable?
    separable: Vec<bool>,
    /// `false` when the analysis tripped its work limit and conservatively
    /// reported nothing separable.
    complete: bool,
}

impl Separability {
    /// Is the `fact`-th fact clean (see the type docs)?
    pub fn fact_is_clean(&self, fact: usize) -> bool {
        self.clean[fact]
    }

    /// Per-fact clean flags, indexed like the grounding's facts.
    pub fn clean_facts(&self) -> &[bool] {
        &self.clean
    }

    /// Is the `i`-th null (position in [`Grounding::nulls`]) separable?
    pub fn null_is_separable(&self, i: usize) -> bool {
        self.separable[i]
    }

    /// Per-null separable flags, indexed like [`Grounding::nulls`].
    pub fn separable_nulls(&self) -> &[bool] {
        &self.separable
    }

    /// The number of separable nulls.
    pub fn separable_count(&self) -> usize {
        self.separable.iter().filter(|&&b| b).count()
    }

    /// `true` if at least one null is separable.
    pub fn any(&self) -> bool {
        self.separable.iter().any(|&b| b)
    }

    /// `false` when the pairwise analysis tripped its work limit and the
    /// all-dirty answer is a conservative bail-out, not a proof.
    pub fn complete(&self) -> bool {
        self.complete
    }
}

/// A mutable partial-valuation workspace over one incomplete database.
///
/// The grounding owns a snapshot of the table (so it carries no lifetime and
/// can be moved into worker threads): one row-major arena of values with a
/// span per fact, relation names interned to dense indices via a
/// [`SymbolRegistry`], and, per null, the list of arena positions where it
/// occurs. Binding a null rewrites exactly those positions in the resolved
/// view; unbinding restores them. No per-step allocation happens on either
/// path, and the facts of one relation occupy a contiguous fact-index range
/// (and a contiguous arena slice), so watchers can classify candidates with
/// cache-friendly slice walks.
///
/// ```
/// use incdb_data::{Constant, IncompleteDatabase, NullId, Value};
///
/// let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
/// db.add_fact("R", vec![Value::null(0), Value::null(1)]).unwrap();
/// let mut g = db.try_grounding().unwrap();
/// assert!(!g.is_fully_bound());
/// g.bind(NullId(0), Constant(1)).unwrap();
/// g.bind(NullId(1), Constant(0)).unwrap();
/// assert!(g.is_fully_bound());
/// assert!(g.to_database().contains("R", &[Constant(1), Constant(0)]));
/// g.unbind(NullId(1));
/// assert_eq!(g.value(NullId(0)), Some(Constant(1)));
/// assert_eq!(g.value(NullId(1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Grounding {
    /// The nulls of the table, in increasing label order.
    nulls: Vec<NullId>,
    /// `domains[i]` is the sorted domain of `nulls[i]`, shared with any
    /// valuation cursor built from the same database.
    domains: Vec<Arc<[Constant]>>,
    index_of: BTreeMap<NullId, usize>,
    /// Current partial assignment, indexed like `nulls`.
    assignment: Vec<Option<Constant>>,
    bound: usize,
    /// Relation names interned in lexicographic order, so a relation's
    /// dense index equals its rank among the table's relation names.
    registry: SymbolRegistry,
    /// One entry per fact: owning relation (index into the registry).
    fact_rel: Vec<u32>,
    /// The flat value arena: every fact's values back to back, with bound
    /// nulls replaced by their constants, updated in place by `bind` /
    /// `unbind`.
    values: Vec<Value>,
    /// `offsets[f]..offsets[f + 1]` is the arena span of fact `f`.
    offsets: Vec<u32>,
    /// Number of *unbound* null positions per fact (0 ⇒ the fact is ground).
    unbound_in_fact: Vec<u32>,
    /// Per null index, the occurrences (fact + absolute arena position).
    occurrences: Vec<Vec<Occurrence>>,
    /// Contiguous fact-index range per relation.
    rel_ranges: Vec<(u32, u32)>,
    /// Nulls changed by `bind`/`unbind` since the last
    /// [`Grounding::drain_dirty_into`] — the notification channel for watch
    /// structures layered on top of the grounding (e.g. the incremental
    /// residual evaluator of `incdb-query`), which use it to update only the
    /// candidate sets that mention a changed null.
    dirty: Vec<u32>,
    /// Per null, whether it is already recorded in `dirty` (keeps the queue
    /// duplicate-free so undrained groundings stay `O(nulls)`).
    dirty_flag: Vec<bool>,
    /// Lazily built [`Grounding::full_key_plan`]; assignment-independent,
    /// so clones share a consistent value and rebuilding after `Clone` is
    /// merely redundant, never wrong.
    full_plan: OnceLock<KeyPlan>,
}

/// An assignment-independent skeleton for keying a fixed fact subset: the
/// template-ground members `G` pre-sorted and deduplicated once, plus the
/// indices of the null-hosting members that must be re-resolved per
/// assignment. Every assignment's key holds all of `G`, so a
/// [residual key](Grounding::residual_key_into) — the resolved
/// null-hosting facts minus `G`, one small sort plus a binary search per
/// fact — already tells two assignments apart; the canonical
/// [`key_into`](Grounding::key_into) key adds a linear merge with `G`.
/// Neither re-collects and re-sorts the whole table with a fresh tuple
/// allocation per fact at every leaf.
///
/// Get one from [`Grounding::full_key_plan`] (every fact, cached) or
/// [`Grounding::key_plan`] (a selected subset). Fact indices are
/// grounding-level, so a plan serves every clone of the grounding it was
/// built from, until [`Grounding::apply_delta`] changes the fact set.
#[derive(Debug, Clone)]
pub struct KeyPlan {
    /// Sorted, deduplicated `(relation, tuple)` pairs of the included facts
    /// whose template holds no null — their resolved form never changes.
    ground: CompletionKey,
    /// Included template fact indices hosting at least one null, ascending.
    null_hosts: Vec<u32>,
}

impl Grounding {
    /// Builds a grounding of `db` with every null unbound.
    ///
    /// Returns an error if some null of the table has no domain.
    pub(crate) fn of(db: &IncompleteDatabase) -> Result<Grounding, DataError> {
        let (nulls, domains) = db.null_domains()?;
        let index_of: BTreeMap<NullId, usize> =
            nulls.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        let mut registry = SymbolRegistry::new();
        let mut fact_rel = Vec::new();
        let mut values = Vec::new();
        let mut offsets = vec![0u32];
        let mut unbound_in_fact = Vec::new();
        let mut occurrences: Vec<Vec<Occurrence>> = vec![Vec::new(); nulls.len()];
        let mut rel_ranges = Vec::new();

        // `db.relations()` iterates in name order, so interned ids equal
        // each relation's lexicographic rank.
        for (name, facts) in db.relations() {
            let rel = registry.intern(name);
            debug_assert_eq!(rel.index(), rel_ranges.len());
            let start = fact_rel.len() as u32;
            for fact in facts {
                let idx = fact_rel.len() as u32;
                let mut unbound = 0;
                for value in fact.iter() {
                    if let Value::Null(n) = value {
                        occurrences[index_of[n]].push(Occurrence {
                            fact: idx,
                            pos: values.len() as u32,
                        });
                        unbound += 1;
                    }
                    values.push(*value);
                }
                fact_rel.push(rel.0);
                offsets.push(values.len() as u32);
                unbound_in_fact.push(unbound);
            }
            rel_ranges.push((start, fact_rel.len() as u32));
        }

        let assignment = vec![None; nulls.len()];
        let dirty_flag = vec![false; nulls.len()];
        Ok(Grounding {
            nulls,
            domains,
            index_of,
            assignment,
            bound: 0,
            registry,
            fact_rel,
            values,
            offsets,
            unbound_in_fact,
            occurrences,
            rel_ranges,
            dirty: Vec::new(),
            dirty_flag,
            full_plan: OnceLock::new(),
        })
    }

    /// The nulls of the underlying table, in increasing label order.
    pub fn nulls(&self) -> &[NullId] {
        &self.nulls
    }

    /// The number of nulls.
    pub fn null_count(&self) -> usize {
        self.nulls.len()
    }

    /// The sorted domain of the `i`-th null (position in [`Grounding::nulls`]).
    pub fn domain_by_index(&self, i: usize) -> &[Constant] {
        &self.domains[i]
    }

    /// The sorted domain of a null, if it occurs in the table.
    pub fn domain(&self, null: NullId) -> Option<&[Constant]> {
        self.index_of.get(&null).map(|&i| &*self.domains[i])
    }

    /// The index of a null within [`Grounding::nulls`].
    pub fn index_of(&self, null: NullId) -> Option<usize> {
        self.index_of.get(&null).copied()
    }

    /// Returns `true` if `value` lies in the domain of `null`. Nulls that do
    /// not occur in the table accept nothing.
    pub fn null_can_take(&self, null: NullId, value: Constant) -> bool {
        self.domain(null)
            .is_some_and(|dom| dom.binary_search(&value).is_ok())
    }

    /// The number of occurrences of the `i`-th null in the table.
    pub fn occurrence_count(&self, i: usize) -> usize {
        self.occurrences[i].len()
    }

    /// The occurrences of the `i`-th null — the per-null index watchers use
    /// to find the facts affected by a bind.
    pub fn occurrences_of(&self, i: usize) -> &[Occurrence] {
        &self.occurrences[i]
    }

    /// The in-fact column of an occurrence — its arena position relative
    /// to the owning fact's span.
    pub fn occurrence_column(&self, occ: &Occurrence) -> usize {
        (occ.pos - self.offsets[occ.fact as usize]) as usize
    }

    /// The total number of facts in the table, across all relations. Fact
    /// indices returned by the accessors below are stable for the lifetime
    /// of the grounding.
    pub fn fact_count(&self) -> usize {
        self.fact_rel.len()
    }

    /// The relation owning a fact, as an index into the
    /// [`Grounding::relation_names`] order.
    pub fn fact_relation(&self, fact: usize) -> usize {
        self.fact_rel[fact] as usize
    }

    /// The partially resolved values of one fact under the current
    /// assignment.
    pub fn fact_values(&self, fact: usize) -> &[Value] {
        &self.values[self.offsets[fact] as usize..self.offsets[fact + 1] as usize]
    }

    /// Returns `true` if every position of the fact is resolved (no unbound
    /// null) under the current assignment.
    pub fn fact_is_ground(&self, fact: usize) -> bool {
        self.unbound_in_fact[fact] == 0
    }

    /// The index of a relation name within [`Grounding::relation_names`].
    pub fn relation_index(&self, relation: &str) -> Option<usize> {
        self.registry.get(relation).map(|r| r.index())
    }

    /// The contiguous fact-index range of one relation (given by relation
    /// index) — the same order [`Grounding::facts_of`] iterates.
    pub fn relation_facts(&self, rel: usize) -> Range<usize> {
        let (start, end) = self.rel_ranges[rel];
        start as usize..end as usize
    }

    /// The arity of one relation (0 if it has no facts).
    pub fn relation_arity(&self, rel: usize) -> usize {
        let (start, end) = self.rel_ranges[rel];
        if start == end {
            0
        } else {
            (self.offsets[start as usize + 1] - self.offsets[start as usize]) as usize
        }
    }

    /// The flat arena slice covering every fact of one relation, together
    /// with the relation's arity (stride). Fact `first + k` of the range
    /// occupies `slice[k * arity..(k + 1) * arity]` — the columnar surface
    /// that residual watchers scan without per-fact indirections.
    ///
    /// # Panics
    /// Panics with a descriptive message if `rel` is not a valid relation
    /// index (`rel >= relation_names().count()`), so an internal index slip
    /// surfaces as a named relation-range error instead of an opaque slice
    /// panic.
    pub fn relation_arena(&self, rel: usize) -> (&[Value], usize) {
        self.check_relation(rel);
        let (start, end) = self.rel_ranges[rel];
        let lo = self.offsets[start as usize] as usize;
        let hi = self.offsets[end as usize] as usize;
        (&self.values[lo..hi], self.relation_arity(rel))
    }

    /// The per-fact unbound-null counts of one relation, parallel to the
    /// rows of [`Grounding::relation_arena`]: entry `k` is the number of
    /// distinct unbound nulls in fact `first + k`, and `0` means the row is
    /// fully ground. Block scans read this slice to split a batch into the
    /// ground fast path and the per-row null fallback.
    ///
    /// # Panics
    /// Panics with a descriptive message if `rel` is not a valid relation
    /// index.
    pub fn relation_unbound(&self, rel: usize) -> &[u32] {
        self.check_relation(rel);
        let (start, end) = self.rel_ranges[rel];
        &self.unbound_in_fact[start as usize..end as usize]
    }

    /// Bounds-checks a relation index with a descriptive panic message.
    #[inline]
    fn check_relation(&self, rel: usize) {
        assert!(
            rel < self.rel_ranges.len(),
            "relation index {rel} out of range: the grounding has {} relations",
            self.rel_ranges.len()
        );
    }

    /// Binds a null to a value of its domain, resolving every occurrence in
    /// place. Rebinding an already-bound null is allowed.
    ///
    /// Returns an error if the null does not occur in the table or the value
    /// lies outside its domain.
    pub fn bind(&mut self, null: NullId, value: Constant) -> Result<(), DataError> {
        let Some(&i) = self.index_of.get(&null) else {
            return Err(DataError::MissingDomain { null });
        };
        if self.domains[i].binary_search(&value).is_err() {
            return Err(DataError::ValueOutsideDomain { null, value });
        }
        self.bind_index(i, value);
        Ok(())
    }

    /// Binds the `i`-th null (position in [`Grounding::nulls`]) without
    /// checking domain membership — the hot-loop path for searches that
    /// iterate the domain slice itself.
    pub fn bind_index(&mut self, i: usize, value: Constant) {
        debug_assert!(
            self.domains[i].binary_search(&value).is_ok(),
            "bind_index outside the domain of {:?}",
            self.nulls[i]
        );
        if self.assignment[i].is_none() {
            self.bound += 1;
            for occ in &self.occurrences[i] {
                self.unbound_in_fact[occ.fact as usize] -= 1;
            }
        }
        self.assignment[i] = Some(value);
        for occ in &self.occurrences[i] {
            self.values[occ.pos as usize] = Value::Const(value);
        }
        self.mark_dirty(i);
    }

    /// Unbinds a null, restoring its occurrences to the unresolved null.
    /// Unbinding an unknown or already-unbound null is a no-op.
    pub fn unbind(&mut self, null: NullId) {
        if let Some(&i) = self.index_of.get(&null) {
            self.unbind_index(i);
        }
    }

    /// Unbinds the `i`-th null (position in [`Grounding::nulls`]).
    pub fn unbind_index(&mut self, i: usize) {
        if self.assignment[i].take().is_some() {
            self.bound -= 1;
            let null = self.nulls[i];
            for occ in &self.occurrences[i] {
                self.values[occ.pos as usize] = Value::Null(null);
                self.unbound_in_fact[occ.fact as usize] += 1;
            }
            self.mark_dirty(i);
        }
    }

    /// Records that the `i`-th null changed, notifying any watcher at its
    /// next [`Grounding::drain_dirty_into`] call.
    #[inline]
    fn mark_dirty(&mut self, i: usize) {
        if !self.dirty_flag[i] {
            self.dirty_flag[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// Moves the set of nulls changed (bound, rebound or unbound) since the
    /// last drain into `out`, clearing `out` first.
    ///
    /// This is the watcher protocol behind incremental residual evaluation:
    /// after any batch of `bind`/`unbind` calls, a watch structure drains the
    /// changed nulls and recomputes only the state that depends on them —
    /// the drained indices are positions in [`Grounding::nulls`], and
    /// [`Grounding::occurrences_of`] maps each one to the facts it appears
    /// in. The set is deduplicated, so the cost of a resync is
    /// `O(affected facts)` no matter how many times a null was rebound.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        for &i in &self.dirty {
            self.dirty_flag[i as usize] = false;
            out.push(i as usize);
        }
        self.dirty.clear();
    }

    /// Whether any null changed since the last
    /// [`drain_dirty_into`](Grounding::drain_dirty_into) — i.e. a watcher
    /// notification is pending. A quiescence probe for callers that shelve
    /// walk state between uses.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// The current value of a null, if bound.
    pub fn value(&self, null: NullId) -> Option<Constant> {
        self.index_of.get(&null).and_then(|&i| self.assignment[i])
    }

    /// The current value of the `i`-th null, if bound.
    pub fn value_by_index(&self, i: usize) -> Option<Constant> {
        self.assignment[i]
    }

    /// Returns `true` if every null of the table is bound.
    pub fn is_fully_bound(&self) -> bool {
        self.bound == self.nulls.len()
    }

    /// The number of currently bound nulls.
    pub fn bound_count(&self) -> usize {
        self.bound
    }

    /// Unbinds every null at once — the grounding half of the search-session
    /// rewind protocol (`incdb_core::session::SearchSession::rewind`).
    ///
    /// Cost is `O(occurrences of the bound nulls)` with **no** allocation: a
    /// reset rewrites exactly the positions the walk resolved, restores no
    /// untouched state, and is free on an already-pristine grounding. Every
    /// unbound null reaches watchers through the dirty channel as usual, so
    /// an incremental [`ResidualState`-style] watcher either applies the
    /// batch or rewinds wholesale — both leave it consistent.
    ///
    /// [`ResidualState`-style]: Grounding::drain_dirty_into
    pub fn reset(&mut self) {
        if self.bound == 0 {
            return;
        }
        for i in 0..self.nulls.len() {
            self.unbind_index(i);
        }
    }

    /// Splices a compacted fact delta (see
    /// [`IncompleteDatabase::delta_since`]) into the flat arena **without
    /// reconstructing it**: inserted facts take their sorted row inside the
    /// owning relation's contiguous range, retired facts are cut out, and
    /// the occurrence index, per-fact spans and relation ranges are shifted
    /// in place. Returns the resolved [`Splice`] per op, in application
    /// order, for watch structures layered on top.
    ///
    /// Returns `None` — **without mutating anything** — when the delta
    /// cannot be expressed as a patch and the caller must rebuild:
    ///
    /// * the grounding is not fully unbound (patching is a quiescent-state
    ///   operation; the arena must equal the template);
    /// * an op names a relation the grounding never interned (a new
    ///   relation shifts every interned id);
    /// * an inserted fact mentions a null the grounding does not know (the
    ///   null set, domains and plan geometry would change);
    /// * the delta would remove a null's last occurrence (the null would
    ///   leave the table, shrinking the null set);
    /// * an op is inconsistent with the arena (inserting a present fact or
    ///   removing an absent one — the grounding was not built at the
    ///   delta's base revision).
    pub fn apply_delta(&mut self, ops: &[DeltaOp]) -> Option<Vec<Splice>> {
        if self.bound != 0 {
            return None;
        }
        // Validation pass: every check runs against the pre-delta arena.
        // Compacted deltas touch each (relation, fact) at most once, so
        // presence checks are order-independent and nothing needs undoing.
        let mut occ_delta = vec![0isize; self.nulls.len()];
        let mut arity: Vec<usize> = (0..self.rel_ranges.len())
            .map(|r| self.relation_arity(r))
            .collect();
        for op in ops {
            let rel = self.registry.get(&op.relation)?.index();
            if arity[rel] == 0 {
                if !op.added {
                    return None; // removing from an empty relation
                }
                arity[rel] = op.fact.len();
            } else if op.fact.len() != arity[rel] {
                return None;
            }
            for value in &op.fact {
                if let Value::Null(n) = value {
                    let i = *self.index_of.get(n)?;
                    occ_delta[i] += if op.added { 1 } else { -1 };
                }
            }
            match (op.added, self.row_search(rel, &op.fact)) {
                (true, Ok(_)) | (false, Err(_)) => return None,
                _ => {}
            }
        }
        for (i, delta) in occ_delta.iter().enumerate() {
            let after = self.occurrences[i].len() as isize + delta;
            debug_assert!(after >= 0, "more occurrences removed than exist");
            if after <= 0 {
                return None; // the null would leave the table
            }
        }

        // Apply pass: splice each op at its sorted row.
        let mut splices = Vec::with_capacity(ops.len());
        for op in ops {
            let rel = self
                .registry
                .get(&op.relation)
                .expect("validated above")
                .index();
            let width = op.fact.len() as u32;
            let row = if op.added {
                let row = self
                    .row_search(rel, &op.fact)
                    .expect_err("validated absent");
                let fact = self.rel_ranges[rel].0 as usize + row;
                let base = self.offsets[fact];
                self.values
                    .splice(base as usize..base as usize, op.fact.iter().copied());
                self.fact_rel.insert(fact, rel as u32);
                self.unbound_in_fact.insert(
                    fact,
                    op.fact.iter().filter(|v| v.as_null().is_some()).count() as u32,
                );
                self.offsets.insert(fact + 1, base + width);
                for o in &mut self.offsets[fact + 2..] {
                    *o += width;
                }
                self.shift_occurrences(fact as u32, 1, width as i64);
                for (k, value) in op.fact.iter().enumerate() {
                    if let Value::Null(n) = value {
                        let i = self.index_of[n];
                        let occ = Occurrence {
                            fact: fact as u32,
                            pos: base + k as u32,
                        };
                        let at = self.occurrences[i]
                            .partition_point(|o| (o.fact, o.pos) < (occ.fact, occ.pos));
                        self.occurrences[i].insert(at, occ);
                    }
                }
                self.bump_ranges(rel, 1);
                row
            } else {
                let row = self.row_search(rel, &op.fact).expect("validated present");
                let fact = self.rel_ranges[rel].0 as usize + row;
                let base = self.offsets[fact];
                for value in &op.fact {
                    if let Value::Null(n) = value {
                        let i = self.index_of[n];
                        self.occurrences[i].retain(|o| o.fact as usize != fact);
                    }
                }
                self.values.drain(base as usize..(base + width) as usize);
                self.fact_rel.remove(fact);
                self.unbound_in_fact.remove(fact);
                self.offsets.remove(fact + 1);
                for o in &mut self.offsets[fact + 1..] {
                    *o -= width;
                }
                self.shift_occurrences(fact as u32, -1, -i64::from(width));
                self.bump_ranges(rel, -1);
                row
            };
            splices.push(Splice {
                rel,
                row,
                added: op.added,
            });
        }
        // The fact set changed: the cached full key plan is stale.
        self.full_plan = OnceLock::new();
        Some(splices)
    }

    /// Binary-searches one relation's rows for `fact` (the arena equals the
    /// template when fully unbound, and rows are sorted in the table's
    /// canonical fact order): `Ok(row)` when present, `Err(row)` with the
    /// insertion row otherwise.
    fn row_search(&self, rel: usize, fact: &[Value]) -> Result<usize, usize> {
        let (start, end) = self.rel_ranges[rel];
        let (mut lo, mut hi) = (start as usize, end as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.fact_values(mid).cmp(fact) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid - start as usize),
            }
        }
        Err(lo - start as usize)
    }

    /// Shifts every occurrence at or after splice point `from` by
    /// `fact_shift` fact indices and `pos_shift` arena positions — the
    /// index-maintenance half of [`Grounding::apply_delta`].
    fn shift_occurrences(&mut self, from: u32, fact_shift: i32, pos_shift: i64) {
        for occs in &mut self.occurrences {
            for occ in occs.iter_mut() {
                if occ.fact >= from {
                    occ.fact = occ.fact.wrapping_add_signed(fact_shift);
                    occ.pos = (i64::from(occ.pos) + pos_shift) as u32;
                }
            }
        }
    }

    /// Grows or shrinks relation `rel`'s fact range by `delta` and shifts
    /// every later relation's range accordingly.
    fn bump_ranges(&mut self, rel: usize, delta: i32) {
        self.rel_ranges[rel].1 = self.rel_ranges[rel].1.wrapping_add_signed(delta);
        for range in &mut self.rel_ranges[rel + 1..] {
            range.0 = range.0.wrapping_add_signed(delta);
            range.1 = range.1.wrapping_add_signed(delta);
        }
    }

    /// The relation names of the table, in lexicographic order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.registry.iter().map(|(_, name)| name)
    }

    /// The partially resolved facts of one relation, each tagged with
    /// whether it is fully ground under the current assignment.
    pub fn facts_of(&self, relation: &str) -> impl Iterator<Item = (&[Value], bool)> {
        self.registry
            .get(relation)
            .into_iter()
            .flat_map(|rel| self.relation_facts(rel.index()))
            .map(|idx| (self.fact_values(idx), self.unbound_in_fact[idx] == 0))
    }

    /// The cached [`KeyPlan`] of every fact — the plan whose key names the
    /// whole completion — built on first use.
    pub fn full_key_plan(&self) -> &KeyPlan {
        self.full_plan
            .get_or_init(|| self.key_plan(&vec![true; self.fact_count()]))
    }

    /// Builds a reusable [`KeyPlan`] for the facts `include` selects
    /// (`include[f]` selects fact `f`). Hot loops that key the same subset
    /// at every node build it once: separable class counting keys the
    /// non-clean facts (see [`Separability`]) at every class node.
    pub fn key_plan(&self, include: &[bool]) -> KeyPlan {
        let mut hosts_null = vec![false; self.fact_count()];
        for occs in &self.occurrences {
            for occ in occs {
                hosts_null[occ.fact as usize] = true;
            }
        }
        let mut ground = CompletionKey::new();
        let mut null_hosts = Vec::new();
        for (f, &hosts) in hosts_null.iter().enumerate() {
            if !include[f] {
                continue;
            }
            if hosts {
                null_hosts.push(f as u32);
            } else {
                ground.push((
                    self.fact_rel[f] as usize,
                    self.fact_values(f)
                        .iter()
                        .map(|v| v.as_const().expect("template-ground fact"))
                        .collect(),
                ));
            }
        }
        ground.sort_unstable();
        ground.dedup();
        KeyPlan { ground, null_hosts }
    }

    /// Writes the **residual key** of `plan`'s facts under the current
    /// assignment into a reusable buffer: the resolved null-hosting facts,
    /// sorted and deduplicated, minus every fact of the plan's ground
    /// block. The ground block is the same at every assignment, so two
    /// assignments produce the same residual key iff the planned facts
    /// resolve to the same fact set — exactly when their
    /// [`key_into`](Grounding::key_into) keys are equal. Sinks whose keys
    /// only deduplicate (distinct-completion counters) use it: a key costs
    /// O(null-hosting facts), not a copy of the whole ground table.
    ///
    /// The residual key is sorted and disjoint from the ground block, but it
    /// does **not** follow the canonical completion order; keys that leave
    /// the walk (pages, cursors) use [`key_into`](Grounding::key_into).
    ///
    /// Returns an error naming the lowest-labelled unbound null among the
    /// plan's facts if one of them is not fully resolved; the buffer's
    /// contents are then unspecified.
    pub fn residual_key_into(
        &self,
        plan: &KeyPlan,
        key: &mut CompletionKey,
    ) -> Result<(), DataError> {
        let len = self.residual_prefix(plan, key)?;
        key.truncate(len);
        Ok(())
    }

    /// Writes the canonical key of `plan`'s facts under the current
    /// assignment into a reusable buffer: their `(relation index, tuple)`
    /// pairs, sorted and deduplicated. Two assignments produce the same key
    /// iff the planned facts resolve to the same fact set, so the key of
    /// [`Grounding::full_key_plan`] names the completion and the key of a
    /// partial plan names the induced sub-completion. Its order is the
    /// canonical completion order that pages and cursors follow. Hash a key
    /// with [`crate::fingerprint_hash`].
    ///
    /// The key is the [residual key](Grounding::residual_key_into) merged
    /// with the plan's pre-sorted ground block. The two are sorted and
    /// disjoint, so the merge runs back to front without a side buffer or
    /// a final dedup, reusing the tuple allocations already in `key`.
    ///
    /// Returns an error naming the lowest-labelled unbound null among the
    /// plan's facts if one of them is not fully resolved; the buffer's
    /// contents are then unspecified.
    pub fn key_into(&self, plan: &KeyPlan, key: &mut CompletionKey) -> Result<(), DataError> {
        let residual = self.residual_prefix(plan, key)?;
        let total = residual + plan.ground.len();
        key.resize_with(total, Default::default);
        // Backward merge: `key[..i]` holds the still-unmerged residual
        // facts, `w = i + j` slots remain to fill, so the write position
        // never collides with an unread one.
        let mut i = residual;
        let mut j = plan.ground.len();
        let mut w = total;
        while j > 0 {
            w -= 1;
            if i > 0 && key[i - 1] > plan.ground[j - 1] {
                i -= 1;
                key.swap(i, w);
            } else {
                j -= 1;
                let (rel, tuple) = &plan.ground[j];
                let slot = &mut key[w];
                slot.0 = *rel;
                slot.1.clear();
                slot.1.extend_from_slice(tuple);
            }
        }
        Ok(())
    }

    /// The one resolution step behind both key builders: resolves the
    /// plan's null-hosting facts into the first slots of `key` (reusing
    /// their tuple allocations), sorts them, and compacts the distinct ones
    /// absent from the ground block to the front. Returns the residual
    /// length; slots past it keep their allocations for the caller.
    fn residual_prefix(&self, plan: &KeyPlan, key: &mut CompletionKey) -> Result<usize, DataError> {
        let nf = plan.null_hosts.len();
        if key.len() < nf {
            key.resize_with(nf, Default::default);
        }
        for (slot, &f) in key.iter_mut().zip(&plan.null_hosts) {
            slot.0 = self.fact_rel[f as usize] as usize;
            slot.1.clear();
            for v in self.fact_values(f as usize) {
                match v {
                    Value::Const(c) => slot.1.push(*c),
                    Value::Null(_) => return Err(self.unbound_in_plan(plan)),
                }
            }
        }
        key[..nf].sort_unstable();
        let mut len = 0;
        for i in 0..nf {
            let repeat = len > 0 && key[i] == key[len - 1];
            if !repeat && plan.ground.binary_search(&key[i]).is_err() {
                key.swap(len, i);
                len += 1;
            }
        }
        Ok(len)
    }

    /// The error of the key builders on a plan with an unresolved fact:
    /// the lowest-labelled unbound null among the plan's facts.
    #[cold]
    fn unbound_in_plan(&self, plan: &KeyPlan) -> DataError {
        let null = plan
            .null_hosts
            .iter()
            .flat_map(|&f| self.fact_values(f as usize))
            .filter_map(|v| v.as_null())
            .min()
            .expect("an unresolved plan fact holds a null");
        DataError::IncompleteValuation { null }
    }

    /// Statically analyses the table for clean facts and separable nulls
    /// (see [`Separability`]). The analysis reads the original template —
    /// null positions are identified through the occurrence index, which the
    /// current assignment never changes — so it may be called on a grounding
    /// in any bind state and the answer is assignment-independent.
    ///
    /// Worst case the pairwise non-unifiability check is quadratic in the
    /// facts of a relation, so the analysis carries a hard work limit
    /// (~4M position comparisons); beyond it the answer degrades to the
    /// sound "nothing separable" with [`Separability::complete`] `false`.
    pub fn separability(&self) -> Separability {
        /// Pairwise-comparison budget: positions compared + domain elements
        /// merged. Large enough for thousands of template facts, small
        /// enough that 10⁵-fact ground-heavy instances bail in the estimate
        /// phase before doing any quadratic work.
        const WORK_LIMIT: usize = 1 << 22;
        let nfacts = self.fact_count();
        let bail = Separability {
            clean: vec![false; nfacts],
            separable: vec![false; self.nulls.len()],
            complete: false,
        };

        // Template view: a position hosts a null iff it appears in some
        // occurrence list (constants are never rewritten by binds).
        let mut host_null = vec![usize::MAX; self.values.len()];
        for (i, occs) in self.occurrences.iter().enumerate() {
            for occ in occs {
                host_null[occ.pos as usize] = i;
            }
        }

        // Candidate facts: at least one null, all of them single-occurrence.
        let mut candidate = vec![false; nfacts];
        for (f, slot) in candidate.iter_mut().enumerate() {
            let span = self.offsets[f] as usize..self.offsets[f + 1] as usize;
            let mut nulls_seen = 0usize;
            let mut ok = true;
            for p in span {
                let n = host_null[p];
                if n != usize::MAX {
                    nulls_seen += 1;
                    if self.occurrences[n].len() != 1 {
                        ok = false;
                        break;
                    }
                }
            }
            *slot = ok && nulls_seen > 0;
        }

        // Cheap up-front estimate: candidates × relation facts × arity. On
        // ground-heavy bulk instances this trips immediately and the
        // analysis costs O(facts).
        let mut estimate: usize = 0;
        for (rel, &(start, end)) in self.rel_ranges.iter().enumerate() {
            let facts = (end - start) as usize;
            let cands = (start..end).filter(|&f| candidate[f as usize]).count();
            let arity = self.relation_arity(rel).max(1);
            estimate = estimate.saturating_add(cands.saturating_mul(facts).saturating_mul(arity));
            if estimate > WORK_LIMIT {
                return bail;
            }
        }

        // Exact pairwise pass, with an actual-work budget covering the
        // domain-intersection merges the estimate cannot see.
        let mut work = 0usize;
        let mut clean = vec![false; nfacts];
        for &(start, end) in &self.rel_ranges {
            for f in start as usize..end as usize {
                if !candidate[f] {
                    continue;
                }
                let mut is_clean = true;
                for g in start as usize..end as usize {
                    if g == f {
                        continue;
                    }
                    match self.templates_unifiable(f, g, &host_null, &mut work) {
                        None => return bail,
                        Some(true) => {
                            is_clean = false;
                            break;
                        }
                        Some(false) => {}
                    }
                }
                clean[f] = is_clean;
            }
        }

        let separable = (0..self.nulls.len())
            .map(|i| {
                let occs = &self.occurrences[i];
                occs.len() == 1 && clean[occs[0].fact as usize]
            })
            .collect();
        Separability {
            clean,
            separable,
            complete: true,
        }
    }

    /// Can some resolution of template fact `f` equal some resolution of
    /// template fact `g` (same relation)? Per position: constants must be
    /// equal, a null unifies with a constant iff the constant is in its
    /// domain, and two nulls unify iff their domains intersect. Checking
    /// positions independently over-approximates joint satisfiability, so
    /// `Some(false)` ("never equal") is sound — which is the direction the
    /// cleanliness proof consumes. Returns `None` when the work budget is
    /// exhausted.
    fn templates_unifiable(
        &self,
        f: usize,
        g: usize,
        host_null: &[usize],
        work: &mut usize,
    ) -> Option<bool> {
        const WORK_LIMIT: usize = 1 << 22;
        let fs = self.offsets[f] as usize;
        let gs = self.offsets[g] as usize;
        let arity = self.offsets[f + 1] as usize - fs;
        debug_assert_eq!(arity, self.offsets[g + 1] as usize - gs);
        for k in 0..arity {
            *work += 1;
            if *work > WORK_LIMIT {
                return None;
            }
            let (fp, gp) = (fs + k, gs + k);
            let unifiable_here = match (host_null[fp], host_null[gp]) {
                (usize::MAX, usize::MAX) => self.values[fp] == self.values[gp],
                (n, usize::MAX) => {
                    let c = self.values[gp].as_const().expect("const template slot");
                    self.domains[n].binary_search(&c).is_ok()
                }
                (usize::MAX, n) => {
                    let c = self.values[fp].as_const().expect("const template slot");
                    self.domains[n].binary_search(&c).is_ok()
                }
                (n, m) => {
                    let (a, b) = (&self.domains[n], &self.domains[m]);
                    *work += a.len() + b.len();
                    if *work > WORK_LIMIT {
                        return None;
                    }
                    sorted_slices_intersect(a, b)
                }
            };
            if !unifiable_here {
                return Some(false);
            }
        }
        Some(true)
    }

    /// The current assignment as a [`Valuation`] (allocates; not for hot
    /// loops).
    pub fn current_valuation(&self) -> Valuation {
        Valuation::from_pairs(
            self.nulls
                .iter()
                .zip(self.assignment.iter())
                .filter_map(|(&n, value)| value.map(|c| (n, c))),
        )
    }

    /// A cursor over every valuation of the underlying database, sharing
    /// this grounding's domain slices.
    pub fn valuation_cursor(&self) -> ValuationIter {
        ValuationIter::new_shared(self.nulls.clone(), self.domains.clone())
    }

    /// Writes the completion induced by the current (full) assignment into a
    /// reusable scratch database, clearing it first.
    ///
    /// Returns an error naming the first unbound null if the assignment is
    /// not total.
    pub fn completion_into(&self, out: &mut Database) -> Result<(), DataError> {
        if let Some(i) = self.assignment.iter().position(Option::is_none) {
            return Err(DataError::IncompleteValuation {
                null: self.nulls[i],
            });
        }
        out.clear();
        for (_, name) in self.registry.iter() {
            out.declare_relation(name);
        }
        for f in 0..self.fact_count() {
            let name = self.registry.name(crate::RelId(self.fact_rel[f])).unwrap();
            let fact = self.fact_values(f).iter();
            out.add_fact(
                name,
                fact.map(|v| v.as_const().expect("all nulls are bound"))
                    .collect(),
            )
            .expect("arity verified at insertion time");
        }
        Ok(())
    }

    /// The completion induced by the current (full) assignment as a fresh
    /// [`Database`].
    ///
    /// # Panics
    /// Panics if some null is unbound; use [`Grounding::completion_into`] to
    /// handle that case gracefully.
    pub fn to_database(&self) -> Database {
        let mut out = Database::new();
        self.completion_into(&mut out)
            .expect("every null must be bound");
        out
    }
}

/// Do two sorted constant slices share an element? Galloping-free linear
/// merge — domains are small and the caller budgets the work.
fn sorted_slices_intersect(a: &[Constant], b: &[Constant]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{fingerprint_hash, HashRange};

    fn c(id: u64) -> Value {
        Value::constant(id)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// The key of the whole completion, through the cached full plan.
    fn full_key(g: &Grounding) -> Result<CompletionKey, DataError> {
        let mut key = CompletionKey::new();
        g.key_into(g.full_key_plan(), &mut key).map(|()| key)
    }

    /// Example 2.2 / Figure 1: `S(a,b), S(⊥1,a), S(a,⊥2)`.
    fn example_2_2() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![c(0), c(1)]).unwrap();
        db.add_fact("S", vec![n(1), c(0)]).unwrap();
        db.add_fact("S", vec![c(0), n(2)]).unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        db
    }

    #[test]
    fn bind_resolves_every_occurrence() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![n(0), n(0)]).unwrap();
        db.add_fact("S", vec![n(0), n(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        g.bind(NullId(0), Constant(1)).unwrap();
        let r: Vec<_> = g.facts_of("R").collect();
        assert_eq!(r, vec![(&[c(1), c(1)][..], true)]);
        let s: Vec<_> = g.facts_of("S").collect();
        assert_eq!(s, vec![(&[c(1), n(1)][..], false)]);
        assert_eq!(g.bound_count(), 1);

        g.unbind(NullId(0));
        let r: Vec<_> = g.facts_of("R").collect();
        assert_eq!(r, vec![(&[n(0), n(0)][..], false)]);
        assert_eq!(g.bound_count(), 0);
    }

    #[test]
    fn rebinding_overwrites() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        g.bind(NullId(1), Constant(0)).unwrap();
        g.bind(NullId(1), Constant(2)).unwrap();
        assert_eq!(g.value(NullId(1)), Some(Constant(2)));
        assert_eq!(g.bound_count(), 1);
    }

    #[test]
    fn completion_matches_apply() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        let mut scratch = Database::new();
        for valuation in db.valuations() {
            for (null, value) in valuation.iter() {
                g.bind(null, value).unwrap();
            }
            g.completion_into(&mut scratch).unwrap();
            assert_eq!(scratch, db.apply_unchecked(&valuation));
            assert_eq!(g.current_valuation(), valuation);
            assert_eq!(g.to_database(), scratch);
        }
    }

    #[test]
    fn error_paths_are_reported_not_panicked() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        // Binding an unknown null is an error, not a panic.
        assert!(matches!(
            g.bind(NullId(9), Constant(0)),
            Err(DataError::MissingDomain { null: NullId(9) })
        ));
        // Binding outside the domain is an error.
        assert!(matches!(
            g.bind(NullId(2), Constant(2)),
            Err(DataError::ValueOutsideDomain {
                null: NullId(2),
                value: Constant(2)
            })
        ));
        // Materialising a partial assignment names the missing null.
        g.bind(NullId(1), Constant(0)).unwrap();
        let mut scratch = Database::new();
        assert!(matches!(
            g.completion_into(&mut scratch),
            Err(DataError::IncompleteValuation { null: NullId(2) })
        ));
        // A database with a domainless null refuses to build a grounding.
        let mut bad = IncompleteDatabase::new_non_uniform();
        bad.add_fact("R", vec![n(0)]).unwrap();
        assert!(matches!(
            bad.try_grounding(),
            Err(DataError::MissingDomain { null: NullId(0) })
        ));
    }

    #[test]
    fn reset_and_cursor_share_domains() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        g.bind(NullId(1), Constant(1)).unwrap();
        g.bind(NullId(2), Constant(1)).unwrap();
        assert!(g.is_fully_bound());
        g.reset();
        assert_eq!(g.bound_count(), 0);
        assert!(!g.is_fully_bound());
        let cursor = g.valuation_cursor();
        assert_eq!(cursor.len(), 6);
        assert_eq!(cursor.count(), 6);
    }

    #[test]
    fn dirty_channel_reports_each_changed_null_once() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        let mut changed = Vec::new();
        g.drain_dirty_into(&mut changed);
        assert!(changed.is_empty(), "fresh grounding has no pending changes");

        // Bind, rebind, bind the other, unbind the first: the drained set
        // holds each affected null once, regardless of how often it moved.
        g.bind(NullId(1), Constant(0)).unwrap();
        g.bind(NullId(1), Constant(2)).unwrap();
        g.bind(NullId(2), Constant(1)).unwrap();
        g.unbind(NullId(1));
        g.drain_dirty_into(&mut changed);
        assert_eq!(changed, vec![0, 1]);

        // Draining again is empty; a reset marks the still-bound null.
        g.drain_dirty_into(&mut changed);
        assert!(changed.is_empty());
        g.reset();
        g.drain_dirty_into(&mut changed);
        assert_eq!(changed, vec![1]);
        // Resetting a pristine grounding is free and marks nothing.
        g.reset();
        g.drain_dirty_into(&mut changed);
        assert!(changed.is_empty());
    }

    #[test]
    fn fact_accessors_expose_the_watchable_view() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        assert_eq!(g.fact_count(), 3);
        assert_eq!(g.relation_index("S"), Some(0));
        assert_eq!(g.relation_index("T"), None);
        assert_eq!(g.relation_facts(0), 0..3);
        assert_eq!(g.fact_relation(2), 0);
        assert!(g.fact_is_ground(0));
        assert!(!g.fact_is_ground(1));
        // Facts sort by value within a relation: S(a,b), S(a,⊥2), S(⊥1,a).
        // Occurrences carry the absolute arena position: ⊥1 sits at the
        // first slot of fact 2 (arena index 4), ⊥2 at the second slot of
        // fact 1 (arena index 3).
        assert_eq!(g.occurrences_of(0), &[Occurrence { fact: 2, pos: 4 }]);
        assert_eq!(g.occurrences_of(1), &[Occurrence { fact: 1, pos: 3 }]);
        g.bind(NullId(2), Constant(1)).unwrap();
        assert!(g.fact_is_ground(1));
        assert_eq!(g.fact_values(1), &[c(0), c(1)]);
    }

    #[test]
    fn relation_arena_is_the_contiguous_columnar_view() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![c(9), n(0)]).unwrap();
        db.add_fact("R", vec![c(8), c(7)]).unwrap();
        db.add_fact("S", vec![n(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let (slice, arity) = g.relation_arena(0);
        assert_eq!(arity, 2);
        assert_eq!(slice, &[c(8), c(7), c(9), n(0)]);
        assert_eq!(g.relation_arity(1), 1);
        let (s_slice, _) = g.relation_arena(1);
        assert_eq!(s_slice, &[n(1)]);
        // Binds show up in the arena slice in place.
        g.bind(NullId(0), Constant(1)).unwrap();
        let (slice, _) = g.relation_arena(0);
        assert_eq!(slice, &[c(8), c(7), c(9), c(1)]);
        // An empty relation has an empty arena and arity 0.
        let mut with_empty = IncompleteDatabase::new_uniform([0u64]);
        with_empty.declare_relation("Z");
        with_empty.add_fact("A", vec![n(0)]).unwrap();
        let g2 = with_empty.try_grounding().unwrap();
        let z = g2.relation_index("Z").unwrap();
        assert_eq!(g2.relation_arena(z), (&[][..], 0));
        assert_eq!(g2.relation_facts(z), 1..1);
    }

    #[test]
    fn relation_unbound_tracks_ground_rows_per_relation() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![c(9), n(0)]).unwrap();
        db.add_fact("R", vec![c(8), c(7)]).unwrap();
        db.add_fact("S", vec![n(0), n(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        // Rows in arena order: R = [(8,7), (9,⊥0)], S = [(⊥0,⊥1)].
        assert_eq!(g.relation_unbound(0), &[0, 1]);
        assert_eq!(g.relation_unbound(1), &[2]);
        g.bind(NullId(0), Constant(1)).unwrap();
        assert_eq!(g.relation_unbound(0), &[0, 0]);
        assert_eq!(g.relation_unbound(1), &[1]);
        g.unbind(NullId(0));
        assert_eq!(g.relation_unbound(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "relation index 2 out of range: the grounding has 2 relations")]
    fn relation_arena_names_the_out_of_range_relation() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![n(0)]).unwrap();
        db.add_fact("S", vec![n(0)]).unwrap();
        let g = db.try_grounding().unwrap();
        let _ = g.relation_arena(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn relation_unbound_checks_bounds_like_the_arena() {
        let mut db = IncompleteDatabase::new_uniform([0u64]);
        db.add_fact("R", vec![n(0)]).unwrap();
        let g = db.try_grounding().unwrap();
        let _ = g.relation_unbound(7);
    }

    #[test]
    fn fingerprint_buffers_and_hash_ranges_agree() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        let mut key = CompletionKey::new();
        // A partial assignment names its lowest-labelled unbound null.
        assert!(matches!(
            g.key_into(g.full_key_plan(), &mut key),
            Err(DataError::IncompleteValuation { null: NullId(1) })
        ));
        g.bind(NullId(1), Constant(2)).unwrap();
        assert!(matches!(
            full_key(&g),
            Err(DataError::IncompleteValuation { null: NullId(2) })
        ));

        g.bind(NullId(2), Constant(0)).unwrap();
        g.key_into(g.full_key_plan(), &mut key).unwrap();
        assert_eq!(key, full_key(&g).unwrap());
        let hash = fingerprint_hash(&key);
        assert!(HashRange::full().contains(hash));
        // The completion falls in exactly one shard of any partition.
        for shards in [2usize, 3, 5] {
            let hits = HashRange::partition(shards)
                .into_iter()
                .filter(|r| r.contains(hash))
                .count();
            assert_eq!(hits, 1, "{shards} shards");
        }
        // The buffer is reused across assignments: rebind and re-derive.
        g.bind(NullId(1), Constant(0)).unwrap();
        g.key_into(g.full_key_plan(), &mut key).unwrap();
        assert_ne!(
            hash,
            fingerprint_hash(&key),
            "different completion, different hash"
        );
    }

    #[test]
    fn separability_proves_disjoint_single_occurrence_nulls_clean() {
        // R(⊥0, 10), R(⊥1, 20), R(⊥2, ⊥3) with disjoint constant bands:
        // every null is single-occurrence and the second columns (10, 20,
        // domain {30,31}) can never coincide, so all facts are clean.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![n(0), c(10)]).unwrap();
        db.add_fact("R", vec![n(1), c(20)]).unwrap();
        db.add_fact("R", vec![n(2), n(3)]).unwrap();
        db.set_domain(NullId(0), [0u64, 1]).unwrap();
        db.set_domain(NullId(1), [0u64, 1]).unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        db.set_domain(NullId(3), [30u64, 31]).unwrap();
        let g = db.try_grounding().unwrap();
        let sep = g.separability();
        assert!(sep.complete());
        assert_eq!(sep.clean_facts(), &[true, true, true]);
        assert_eq!(sep.separable_nulls(), &[true, true, true, true]);
        assert_eq!(sep.separable_count(), 4);
        assert!(sep.any());
    }

    #[test]
    fn separability_rejects_unifiable_and_multi_occurrence_facts() {
        // Example 2.2: S(a,b), S(⊥1,a), S(a,⊥2). S(⊥1,a) unifies with
        // S(a,b)? positions: ⊥1 vs a (0 ∈ dom ⊥1 ✓), a vs b (0 ≠ 1 ✗) —
        // not that pair; but S(⊥1,a) vs S(a,⊥2): ⊥1 can be a and ⊥2 can be
        // a, so they unify and both facts are dirty; the ground fact is
        // never clean.
        let db = example_2_2();
        let g = db.try_grounding().unwrap();
        let sep = g.separability();
        assert!(sep.complete());
        assert_eq!(sep.clean_facts(), &[false, false, false]);
        assert_eq!(sep.separable_nulls(), &[false, false]);
        assert!(!sep.any());

        // A null occurring twice is never separable, even if its facts are
        // otherwise isolated.
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![n(0), c(10)]).unwrap();
        db.add_fact("S", vec![n(0), c(20)]).unwrap();
        db.add_fact("S", vec![n(1), c(30)]).unwrap();
        let g = db.try_grounding().unwrap();
        let sep = g.separability();
        assert!(sep.complete());
        assert!(!sep.fact_is_clean(0));
        assert!(!sep.fact_is_clean(1));
        assert!(sep.fact_is_clean(2), "S(⊥1,30) collides with nothing");
        assert_eq!(sep.separable_nulls(), &[false, true]);

        // Null/null positions unify exactly when the domains intersect.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("T", vec![n(0)]).unwrap();
        db.add_fact("T", vec![n(1)]).unwrap();
        db.set_domain(NullId(0), [0u64, 1]).unwrap();
        db.set_domain(NullId(1), [1u64, 2]).unwrap();
        let g = db.try_grounding().unwrap();
        assert!(!g.separability().any(), "domains share 1 → unifiable");
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("T", vec![n(0)]).unwrap();
        db.add_fact("T", vec![n(1)]).unwrap();
        db.set_domain(NullId(0), [0u64, 1]).unwrap();
        db.set_domain(NullId(1), [2u64, 3]).unwrap();
        let g = db.try_grounding().unwrap();
        let sep = g.separability();
        assert_eq!(sep.separable_nulls(), &[true, true]);
    }

    #[test]
    fn separability_is_assignment_independent_and_work_limited() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![n(0), c(10)]).unwrap();
        db.add_fact("R", vec![n(1), c(20)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let fresh = g.separability();
        g.bind(NullId(0), Constant(1)).unwrap();
        let bound = g.separability();
        assert_eq!(fresh.clean_facts(), bound.clean_facts());
        assert_eq!(fresh.separable_nulls(), bound.separable_nulls());

        // A relation wide enough to trip the quadratic estimate bails to
        // the sound all-dirty answer with `complete() == false`.
        let mut big = IncompleteDatabase::new_uniform([0u64, 1]);
        for i in 0..2100u32 {
            big.add_fact("R", vec![n(i), c(10_000 + u64::from(i))])
                .unwrap();
        }
        let g = big.try_grounding().unwrap();
        let sep = g.separability();
        assert!(!sep.complete());
        assert!(!sep.any());
    }

    #[test]
    fn partial_keys_name_the_included_subcompletion() {
        let db = example_2_2();
        let mut g = db.try_grounding().unwrap();
        let mut key = CompletionKey::new();
        // Facts sort as S(a,b), S(a,⊥2), S(⊥1,a). Including only the ground
        // fact needs no binds at all.
        g.key_into(&g.key_plan(&[true, false, false]), &mut key)
            .unwrap();
        assert_eq!(key, vec![(0, vec![Constant(0), Constant(1)])]);
        let ground_hash = fingerprint_hash(&key);
        // Including an unresolved fact names its unbound null.
        let plan = g.key_plan(&[true, true, false]);
        assert!(matches!(
            g.key_into(&plan, &mut key),
            Err(DataError::IncompleteValuation { null: NullId(2) })
        ));
        // Binding just that fact's null is enough — the other fact may stay
        // unbound — and duplicates collapse like the full key.
        g.bind(NullId(2), Constant(1)).unwrap();
        g.key_into(&plan, &mut key).unwrap();
        assert_eq!(key, vec![(0, vec![Constant(0), Constant(1)])]);
        assert_eq!(fingerprint_hash(&key), ground_hash);
        // With every fact included and every null bound, the partial key is
        // the full key.
        g.bind(NullId(1), Constant(2)).unwrap();
        g.key_into(&g.key_plan(&[true, true, true]), &mut key)
            .unwrap();
        assert_eq!(key, full_key(&g).unwrap());
    }

    #[test]
    fn domain_accessors() {
        let db = example_2_2();
        let g = db.try_grounding().unwrap();
        assert_eq!(g.nulls(), &[NullId(1), NullId(2)]);
        assert_eq!(g.null_count(), 2);
        assert_eq!(g.domain(NullId(2)), Some(&[Constant(0), Constant(1)][..]));
        assert_eq!(g.domain_by_index(0).len(), 3);
        assert_eq!(g.index_of(NullId(2)), Some(1));
        assert!(g.null_can_take(NullId(2), Constant(1)));
        assert!(!g.null_can_take(NullId(2), Constant(2)));
        assert!(!g.null_can_take(NullId(7), Constant(0)));
        assert_eq!(g.occurrence_count(0), 1);
        assert_eq!(g.relation_names().collect::<Vec<_>>(), vec!["S"]);
        assert_eq!(g.fact_count(), 3);
        assert_eq!(g.value_by_index(0), None);
    }

    /// `apply_delta` must leave the grounding structurally identical to a
    /// fresh build over the post-delta database: arena, spans, occurrence
    /// index, relation ranges and fingerprints all agree.
    #[test]
    fn apply_delta_matches_a_fresh_rebuild() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![c(5), n(0)]).unwrap();
        db.add_fact("R", vec![c(9), c(9)]).unwrap();
        db.add_fact("S", vec![n(1), c(3)]).unwrap();
        db.add_fact("S", vec![n(0), c(4)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let base = db.revision();

        // Interleave inserts and removals across both relations.
        db.add_fact("R", vec![c(1), c(2)]).unwrap();
        assert!(db.remove_fact("R", &vec![c(9), c(9)]));
        db.add_fact("S", vec![n(1), c(7)]).unwrap();
        let ops = db.delta_since(base).unwrap();
        let splices = g.apply_delta(&ops).unwrap();
        assert_eq!(splices.len(), 3);

        let fresh = db.try_grounding().unwrap();
        assert_eq!(g.fact_count(), fresh.fact_count());
        for f in 0..fresh.fact_count() {
            assert_eq!(g.fact_values(f), fresh.fact_values(f), "fact {f}");
            assert_eq!(g.fact_relation(f), fresh.fact_relation(f));
        }
        for i in 0..fresh.null_count() {
            assert_eq!(g.occurrences_of(i), fresh.occurrences_of(i), "null {i}");
        }
        for r in 0..2 {
            assert_eq!(g.relation_facts(r), fresh.relation_facts(r));
            assert_eq!(g.relation_unbound(r), fresh.relation_unbound(r));
        }
        // Binding still works and fingerprints agree with the fresh build.
        g.bind(NullId(0), Constant(1)).unwrap();
        g.bind(NullId(1), Constant(0)).unwrap();
        let mut fresh = fresh;
        fresh.bind(NullId(0), Constant(1)).unwrap();
        fresh.bind(NullId(1), Constant(0)).unwrap();
        assert_eq!(full_key(&g).unwrap(), full_key(&fresh).unwrap());
    }

    /// Deltas a patch cannot express refuse cleanly without mutating.
    #[test]
    fn apply_delta_refuses_unpatchable_deltas() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![n(0), c(1)]).unwrap();
        db.add_fact("R", vec![c(2), c(3)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let before: Vec<Value> = g.fact_values(0).to_vec();

        let op = |added: bool, relation: &str, fact: Vec<Value>| DeltaOp {
            added,
            relation: relation.to_string(),
            fact,
        };
        // Unknown relation, unknown null, last-occurrence removal,
        // inconsistent presence — each rebuild-only, each a clean refusal.
        assert!(g.apply_delta(&[op(true, "T", vec![c(1)])]).is_none());
        assert!(g.apply_delta(&[op(true, "R", vec![n(7), c(1)])]).is_none());
        assert!(g.apply_delta(&[op(false, "R", vec![n(0), c(1)])]).is_none());
        assert!(g.apply_delta(&[op(true, "R", vec![c(2), c(3)])]).is_none());
        assert!(g.apply_delta(&[op(false, "R", vec![c(8), c(8)])]).is_none());
        // A bound grounding refuses too: patching is quiescent-state only.
        g.bind(NullId(0), Constant(0)).unwrap();
        assert!(g.apply_delta(&[op(true, "R", vec![c(4), c(4)])]).is_none());
        g.unbind(NullId(0));
        assert_eq!(g.fact_values(0), &before[..], "refusals must not mutate");
        assert_eq!(g.fact_count(), 2);
    }

    /// Five facts whose resolutions collide with a ground fact and with
    /// each other, so dedup fires across the ground-block boundary.
    fn collision_instance() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1, 2]);
        db.add_fact("R", vec![c(1), c(2)]).unwrap(); // collides with ⊥0=1,⊥1=2
        db.add_fact("R", vec![c(5), c(6)]).unwrap();
        db.add_fact("R", vec![n(0), n(1)]).unwrap();
        db.add_fact("R", vec![n(1), n(0)]).unwrap(); // collides when ⊥0=⊥1
        db.add_fact("S", vec![n(2), c(9)]).unwrap();
        db
    }

    /// Every plan's key must be byte-identical to the rebuild-and-sort
    /// reference at every assignment and for every include mask —
    /// including assignments where resolved null facts collide with ground
    /// facts or each other, so dedup fires across the merge boundary.
    #[test]
    fn key_plans_reproduce_the_rebuild_reference_exactly() {
        let mut g = collision_instance().try_grounding().unwrap();

        // The rebuild-and-sort reference: collect the included facts'
        // resolved tuples afresh, then sort and deduplicate.
        let reference = |g: &Grounding, include: &[bool]| -> CompletionKey {
            let mut key: CompletionKey = (0..g.fact_count())
                .filter(|&f| include[f])
                .map(|f| {
                    let fact = g.fact_values(f).iter();
                    (
                        g.fact_relation(f),
                        fact.map(|v| v.as_const().unwrap()).collect(),
                    )
                })
                .collect();
            key.sort_unstable();
            key.dedup();
            key
        };

        let masks: Vec<Vec<bool>> = (0..32u32)
            .map(|m| (0..5).map(|f| m >> f & 1 == 1).collect())
            .collect();
        let plans: Vec<KeyPlan> = masks.iter().map(|m| g.key_plan(m)).collect();
        let mut key = CompletionKey::new();
        let mut partial = CompletionKey::new();
        for a in 0..3u64 {
            for b in 0..3u64 {
                for s in 0..3u64 {
                    g.reset();
                    g.bind(NullId(0), Constant(a)).unwrap();
                    g.bind(NullId(1), Constant(b)).unwrap();
                    g.bind(NullId(2), Constant(s)).unwrap();
                    g.key_into(g.full_key_plan(), &mut key).unwrap();
                    assert_eq!(
                        key,
                        reference(&g, &[true; 5]),
                        "full key diverges at ({a},{b},{s})"
                    );

                    for (mask, plan) in masks.iter().zip(&plans) {
                        g.key_into(plan, &mut partial).unwrap();
                        let expect = reference(&g, mask);
                        assert_eq!(partial, expect, "key of {mask:?} diverges at ({a},{b},{s})");
                        assert_eq!(fingerprint_hash(&partial), fingerprint_hash(&expect));
                    }
                }
            }
        }

        // An unresolved included fact errors through every plan that
        // includes one, naming the lowest-labelled unbound null.
        g.reset();
        g.bind(NullId(2), Constant(0)).unwrap();
        for (mask, plan) in masks.iter().zip(&plans) {
            let unresolved = (0..g.fact_count())
                .any(|f| mask[f] && g.fact_values(f).iter().any(|v| v.as_null().is_some()));
            match g.key_into(plan, &mut partial) {
                Err(DataError::IncompleteValuation { null }) => {
                    assert!(unresolved, "{mask:?}");
                    assert_eq!(null, NullId(0), "{mask:?}");
                }
                Ok(()) => {
                    assert!(!unresolved, "{mask:?}");
                    assert_eq!(partial, reference(&g, mask));
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    /// The residual key is the full key minus the plan's ground block, for
    /// every include mask and assignment of the collision instance:
    /// it shares no fact with the block, merging the two gives exactly
    /// `key_into`, and two residual keys are equal iff their full keys are.
    #[test]
    fn residual_keys_are_the_full_key_minus_the_ground_block() {
        let mut g = collision_instance().try_grounding().unwrap();
        let masks: Vec<Vec<bool>> = (0..32u32)
            .map(|m| (0..5).map(|f| m >> f & 1 == 1).collect())
            .collect();
        let plans: Vec<KeyPlan> = masks.iter().map(|m| g.key_plan(m)).collect();
        // Per mask, the (residual, full) key pair of every assignment.
        let mut seen: Vec<Vec<(CompletionKey, CompletionKey)>> = vec![Vec::new(); masks.len()];
        let mut residual = CompletionKey::new();
        let mut full = CompletionKey::new();
        for a in 0..3u64 {
            for b in 0..3u64 {
                for s in 0..3u64 {
                    g.reset();
                    g.bind(NullId(0), Constant(a)).unwrap();
                    g.bind(NullId(1), Constant(b)).unwrap();
                    g.bind(NullId(2), Constant(s)).unwrap();
                    for (m, plan) in plans.iter().enumerate() {
                        g.residual_key_into(plan, &mut residual).unwrap();
                        g.key_into(plan, &mut full).unwrap();
                        let at = format!("{:?} at ({a},{b},{s})", masks[m]);
                        assert!(residual.windows(2).all(|w| w[0] < w[1]), "{at}");
                        assert!(
                            residual
                                .iter()
                                .all(|f| plan.ground.binary_search(f).is_err()),
                            "residual meets the ground block: {at}"
                        );
                        let mut merged: CompletionKey =
                            residual.iter().chain(&plan.ground).cloned().collect();
                        merged.sort_unstable();
                        assert_eq!(merged, full, "{at}");
                        seen[m].push((residual.clone(), full.clone()));
                    }
                }
            }
        }
        for pairs in &seen {
            for (r1, f1) in pairs {
                for (r2, f2) in pairs {
                    assert_eq!(r1 == r2, f1 == f2);
                }
            }
        }
    }

    /// A null-hosting fact that resolves onto a ground fact leaves nothing
    /// behind: the residual key is empty and the full key is the ground
    /// block alone.
    #[test]
    fn a_fact_resolved_onto_the_ground_block_has_an_empty_residual() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![c(0), c(1)]).unwrap();
        db.add_fact("R", vec![n(0), c(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let plan = g.full_key_plan().clone();
        let mut key = CompletionKey::new();
        g.bind(NullId(0), Constant(0)).unwrap();
        g.residual_key_into(&plan, &mut key).unwrap();
        assert!(key.is_empty());
        g.key_into(&plan, &mut key).unwrap();
        assert_eq!(key, vec![(0, vec![Constant(0), Constant(1)])]);
        // The other value escapes the block and is the whole residual.
        g.bind(NullId(0), Constant(1)).unwrap();
        g.residual_key_into(&plan, &mut key).unwrap();
        assert_eq!(key, vec![(0, vec![Constant(1), Constant(1)])]);
        // An unbound fact errors through the residual builder too.
        g.unbind(NullId(0));
        assert!(matches!(
            g.residual_key_into(&plan, &mut key),
            Err(DataError::IncompleteValuation { null: NullId(0) })
        ));
    }
}
