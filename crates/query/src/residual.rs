//! Incremental residual evaluation: the stateful replacement for re-running
//! [`BooleanQuery::holds_partial`](crate::BooleanQuery::holds_partial) from
//! scratch at every node of a backtracking search.
//!
//! The from-scratch residual evaluation of a BCQ runs two partial
//! homomorphism searches per call, each scanning every fact of every
//! mentioned relation. During a DFS over a [`Grounding`] that cost is paid
//! at *every* node even though a single bind changes only the handful of
//! facts the bound null occurs in. A [`ResidualState`] turns the per-node
//! cost into an incremental update, borrowing the watched-literal discipline
//! of SAT solvers and the e-graph habit of maintaining candidate sets
//! instead of recomputing them:
//!
//! * At construction, every query atom precomputes its **candidate
//!   range** — the facts of its relation occupy a contiguous fact-index
//!   range of the grounding (and a contiguous slice of its value arena), so
//!   the candidate set is the range itself, with a status byte per row
//!   stored in a slab parallel to the rows: a fully resolved match is
//!   *certain* (it exists in every completion below the current bindings),
//!   a match that still involves unbound nulls is merely *possible*, and
//!   everything else is *excluded*.
//! * A reverse **watch index** maps every relation to the atoms watching
//!   it. Combined with the grounding's per-null occurrence index
//!   ([`Grounding::occurrences_of`]) and its dirty-null notification channel
//!   ([`Grounding::drain_dirty_into`]), a bind re-classifies only the
//!   `(atom, fact)` pairs that mention the bound null — `O(affected atoms)`
//!   instead of two full searches.
//! * [`outcome`](ResidualState::outcome) then decides from counters where it
//!   can: an atom whose candidate set **empties** refutes the query on the
//!   spot, and a single-atom query is **satisfied** the moment a certain
//!   candidate appears. Multi-atom queries still need a join search, but it
//!   runs over the maintained candidate lists (usually far smaller than the
//!   relations), decomposes over the query's **variable-connected
//!   components**, and is memoized per component under its own revision
//!   guard: a bind that touches only one component re-runs that component's
//!   search, while every other component serves its memoized result.
//!
//! Soundness: every status is recomputed from the grounding's current state
//! through the exact same per-fact matching rule the from-scratch searches
//! use (`extend_against_fact`), and per-fact matching is monotone in the
//! partial homomorphism, so pre-filtering candidates with an empty partial
//! loses no matches. A [`ResidualState`] therefore agrees with
//! `holds_partial` at **every** reachable binding state — a property pinned
//! by the `residual_properties` test suite.

use incdb_data::{Constant, Grounding, ScanMask, Splice, Value, WORD_BITS};

use crate::atom::{Atom, Term};
use crate::bcq::Bcq;
use crate::homomorphism::{extend_against_fact, Homomorphism, PartialMatch};
use crate::ucq::{NegatedBcq, Ucq};
use crate::PartialOutcome;

/// A stateful incremental residual evaluator for one query over one
/// [`Grounding`].
///
/// The driving search owns both the grounding and the state, and keeps them
/// in sync through the grounding's dirty-null channel:
///
/// ```
/// use incdb_data::{Constant, IncompleteDatabase, NullId, Value};
/// use incdb_query::{Bcq, BooleanQuery, PartialOutcome};
///
/// let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
/// db.add_fact("R", vec![Value::null(0), Value::null(0)]).unwrap();
/// let mut g = db.try_grounding().unwrap();
/// let q: Bcq = "R(x,x)".parse().unwrap();
///
/// let mut state = q.residual_state(&g).expect("BCQs evaluate incrementally");
/// let mut changed = Vec::new();
/// g.drain_dirty_into(&mut changed); // construction covered current state
///
/// g.bind(NullId(0), Constant(1)).unwrap();
/// g.drain_dirty_into(&mut changed);
/// state.apply(&g, &changed);
/// assert_eq!(state.outcome(&g), PartialOutcome::Satisfied);
/// assert_eq!(state.outcome(&g), q.holds_partial(&g));
/// ```
pub trait ResidualState: Send + Sync {
    /// Incorporates a batch of changed nulls (indices into
    /// [`Grounding::nulls`], as drained from
    /// [`Grounding::drain_dirty_into`]), re-classifying only the candidate
    /// facts those nulls occur in.
    fn apply(&mut self, g: &Grounding, changed: &[usize]);

    /// Patches the evaluator across a **table delta** already spliced into
    /// the grounding by [`Grounding::apply_delta`]: status slabs grow or
    /// shrink by exactly the spliced rows, candidate-range starts shift,
    /// only the spliced rows are classified, and only the components owning
    /// a touched atom lose their join memos — `O(delta)` against the
    /// `O(table)` recompile it replaces.
    ///
    /// Returns `false` when the evaluator cannot patch itself: the default
    /// (evaluators without a delta path), or structural changes such as a
    /// previously-empty relation gaining facts an idle atom could watch.
    /// **On `false` the state may be partially patched and must be
    /// discarded** — the caller rebuilds via
    /// [`BooleanQuery::residual_state`](crate::BooleanQuery::residual_state).
    ///
    /// The caller must hand over a *quiescent* evaluator: the grounding
    /// fully unbound (as [`Grounding::apply_delta`] itself requires) and the
    /// state rewound, so the live slabs and the rewind snapshot coincide
    /// and are patched identically.
    fn apply_delta(&mut self, _g: &Grounding, _splices: &[Splice]) -> bool {
        false
    }

    /// Decides the query for the whole subtree of completions below the
    /// grounding's current bindings, exactly as
    /// [`BooleanQuery::holds_partial`](crate::BooleanQuery::holds_partial)
    /// would — provided every change since construction was [`apply`]ed.
    ///
    /// [`apply`]: ResidualState::apply
    fn outcome(&mut self, g: &Grounding) -> PartialOutcome;

    /// Rewinds the evaluator to the state it captured at construction,
    /// **without reallocation** — the cheap reset half of the search-session
    /// protocol (`incdb_core::session::SearchSession::rewind`).
    ///
    /// The caller must first return the grounding to the assignment it had
    /// when the state was built (for a search session: fully unbound, via
    /// [`Grounding::reset`]) and discard the pending dirty-null batch — the
    /// restore supersedes an incremental [`apply`](ResidualState::apply) of
    /// those changes. [`BcqResidual`] implements this as a counter/status
    /// snapshot restore, so a rewind costs `O(candidate facts)` copies
    /// instead of re-running classification, and never touches the heap.
    fn rewind(&mut self, g: &Grounding);

    /// Clones the evaluator behind the trait object — the forking half of
    /// the search-session protocol: a parallel worker clones the compiled
    /// state (candidate sets, watch index, component decomposition) instead
    /// of re-deriving it from the query and the table.
    fn boxed_clone(&self) -> Box<dyn ResidualState>;

    /// Sets the row-count crossover above which two-atom components use the
    /// sort-merge join instead of the backtracking join (see
    /// [`DEFAULT_MERGE_JOIN_MIN_ROWS`]). Routing only — the join result is
    /// identical either way. The default implementation ignores the hint,
    /// for evaluators without a merge path.
    fn set_merge_join_min_rows(&mut self, _rows: u64) {}
}

/// The default sort-merge crossover: a two-atom component whose larger
/// eligible side has at least this many rows is joined by collecting and
/// merging sorted key columns (`O(n log n)`, and `O(n)` when the key column
/// is presorted in the arena) instead of the backtracking nested-loop walk
/// (`O(n·m)`). Small components stay on the backtracking join, whose
/// constant factor is lower. Tunable per engine via
/// `BacktrackingEngine::with_merge_join_min_rows`.
pub const DEFAULT_MERGE_JOIN_MIN_ROWS: u64 = 1024;

/// How one fact currently relates to one watching query atom. `repr(u8)`
/// so a status slab is one byte per table row — a `Vec<u8>` in memory,
/// walked as a plain slice when classifying or joining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum FactStatus {
    /// Cannot be the atom's image in any completion below the current
    /// bindings.
    Excluded,
    /// Involves unbound nulls but could still match in some completion
    /// (the optimistic-wildcard candidate of `PartialMatch::Optimistic`).
    Possible,
    /// Fully resolved and matches the atom — a witness present in *every*
    /// completion below the current bindings.
    Certain,
}

/// One position of a positionally compiled atom: a constant the fact must
/// carry there, or a within-atom variable slot (numbered by first
/// occurrence).
#[derive(Debug, Clone, Copy)]
enum CompiledTerm {
    Const(Constant),
    Var(u8),
}

/// One bound-column constraint of a compiled atom, as consumed by the block
/// scan: the column either must equal a query constant, or must equal an
/// earlier column of the same row (a repeated variable). First variable
/// occurrences constrain nothing and compile to no check — for **ground**
/// rows, a fact matches the atom iff every check passes.
#[derive(Debug, Clone, Copy)]
enum ColumnCheck {
    /// The column must hold this constant.
    Const(Constant),
    /// The column must equal the given earlier column (the first occurrence
    /// of the same variable).
    Col(u32),
}

/// One query atom together with its watched candidate rows.
///
/// Because the facts of a relation are contiguous in the grounding (and all
/// share one arity), the candidate set is a *range* — `first .. first +
/// status.len()` — rather than a list of fact indices: slot `s` of the
/// status slab is fact `first + s`, and classification walks the relation's
/// flat value arena slice in step with the slab.
#[derive(Debug, Clone)]
struct AtomWatch {
    atom: Atom,
    /// Positional compilation of `atom`, so classification runs on array
    /// indexing instead of name-keyed maps.
    compiled: Vec<CompiledTerm>,
    /// The bound-column constraints of `compiled` as `(column, check)`
    /// pairs — the column-by-column program the block scan ANDs into its
    /// [`ScanMask`].
    checks: Vec<(u32, ColumnCheck)>,
    /// Per-variable binding scratch (len = distinct variables of the atom),
    /// reused across classifications so the hot path never allocates.
    var_scratch: Vec<Option<Constant>>,
    /// Relation index of the atom in the grounding, if present with the
    /// atom's arity (otherwise the candidate range is empty).
    rel: Option<usize>,
    /// Global index of the first candidate fact (facts of the relation are
    /// contiguous, in the same order the from-scratch search visits them).
    first: usize,
    /// Status slab parallel to the relation's rows: one byte per fact of
    /// the candidate range.
    status: Vec<FactStatus>,
    /// Number of `Certain` facts.
    certain: usize,
    /// Number of `Certain` or `Possible` facts; `0` empties the atom and
    /// refutes the whole query.
    viable: usize,
}

/// Compiles an atom's terms into positional form, together with the
/// bound-column checks the block scan runs: constants check their column,
/// repeated variable occurrences check equality with the column of the
/// variable's first occurrence, and first occurrences compile to no check.
fn compile_atom(atom: &Atom) -> (Vec<CompiledTerm>, usize, Vec<(u32, ColumnCheck)>) {
    let mut vars: Vec<&crate::Variable> = Vec::new();
    let mut first_pos: Vec<u32> = Vec::new();
    let mut checks: Vec<(u32, ColumnCheck)> = Vec::new();
    let compiled = atom
        .terms()
        .iter()
        .enumerate()
        .map(|(pos, term)| match term {
            Term::Const(c) => {
                checks.push((pos as u32, ColumnCheck::Const(*c)));
                CompiledTerm::Const(*c)
            }
            Term::Var(v) => {
                let id = vars.iter().position(|u| *u == v).unwrap_or_else(|| {
                    vars.push(v);
                    first_pos.push(pos as u32);
                    vars.len() - 1
                });
                if first_pos[id] != pos as u32 {
                    checks.push((pos as u32, ColumnCheck::Col(first_pos[id])));
                }
                CompiledTerm::Var(u8::try_from(id).expect("more than 255 distinct variables"))
            }
        })
        .collect();
    (compiled, vars.len(), checks)
}

impl AtomWatch {
    /// Classifies one candidate fact against the atom under the grounding's
    /// current assignment: the allocation-free positional replay of the
    /// shared per-fact matching rule (`extend_against_fact` with an empty
    /// partial), cross-checked against it in debug builds.
    fn classify(&mut self, slot: usize, g: &Grounding) -> FactStatus {
        let fact = self.first + slot;
        let values = g.fact_values(fact);
        let ground = g.fact_is_ground(fact);
        self.var_scratch.fill(None);
        let mut status = if ground {
            FactStatus::Certain
        } else {
            FactStatus::Possible
        };
        for (term, value) in self.compiled.iter().zip(values.iter()) {
            let ok = match (term, value) {
                (CompiledTerm::Const(c), Value::Const(d)) => c == d,
                (CompiledTerm::Const(c), Value::Null(n)) => g.null_can_take(*n, *c),
                (CompiledTerm::Var(v), Value::Const(d)) => match self.var_scratch[*v as usize] {
                    Some(bound) => bound == *d,
                    None => {
                        self.var_scratch[*v as usize] = Some(*d);
                        true
                    }
                },
                (CompiledTerm::Var(v), Value::Null(n)) => {
                    // An unbound variable stays free (the wildcard follows
                    // whatever the null becomes); a bound one constrains
                    // the null's domain.
                    match self.var_scratch[*v as usize] {
                        Some(bound) => g.null_can_take(*n, bound),
                        None => true,
                    }
                }
            };
            if !ok {
                status = FactStatus::Excluded;
                break;
            }
        }
        debug_assert_eq!(
            status != FactStatus::Excluded,
            extend_against_fact(
                &self.atom,
                values,
                ground,
                g,
                &Homomorphism::new(),
                if ground {
                    PartialMatch::GroundOnly
                } else {
                    PartialMatch::Optimistic
                }
            )
            .is_some(),
            "positional classification diverged from extend_against_fact"
        );
        status
    }

    /// Re-classifies one candidate fact and stores the result, keeping the
    /// counters in step.
    fn refresh(&mut self, slot: usize, g: &Grounding) {
        let next = self.classify(slot, g);
        self.set_status(slot, next);
    }

    /// Re-classifies the whole candidate range as a branch-light block scan
    /// over the relation's arena slice: every bound-column check sweeps one
    /// column across the rows, ANDing a 64-row comparison word at a time
    /// into `mask`, and statuses are then decoded from the surviving bits.
    ///
    /// The mask verdict is exact for **ground** rows (every value a
    /// constant, so a row matches the atom iff all checks pass); rows that
    /// still hold unbound nulls take the per-row [`AtomWatch::classify`]
    /// fallback, which also consults null domains. Counters are recomputed
    /// wholesale. In debug builds every decoded status is cross-checked
    /// against the per-row reference path.
    fn reclassify_blocks(&mut self, g: &Grounding, mask: &mut ScanMask) {
        let rows = self.status.len();
        if rows == 0 {
            return;
        }
        let rel = self
            .rel
            .expect("a non-empty candidate range has a relation");
        let (arena, arity) = g.relation_arena(rel);
        let unbound = g.relation_unbound(rel);
        mask.reset_ones(rows);
        for &(pos, check) in &self.checks {
            let pos = pos as usize;
            match check {
                ColumnCheck::Const(c) => {
                    let want = Value::Const(c);
                    for w in 0..mask.word_count() {
                        let base = w * WORD_BITS;
                        let n = (rows - base).min(WORD_BITS);
                        let mut bits = 0u64;
                        for i in 0..n {
                            bits |= u64::from(arena[(base + i) * arity + pos] == want) << i;
                        }
                        mask.and_word(w, bits);
                    }
                }
                ColumnCheck::Col(earlier) => {
                    let earlier = earlier as usize;
                    for w in 0..mask.word_count() {
                        let base = w * WORD_BITS;
                        let n = (rows - base).min(WORD_BITS);
                        let mut bits = 0u64;
                        for i in 0..n {
                            let row = (base + i) * arity;
                            bits |= u64::from(arena[row + pos] == arena[row + earlier]) << i;
                        }
                        mask.and_word(w, bits);
                    }
                }
            }
        }
        let mut certain = 0usize;
        let mut viable = 0usize;
        for w in 0..mask.word_count() {
            let word = mask.word(w);
            let base = w * WORD_BITS;
            let n = (rows - base).min(WORD_BITS);
            for i in 0..n {
                let slot = base + i;
                let status = if unbound[slot] == 0 {
                    if word >> i & 1 == 1 {
                        FactStatus::Certain
                    } else {
                        FactStatus::Excluded
                    }
                } else {
                    self.classify(slot, g)
                };
                debug_assert_eq!(
                    status,
                    self.classify(slot, g),
                    "block scan diverged from per-row classification at slot {slot}"
                );
                match status {
                    FactStatus::Certain => {
                        certain += 1;
                        viable += 1;
                    }
                    FactStatus::Possible => viable += 1,
                    FactStatus::Excluded => {}
                }
                self.status[slot] = status;
            }
        }
        self.certain = certain;
        self.viable = viable;
    }

    /// Stores a freshly classified status, keeping the counters in step.
    fn set_status(&mut self, slot: usize, next: FactStatus) {
        let prev = std::mem::replace(&mut self.status[slot], next);
        if prev == next {
            return;
        }
        match prev {
            FactStatus::Certain => {
                self.certain -= 1;
                self.viable -= 1;
            }
            FactStatus::Possible => self.viable -= 1,
            FactStatus::Excluded => {}
        }
        match next {
            FactStatus::Certain => {
                self.certain += 1;
                self.viable += 1;
            }
            FactStatus::Possible => self.viable += 1,
            FactStatus::Excluded => {}
        }
    }
}

/// The incremental residual evaluator of a [`Bcq`].
#[derive(Debug, Clone)]
pub struct BcqResidual {
    atoms: Vec<AtomWatch>,
    /// Variable-connected components of the query: a homomorphism
    /// decomposes over atoms that share no variables, so each component is
    /// searched independently — a single-atom component is decided by its
    /// counters alone, with no search at all, and each multi-atom
    /// component's join results are memoized under **its own** revision
    /// guard, so a bind touching one component never re-runs the others'
    /// searches.
    components: Vec<Component>,
    /// Atom index → index of its component in `components`.
    component_of: Vec<usize>,
    /// Reverse watch index: relation index → the atoms whose candidate
    /// range covers that relation's rows. Because a relation's facts are
    /// contiguous, the watching atom's slot for fact `f` is `f - first` —
    /// no per-fact table needed.
    watchers: Vec<Vec<u32>>,
    /// The construction-time snapshot [`ResidualState::rewind`] restores:
    /// per atom, the fact statuses and counters as classified at build time.
    root: Vec<RootSnapshot>,
    /// The grounding's bound-null count at construction — the rewind
    /// precondition (the caller must restore that assignment first), checked
    /// in debug builds.
    root_bound: usize,
    /// Multi-atom join searches actually executed (diagnostic; see
    /// [`BcqResidual::join_search_count`]).
    join_searches: u64,
    /// Sort-merge joins actually executed instead of backtracking searches
    /// (diagnostic; see [`BcqResidual::merge_join_count`]).
    merge_joins: u64,
    /// Row-count crossover for the sort-merge join path (see
    /// [`DEFAULT_MERGE_JOIN_MIN_ROWS`]).
    merge_min_rows: u64,
    /// Reusable bitset for the block-scan classification path.
    scan_mask: ScanMask,
    /// Reusable key buffers for the sort-merge join.
    merge_scratch: MergeScratch,
}

/// The reusable single-key buffers of the sort-merge join (one sorted key
/// column per side), so repeated joins never reallocate.
#[derive(Debug, Clone, Default)]
struct MergeScratch {
    left: Vec<u64>,
    right: Vec<u64>,
}

/// One atom's share of the construction-time state: everything
/// [`ResidualState::rewind`] needs to restore it by plain copies.
#[derive(Debug, Clone)]
struct RootSnapshot {
    status: Vec<FactStatus>,
    certain: usize,
    viable: usize,
}

/// One variable-connected component with its localized revision guard and
/// per-mode join-search memo.
#[derive(Debug, Clone)]
struct Component {
    /// The member atom indices, sorted.
    members: Vec<usize>,
    /// Bumped whenever a fact watched by a member atom is touched.
    revision: u64,
    /// The revision `ground` / `optimistic` below were computed at; a
    /// mismatch with `revision` lazily invalidates both.
    memo_at: u64,
    /// Memoized "has a ground-only match" result, if computed at `memo_at`.
    ground: Option<bool>,
    /// Memoized "has an optimistic match" result, if computed at `memo_at`.
    optimistic: Option<bool>,
    /// For two-atom components: the sort-merge join key, as pairs of
    /// first-occurrence columns `(col in members[0], col in members[1])` of
    /// every shared variable. Empty for components of any other size.
    ///
    /// Within-atom constraints (constants, repeated variables) are already
    /// encoded in each side's statuses, so two eligible **ground** facts
    /// join iff they agree on every shared variable — i.e. iff their key
    /// tuples are equal.
    merge_keys: Vec<(u32, u32)>,
}

impl Component {
    /// Drops stale memo values if the component changed since they were
    /// computed.
    fn sync(&mut self) {
        if self.memo_at != self.revision {
            self.memo_at = self.revision;
            self.ground = None;
            self.optimistic = None;
        }
    }
}

/// Groups atom indices into connected components of the "shares a variable"
/// relation.
fn variable_components(q: &Bcq) -> Vec<Vec<usize>> {
    let vars: Vec<std::collections::BTreeSet<&crate::Variable>> = q
        .atoms()
        .iter()
        .map(|a| a.variables().into_iter().collect())
        .collect();
    let mut component: Vec<Option<usize>> = vec![None; q.atoms().len()];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for start in 0..q.atoms().len() {
        if component[start].is_some() {
            continue;
        }
        let id = components.len();
        let mut frontier = vec![start];
        component[start] = Some(id);
        let mut members = vec![start];
        while let Some(a) = frontier.pop() {
            for b in 0..q.atoms().len() {
                if component[b].is_none() && !vars[a].is_disjoint(&vars[b]) {
                    component[b] = Some(id);
                    frontier.push(b);
                    members.push(b);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// The sort-merge join key of a two-atom component: for every variable the
/// atoms share, the column of its **first** occurrence in each atom. First
/// occurrences suffice: repeated occurrences are already constrained
/// against the first one by each atom's own status classification.
fn shared_variable_columns(a: &Atom, b: &Atom) -> Vec<(u32, u32)> {
    fn first_occurrences(atom: &Atom) -> Vec<(&crate::Variable, u32)> {
        let mut firsts: Vec<(&crate::Variable, u32)> = Vec::new();
        for (pos, term) in atom.terms().iter().enumerate() {
            if let Term::Var(v) = term {
                if !firsts.iter().any(|(u, _)| *u == v) {
                    firsts.push((v, pos as u32));
                }
            }
        }
        firsts
    }
    let b_firsts = first_occurrences(b);
    first_occurrences(a)
        .into_iter()
        .filter_map(|(v, pa)| {
            b_firsts
                .iter()
                .find(|(u, _)| *u == v)
                .map(|&(_, pb)| (pa, pb))
        })
        .collect()
}

impl BcqResidual {
    /// Builds the evaluator, classifying every candidate fact under the
    /// grounding's *current* (possibly partial) assignment.
    pub fn new(q: &Bcq, g: &Grounding) -> Self {
        let rel_count = g.relation_names().count();
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); rel_count];
        let mut atoms: Vec<AtomWatch> = Vec::with_capacity(q.atoms().len());
        for atom in q.atoms() {
            let (compiled, var_count, checks) = compile_atom(atom);
            let mut watch = AtomWatch {
                atom: atom.clone(),
                compiled,
                checks,
                var_scratch: vec![None; var_count],
                rel: None,
                first: 0,
                status: Vec::new(),
                certain: 0,
                viable: 0,
            };
            // All facts of a relation share one arity, so the candidate set
            // is either the relation's whole contiguous range or empty.
            if let Some(rel) = g.relation_index(atom.relation()) {
                if g.relation_arity(rel) == atom.arity() {
                    let range = g.relation_facts(rel);
                    watch.rel = Some(rel);
                    watch.first = range.start;
                    watch.status = vec![FactStatus::Excluded; range.len()];
                    watchers[rel].push(atoms.len() as u32);
                }
            }
            atoms.push(watch);
        }
        let components: Vec<Component> = variable_components(q)
            .into_iter()
            .map(|members| {
                let merge_keys = if let [a, b] = members[..] {
                    shared_variable_columns(&q.atoms()[a], &q.atoms()[b])
                } else {
                    Vec::new()
                };
                Component {
                    members,
                    revision: 1,
                    memo_at: 0,
                    ground: None,
                    optimistic: None,
                    merge_keys,
                }
            })
            .collect();
        let mut component_of = vec![0; q.atoms().len()];
        for (ci, component) in components.iter().enumerate() {
            for &a in &component.members {
                component_of[a] = ci;
            }
        }
        let mut state = BcqResidual {
            atoms,
            components,
            component_of,
            watchers,
            root: Vec::new(),
            root_bound: g.bound_count(),
            join_searches: 0,
            merge_joins: 0,
            merge_min_rows: DEFAULT_MERGE_JOIN_MIN_ROWS,
            scan_mask: ScanMask::new(),
            merge_scratch: MergeScratch::default(),
        };
        state.reclassify(g);
        state.root = state
            .atoms
            .iter()
            .map(|a| RootSnapshot {
                status: a.status.clone(),
                certain: a.certain,
                viable: a.viable,
            })
            .collect();
        state
    }

    /// Re-classifies every candidate row of every atom as a block scan over
    /// each relation's contiguous arena slice: bound-column checks AND
    /// 64-row comparison words into a reusable [`ScanMask`], statuses decode
    /// from the surviving bits, and only rows still holding unbound nulls
    /// fall back to per-row classification. This is the bulk classification
    /// path — used at construction, and the columnar counterpart the
    /// `columnar_scan` / `block_reclassify` benchmarks measure. Returns the
    /// total number of viable (`Possible` or `Certain`) candidate rows
    /// across all atoms.
    pub fn reclassify(&mut self, g: &Grounding) -> usize {
        let mut mask = std::mem::take(&mut self.scan_mask);
        for a in 0..self.atoms.len() {
            self.atoms[a].reclassify_blocks(g, &mut mask);
        }
        self.scan_mask = mask;
        for component in &mut self.components {
            component.revision += 1;
        }
        self.atoms.iter().map(|a| a.viable).sum()
    }

    /// The per-row reference path of [`BcqResidual::reclassify`]: walks
    /// every status slab front to back, classifying one fact at a time.
    /// Semantically identical to the block scan (which cross-checks against
    /// it in debug builds); kept as the differential-test oracle and the
    /// `block_reclassify` benchmark baseline.
    pub fn reclassify_rowwise(&mut self, g: &Grounding) -> usize {
        for a in 0..self.atoms.len() {
            for slot in 0..self.atoms[a].status.len() {
                self.atoms[a].refresh(slot, g);
            }
        }
        for component in &mut self.components {
            component.revision += 1;
        }
        self.atoms.iter().map(|a| a.viable).sum()
    }

    /// How many two-atom components were joined by the sort-merge path
    /// instead of the backtracking search — the routing diagnostic the
    /// crossover tests pin. Moves only when a join actually runs (memo
    /// misses on a two-atom component routed to the merge path).
    pub fn merge_join_count(&self) -> u64 {
        self.merge_joins
    }

    /// The current sort-merge crossover (rows in the larger eligible side
    /// at or above which a two-atom component merges).
    pub fn merge_join_min_rows(&self) -> u64 {
        self.merge_min_rows
    }

    /// How many multi-atom join searches this evaluator has actually run —
    /// the work the per-component memos exist to avoid. Single-atom
    /// components never search (their counters decide), and a memo hit
    /// costs no search, so the counter only moves when a component whose
    /// watched facts changed is re-queried. Exposed for diagnostics and the
    /// memo-localization tests.
    pub fn join_search_count(&self) -> u64 {
        self.join_searches
    }

    /// The memoized per-mode join result of one component, recomputing only
    /// when a watched fact of the component changed since the memo was
    /// filled.
    fn component_matches_memo(&mut self, g: &Grounding, ci: usize, mode: PartialMatch) -> bool {
        self.components[ci].sync();
        let cached = match mode {
            PartialMatch::GroundOnly => self.components[ci].ground,
            PartialMatch::Optimistic => self.components[ci].optimistic,
        };
        if let Some(value) = cached {
            return value;
        }
        let value = {
            let component = &self.components[ci];
            // Counter preconditions are free and exact for the search they
            // guard: a ground match needs a `Certain` candidate in every
            // member atom, any match needs a viable one.
            let counters_allow = component.members.iter().all(|&a| match mode {
                PartialMatch::GroundOnly => self.atoms[a].certain > 0,
                PartialMatch::Optimistic => self.atoms[a].viable > 0,
            });
            counters_allow && {
                // Two-atom components with at least one shared variable can
                // route to the sort-merge join when the crossover and
                // groundness conditions hold; everything else takes the
                // backtracking join.
                let merge = matches!(component.members[..], [a, b]
                if !component.merge_keys.is_empty()
                    && merge_applicable(
                        &self.atoms[a],
                        &self.atoms[b],
                        mode,
                        self.merge_min_rows,
                    ));
                if merge {
                    let [a, b] = component.members[..] else {
                        unreachable!("merge routing only selects two-atom components")
                    };
                    self.merge_joins += 1;
                    let hit = sort_merge_join(
                        &self.atoms[a],
                        &self.atoms[b],
                        &component.merge_keys,
                        g,
                        &mut self.merge_scratch,
                    );
                    debug_assert_eq!(
                        hit,
                        component_matches(&self.atoms, g, &component.members, mode),
                        "sort-merge join diverged from the backtracking join"
                    );
                    hit
                } else {
                    if component.members.len() > 1 {
                        self.join_searches += 1;
                    }
                    component_matches(&self.atoms, g, &component.members, mode)
                }
            }
        };
        match mode {
            PartialMatch::GroundOnly => self.components[ci].ground = Some(value),
            PartialMatch::Optimistic => self.components[ci].optimistic = Some(value),
        }
        value
    }
}

/// The join search of `holds_partial` for one variable-connected component,
/// restricted to the maintained candidate lists. Facts excluded with an
/// empty partial cannot match under any extension (matching is monotone),
/// so the restriction is exact. Single-atom components skip the search
/// entirely: their counters decide.
fn component_matches(
    atoms: &[AtomWatch],
    g: &Grounding,
    component: &[usize],
    mode: PartialMatch,
) -> bool {
    if let [only] = component {
        let watch = &atoms[*only];
        return match mode {
            PartialMatch::GroundOnly => watch.certain > 0,
            PartialMatch::Optimistic => watch.viable > 0,
        };
    }
    fn go(
        atoms: &[AtomWatch],
        component: &[usize],
        k: usize,
        g: &Grounding,
        partial: &Homomorphism,
        mode: PartialMatch,
    ) -> bool {
        let Some(&a) = component.get(k) else {
            return true;
        };
        let watch = &atoms[a];
        for (slot, &status) in watch.status.iter().enumerate() {
            let eligible = match mode {
                PartialMatch::GroundOnly => status == FactStatus::Certain,
                PartialMatch::Optimistic => status != FactStatus::Excluded,
            };
            if !eligible {
                continue;
            }
            let fact = watch.first + slot;
            let values = g.fact_values(fact);
            let ground = g.fact_is_ground(fact);
            if let Some(ext) = extend_against_fact(&watch.atom, values, ground, g, partial, mode) {
                if go(atoms, component, k + 1, g, &ext, mode) {
                    return true;
                }
            }
        }
        false
    }
    go(atoms, component, 0, g, &Homomorphism::new(), mode)
}

/// Whether the sort-merge path may replace the backtracking join for a
/// two-atom component: every eligible row on both sides must be ground —
/// always true in `GroundOnly` mode (a `Certain` row is by construction
/// ground), and true in `Optimistic` mode exactly when neither side holds
/// `Possible` rows — and the larger eligible side must reach the crossover.
fn merge_applicable(a: &AtomWatch, b: &AtomWatch, mode: PartialMatch, min_rows: u64) -> bool {
    let all_ground = match mode {
        PartialMatch::GroundOnly => true,
        PartialMatch::Optimistic => a.viable == a.certain && b.viable == b.certain,
    };
    all_ground && (a.certain.max(b.certain) as u64) >= min_rows
}

/// The sort-merge join of one two-atom component over its eligible
/// (`Certain`, hence ground) candidate rows: collect each side's
/// shared-variable key column(s) from the relation arenas, sort, and probe
/// for a non-empty intersection. Exact under [`merge_applicable`]:
/// within-atom constraints are already encoded in the statuses, so a pair
/// of ground rows joins iff their key tuples are equal. When a key column
/// is column 0 of its (lexicographically sorted) arena the collected run is
/// presorted and the sort is a linear verification pass.
fn sort_merge_join(
    left: &AtomWatch,
    right: &AtomWatch,
    keys: &[(u32, u32)],
    g: &Grounding,
    scratch: &mut MergeScratch,
) -> bool {
    if let [(pl, pr)] = keys[..] {
        // Single shared variable: flat `u64` key columns in reused buffers.
        let MergeScratch {
            left: lbuf,
            right: rbuf,
        } = scratch;
        collect_key_column(left, pl as usize, g, lbuf);
        collect_key_column(right, pr as usize, g, rbuf);
        lbuf.sort_unstable();
        rbuf.sort_unstable();
        sorted_intersect(lbuf, rbuf)
    } else {
        // Several shared variables: tuple keys, compared lexicographically.
        let mut lbuf = collect_key_tuples(left, keys.iter().map(|k| k.0 as usize), g);
        let mut rbuf = collect_key_tuples(right, keys.iter().map(|k| k.1 as usize), g);
        lbuf.sort_unstable();
        rbuf.sort_unstable();
        sorted_intersect(&lbuf, &rbuf)
    }
}

/// Collects one key column over the `Certain` rows of a watch, reading the
/// relation's flat arena slice directly.
fn collect_key_column(watch: &AtomWatch, pos: usize, g: &Grounding, out: &mut Vec<u64>) {
    out.clear();
    let rel = watch
        .rel
        .expect("a Certain candidate implies a backing relation");
    let (arena, arity) = g.relation_arena(rel);
    for (slot, &status) in watch.status.iter().enumerate() {
        if status == FactStatus::Certain {
            out.push(ground_key(&arena[slot * arity + pos]));
        }
    }
}

/// Collects tuple keys (one value per shared variable) over the `Certain`
/// rows of a watch.
fn collect_key_tuples(
    watch: &AtomWatch,
    positions: impl Iterator<Item = usize> + Clone,
    g: &Grounding,
) -> Vec<Vec<u64>> {
    let rel = watch
        .rel
        .expect("a Certain candidate implies a backing relation");
    let (arena, arity) = g.relation_arena(rel);
    watch
        .status
        .iter()
        .enumerate()
        .filter(|(_, &status)| status == FactStatus::Certain)
        .map(|(slot, _)| {
            positions
                .clone()
                .map(|pos| ground_key(&arena[slot * arity + pos]))
                .collect()
        })
        .collect()
}

/// The constant under a ground row's key column.
fn ground_key(value: &Value) -> u64 {
    match value {
        Value::Const(c) => c.0,
        Value::Null(_) => unreachable!("merge-join keys come from ground rows"),
    }
}

/// Whether two sorted key columns intersect. When one side is much smaller,
/// each of its keys binary-searches the larger column (the galloping case a
/// selective atom produces); otherwise a two-pointer merge pass.
fn sorted_intersect<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / 32 > small.len() {
        return small.iter().any(|k| large.binary_search(k).is_ok());
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl ResidualState for BcqResidual {
    fn apply(&mut self, g: &Grounding, changed: &[usize]) {
        for &null in changed {
            for k in 0..g.occurrences_of(null).len() {
                let fact = g.occurrences_of(null)[k].fact as usize;
                let rel = g.fact_relation(fact);
                for w in 0..self.watchers[rel].len() {
                    let a = self.watchers[rel][w] as usize;
                    let slot = fact - self.atoms[a].first;
                    self.atoms[a].refresh(slot, g);
                    // Any touch can change join consistency even when no
                    // status moved (a rebind swaps one resolved constant
                    // for another), so the memo guard is bumped on touches
                    // — but only for the component that owns the touched
                    // atom: the other components' join memos stay valid.
                    self.components[self.component_of[a]].revision += 1;
                }
            }
        }
    }

    fn apply_delta(&mut self, g: &Grounding, splices: &[Splice]) -> bool {
        // Patchability pre-pass. An idle atom (no candidate range) can come
        // alive when an insert gives its previously-empty relation the
        // atom's arity, and a repopulated relation can change arity under a
        // live atom — both grow or retarget a watch, which is a rebuild,
        // not a patch.
        for s in splices {
            for watch in &self.atoms {
                match watch.rel {
                    None => {
                        if g.relation_index(watch.atom.relation()) == Some(s.rel) {
                            return false;
                        }
                    }
                    Some(rel) => {
                        if rel == s.rel && s.added && g.relation_arity(rel) != watch.atom.arity() {
                            return false;
                        }
                    }
                }
            }
        }
        debug_assert_eq!(
            g.bound_count(),
            self.root_bound,
            "delta patching requires the construction assignment"
        );
        debug_assert!(
            self.atoms
                .iter()
                .zip(self.root.iter())
                .all(|(a, r)| a.status == r.status),
            "delta patching requires a rewound evaluator (live slabs == snapshot)"
        );
        // Splice rows are sequential — each was resolved against the table
        // with all earlier splices applied — so the slabs are patched in the
        // same order. Classification of inserted rows waits until every slab
        // structurally matches the post-delta grounding: a later splice in
        // the same relation shifts earlier pending rows.
        let mut inserted: Vec<(usize, usize)> = Vec::new();
        let mut touched = vec![false; self.atoms.len()];
        for s in splices {
            for (a, watch) in self.atoms.iter_mut().enumerate() {
                match watch.rel {
                    Some(rel) if rel == s.rel => {
                        if s.added {
                            for p in inserted.iter_mut() {
                                if p.0 == a && p.1 >= s.row {
                                    p.1 += 1;
                                }
                            }
                            watch.status.insert(s.row, FactStatus::Excluded);
                            inserted.push((a, s.row));
                        } else {
                            debug_assert!(
                                !inserted.iter().any(|p| p.0 == a && p.1 == s.row),
                                "a compacted delta never removes a row it inserted"
                            );
                            for p in inserted.iter_mut() {
                                if p.0 == a && p.1 > s.row {
                                    p.1 -= 1;
                                }
                            }
                            match watch.status.remove(s.row) {
                                FactStatus::Certain => {
                                    watch.certain -= 1;
                                    watch.viable -= 1;
                                }
                                FactStatus::Possible => watch.viable -= 1,
                                FactStatus::Excluded => {}
                            }
                        }
                        touched[a] = true;
                    }
                    // Relations are contiguous and ordered in the fact
                    // space, so a splice in an earlier relation shifts the
                    // candidate-range start of every later atom. The shifted
                    // atom's rows are untouched — no memo bump needed.
                    Some(rel) if rel > s.rel => {
                        watch.first = if s.added {
                            watch.first + 1
                        } else {
                            watch.first - 1
                        };
                    }
                    _ => {}
                }
            }
        }
        for &(a, slot) in &inserted {
            self.atoms[a].refresh(slot, g);
        }
        for (a, patched) in touched.iter().enumerate() {
            if !patched {
                continue;
            }
            // A touched slab changed shape: the join memos over it are void.
            self.components[self.component_of[a]].revision += 1;
            // The evaluator is rewound (checked above), so the rewind
            // snapshot is brought to the same post-delta state.
            self.root[a].status.clone_from(&self.atoms[a].status);
            self.root[a].certain = self.atoms[a].certain;
            self.root[a].viable = self.atoms[a].viable;
        }
        // The from-scratch rebuild stays on as the oracle: the patched
        // slabs and counters must agree with a full rowwise
        // reclassification over the post-delta grounding.
        #[cfg(debug_assertions)]
        {
            let mut oracle = self.clone();
            oracle.reclassify_rowwise(g);
            for (a, (patched, scratch)) in self.atoms.iter().zip(oracle.atoms.iter()).enumerate() {
                debug_assert_eq!(
                    patched.status, scratch.status,
                    "delta patch diverged from the from-scratch rebuild at atom {a}"
                );
                debug_assert_eq!(patched.certain, scratch.certain);
                debug_assert_eq!(patched.viable, scratch.viable);
            }
        }
        true
    }

    fn outcome(&mut self, g: &Grounding) -> PartialOutcome {
        // An emptied atom refutes regardless of the other atoms — the
        // watched-literal fast path, O(atoms) with no search.
        if self.atoms.iter().any(|a| a.viable == 0) {
            return PartialOutcome::Refuted;
        }
        // A homomorphism decomposes over variable-disjoint components, so
        // the query is Satisfied iff every component has a ground-only
        // match, Refuted if some component cannot even match
        // optimistically, and Unknown otherwise. A ground match is in
        // particular an optimistic match, so a component that passes the
        // ground test needs no optimistic search.
        let mut all_ground = true;
        for ci in 0..self.components.len() {
            if !self.component_matches_memo(g, ci, PartialMatch::GroundOnly) {
                all_ground = false;
                if !self.component_matches_memo(g, ci, PartialMatch::Optimistic) {
                    return PartialOutcome::Refuted;
                }
            }
        }
        if all_ground {
            PartialOutcome::Satisfied
        } else {
            PartialOutcome::Unknown
        }
    }

    fn rewind(&mut self, g: &Grounding) {
        debug_assert_eq!(
            g.bound_count(),
            self.root_bound,
            "rewind requires the grounding back at its construction assignment"
        );
        for (atom, root) in self.atoms.iter_mut().zip(self.root.iter()) {
            atom.status.copy_from_slice(&root.status);
            atom.certain = root.certain;
            atom.viable = root.viable;
        }
        // Memos go back to pristine (nothing computed yet), exactly as a
        // freshly built state would report them. `join_searches` is a
        // cumulative diagnostic and survives the rewind.
        for component in &mut self.components {
            component.revision = 1;
            component.memo_at = 0;
            component.ground = None;
            component.optimistic = None;
        }
    }

    fn boxed_clone(&self) -> Box<dyn ResidualState> {
        Box::new(self.clone())
    }

    fn set_merge_join_min_rows(&mut self, rows: u64) {
        self.merge_min_rows = rows;
    }
}

/// The incremental evaluator of a [`Ucq`]: one [`BcqResidual`] per disjunct,
/// combined with the union's short-circuit semantics. Disjuncts whose
/// relations a bind does not touch keep their memoized outcome.
#[derive(Debug, Clone)]
pub struct UcqResidual {
    disjuncts: Vec<BcqResidual>,
}

impl UcqResidual {
    /// Builds per-disjunct evaluators over the grounding's current state.
    pub fn new(q: &Ucq, g: &Grounding) -> Self {
        UcqResidual {
            disjuncts: q
                .disjuncts()
                .iter()
                .map(|d| BcqResidual::new(d, g))
                .collect(),
        }
    }
}

impl ResidualState for UcqResidual {
    fn apply(&mut self, g: &Grounding, changed: &[usize]) {
        for d in &mut self.disjuncts {
            d.apply(g, changed);
        }
    }

    fn apply_delta(&mut self, g: &Grounding, splices: &[Splice]) -> bool {
        // All-or-nothing: a disjunct that cannot patch leaves the union
        // partially patched, and the `false` contract hands the whole state
        // back for a rebuild.
        self.disjuncts.iter_mut().all(|d| d.apply_delta(g, splices))
    }

    fn outcome(&mut self, g: &Grounding) -> PartialOutcome {
        let mut all_refuted = true;
        for d in &mut self.disjuncts {
            match d.outcome(g) {
                PartialOutcome::Satisfied => return PartialOutcome::Satisfied,
                PartialOutcome::Refuted => {}
                PartialOutcome::Unknown => all_refuted = false,
            }
        }
        if all_refuted {
            PartialOutcome::Refuted
        } else {
            PartialOutcome::Unknown
        }
    }

    fn rewind(&mut self, g: &Grounding) {
        for d in &mut self.disjuncts {
            d.rewind(g);
        }
    }

    fn boxed_clone(&self) -> Box<dyn ResidualState> {
        Box::new(self.clone())
    }

    fn set_merge_join_min_rows(&mut self, rows: u64) {
        for d in &mut self.disjuncts {
            d.merge_min_rows = rows;
        }
    }
}

/// The incremental evaluator of a [`NegatedBcq`]: the inner BCQ's state with
/// the outcome negated.
#[derive(Debug, Clone)]
pub struct NegatedBcqResidual {
    inner: BcqResidual,
}

impl NegatedBcqResidual {
    /// Builds the inner evaluator over the grounding's current state.
    pub fn new(q: &NegatedBcq, g: &Grounding) -> Self {
        NegatedBcqResidual {
            inner: BcqResidual::new(q.inner(), g),
        }
    }
}

impl ResidualState for NegatedBcqResidual {
    fn apply(&mut self, g: &Grounding, changed: &[usize]) {
        self.inner.apply(g, changed);
    }

    fn apply_delta(&mut self, g: &Grounding, splices: &[Splice]) -> bool {
        self.inner.apply_delta(g, splices)
    }

    fn outcome(&mut self, g: &Grounding) -> PartialOutcome {
        self.inner.outcome(g).negate()
    }

    fn rewind(&mut self, g: &Grounding) {
        self.inner.rewind(g);
    }

    fn boxed_clone(&self) -> Box<dyn ResidualState> {
        Box::new(self.clone())
    }

    fn set_merge_join_min_rows(&mut self, rows: u64) {
        self.inner.merge_min_rows = rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BooleanQuery;
    use incdb_data::{Constant, IncompleteDatabase, NullId, Value};

    /// Drains the grounding's dirty set into `state` and checks the
    /// incremental outcome against the from-scratch evaluation.
    fn sync_and_check<Q: BooleanQuery>(
        q: &Q,
        g: &mut Grounding,
        state: &mut dyn ResidualState,
        buf: &mut Vec<usize>,
    ) -> PartialOutcome {
        g.drain_dirty_into(buf);
        state.apply(g, buf);
        let incremental = state.outcome(g);
        assert_eq!(incremental, q.holds_partial(g), "incremental vs scratch");
        incremental
    }

    #[test]
    fn single_atom_decides_from_counters() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        let mut g = db.try_grounding().unwrap();
        let q: Bcq = "R(x,x)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);

        assert_eq!(state.outcome(&g), PartialOutcome::Unknown);
        g.bind(NullId(0), Constant(1)).unwrap();
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Unknown
        );
        g.bind(NullId(1), Constant(1)).unwrap();
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Satisfied
        );
        g.bind(NullId(1), Constant(0)).unwrap();
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Refuted
        );
        g.unbind(NullId(1));
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Unknown
        );
    }

    #[test]
    fn rebind_without_status_change_invalidates_the_join_memo() {
        // R(⊥0), S(⊥1) with q = R(x), S(x): both facts stay Certain across
        // the rebind of ⊥1, but the join flips from satisfied to refuted —
        // the memo must not serve the stale Satisfied.
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        db.add_fact("S", vec![Value::null(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let q: Bcq = "R(x), S(x)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);

        g.bind(NullId(0), Constant(1)).unwrap();
        g.bind(NullId(1), Constant(1)).unwrap();
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Satisfied
        );
        g.bind(NullId(1), Constant(2)).unwrap();
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Refuted
        );
    }

    #[test]
    fn memo_is_localized_per_component() {
        // Two variable-disjoint multi-atom components: C₀ = R(x), S(x) over
        // ⊥0/⊥1 and C₁ = T(y), U(y) over ⊥2/⊥3. Binds that touch only C₀'s
        // facts must not re-run C₁'s join search.
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        db.add_fact("S", vec![Value::null(1)]).unwrap();
        db.add_fact("T", vec![Value::null(2)]).unwrap();
        db.add_fact("U", vec![Value::null(3)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let q: Bcq = "R(x), S(x), T(y), U(y)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);

        assert_eq!(state.outcome(&g), PartialOutcome::Unknown);
        let settled = state.join_search_count();
        // Repeated queries with no change are pure memo hits.
        assert_eq!(state.outcome(&g), PartialOutcome::Unknown);
        assert_eq!(state.join_search_count(), settled);

        // Rebinding ⊥0 repeatedly touches only C₀: each round may re-search
        // C₀ (≤ 2 modes) but must never re-search C₁ — so over 4 rounds the
        // counter can grow by at most 8. Without per-component guards every
        // round would also pay C₁'s searches.
        for value in [1u64, 2, 1, 2] {
            g.bind(NullId(0), Constant(value)).unwrap();
            g.drain_dirty_into(&mut buf);
            state.apply(&g, &buf);
            assert_eq!(state.outcome(&g), q.holds_partial(&g));
        }
        let c0_rounds = state.join_search_count() - settled;
        assert!(
            c0_rounds <= 8,
            "binds confined to one component re-ran the other's search \
             ({c0_rounds} searches for 4 single-component rounds)"
        );

        // Deciding the whole query still works across components.
        g.bind(NullId(1), Constant(1)).unwrap();
        g.bind(NullId(0), Constant(1)).unwrap();
        g.bind(NullId(2), Constant(2)).unwrap();
        g.bind(NullId(3), Constant(2)).unwrap();
        g.drain_dirty_into(&mut buf);
        state.apply(&g, &buf);
        assert_eq!(state.outcome(&g), PartialOutcome::Satisfied);
        assert_eq!(state.outcome(&g), q.holds_partial(&g));
    }

    #[test]
    fn rewind_restores_the_construction_state() {
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        db.add_fact("S", vec![Value::null(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let q: Bcq = "R(x), S(x)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);
        let at_root = state.outcome(&g);
        assert_eq!(at_root, q.holds_partial(&g));

        // Walk somewhere, rewind, and the state answers like a fresh build —
        // including through several rewind cycles on the same allocation.
        for (a, b) in [(1u64, 2u64), (1, 1), (2, 2)] {
            g.bind(NullId(0), Constant(a)).unwrap();
            g.bind(NullId(1), Constant(b)).unwrap();
            sync_and_check(&q, &mut g, &mut state, &mut buf);
            g.reset();
            g.drain_dirty_into(&mut buf);
            state.rewind(&g);
            assert_eq!(state.outcome(&g), at_root, "after rewind from {a},{b}");
            assert_eq!(state.outcome(&g), q.holds_partial(&g));
        }

        // A rewound state keeps evaluating incrementally.
        g.bind(NullId(0), Constant(2)).unwrap();
        g.bind(NullId(1), Constant(1)).unwrap();
        assert_eq!(
            sync_and_check(&q, &mut g, &mut state, &mut buf),
            PartialOutcome::Refuted
        );
    }

    #[test]
    fn boxed_clone_forks_an_independent_evaluator() {
        let mut db = IncompleteDatabase::new_uniform([1u64, 2]);
        db.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        let mut g = db.try_grounding().unwrap();
        let q: Bcq = "R(x,x)".parse().unwrap();
        let mut state: Box<dyn ResidualState> = Box::new(BcqResidual::new(&q, &g));
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);

        // Fork, then drive the fork along a different path on its own clone
        // of the grounding: the original is unaffected.
        let mut fork = state.boxed_clone();
        let mut g2 = g.clone();
        g2.bind(NullId(0), Constant(1)).unwrap();
        g2.bind(NullId(1), Constant(2)).unwrap();
        g2.drain_dirty_into(&mut buf);
        fork.apply(&g2, &buf);
        assert_eq!(fork.outcome(&g2), PartialOutcome::Refuted);
        assert_eq!(fork.outcome(&g2), q.holds_partial(&g2));

        g.bind(NullId(0), Constant(1)).unwrap();
        g.bind(NullId(1), Constant(1)).unwrap();
        g.drain_dirty_into(&mut buf);
        state.apply(&g, &buf);
        assert_eq!(state.outcome(&g), PartialOutcome::Satisfied);

        // The fork carries the construction snapshot: rewind works on it.
        g2.reset();
        g2.drain_dirty_into(&mut buf);
        fork.rewind(&g2);
        assert_eq!(fork.outcome(&g2), q.holds_partial(&g2));
    }

    #[test]
    fn missing_relation_empties_the_atom() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        let g = db.try_grounding().unwrap();
        let q: Bcq = "R(x), T(x)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        assert_eq!(state.outcome(&g), PartialOutcome::Refuted);
        assert_eq!(state.outcome(&g), q.holds_partial(&g));
    }

    #[test]
    fn union_and_negation_compose() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![Value::null(0), Value::null(0)])
            .unwrap();
        let mut g = db.try_grounding().unwrap();
        let u: Ucq = "R(x,x) | T(y)".parse().unwrap();
        let n = NegatedBcq::new("R(x,x)".parse().unwrap());
        let mut us = UcqResidual::new(&u, &g);
        let mut ns = NegatedBcqResidual::new(&n, &g);
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);

        assert_eq!(us.outcome(&g), u.holds_partial(&g));
        assert_eq!(ns.outcome(&g), n.holds_partial(&g));
        g.bind(NullId(0), Constant(1)).unwrap();
        g.drain_dirty_into(&mut buf);
        us.apply(&g, &buf);
        ns.apply(&g, &buf);
        assert_eq!(us.outcome(&g), PartialOutcome::Satisfied);
        assert_eq!(us.outcome(&g), u.holds_partial(&g));
        assert_eq!(ns.outcome(&g), PartialOutcome::Refuted);
        assert_eq!(ns.outcome(&g), n.holds_partial(&g));
    }

    #[test]
    fn apply_delta_patches_to_the_fresh_build() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1, 2]);
        db.add_fact("R", vec![Value::constant(0), Value::constant(1)])
            .unwrap();
        db.add_fact("R", vec![Value::null(0), Value::constant(2)])
            .unwrap();
        db.add_fact("S", vec![Value::constant(1)]).unwrap();
        let mut g = db.try_grounding().unwrap();
        let q: Bcq = "R(x,y), S(y)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        let built_at = db.revision();

        // A mixed delta: ground insert, null insert (of a null the
        // grounding already carries), ground removal — with the splices
        // landing in both watched relations.
        db.add_fact("R", vec![Value::constant(2), Value::constant(1)])
            .unwrap();
        db.add_fact("S", vec![Value::null(0)]).unwrap();
        assert!(db.remove_fact("R", &vec![Value::constant(0), Value::constant(1)]));
        let ops = db.delta_since(built_at).expect("gap within the log");
        let splices = g.apply_delta(&ops).expect("patchable delta");
        assert!(state.apply_delta(&g, &splices));

        // Patched state ≡ fresh build over the post-delta table, and both
        // agree with the from-scratch evaluation (the debug-asserted
        // rowwise oracle inside apply_delta already checked the slabs).
        let fresh_g = db.try_grounding().unwrap();
        let mut fresh = BcqResidual::new(&q, &fresh_g);
        assert_eq!(state.outcome(&g), fresh.outcome(&fresh_g));
        assert_eq!(state.outcome(&g), q.holds_partial(&g));

        // The patched rewind snapshot matches the patched live state: a
        // walk after the patch still rewinds to the post-delta root.
        let mut buf = Vec::new();
        g.drain_dirty_into(&mut buf);
        g.bind(NullId(0), Constant(2)).unwrap();
        g.drain_dirty_into(&mut buf);
        state.apply(&g, &buf);
        assert_eq!(state.outcome(&g), q.holds_partial(&g));
        g.reset();
        g.drain_dirty_into(&mut buf);
        state.rewind(&g);
        assert_eq!(state.outcome(&g), q.holds_partial(&g));
    }

    #[test]
    fn apply_delta_refuses_structural_changes() {
        let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
        db.add_fact("R", vec![Value::constant(0)]).unwrap();
        db.add_fact("T", vec![Value::constant(0), Value::constant(1)])
            .unwrap();
        let mut g = db.try_grounding().unwrap();
        // "T(x)" mismatches T's arity, so its watch is idle (no range).
        let q: Bcq = "R(x), T(x), T(x,y)".parse().unwrap();
        let mut state = BcqResidual::new(&q, &g);
        let built_at = db.revision();

        // A splice into the arity-2 relation T touches the idle "T(x)"
        // watch's relation — a patch would have to grow that watch.
        db.add_fact("T", vec![Value::constant(1), Value::constant(1)])
            .unwrap();
        let ops = db.delta_since(built_at).expect("gap within the log");
        let splices = g
            .apply_delta(&ops)
            .expect("patchable at the grounding layer");
        assert!(!state.apply_delta(&g, &splices));
    }
}
