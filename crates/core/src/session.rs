//! Search sessions: the persistent walk context behind every exact search.
//!
//! Before this layer existed, each budgeted shard walk and each paging
//! selection walk was a one-shot call on [`BacktrackingEngine`]: build the
//! [`Grounding`], compile the query's [`ResidualState`], derive the DFS
//! null order — then walk once and throw all of it away, even though the
//! next walk over the same instance differs only in its leaf filter. A
//! [`SearchSession`] owns that setup for as long as the caller keeps it:
//!
//! * the built [`Grounding`] (the in-place partial-valuation workspace),
//! * the compiled incremental [`ResidualState`] of the query,
//! * the search plan — the smallest-domain-first null order with its
//!   closed-form subtree sizes, shared via `Arc` across forks — and
//! * the per-walk scratch (path buffer, scratch [`Database`], dirty-null
//!   batch buffer), reused allocation-free from walk to walk.
//!
//! The session runs **one walk**, a depth-first search over valuations that
//! hands what it finds to a sink ([`CompletionVisitor`]). The sink decides
//! what the walk computes: [`CountValuations`] credits decided subtrees in
//! closed form (#Val), [`CollectKeys`] dedups every satisfying leaf by
//! residual key (#Comp), class-aware sinks count whole completion classes
//! at the separation cut, and [`PageSink`] selects one bounded page of the
//! canonical completion order. The walk starts at the root
//! ([`walk`](SearchSession::walk), or [`count`](SearchSession::count) for
//! #Val) or at a task prefix for work-stealing schedulers
//! ([`walk_task`](SearchSession::walk_task)). A root walk first returns the
//! session to its root state through the cheap rewind protocol
//! ([`Grounding::reset`] + [`ResidualState::rewind`]) — a reset, not a
//! rebuild — so consecutive walks amortise the entire setup.
//! [`fork`](SearchSession::fork) clones a session for another worker by
//! cloning the compiled state ([`ResidualState::boxed_clone`]) and sharing
//! the plan, again skipping recompilation.
//!
//! This module is the **mechanism** half of the engine split: it knows how
//! to walk, donate subtrees through a [`StealGate`], and keep the residual
//! state in sync through the grounding's dirty-null channel. The **policy**
//! half — routing, thresholds, worker counts, [`TaskQueue`] scheduling —
//! stays in [`crate::engine`], and the streaming subsystem (`incdb-stream`)
//! drives sessions directly for shard-walk reuse and parallel page fills.
//!
//! [`BacktrackingEngine`]: crate::engine::BacktrackingEngine

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use incdb_bignum::{BigNat, NatAccumulator};
use incdb_data::{
    CompletionKey, Constant, DataError, Database, Grounding, IncompleteDatabase, KeyPlan, PageHeap,
};
use incdb_query::{BooleanQuery, PartialOutcome, ResidualState};

use crate::engine::TaskQueue;

/// What a class-aware visitor wants done with the subtree below a
/// **separation-cut node** (see [`CompletionVisitor::class_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassAction {
    /// Walk the subtree leaf by leaf, as a plain visitor would.
    Descend,
    /// Skip the subtree entirely — its class was already accounted for.
    Skip,
    /// Count the subtree's satisfying valuations in closed form /
    /// accumulator form without visiting its leaves, then report the total
    /// through [`CompletionVisitor::class_counted`]. Sound for distinct-
    /// completion counting because below the cut only separable nulls
    /// remain: distinct assignments induce distinct completions
    /// ([`incdb_data::Separability`]), so satisfying valuations *are*
    /// distinct completions.
    Count,
    /// Abort the whole walk (e.g. a memory budget overran beyond repair).
    Stop,
}

/// A sink of the session's one search walk: the hooks through which
/// valuation counting, leaf visiting, class counting and page selection
/// consume the same depth-first search over valuations.
///
/// [`SearchSession::walk`] and [`SearchSession::walk_task`] drive the sink.
/// Every hook but [`leaf`] has a no-op default, and the walk is compiled
/// per sink type, so a hook a sink leaves alone costs nothing per node.
/// `Refuted` subtrees are pruned before any hook sees a leaf. Distinct
/// completions are **not** deduplicated at this layer — several valuations
/// may induce the same completion, and [`leaf`] sees each of them.
/// Deduplicate by residual key ([`Grounding::residual_key_into`] over
/// [`Grounding::full_key_plan`]) when counting, as [`CollectKeys`] and the
/// sharded counters of `incdb-stream` do; take the canonical key
/// ([`Grounding::key_into`]) only for keys that leave the walk, as
/// [`PageSink`] does.
///
/// The `enter`, `leave`, `refuted`, `finished`, `generates` and `generated`
/// hooks exist for [`PageSink`]: they track the summary node the walk is
/// in, prune and record it, and take decided separable subtrees in closed
/// form.
///
/// [`leaf`]: CompletionVisitor::leaf
pub trait CompletionVisitor {
    /// Consumes one satisfying leaf, with the grounding fully bound. Return
    /// `false` to stop the walk early (e.g. a shard whose memory budget is
    /// exhausted).
    fn leaf(&mut self, g: &Grounding) -> bool;

    /// Called at every node the query is decided `Satisfied` at (there or
    /// at an ancestor), with the number of valuations below it. Return
    /// `true` to account for the whole subtree here, and the walk skips
    /// it. The default returns `false`: the walk descends without further
    /// query checks.
    fn satisfied(&mut self, _valuations: &BigNat) -> bool {
        false
    }

    /// Called once per node at the plan's **separation cut** — the depth at
    /// which every remaining unbound null is separable
    /// ([`SearchSession::separation_cut`]). At such a node the non-clean
    /// ("dirty") facts are fully resolved, so their residual key
    /// ([`Grounding::residual_key_into`] over
    /// [`SearchSession::class_plan`]) names the node's **completion
    /// class**: all leaves below share that dirty part, and distinct
    /// separable assignments below it induce distinct completions.
    /// `decided` reports whether an ancestor already proved the query
    /// `Satisfied`.
    ///
    /// The default descends, which reproduces the plain leaf walk exactly.
    /// Class-aware walks must enter the tree at task prefixes no deeper
    /// than the cut, or the hook is skipped for that task.
    fn class_node(&mut self, _g: &Grounding, _decided: bool) -> ClassAction {
        ClassAction::Descend
    }

    /// Receives the exact number of satisfying valuations — equivalently,
    /// distinct completions — below a class node the visitor asked to
    /// [`ClassAction::Count`]. Return `false` to stop the walk.
    fn class_counted(&mut self, _distinct: &BigNat) -> bool {
        true
    }

    /// Called before the walk descends into value `k` of the depth-`depth`
    /// null's domain (and, in a task walk, for each prefix level). Return
    /// `false` to skip that child. Every `true` is matched by a
    /// [`leave`](CompletionVisitor::leave) once the child is done.
    fn enter(&mut self, _depth: usize, _k: usize) -> bool {
        true
    }

    /// Called when the walk returns from a child entered at `depth`.
    fn leave(&mut self, _depth: usize) {}

    /// Called when the query is `Refuted` at the current node, at `depth`:
    /// nothing below it satisfies.
    fn refuted(&mut self, _depth: usize) {}

    /// Called when the walk has finished the current node, at `depth`.
    /// `whole` reports whether this walk alone covered the node's subtree:
    /// true for leaves and for walks that donate nothing.
    fn finished(&mut self, _depth: usize, _whole: bool) {}

    /// Whether the sink takes a decided subtree at `depth`, below the
    /// separation cut, as closed-form keys through
    /// [`generated`](CompletionVisitor::generated) instead of a leaf walk.
    fn generates(&self, _depth: usize) -> bool {
        false
    }

    /// Receives one completion key of a decided separable subtree the sink
    /// chose to take in closed form.
    fn generated(&mut self, _key: &CompletionKey) {}
}

/// Extracts the canonical completion key ([`Grounding::key_into`] over
/// [`Grounding::full_key_plan`]) at a fully bound leaf.
#[cfg(test)]
pub(crate) fn completion_key(g: &Grounding) -> CompletionKey {
    let mut key = CompletionKey::new();
    g.key_into(g.full_key_plan(), &mut key)
        .expect("leaf is fully bound");
    key
}

/// The #Val sink: credits every `Satisfied` subtree with its closed-form
/// valuation count and counts the undecided leaves that model-check true.
/// [`SearchSession::count`] runs it from the root; task walks over a
/// partition of the tree add up to the same total.
#[derive(Debug, Default)]
pub struct CountValuations {
    acc: NatAccumulator,
}

impl CountValuations {
    /// The number of satisfying valuations the walks have credited.
    pub fn into_total(self) -> BigNat {
        self.acc.into_total()
    }
}

impl CompletionVisitor for CountValuations {
    fn leaf(&mut self, _g: &Grounding) -> bool {
        self.acc.add_one();
        true
    }

    fn satisfied(&mut self, valuations: &BigNat) -> bool {
        self.acc.add_big(valuations);
        true
    }
}

/// The #Comp leaf sink: collects the residual key
/// ([`Grounding::residual_key_into`]) of every satisfying leaf into a hash
/// set, never stopping early. Two leaves share a residual key iff they
/// induce the same completion, so the set's size is the number of distinct
/// satisfying completions seen — without copying the ground table into
/// every key. A residual key names a completion only together with the
/// table's ground block; page with [`PageSink`] for canonical keys.
#[derive(Debug, Default)]
pub struct CollectKeys {
    /// The distinct residual keys seen so far.
    pub keys: HashSet<CompletionKey>,
}

impl CompletionVisitor for CollectKeys {
    fn leaf(&mut self, g: &Grounding) -> bool {
        let mut key = CompletionKey::new();
        g.residual_key_into(g.full_key_plan(), &mut key)
            .expect("every null is bound at a leaf");
        self.keys.insert(key);
        true
    }
}

/// What a page-selection walk knows about one **summary node** — a prefix
/// subtree of the first [`PageSummary::depth`] plan levels — from previous
/// walks over the same instance.
///
/// Marks are *walk-invariant*: a selection walk records every satisfying
/// leaf key of a node it enters (before any cursor filtering), so a
/// recorded `Span` is the node's true min/max completion key, identical no
/// matter which page the walk was serving. That invariance is what makes
/// carrying marks across pages sound.
#[derive(Debug, Clone, PartialEq)]
pub enum Mark {
    /// Nothing recorded yet; the node must be walked.
    Unvisited,
    /// Proven to contain no satisfying completion (a `Refuted` residual, or
    /// a completed sequential walk that observed nothing).
    Empty,
    /// The smallest and largest satisfying completion keys of the node.
    Span(CompletionKey, CompletionKey),
}

impl Mark {
    /// Folds a leaf observation into the mark.
    fn observe(&mut self, key: &CompletionKey) {
        match self {
            Mark::Span(min, max) => {
                if key < min {
                    *min = key.clone();
                } else if key > max {
                    *max = key.clone();
                }
            }
            _ => *self = Mark::Span(key.clone(), key.clone()),
        }
    }

    /// Folds a *sibling's* known mark into a parent union under
    /// construction: `Empty` is the identity, spans widen. Both sides must
    /// be known (`Unvisited` children abort the derivation upstream).
    fn union_with(&mut self, child: &Mark) {
        match (&mut *self, child) {
            (_, Mark::Empty) => {}
            (Mark::Empty, m) => *self = m.clone(),
            (Mark::Span(min, max), Mark::Span(omin, omax)) => {
                if omin < min {
                    *min = omin.clone();
                }
                if omax > max {
                    *max = omax.clone();
                }
            }
            _ => unreachable!("union over known children only"),
        }
    }

    /// Merges another exact-or-unknown record of the same node. Marks are
    /// walk-invariant, so two known marks can only agree (or one subsumes a
    /// partial observation of the other) — union is always sound.
    fn merge_from(&mut self, other: &Mark) {
        match (&mut *self, other) {
            (_, Mark::Unvisited) => {}
            (Mark::Unvisited, m) => *self = m.clone(),
            (Mark::Empty, Mark::Empty) => {}
            (Mark::Span(min, max), Mark::Span(omin, omax)) => {
                if omin < min {
                    *min = omin.clone();
                }
                if omax > max {
                    *max = omax.clone();
                }
            }
            (slot, m) => {
                debug_assert!(
                    false,
                    "Empty and Span marks for one node: {slot:?} vs {m:?}"
                );
                if matches!(slot, Mark::Empty) {
                    *slot = m.clone();
                }
            }
        }
    }
}

/// The compressed fingerprint summary a [`CompletionStream`]-style pager
/// carries across selection walks: per-prefix subtree [`Mark`]s for the
/// first `depth` levels of the plan, recorded during previous walks, so
/// each new walk prunes subtrees provably **below the cursor** (all keys
/// `≤ after`), provably **beyond the page** (all keys `≥` the page's
/// running maximum once it is full), or provably empty — before descending
/// into them.
///
/// Only the bottom level is recorded during walks (through a
/// [`PageSummary::worksheet`]); internal levels are re-derived bottom-up in
/// [`PageSummary::absorb`], and a node with incompletely-known children
/// keeps its previous (still exact) mark. Memory is bounded by the
/// `cap_nodes` passed to [`PageSummary::plan`]: roughly two completion keys
/// per non-empty bottom node, independent of the completion count.
///
/// [`CompletionStream`]: ../../incdb_stream/struct.CompletionStream.html
#[derive(Debug, Clone)]
pub struct PageSummary {
    /// How many leading plan levels the summary indexes.
    depth: usize,
    /// `widths[d]` = `|dom(order[d])|` for `d < depth`.
    widths: Vec<usize>,
    /// `levels[l]` holds one mark per level-`l` node (`∏ widths[..l]`
    /// nodes); `levels[0]` is the root, `levels[depth]` the recorded bottom.
    levels: Vec<Vec<Mark>>,
}

impl PageSummary {
    /// Chooses the deepest plan prefix whose cumulative node count stays
    /// within `cap_nodes` and builds the all-[`Mark::Unvisited`] summary
    /// for it. A depth of 0 (e.g. a huge first domain) degrades gracefully
    /// to tracking just the global completion span.
    pub fn plan(g: &Grounding, order: &[usize], cap_nodes: usize) -> PageSummary {
        let mut widths = Vec::new();
        let mut nodes = 1usize;
        let mut cumulative = 0usize;
        for &i in order {
            let w = g.domain_by_index(i).len().max(1);
            let next = nodes.saturating_mul(w);
            if cumulative.saturating_add(next) > cap_nodes {
                break;
            }
            widths.push(w);
            nodes = next;
            cumulative += next;
        }
        let depth = widths.len();
        let mut levels = Vec::with_capacity(depth + 1);
        let mut n = 1usize;
        levels.push(vec![Mark::Unvisited; n]);
        for &w in &widths {
            n *= w;
            levels.push(vec![Mark::Unvisited; n]);
        }
        PageSummary {
            depth,
            widths,
            levels,
        }
    }

    /// The number of plan levels the summary indexes.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The number of bottom-level nodes — the length of a worksheet.
    pub fn bottom_len(&self) -> usize {
        self.levels[self.depth].len()
    }

    /// A fresh all-[`Mark::Unvisited`] bottom-level observation sheet for
    /// one walk (or one worker of a parallel walk).
    pub fn worksheet(&self) -> Vec<Mark> {
        vec![Mark::Unvisited; self.bottom_len()]
    }

    /// Resets a previously used worksheet to all-[`Mark::Unvisited`] **in
    /// place**, reusing its allocation — what a long-lived pager's
    /// persistent per-worker scratch calls between page fills instead of
    /// allocating a fresh [`worksheet`](PageSummary::worksheet) each time.
    /// Adapts the length if the summary changed (e.g. a rebuilt session).
    pub fn refresh_worksheet(&self, sheet: &mut Vec<Mark>) {
        sheet.clear();
        sheet.resize(self.bottom_len(), Mark::Unvisited);
    }

    /// Folds one or more walk worksheets into the summary: bottom marks
    /// merge (unvisited sheet entries leave the carried mark untouched),
    /// then internal levels are re-derived bottom-up, keeping the previous
    /// mark wherever some child is still unknown.
    pub fn absorb<'a, I>(&mut self, sheets: I)
    where
        I: IntoIterator<Item = &'a [Mark]>,
    {
        for sheet in sheets {
            debug_assert_eq!(sheet.len(), self.bottom_len());
            for (slot, mark) in self.levels[self.depth].iter_mut().zip(sheet) {
                slot.merge_from(mark);
            }
        }
        for l in (0..self.depth).rev() {
            let w = self.widths[l];
            let (uppers, lowers) = self.levels.split_at_mut(l + 1);
            let (parents, children) = (&mut uppers[l], &lowers[0]);
            for (n, parent) in parents.iter_mut().enumerate() {
                let kids = &children[n * w..(n + 1) * w];
                if kids.iter().any(|k| matches!(k, Mark::Unvisited)) {
                    continue; // keep the previous (exact) mark, if any
                }
                let mut derived = Mark::Empty;
                for kid in kids {
                    derived.union_with(kid);
                }
                *parent = derived;
            }
        }
    }

    /// The recorded mark of one node.
    fn mark(&self, level: usize, node: usize) -> &Mark {
        &self.levels[level][node]
    }

    /// `true` when the summary *proves* no completion beyond `after`
    /// remains — the root span is known and already fully served (or the
    /// instance has no satisfying completion at all). Lets a pager declare
    /// exhaustion without a final empty walk.
    pub fn served(&self, after: Option<&CompletionKey>) -> bool {
        match &self.levels[0][0] {
            Mark::Unvisited => false,
            Mark::Empty => true,
            Mark::Span(_, max) => after.is_some_and(|a| max <= a),
        }
    }

    /// The number of completion keys held by `Span` marks across all
    /// levels — the summary's contribution to a pager's resident-memory
    /// accounting.
    pub fn resident_keys(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .filter(|m| matches!(m, Mark::Span(_, _)))
            .count()
            * 2
    }
}

/// The page-selection sink: collects into a [`PageHeap`] the `cap`
/// smallest distinct completion keys strictly greater than `after`
/// (displacing the running maximum once the page fills) — the paging
/// primitive behind `incdb-stream`'s `CompletionStream`. Resident memory is
/// `O(cap)` keys regardless of how many completions exist.
///
/// The heap is not cleared first: pre-existing entries participate in the
/// bound, so several walks (e.g. the per-worker task walks of a parallel
/// page fill) can accumulate into one heap.
///
/// With [`recording`](PageSink::recording) the sink runs the
/// cursor-pruning summary protocol: previous walks' marks prune subtrees
/// provably below `after`, provably beyond a full page, or provably empty,
/// and this walk's observations land in a bottom worksheet
/// ([`PageSummary::worksheet`]), to be folded back via
/// [`PageSummary::absorb`] afterwards. A recording sink also emits decided
/// separable subtrees in closed form. The page is **exactly** the page an
/// unrecorded walk produces; only the work differs.
pub struct PageSink<'c> {
    after: Option<&'c CompletionKey>,
    cap: usize,
    page: &'c mut PageHeap,
    scratch: CompletionKey,
    /// The summary node the walk is in: its index among the nodes of level
    /// `min(depth, summary depth)`.
    node: usize,
    rec: Option<PageRecorder<'c>>,
}

/// The recording half of a pruned selection walk: reads the carried
/// summary for pruning, writes fresh observations into a bottom worksheet.
struct PageRecorder<'c> {
    summary: &'c PageSummary,
    bottom: &'c mut [Mark],
}

impl<'c> PageSink<'c> {
    /// A sink selecting the `cap` (at least 1) smallest keys beyond `after`
    /// into `page`.
    pub fn new(after: Option<&'c CompletionKey>, cap: usize, page: &'c mut PageHeap) -> Self {
        PageSink {
            after,
            cap: cap.max(1),
            page,
            scratch: CompletionKey::new(),
            node: 0,
            rec: None,
        }
    }

    /// Attaches the summary protocol: `summary` prunes, `bottom` (a
    /// [`PageSummary::worksheet`]) records.
    pub fn recording(mut self, summary: &'c PageSummary, bottom: &'c mut [Mark]) -> Self {
        self.rec = Some(PageRecorder { summary, bottom });
        self
    }

    /// Can the level-`level` node `node` be skipped outright for the page
    /// currently being built?
    fn prunable(&self, rec: &PageRecorder<'_>, level: usize, node: usize) -> bool {
        match rec.summary.mark(level, node) {
            Mark::Unvisited => false,
            Mark::Empty => true,
            Mark::Span(min, max) => {
                // Every key of the node already served to the cursor?
                if self.after.is_some_and(|a| max <= a) {
                    return true;
                }
                // Page full and the node's smallest key cannot displace?
                self.page.len() >= self.cap && self.page.last().is_some_and(|pmax| min >= pmax)
            }
        }
    }
}

impl CompletionVisitor for PageSink<'_> {
    fn leaf(&mut self, g: &Grounding) -> bool {
        let mut key = std::mem::take(&mut self.scratch);
        g.key_into(g.full_key_plan(), &mut key)
            .expect("every null is bound at a leaf");
        self.generated(&key);
        self.scratch = key;
        true
    }

    fn enter(&mut self, depth: usize, k: usize) -> bool {
        let Some(rec) = &self.rec else {
            return true;
        };
        if depth >= rec.summary.depth {
            return true;
        }
        let child = self.node * rec.summary.widths[depth] + k;
        if self.prunable(rec, depth + 1, child) {
            return false;
        }
        self.node = child;
        true
    }

    fn leave(&mut self, depth: usize) {
        if let Some(rec) = &self.rec {
            if depth < rec.summary.depth {
                self.node /= rec.summary.widths[depth];
            }
        }
    }

    /// A `Refuted` residual at `depth ≤` the summary depth proves every
    /// bottom descendant of the node empty, in any walk mode.
    fn refuted(&mut self, depth: usize) {
        if let Some(rec) = &mut self.rec {
            if depth <= rec.summary.depth {
                let stride: usize = rec.summary.widths[depth..].iter().product();
                for slot in &mut rec.bottom[self.node * stride..(self.node + 1) * stride] {
                    if matches!(slot, Mark::Unvisited) {
                        *slot = Mark::Empty;
                    }
                }
            }
        }
    }

    /// Marks a bottom node empty if the walk finished all of it without
    /// observing a satisfying leaf. A walk that may have donated part of
    /// the node saw only part of it, and marks nothing.
    fn finished(&mut self, depth: usize, whole: bool) {
        if let Some(rec) = &mut self.rec {
            if whole
                && depth == rec.summary.depth
                && matches!(rec.bottom[self.node], Mark::Unvisited)
            {
                rec.bottom[self.node] = Mark::Empty;
            }
        }
    }

    fn generates(&self, depth: usize) -> bool {
        self.rec.as_ref().is_some_and(|r| depth >= r.summary.depth)
    }

    /// The admission path shared by walked and generated keys. Records the
    /// observation first — marks must describe the node's true key span,
    /// independent of the page served — then offers the key to the page.
    fn generated(&mut self, key: &CompletionKey) {
        if let Some(rec) = &mut self.rec {
            rec.bottom[self.node].observe(key);
        }
        self.page.admit(key, self.after, self.cap);
    }
}

/// The precomputed per-instance search geometry, shared (`Arc`) by a
/// session and all its forks: the null exploration order with its
/// closed-form subtree sizes.
#[derive(Debug)]
struct SessionPlan {
    /// Null indices sorted by ascending domain size, ties broken towards
    /// nulls with more occurrences (deciding more of the table per bind),
    /// then by label for determinism — except that **separable** nulls
    /// ([`incdb_data::Separability`]) are demoted wholesale to the end
    /// (keeping the same relative order among themselves), so that below
    /// [`SessionPlan::sep_cut`] only separable nulls remain and class-aware
    /// walks can count whole subtrees without visiting leaves.
    order: Vec<usize>,
    /// `suffix[d] = ∏_{i ≥ d} |dom(order[i])|` — the closed-form size of
    /// the subtree below depth `d`, credited wholesale on `Satisfied`
    /// during valuation counting.
    suffix: Vec<BigNat>,
    /// `suffix` saturated into machine words, for the donation heuristic.
    hint: Vec<u64>,
    /// The depth at which every remaining null of `order` is separable
    /// (`order.len()` when none is): the classing depth of
    /// [`CompletionVisitor::class_node`].
    sep_cut: usize,
    /// Per fact: `true` iff the fact is **not** clean — the include mask
    /// whose partial fingerprint names a completion class at the cut
    /// (ground template facts included, so a dirty fact resolving onto a
    /// ground fact dedups inside the class key).
    class_facts: Vec<bool>,
    /// Whether `class_facts` selects every fact (no fact is clean): class
    /// keys are then keyed on the grounding's cached
    /// [`Grounding::full_key_plan`], and `class_plan` stays empty.
    class_is_full: bool,
    /// The [`KeyPlan`] of `class_facts`, built on the first class node of
    /// any walk on the session or its forks — only when `class_is_full` is
    /// `false`. A fresh plan (build or [`SearchSession::advance_to`])
    /// starts empty, so the plan never outlives the fact set it indexes.
    class_plan: OnceLock<KeyPlan>,
}

impl SessionPlan {
    fn of(g: &Grounding) -> SessionPlan {
        let sep = g.separability();
        let mut order: Vec<usize> = (0..g.null_count()).collect();
        order.sort_by_key(|&i| {
            (
                sep.null_is_separable(i),
                g.domain_by_index(i).len(),
                usize::MAX - g.occurrence_count(i),
                i,
            )
        });
        let sep_cut = order.len() - sep.separable_count();
        debug_assert!(order[sep_cut..].iter().all(|&i| sep.null_is_separable(i)));
        let class_facts: Vec<bool> = sep.clean_facts().iter().map(|&clean| !clean).collect();
        let class_is_full = class_facts.iter().all(|&dirty| dirty);
        let mut suffix = vec![BigNat::one(); order.len() + 1];
        let mut hint = vec![1u64; order.len() + 1];
        for d in (0..order.len()).rev() {
            let dom = g.domain_by_index(order[d]).len();
            suffix[d] = &suffix[d + 1] * &BigNat::from(dom);
            hint[d] = hint[d + 1].saturating_mul(dom as u64);
        }
        SessionPlan {
            order,
            suffix,
            hint,
            sep_cut,
            class_facts,
            class_is_full,
            class_plan: OnceLock::new(),
        }
    }
}

/// The key plan that names completion classes at a session's separation
/// cut ([`SearchSession::class_plan`]): the residual key
/// ([`Grounding::residual_key_into`]) of the non-clean facts. A cheap
/// handle on the session's shared plan, so a sink can hold it while the
/// session walks.
///
/// No per-request work happens until a class node asks for the plan. When
/// no fact is clean the plan is the grounding's own cached
/// [`Grounding::full_key_plan`] — the one page walks key on, so no second
/// copy of the ground block exists. Otherwise the class facts' plan is
/// built once and shared by the session and all its forks.
#[derive(Debug, Clone)]
pub struct ClassPlan(Arc<SessionPlan>);

impl ClassPlan {
    /// The class key plan over `g`, which must be the grounding of the
    /// session this handle came from (or of one of its forks), at the same
    /// revision: a later [`SearchSession::advance_to`] hands out a new
    /// handle.
    pub fn plan<'a>(&'a self, g: &'a Grounding) -> &'a KeyPlan {
        if self.0.class_is_full {
            g.full_key_plan()
        } else {
            self.0
                .class_plan
                .get_or_init(|| g.key_plan(&self.0.class_facts))
        }
    }
}

/// A donation point for work-stealing walks: the shared queue plus the
/// policy threshold below which subtrees are not worth splitting off.
///
/// Sessions are pure mechanism — they donate unexplored sibling branches
/// through the gate whenever another worker starves, but the queue and the
/// threshold are chosen by the caller: [`StealGate::new`] sets the
/// workspace's one threshold, and tests set their own.
pub struct StealGate<'a> {
    /// The queue starving workers pop from; donated prefixes must follow
    /// the same order as the session's [`SearchSession::order`].
    pub queue: &'a TaskQueue<Vec<Constant>>,
    /// Subtrees with fewer valuations than this are never donated: queue
    /// round-trips would cost more than just searching them locally.
    pub min_split_valuations: u64,
}

/// The donation floor of [`StealGate::new`]: subtrees smaller than this
/// many valuations are never donated — queue round-trips would cost more
/// than just searching them locally.
const MIN_SPLIT_VALUATIONS: u64 = 64;

impl<'a> StealGate<'a> {
    /// A gate over `queue` that never donates a subtree of fewer than 64
    /// valuations.
    pub fn new(queue: &'a TaskQueue<Vec<Constant>>) -> Self {
        StealGate {
            queue,
            min_split_valuations: MIN_SPLIT_VALUATIONS,
        }
    }
}

/// A persistent walk context over one incomplete database and one query:
/// the built grounding, the compiled residual state and the search plan,
/// reused across any number of walks (see the [module docs](self)).
///
/// ```
/// use incdb_core::session::{PageSink, SearchSession};
/// use incdb_data::{IncompleteDatabase, Value};
/// use incdb_query::Bcq;
///
/// let mut db = IncompleteDatabase::new_uniform([0u64, 1]);
/// db.add_fact("R", vec![Value::null(0)]).unwrap();
/// db.add_fact("R", vec![Value::null(1)]).unwrap();
/// let q: Bcq = "R(x)".parse().unwrap();
///
/// // One setup, many walks: count, then stream, on the same session.
/// let mut session = SearchSession::new(&db, &q).unwrap();
/// assert_eq!(session.count().to_u64(), Some(4));
/// let mut page = incdb_data::PageHeap::new();
/// session.walk(&mut PageSink::new(None, 2, &mut page));
/// assert_eq!(page.len(), 2); // the 2 canonically smallest completions
/// assert_eq!(session.count().to_u64(), Some(4)); // still at full strength
/// ```
pub struct SearchSession<'q, Q: ?Sized> {
    q: &'q Q,
    g: Grounding,
    plan: Arc<SessionPlan>,
    /// The incremental evaluator, `None` when the query type has no
    /// residual evaluation (such as [`incdb_query::FromScratch`]) — then
    /// every node falls back to a from-scratch `holds_partial`.
    state: Option<Box<dyn ResidualState>>,
    /// The buffer that carries the grounding's dirty-null notifications
    /// into `state`.
    changed: Vec<usize>,
    /// The values bound along `order[..depth]` — the prefix a donated
    /// sibling task is built from. Invariant: `path.len() == depth`
    /// whenever a recursive call at `depth` runs.
    path: Vec<Constant>,
    scratch: Database,
    /// The key buffer of closed-form generation, reused across walks.
    key: CompletionKey,
}

impl<'q, Q: BooleanQuery + ?Sized> SearchSession<'q, Q> {
    /// Builds a session over `db` and `q`: the grounding, the query's
    /// incremental [`ResidualState`] and the search plan — the one-time
    /// setup every subsequent walk reuses.
    ///
    /// Returns an error if some null of the table has no domain.
    pub fn new(db: &IncompleteDatabase, q: &'q Q) -> Result<Self, DataError> {
        let mut g = db.try_grounding()?;
        let plan = Arc::new(SessionPlan::of(&g));
        // The state snapshots the grounding as-is (fully unbound); clear
        // pending notifications so the sync cursor starts at the snapshot.
        let mut changed = Vec::new();
        g.drain_dirty_into(&mut changed);
        let state = q.residual_state(&g);
        Ok(SearchSession {
            q,
            g,
            plan,
            state,
            changed,
            path: Vec::new(),
            scratch: Database::new(),
            key: CompletionKey::new(),
        })
    }

    /// Clones this session for another worker: the grounding is cloned, the
    /// compiled residual state is cloned behind the trait object
    /// ([`ResidualState::boxed_clone`]) and the search plan is shared — no
    /// recompilation, no re-derivation. The fork is independent: walks on
    /// it never touch this session.
    pub fn fork(&self) -> SearchSession<'q, Q> {
        SearchSession {
            q: self.q,
            g: self.g.clone(),
            plan: Arc::clone(&self.plan),
            state: self.state.as_ref().map(|s| s.boxed_clone()),
            changed: Vec::new(),
            path: Vec::new(),
            scratch: Database::new(),
            key: CompletionKey::new(),
        }
    }

    /// The session's grounding (current walk state included) — for policy
    /// layers that need the instance geometry (domains, null count) to plan
    /// sharding.
    pub fn grounding(&self) -> &Grounding {
        &self.g
    }

    /// The DFS null exploration order of every walk on this session. Task
    /// prefixes handed to [`walk_task`](SearchSession::walk_task) assign
    /// `order()[0..k]` in this order.
    pub fn order(&self) -> &[usize] {
        &self.plan.order
    }

    /// The **separation cut**: the depth of [`SearchSession::order`] below
    /// which every remaining null is separable (see
    /// [`incdb_data::Separability`]); equals `order().len()` when no null
    /// is. [`CompletionVisitor::class_node`] fires at exactly this depth.
    pub fn separation_cut(&self) -> usize {
        self.plan.sep_cut
    }

    /// The key plan of the non-clean facts, whose residual key names a
    /// completion class at the separation cut. O(1): the plan itself is
    /// built, at most once per plan derivation, on first use.
    pub fn class_plan(&self) -> ClassPlan {
        ClassPlan(Arc::clone(&self.plan))
    }

    /// Returns the session to its root state — every null unbound, the
    /// residual state back at its construction snapshot — at reset cost
    /// (`O(touched occurrences)` plus a status memcpy), not rebuild cost.
    /// Root walks call this themselves; it only needs to be called
    /// explicitly around [`walk_task`](SearchSession::walk_task) use.
    pub fn rewind(&mut self) {
        self.g.reset();
        // Discard the pending dirty batch: the wholesale state rewind below
        // supersedes an incremental apply of it.
        self.g.drain_dirty_into(&mut self.changed);
        if let Some(state) = &mut self.state {
            state.rewind(&self.g);
        }
        self.changed.clear();
        self.path.clear();
    }

    /// The pool check-in contract: [`rewind`](SearchSession::rewind) plus a
    /// debug-mode assertion that the session really is back at its root
    /// state. Callers that shelve sessions for later reuse (a keyed session
    /// pool) call this instead of `rewind` so a broken check-in is caught at
    /// the shelf boundary, not at the next checkout's first walk.
    pub fn quiesce(&mut self) {
        self.rewind();
        debug_assert!(self.is_quiescent());
    }

    /// Whether the session is at its root state — no bound path prefix and
    /// no dirty-null notifications pending delivery to the residual state.
    /// Holds after [`rewind`](SearchSession::rewind) /
    /// [`quiesce`](SearchSession::quiesce) and before any walk; a pool
    /// refuses (or repairs) check-ins where this is `false`.
    pub fn is_quiescent(&self) -> bool {
        self.path.is_empty() && self.changed.is_empty() && !self.g.has_dirty()
    }

    /// Patches a **quiescent** session forward across the table writes
    /// between `built_at` (the database revision the session was built or
    /// last advanced at) and `db`'s current revision: the delta chain is
    /// read from the database's bounded log
    /// ([`IncompleteDatabase::delta_since`]), spliced into the grounding's
    /// flat value arena ([`Grounding::apply_delta`]) and patched into the
    /// residual evaluator's status slabs
    /// ([`ResidualState::apply_delta`])
    /// — `O(delta)` work in place of a full grounding construction and
    /// residual recompile. The search plan is re-derived (a write can flip
    /// separability), which is `O(nulls)` plus a bounded cleanliness pass —
    /// far below rebuild cost.
    ///
    /// Returns `true` when the session now reflects `db` at its current
    /// revision. Returns `false` — leaving the session valid at `built_at`,
    /// untouched — when patching is impossible: the session is mid-walk,
    /// the delta log was truncated or interrupted by a structural write
    /// (new relation, domain change), or the delta is not arena-patchable
    /// (a null the grounding never saw, a null's last occurrence removed).
    /// The caller then falls back to a fresh build. If only the *residual*
    /// patch declines (e.g. a previously-empty relation coming alive), the
    /// evaluator alone is recompiled and the call still succeeds.
    ///
    /// Page summaries are owned by the caller, not the session. A table
    /// delta moves every completion key, so after a successful advance a
    /// carried [`PageSummary`] is stale: plan a fresh one
    /// ([`PageSummary::plan`]) before the next recording walk.
    pub fn advance_to(&mut self, db: &IncompleteDatabase, built_at: u64) -> bool {
        if !self.is_quiescent() {
            return false;
        }
        let Some(ops) = db.delta_since(built_at) else {
            return false;
        };
        if ops.is_empty() {
            return true;
        }
        let Some(splices) = self.g.apply_delta(&ops) else {
            return false;
        };
        let patched = match &mut self.state {
            Some(state) => state.apply_delta(&self.g, &splices),
            None => true,
        };
        if !patched {
            // The slab patch declined after the arena was already spliced:
            // recompile just the evaluator — still far cheaper than a full
            // session rebuild (no grounding construction).
            self.state = self.q.residual_state(&self.g);
            self.g.drain_dirty_into(&mut self.changed);
            self.changed.clear();
        }
        // A write can flip fact cleanliness and null separability (a new
        // ground fact may unify with a previously clean fact), so the
        // plan's order, cut and class mask are re-derived, and its class
        // key plan, which indexes the old fact set, starts over. The
        // grounding and the evaluator — the expensive parts — stay patched.
        self.plan = Arc::new(SessionPlan::of(&self.g));
        true
    }

    /// The query's outcome for the subtree below the grounding's current
    /// bindings, after syncing the incremental state with every null that
    /// changed since the previous call.
    fn outcome(&mut self) -> PartialOutcome {
        match &mut self.state {
            Some(state) => {
                self.g.drain_dirty_into(&mut self.changed);
                state.apply(&self.g, &self.changed);
                state.outcome(&self.g)
            }
            None => self.q.holds_partial(&self.g),
        }
    }

    /// Rebinds the grounding for a fresh task: everything unbound, then
    /// `order[d] ↦ prefix[d]`. The changes reach the residual state through
    /// the dirty channel at the next evaluation — no rebuild.
    fn start_task(&mut self, prefix: &[Constant]) {
        self.g.reset();
        for (d, &value) in prefix.iter().enumerate() {
            self.g.bind_index(self.plan.order[d], value);
        }
        self.path.clear();
        self.path.extend_from_slice(prefix);
    }

    /// Donates the unexplored sibling branches `order[depth] ↦ dom[from..]`
    /// if another worker is starving and the subtree is worth splitting.
    /// Returns `true` if the siblings now belong to the queue.
    fn maybe_donate(&mut self, depth: usize, from: usize, steal: Option<&StealGate<'_>>) -> bool {
        let Some(gate) = steal else {
            return false;
        };
        if self.plan.hint[depth + 1] < gate.min_split_valuations || !gate.queue.wants_work() {
            return false;
        }
        let dom = self.g.domain_by_index(self.plan.order[depth]);
        gate.queue.donate((from..dom.len()).map(|j| {
            let mut prefix = self.path.clone();
            prefix.push(dom[j]);
            prefix
        }));
        true
    }

    /// Counts the valuations satisfying the query over the whole search
    /// tree — one full walk from the root with the [`CountValuations`]
    /// sink, `Satisfied` subtrees credited in closed form and `Refuted`
    /// subtrees discarded.
    pub fn count(&mut self) -> BigNat {
        let mut sink = CountValuations::default();
        self.walk(&mut sink);
        sink.into_total()
    }

    /// Walks the whole search tree from the root in the session's canonical
    /// depth-first order, driving `sink` through its hooks. Returns `true`
    /// if the walk covered the whole tree, `false` if the sink stopped it
    /// early — either way the session is back at its root state
    /// afterwards, ready for the next walk.
    pub fn walk<S>(&mut self, sink: &mut S) -> bool
    where
        S: CompletionVisitor + ?Sized,
    {
        self.rewind();
        self.descend(0, false, None, sink)
    }

    /// Walks one task's subtree: the prefix assigns
    /// `order()[0..prefix.len()]`, and unexplored sibling branches are
    /// donated through `steal` when other workers starve. The sink first
    /// [`enter`](CompletionVisitor::enter)s each prefix level, so a
    /// recording [`PageSink`] drops a task whose ancestor is already served
    /// without binding anything; otherwise the session seeks to the prefix
    /// at reset cost. Returns `false` if the sink stopped the walk.
    pub fn walk_task<S>(
        &mut self,
        prefix: &[Constant],
        steal: Option<&StealGate<'_>>,
        sink: &mut S,
    ) -> bool
    where
        S: CompletionVisitor + ?Sized,
    {
        let mut entered = 0;
        while entered < prefix.len() {
            let dom = self.g.domain_by_index(self.plan.order[entered]);
            let k = dom
                .binary_search(&prefix[entered])
                .expect("task prefixes assign domain values");
            if !sink.enter(entered, k) {
                break;
            }
            entered += 1;
        }
        let keep_going = entered < prefix.len() || {
            self.start_task(prefix);
            self.descend(prefix.len(), false, steal, sink)
        };
        for depth in (0..entered).rev() {
            sink.leave(depth);
        }
        keep_going
    }

    /// The one walk: `decided` records that an ancestor already proved the
    /// query `Satisfied` (no completion below can fail, so checks are
    /// skipped); a donated task re-derives it at its root, since
    /// `Satisfied` is monotone along a binding path.
    fn descend<S>(
        &mut self,
        depth: usize,
        decided: bool,
        steal: Option<&StealGate<'_>>,
        sink: &mut S,
    ) -> bool
    where
        S: CompletionVisitor + ?Sized,
    {
        let decided = decided
            || match self.outcome() {
                PartialOutcome::Satisfied => true,
                PartialOutcome::Refuted => {
                    sink.refuted(depth);
                    return true;
                }
                PartialOutcome::Unknown => false,
            };
        if decided && sink.satisfied(&self.plan.suffix[depth]) {
            return true;
        }
        if depth == self.plan.sep_cut {
            match sink.class_node(&self.g, decided) {
                ClassAction::Descend => {}
                ClassAction::Skip => return true,
                ClassAction::Stop => return false,
                ClassAction::Count => {
                    // Count the class subtree's satisfying valuations —
                    // below the cut they are pairwise-distinct completions.
                    // Donation is disabled inside a class so the count stays
                    // whole; classes above the cut still parallelise.
                    let mut count = CountValuations::default();
                    self.descend(depth, decided, None, &mut count);
                    return sink.class_counted(&count.into_total());
                }
            }
        }
        if depth == self.plan.order.len() {
            let satisfied = decided || {
                self.g
                    .completion_into(&mut self.scratch)
                    .expect("every null is bound at a leaf");
                self.q.holds(&self.scratch)
            };
            let keep_going = !satisfied || sink.leaf(&self.g);
            sink.finished(depth, true);
            return keep_going;
        }
        if decided && depth >= self.plan.sep_cut && sink.generates(depth) {
            self.generate_separable(depth, sink);
            sink.finished(depth, steal.is_none());
            return true;
        }
        let i = self.plan.order[depth];
        let mut keep_going = true;
        let mut last = self.g.domain_by_index(i).len();
        let mut k = 0;
        while keep_going && k < last {
            if k + 1 < last && self.maybe_donate(depth, k + 1, steal) {
                last = k + 1;
            }
            if sink.enter(depth, k) {
                let value = self.g.domain_by_index(i)[k];
                self.g.bind_index(i, value);
                self.path.push(value);
                keep_going = self.descend(depth + 1, decided, steal, sink);
                self.path.pop();
                sink.leave(depth);
            }
            k += 1;
        }
        self.g.unbind_index(i);
        if keep_going {
            sink.finished(depth, steal.is_none());
        }
        keep_going
    }

    /// Closed-form key generation below the separation cut: every
    /// remaining null is separable — single-occurrence, hosted by a clean
    /// fact — so with the query already decided the subtree's satisfying
    /// keys are *exactly* the cross product of the remaining domains. And
    /// because a clean fact's tuple can never equal any other fact's tuple
    /// under any assignment, stepping one null changes exactly one tuple of
    /// the fingerprint in place: no re-sort, no dedup shifts, no binds, no
    /// outcome re-evaluation — just a bubble move of the changed tuple to
    /// its new slot. This is what lets a selection walk emit a separable
    /// subtree at O(1) amortised per key instead of paying the full
    /// per-leaf walk machinery.
    fn generate_separable<S>(&mut self, depth: usize, sink: &mut S)
    where
        S: CompletionVisitor + ?Sized,
    {
        let rest: Vec<usize> = self.plan.order[depth..].to_vec();
        if rest.iter().any(|&i| self.g.domain_by_index(i).is_empty()) {
            return;
        }
        for &i in &rest {
            let v = self.g.domain_by_index(i)[0];
            self.g.bind_index(i, v);
        }
        let mut key = std::mem::take(&mut self.key);
        self.g
            .key_into(self.g.full_key_plan(), &mut key)
            .expect("every null is bound below the cut");
        // Track where each remaining null's tuple sits in the key, and
        // which column it owns. Clean tuples are unique in the key, so the
        // binary search pins each one exactly.
        let mut slots: Vec<(usize, usize)> = rest
            .iter()
            .map(|&i| {
                let occs = self.g.occurrences_of(i);
                debug_assert_eq!(occs.len(), 1, "separable nulls occur exactly once");
                let occ = &occs[0];
                let col = self.g.occurrence_column(occ);
                let fact = occ.fact as usize;
                let probe = (
                    self.g.fact_relation(fact),
                    self.g
                        .fact_values(fact)
                        .iter()
                        .map(|v| v.as_const().expect("fact fully bound"))
                        .collect::<Vec<Constant>>(),
                );
                let at = key
                    .binary_search(&probe)
                    .expect("clean tuples are present and unique");
                (at, col)
            })
            .collect();
        let mut digits = vec![0usize; rest.len()];
        loop {
            debug_assert!(
                key.windows(2).all(|w| w[0] < w[1]),
                "generated fingerprint lost strict sortedness"
            );
            sink.generated(&key);
            // Odometer step: bump the innermost null, carrying leftward;
            // every reset and the final bump each retune one tuple.
            let mut d = rest.len();
            loop {
                if d == 0 {
                    // Every combination emitted: restore the grounding.
                    for &i in rest.iter().rev() {
                        self.g.unbind_index(i);
                    }
                    self.key = key;
                    return;
                }
                d -= 1;
                let dom = self.g.domain_by_index(rest[d]);
                digits[d] += 1;
                if digits[d] < dom.len() {
                    let v = dom[digits[d]];
                    Self::retune_slot(&mut key, &mut slots, d, v);
                    break;
                }
                digits[d] = 0;
                let v = dom[0];
                Self::retune_slot(&mut key, &mut slots, d, v);
            }
        }
    }

    /// Writes `v` into slot `j`'s column and bubbles the changed tuple to
    /// its sorted position, keeping every tracked slot index consistent.
    /// Strict inequalities suffice: a clean tuple never ties with another.
    fn retune_slot(key: &mut CompletionKey, slots: &mut [(usize, usize)], j: usize, v: Constant) {
        let (from, col) = slots[j];
        key[from].1[col] = v;
        let mut at = from;
        while at + 1 < key.len() && key[at] > key[at + 1] {
            key.swap(at, at + 1);
            at += 1;
        }
        while at > 0 && key[at - 1] > key[at] {
            key.swap(at, at - 1);
            at -= 1;
        }
        if at != from {
            for s in slots.iter_mut() {
                // Slots sharing the moved fact's tuple move with it; the
                // slots it crossed shift one step the other way.
                if s.0 == from {
                    s.0 = at;
                } else if from < at && s.0 > from && s.0 <= at {
                    s.0 -= 1;
                } else if at < from && s.0 >= at && s.0 < from {
                    s.0 += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BacktrackingEngine, CountingEngine, Tautology};
    use incdb_data::{NullId, Value};
    use incdb_query::Bcq;

    /// The database of Example 2.2 / Figure 1.
    fn example_2_2() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("S", vec![Value::constant(0), Value::constant(1)])
            .unwrap();
        db.add_fact("S", vec![Value::null(1), Value::constant(0)])
            .unwrap();
        db.add_fact("S", vec![Value::constant(0), Value::null(2)])
            .unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(2), [0u64, 1]).unwrap();
        db
    }

    /// A visitor that stops after `stop_after` leaves — used to abort walks
    /// mid-tree.
    struct StopAfter {
        seen: usize,
        stop_after: usize,
    }

    impl CompletionVisitor for StopAfter {
        fn leaf(&mut self, _g: &Grounding) -> bool {
            self.seen += 1;
            self.seen < self.stop_after
        }
    }

    #[test]
    fn one_session_serves_every_walk_kind() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let mut session = SearchSession::new(&db, &q).unwrap();
        // Count, enumerate, page — all on the same context, interleaved.
        assert_eq!(session.count(), BigNat::from(4u64));
        let mut keys = CollectKeys::default();
        assert!(session.walk(&mut keys));
        assert_eq!(keys.keys.len(), 3);
        let mut page = PageHeap::new();
        session.walk(&mut PageSink::new(None, 2, &mut page));
        assert_eq!(page.len(), 2);
        assert_eq!(session.count(), BigNat::from(4u64));
    }

    #[test]
    fn aborted_walks_leave_the_session_exact() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let mut session = SearchSession::new(&db, &q).unwrap();
        let expected_count = BacktrackingEngine::sequential()
            .count_valuations(&db, &q)
            .unwrap();
        // Interleave aborted (over-budget-style) walks with full walks: the
        // counts never drift.
        for stop_after in [1usize, 2, 3] {
            let mut abort = StopAfter {
                seen: 0,
                stop_after,
            };
            assert!(!session.walk(&mut abort));
            assert_eq!(session.count(), expected_count, "after abort {stop_after}");
        }
    }

    #[test]
    fn forks_are_independent_and_cheap_to_make() {
        let db = example_2_2();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        let mut fork = session.fork();
        // Drive the fork mid-walk state divergently, then check both.
        let mut abort = StopAfter {
            seen: 0,
            stop_after: 2,
        };
        assert!(!fork.walk(&mut abort));
        assert_eq!(session.count(), BigNat::from(6u64));
        assert_eq!(fork.count(), BigNat::from(6u64));
    }

    #[test]
    fn subtree_walks_compose_to_the_full_walk() {
        let db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let mut session = SearchSession::new(&db, &q).unwrap();
        let whole = session.count();
        // Partition the tree by the first null of the order and re-walk it
        // task by task on the same session.
        let first = session.order()[0];
        let dom: Vec<Constant> = session.grounding().domain_by_index(first).to_vec();
        let mut count = CountValuations::default();
        for &value in &dom {
            assert!(session.walk_task(&[value], None, &mut count));
        }
        assert_eq!(count.into_total(), whole);
        session.rewind();

        // Same for the selection walk: per-subtree pages merge to the
        // sequential page.
        let mut sequential = PageHeap::new();
        session.walk(&mut PageSink::new(None, 3, &mut sequential));
        let mut merged = PageHeap::new();
        let mut sink = PageSink::new(None, 3, &mut merged);
        for &value in &dom {
            session.walk_task(&[value], None, &mut sink);
        }
        session.rewind();
        assert_eq!(merged.as_slice(), sequential.as_slice());
    }

    /// A mixed instance: R(⊥0,⊥1) over a shared domain (dirty — the two
    /// R-facts unify), another R(⊥2,⊥3) likewise, plus separable
    /// S(⊥4,c)/S(⊥5,c') facts with distinct second columns.
    fn mixed_instance() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0), Value::null(1)])
            .unwrap();
        db.add_fact("R", vec![Value::null(2), Value::null(3)])
            .unwrap();
        db.add_fact("S", vec![Value::null(4), Value::constant(100)])
            .unwrap();
        db.add_fact("S", vec![Value::null(5), Value::constant(200)])
            .unwrap();
        for n in 0..4u32 {
            db.set_domain(NullId(n), [0u64, 1]).unwrap();
        }
        db.set_domain(NullId(4), [0u64, 1, 2]).unwrap();
        db.set_domain(NullId(5), [0u64, 1, 2]).unwrap();
        db
    }

    /// A class visitor that counts distinct completions the separable way:
    /// dirty-part fingerprints memoised exactly, class subtrees credited
    /// through `class_counted`.
    struct ClassCounter {
        class: ClassPlan,
        seen: HashSet<CompletionKey>,
        scratch: CompletionKey,
        total: BigNat,
        classes: usize,
    }

    impl CompletionVisitor for ClassCounter {
        fn leaf(&mut self, _g: &Grounding) -> bool {
            panic!("a counting class visitor never descends to leaves");
        }
        fn class_node(&mut self, g: &Grounding, _decided: bool) -> ClassAction {
            g.residual_key_into(self.class.plan(g), &mut self.scratch)
                .expect("dirty facts are resolved at the cut");
            if self.seen.contains(&self.scratch) {
                return ClassAction::Skip;
            }
            self.seen.insert(self.scratch.clone());
            self.classes += 1;
            ClassAction::Count
        }
        fn class_counted(&mut self, distinct: &BigNat) -> bool {
            self.total = &self.total + distinct;
            true
        }
    }

    #[test]
    fn class_counting_matches_leaf_walk_distinct_counts() {
        for (db, expect_classes_below) in [
            (mixed_instance(), true),
            (example_2_2(), false), // nothing separable: cut at the leaves
        ] {
            let q = Tautology;
            let mut session = SearchSession::new(&db, &q).unwrap();
            let cut = session.separation_cut();
            assert!(cut <= session.order().len());
            if expect_classes_below {
                assert!(cut < session.order().len(), "separable nulls demoted");
            }
            let mut reference = CollectKeys::default();
            session.walk(&mut reference);
            let mut counter = ClassCounter {
                class: session.class_plan(),
                seen: HashSet::new(),
                scratch: CompletionKey::new(),
                total: BigNat::zero(),
                classes: 0,
            };
            assert!(session.walk(&mut counter));
            assert_eq!(counter.total, BigNat::from(reference.keys.len() as u64));
            // Interleaving with other walk kinds keeps the session exact.
            assert_eq!(session.count(), session.count());
        }
    }

    #[test]
    fn class_stop_aborts_the_walk() {
        struct StopAtFirstClass;
        impl CompletionVisitor for StopAtFirstClass {
            fn leaf(&mut self, _g: &Grounding) -> bool {
                panic!("never reaches a leaf");
            }
            fn class_node(&mut self, _g: &Grounding, _decided: bool) -> ClassAction {
                ClassAction::Stop
            }
        }
        let db = mixed_instance();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        assert!(!session.walk(&mut StopAtFirstClass));
        // The aborted walk rewinds cleanly.
        assert!(session.count() > BigNat::zero());
    }

    #[test]
    fn recorded_pages_reproduce_the_unpruned_sequence() {
        let db = mixed_instance();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        for cap_nodes in [1usize, 8, 64, 4096] {
            let mut summary = PageSummary::plan(session.grounding(), session.order(), cap_nodes);
            let mut plain: Vec<CompletionKey> = Vec::new();
            let mut pruned: Vec<CompletionKey> = Vec::new();
            let mut exhausted_early = false;
            loop {
                let mut page = PageHeap::new();
                session.walk(&mut PageSink::new(plain.last(), 3, &mut page));
                let done = page.len() < 3;
                plain.extend(page.drain());
                if done {
                    break;
                }
            }
            loop {
                if summary.served(pruned.last()) {
                    exhausted_early = true;
                    break;
                }
                let mut page = PageHeap::new();
                let mut sheet = summary.worksheet();
                let mut sink =
                    PageSink::new(pruned.last(), 3, &mut page).recording(&summary, &mut sheet);
                session.walk(&mut sink);
                summary.absorb([sheet.as_slice()]);
                let done = page.len() < 3;
                pruned.extend(page.drain());
                if done {
                    break;
                }
            }
            assert_eq!(plain, pruned, "cap_nodes {cap_nodes}");
            // After one full drain the root span is known, so the summary
            // proves exhaustion for the final cursor.
            assert!(summary.served(pruned.last()), "cap_nodes {cap_nodes}");
            assert!(summary.resident_keys() > 0);
            let _ = exhausted_early;
        }
    }

    #[test]
    fn subtree_recorded_walks_merge_like_sequential_ones() {
        let db = mixed_instance();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        let first = session.order()[0];
        let dom: Vec<Constant> = session.grounding().domain_by_index(first).to_vec();
        // An idle gate never donates (no worker starves), but a gated task
        // walk must still assume it might have and mark no completed node
        // empty; an ungated one covers its subtree alone.
        let queue = TaskQueue::new(Vec::new());
        let gate = StealGate {
            queue: &queue,
            min_split_valuations: 1,
        };
        for steal in [None, Some(&gate)] {
            let mut summary = PageSummary::plan(session.grounding(), session.order(), 64);
            let mut after: Option<CompletionKey> = None;
            let mut expected_pages: Vec<CompletionKey> = Vec::new();
            let mut got_pages: Vec<CompletionKey> = Vec::new();
            loop {
                // Reference page, unpruned sequential walk.
                let mut reference = PageHeap::new();
                session.walk(&mut PageSink::new(after.as_ref(), 4, &mut reference));
                // Parallel-style fill: one recorded task walk per
                // first-level branch, each with its own worksheet, merged
                // afterwards.
                let mut merged = PageHeap::new();
                let mut sheets: Vec<Vec<Mark>> = Vec::new();
                for &value in &dom {
                    let mut sheet = summary.worksheet();
                    let mut sink = PageSink::new(after.as_ref(), 4, &mut merged)
                        .recording(&summary, &mut sheet);
                    assert!(session.walk_task(&[value], steal, &mut sink));
                    sheets.push(sheet);
                }
                session.rewind();
                summary.absorb(sheets.iter().map(Vec::as_slice));
                assert_eq!(merged.as_slice(), reference.as_slice());
                let done = reference.len() < 4;
                expected_pages.extend(reference.iter().cloned());
                got_pages.extend(merged.drain());
                after = expected_pages.last().cloned();
                if done {
                    break;
                }
            }
            assert_eq!(expected_pages, got_pages);
            assert!(
                summary.served(after.as_ref()),
                "root span known after drain"
            );
        }
    }

    /// Two disjoint single-null facts whose constant columns keep the DFS
    /// order of leaves aligned with the canonical key order: the ⊥0 tuple
    /// always sorts below the ⊥1 tuple, so the subtree ⊥0 = 0 owns exactly
    /// the smallest block of completion keys.
    fn key_local_instance() -> IncompleteDatabase {
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0), Value::constant(10)])
            .unwrap();
        db.add_fact("R", vec![Value::null(1), Value::constant(20)])
            .unwrap();
        db.set_domain(NullId(0), [0u64, 1]).unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2]).unwrap();
        db
    }

    #[test]
    fn donating_task_walks_leave_partially_walked_nodes_unmarked() {
        // R(⊥0) under R(1): the ⊥0 = 0 branch is refuted, the ⊥0 = 1
        // branch holds every completion. A task walk that donates the
        // second branch observes nothing, yet must not mark the root
        // (the summary's only node) empty.
        let mut db = IncompleteDatabase::new_non_uniform();
        db.add_fact("R", vec![Value::null(0)]).unwrap();
        db.add_fact("S", vec![Value::null(1)]).unwrap();
        db.set_domain(NullId(0), [0u64, 1]).unwrap();
        db.set_domain(NullId(1), [0u64, 1, 2, 3]).unwrap();
        let q: Bcq = "R(1)".parse().unwrap();
        let mut session = SearchSession::new(&db, &q).unwrap();
        let mut summary = PageSummary::plan(session.grounding(), session.order(), 1);
        assert_eq!(summary.depth(), 0);

        let queue = TaskQueue::new(vec![Vec::new()]);
        let root = queue.next_task().unwrap();
        let (mut kept, mut kept_sheet) = (PageHeap::new(), summary.worksheet());
        // Assertions wait until the thief is joined: a panic inside the
        // scope would leave it blocked on the queue forever.
        let donated = std::thread::scope(|scope| {
            let thief = scope.spawn(|| {
                let mut donated = Vec::new();
                while let Some(prefix) = queue.next_task() {
                    donated.push(prefix);
                    queue.finish_task();
                }
                donated
            });
            while !queue.wants_work() {
                std::thread::yield_now();
            }
            let gate = StealGate {
                queue: &queue,
                min_split_valuations: 1,
            };
            let mut sink = PageSink::new(None, 8, &mut kept).recording(&summary, &mut kept_sheet);
            session.walk_task(&root, Some(&gate), &mut sink);
            queue.finish_task();
            thief.join().unwrap()
        });
        assert!(kept.is_empty(), "the kept branch is refuted");
        assert_eq!(
            kept_sheet,
            [Mark::Unvisited],
            "a donating walk marks nothing"
        );
        assert!(!donated.is_empty(), "the walk donated its sibling branch");
        let (mut page, mut sheet) = (PageHeap::new(), summary.worksheet());
        let mut sink = PageSink::new(None, 8, &mut page).recording(&summary, &mut sheet);
        for prefix in &donated {
            session.walk_task(prefix, None, &mut sink);
        }
        summary.absorb([sheet.as_slice()]);
        assert_eq!(page.len(), 4);
        assert!(summary.served(page.last()));
        assert!(!summary.served(None));
    }

    #[test]
    fn summary_prunes_visits_not_just_in_theory() {
        // On a key-local instance the first page exhausts an entire
        // first-level subtree, and the recorded summary must prove it: the
        // subtree's span max lies at or below the cursor, so the next walk
        // is entitled to skip the subtree without descending into it.
        let db = key_local_instance();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        let mut summary = PageSummary::plan(session.grounding(), session.order(), 64);
        assert!(summary.depth() >= 1, "two levels fit under 64 nodes");
        // First page, recorded: the 3 completions with ⊥0 = 0 sort first.
        let mut page = PageHeap::new();
        let mut sheet = summary.worksheet();
        session.walk(&mut PageSink::new(None, 3, &mut page).recording(&summary, &mut sheet));
        summary.absorb([sheet.as_slice()]);
        assert_eq!(page.len(), 3);
        let cursor = page.last().cloned().unwrap();
        let served_nodes = (0..summary.levels[1].len())
            .filter(|&n| match &summary.levels[1][n] {
                Mark::Span(_, max) => *max <= cursor,
                Mark::Empty => true,
                Mark::Unvisited => false,
            })
            .count();
        assert_eq!(
            served_nodes, 1,
            "first page must fully serve exactly the ⊥0 = 0 subtree"
        );
        // The pruned second page still returns the correct remainder.
        let mut rest = PageHeap::new();
        let mut sheet = summary.worksheet();
        let mut sink = PageSink::new(Some(&cursor), 8, &mut rest).recording(&summary, &mut sheet);
        session.walk(&mut sink);
        summary.absorb([sheet.as_slice()]);
        assert_eq!(rest.len(), 3, "three completions remain past the cursor");
        assert!(rest.iter().all(|k| *k > cursor));
        assert!(
            summary.served(rest.last()),
            "root span proves exhaustion after the drain"
        );
    }

    #[test]
    fn quiesce_restores_the_check_in_invariant_after_any_walk() {
        let db = mixed_instance();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        assert!(session.is_quiescent(), "fresh sessions are quiescent");
        // A completed walk rewinds itself.
        let _ = session.count();
        assert!(session.is_quiescent());
        // A direct subtree walk leaves bound state behind; quiesce clears it.
        let first = session.order()[0];
        let value = session.grounding().domain_by_index(first)[0];
        session.walk_task(&[value], None, &mut CountValuations::default());
        assert!(!session.is_quiescent(), "task walks leave a bound path");
        session.quiesce();
        assert!(session.is_quiescent());
        // An aborted walk likewise checks back in cleanly.
        let mut abort = StopAfter {
            seen: 0,
            stop_after: 1,
        };
        assert!(!session.walk(&mut abort));
        session.quiesce();
        assert!(session.is_quiescent());
        // 4 nulls over {0,1} and 2 nulls over {0,1,2}: 2⁴·3² valuations.
        assert_eq!(session.count(), BigNat::from(144u64));
    }

    #[test]
    fn refresh_worksheet_reuses_the_allocation() {
        let db = mixed_instance();
        let q = Tautology;
        let session = SearchSession::new(&db, &q).unwrap();
        let summary = PageSummary::plan(session.grounding(), session.order(), 64);
        let mut sheet = summary.worksheet();
        let len = sheet.len();
        let cap = sheet.capacity();
        sheet[0] = Mark::Empty;
        summary.refresh_worksheet(&mut sheet);
        assert_eq!(sheet.len(), len);
        assert!(sheet.iter().all(|m| matches!(m, Mark::Unvisited)));
        assert_eq!(sheet.capacity(), cap, "refresh must not reallocate");
    }

    #[test]
    fn select_page_pages_in_canonical_order() {
        let db = example_2_2();
        let q = Tautology;
        let mut session = SearchSession::new(&db, &q).unwrap();
        // Drain 5 completions two at a time through the keyset protocol.
        let mut seen: Vec<CompletionKey> = Vec::new();
        loop {
            let mut page = PageHeap::new();
            session.walk(&mut PageSink::new(seen.last(), 2, &mut page));
            let got = page.len();
            seen.extend(page.drain());
            if got < 2 {
                break;
            }
        }
        assert_eq!(seen.len(), 5);
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, seen, "pages arrive sorted and distinct");
    }

    #[test]
    fn advance_to_matches_a_fresh_session() {
        let mut db = example_2_2();
        let q: Bcq = "S(x,x)".parse().unwrap();
        let mut session = SearchSession::new(&db, &q).unwrap();
        assert_eq!(session.count(), BigNat::from(4u64));
        let built_at = db.revision();

        // Ground insert, null insert (known null), ground removal.
        db.add_fact("S", vec![Value::constant(2), Value::constant(2)])
            .unwrap();
        db.add_fact("S", vec![Value::null(1), Value::constant(1)])
            .unwrap();
        assert!(db.remove_fact("S", &vec![Value::constant(0), Value::constant(1)]));
        // advance_to requires the check-in state a pool shelves at.
        session.quiesce();
        assert!(session.advance_to(&db, built_at));

        // Counts and full page sequences agree with a fresh build.
        let mut fresh = SearchSession::new(&db, &q).unwrap();
        assert_eq!(session.count(), fresh.count());
        let (mut a, mut b) = (PageHeap::new(), PageHeap::new());
        session.walk(&mut PageSink::new(None, 64, &mut a));
        fresh.walk(&mut PageSink::new(None, 64, &mut b));
        assert!(
            !a.is_empty(),
            "the patched instance still satisfies the query"
        );
        assert_eq!(a.as_slice(), b.as_slice(), "patched ≡ fresh, key for key");

        // A no-op gap advances trivially; a truncated gap refuses.
        session.quiesce();
        assert!(session.advance_to(&db, db.revision()));
        assert!(!session.advance_to(&db, 0));
        // Structural writes (a new relation) are barriers: refuse, rebuild.
        let at = db.revision();
        db.add_fact("T", vec![Value::constant(0)]).unwrap();
        assert!(!session.advance_to(&db, at));
    }
}
