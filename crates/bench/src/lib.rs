//! # incdb-bench
//!
//! Shared instance builders for the Criterion benchmarks and the
//! `experiments` binary that regenerates every table and figure of the
//! paper (see `EXPERIMENTS.md` at the workspace root).

use incdb_data::{IncompleteDatabase, Value};

/// A `#Valᵘ(R(x) ∧ S(x))`-style instance (tractable cell of Table 1):
/// `nulls_per_relation` nulls in each of R and S, plus one shared constant
/// block, over a uniform domain of size `domain_size`.
pub fn uniform_two_unary_relations(
    nulls_per_relation: u32,
    domain_size: u64,
) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..domain_size);
    for i in 0..nulls_per_relation {
        db.add_fact("R", vec![Value::null(i)]).unwrap();
        db.add_fact("S", vec![Value::null(nulls_per_relation + i)])
            .unwrap();
    }
    db.add_fact("R", vec![Value::constant(0)]).unwrap();
    db.add_fact("S", vec![Value::constant(1)]).unwrap();
    db
}

/// A `#Valᵘ(R(x,x))`-style instance (hard cell of Table 1): a cycle of
/// `nulls` nulls encoded as binary facts, exactly the Proposition 3.4 shape.
pub fn uniform_self_loop_cycle(nulls: u32, domain_size: u64) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..domain_size);
    for i in 0..nulls {
        let j = (i + 1) % nulls;
        db.add_fact("R", vec![Value::null(i), Value::null(j)])
            .unwrap();
    }
    db
}

/// A skewed instance for scheduler benchmarks: a gating null `⊥s` with
/// domain `{0, 1}` behind the unary fact `S(⊥s)`, in front of an `R(x,x)`
/// cycle of `nulls` nulls over domains of size `domain_size`. Paired with
/// the query `S(0), R(x,x)`, the branch `⊥s ↦ 1` refutes at the root while
/// `⊥s ↦ 0` opens the whole cycle subtree — so a static partition of the
/// search prefix leaves half its workers idle, and a work-stealing
/// scheduler gets to prove itself. (The smallest-domain-first search order
/// explores `⊥s` first whenever `domain_size > 2`.)
pub fn skewed_switch_cycle(nulls: u32, domain_size: u64) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    let switch = incdb_data::NullId(nulls);
    db.set_domain(switch, [0u64, 1]).unwrap();
    db.add_fact("S", vec![Value::Null(switch)]).unwrap();
    for i in 0..nulls {
        let j = (i + 1) % nulls;
        db.set_domain(incdb_data::NullId(i), 0..domain_size)
            .unwrap();
        db.add_fact("R", vec![Value::null(i), Value::null(j)])
            .unwrap();
    }
    db
}

/// A deep instance for per-node evaluation benchmarks: an `R(x,x)` cycle of
/// `nulls` (16+) nulls over a **binary** domain — `2^nulls` valuations whose
/// search tree is tall and narrow, stressing how much work the residual
/// evaluator performs per bind.
pub fn deep_null_cycle(nulls: u32) -> IncompleteDatabase {
    uniform_self_loop_cycle(nulls, 2)
}

/// A "wide table" instance for session-reuse benchmarks: an `R(x,x)` cycle
/// of `nulls` nulls over a uniform domain of size `domain_size`, embedded
/// in a table with `ground_facts` additional ground binary facts
/// `R(c, c+1)` (constants outside the domain, never self-loops, so they
/// decide nothing). The search tree stays small (`domain_size^nulls`
/// leaves) while the per-walk *setup* — building the grounding and
/// classifying every fact of `R` against the query's atoms — scales with
/// the table: a rebuild-per-range driver pays for the table on every hash
/// range, a rewound search session pays once per worker.
pub fn wide_ground_cycle(nulls: u32, domain_size: u64, ground_facts: u64) -> IncompleteDatabase {
    let mut db = uniform_self_loop_cycle(nulls, domain_size);
    for c in 0..ground_facts {
        let base = domain_size + 2 * c;
        db.add_fact("R", vec![Value::constant(base), Value::constant(base + 1)])
            .unwrap();
    }
    db
}

/// A large mostly-ground instance for the bulk-execution rows: a two-null
/// `R(⊥0,⊥1), R(⊥1,⊥0)` cycle over the binary domain `{0, 1}`, under
/// `ground_facts` ground chain facts `(c, c+1)` with constants starting at
/// `2` (outside the domain, never self-loops — they decide nothing). The
/// chain is split between `R` and `S` by `r_percent` (`50` ⇒ uniform
/// relation sizes, `99` ⇒ `R` holds ~99% of the table), so the same builder
/// covers both the skewed and uniform shapes at 10⁵–10⁶ facts. Against
/// `R(x,x)` the search tree has 4 leaves (2 satisfying) regardless of
/// `ground_facts`: all the weight is in per-fact classification, exactly
/// what the block-scan and large-count rows measure.
pub fn large_ground_instance(ground_facts: u64, r_percent: u64) -> IncompleteDatabase {
    assert!(r_percent <= 100, "r_percent is a percentage");
    let mut db = IncompleteDatabase::new_uniform(0..2u64);
    db.add_fact("R", vec![Value::null(0), Value::null(1)])
        .unwrap();
    db.add_fact("R", vec![Value::null(1), Value::null(0)])
        .unwrap();
    db.declare_relation("S");
    for c in 0..ground_facts {
        let base = 2 + 2 * c;
        let rel = if c % 100 < r_percent { "R" } else { "S" };
        db.add_fact(rel, vec![Value::constant(base), Value::constant(base + 1)])
            .unwrap();
    }
    db
}

/// A worst-case join instance for the sort-merge rows, paired with the
/// query `R(0, x), S(x, y)`: `R` holds `selected` facts `(0, 10+k)` plus
/// one null fact `(0, ⊥0)` (domain `{2, 3}`) plus `r_noise` facts whose
/// first column is ≥ 10⁶ (excluded by the constant `0`); `S` holds
/// `s_facts` ground facts `(10⁹+2k, 10⁹+2k+1)`. The two sides' key sets
/// (`x` = `R` column 1 vs `S` column 0) are disjoint in every completion,
/// so the join is always refuted only after exhausting the candidate
/// space — `O(selected · s_facts)` partial-map extensions for the
/// backtracking join, one sort + galloping intersection for the merge.
pub fn merge_join_instance(selected: u64, r_noise: u64, s_facts: u64) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(2..4u64);
    db.add_fact("R", vec![Value::constant(0), Value::null(0)])
        .unwrap();
    for k in 0..selected {
        db.add_fact("R", vec![Value::constant(0), Value::constant(10 + k)])
            .unwrap();
    }
    for k in 0..r_noise {
        let c = 1_000_000 + k;
        db.add_fact("R", vec![Value::constant(c), Value::constant(c)])
            .unwrap();
    }
    for k in 0..s_facts {
        let c = 1_000_000_000 + 2 * k;
        db.add_fact("S", vec![Value::constant(c), Value::constant(c + 1)])
            .unwrap();
    }
    db
}

/// A uniform Codd table with one binary relation of `facts` rows of fresh
/// nulls — the `#Compᵘ_Cd(R(x,y))` hard cell (Proposition 4.5(b) shape).
pub fn uniform_codd_binary(facts: u32, domain_size: u64) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..domain_size);
    for i in 0..facts {
        db.add_fact("R", vec![Value::null(2 * i), Value::null(2 * i + 1)])
            .unwrap();
    }
    db
}

/// A mixed dirty/separable instance for the budgeted streaming rows:
/// `dirty_pairs` Codd rows `R(⊥, ⊥)` of fresh nulls (pairwise unifiable,
/// so every one is dirty) next to `separable` rows `S(⊥, c)` whose
/// distinct constant columns make them pairwise non-unifiable — each `S`
/// null is single-occurrence and separable. Over the uniform domain
/// `{0, …, domain_size−1}` the distinct-completion count factors as
/// `(#distinct R-parts) × domain_size^separable`: a class-counting walk
/// enumerates only the `domain_size^(2·dirty_pairs)` dirty valuations and
/// credits each class's separable subtree in closed form, while a
/// leaf-enumerating baseline must touch every one of the
/// `domain_size^(2·dirty_pairs + separable)` valuations.
pub fn mixed_separable_instance(
    dirty_pairs: u32,
    separable: u32,
    domain_size: u64,
) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..domain_size);
    for i in 0..dirty_pairs {
        db.add_fact("R", vec![Value::null(2 * i), Value::null(2 * i + 1)])
            .unwrap();
    }
    for j in 0..separable {
        // Constants outside the domain and distinct per fact: never equal
        // to a completed null column, never unifiable across rows.
        db.add_fact(
            "S",
            vec![
                Value::null(2 * dirty_pairs + j),
                Value::constant(domain_size + 100 + j as u64),
            ],
        )
        .unwrap();
    }
    db
}

/// A key-locality instance for the cursor-pruned paging rows: `nulls`
/// facts `R(c_i, ⊥i)` with strictly ascending first-column constants
/// (outside the uniform domain), one fresh null each, under
/// `ground_facts` ground rows whose constants sort *below* every band.
/// Every completion key lists the shared ground block first and the band
/// tuples in the fixed `c_0 < c_1 < …` order after it, so the canonical
/// key order is exactly the lexicographic order of `(⊥0, ⊥1, …)` — which
/// is also the session's depth-first order. Pages therefore retire whole
/// search subtrees, the regime where a page walk's recorded subtree
/// summary prunes every already-served prefix. The shared ground block
/// makes every whole-completion comparison walk an identical prefix —
/// the cost an unbounded sorted materialised set pays `O(log n)` times
/// per completion, and a fingerprint-paged stream only a bounded number
/// of times.
pub fn key_local_band_instance(
    nulls: u32,
    domain_size: u64,
    ground_facts: u64,
) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..domain_size);
    for c in 0..ground_facts {
        let base = domain_size + 2 * c;
        db.add_fact("R", vec![Value::constant(base), Value::constant(base + 1)])
            .unwrap();
    }
    for i in 0..nulls {
        let band = domain_size + 2 * ground_facts + 1000 * (i as u64 + 1);
        db.add_fact("R", vec![Value::constant(band), Value::null(i)])
            .unwrap();
    }
    db
}

/// The bounded-streaming large-instance shape: `ground_facts` ground rows
/// `R(base, base+1)` (constants from `1000` up, outside the domain) under
/// two dirty rows `R(⊥0,⊥1)`, `R(⊥2,⊥3)` and `separable` clean rows
/// `S(⊥, c)` with distinct constant columns, all nulls over the uniform
/// domain `{0, 1, 2}`. The distinct-completion count is analytic:
/// the dirty part contributes the 45 distinct one-or-two-element subsets
/// of the 9 pairs (9 singletons + 36 pairs), the separable part a
/// `3^separable` factor, and the ground table nothing — so the exact
/// count is `45 · 3^separable` however wide the table. A canonical class
/// key would span the whole ground table; the residual class keys of the
/// sharded counters hold only the resolved dirty rows, so their resident
/// bytes stay flat as `ground_facts` grows.
pub fn bounded_stream_large_instance(ground_facts: u64, separable: u32) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..3u64);
    db.add_fact("R", vec![Value::null(0), Value::null(1)])
        .unwrap();
    db.add_fact("R", vec![Value::null(2), Value::null(3)])
        .unwrap();
    for j in 0..separable {
        db.add_fact(
            "S",
            vec![Value::null(4 + j), Value::constant(100 + j as u64)],
        )
        .unwrap();
    }
    for c in 0..ground_facts {
        let base = 1000 + 2 * c;
        db.add_fact("R", vec![Value::constant(base), Value::constant(base + 1)])
            .unwrap();
    }
    db
}

/// A uniform unary instance for the Theorem 4.6 completion-counting
/// algorithm: two unary relations sharing a few nulls.
pub fn uniform_unary_completions_instance(nulls: u32, domain_size: u64) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_uniform(0..domain_size);
    for i in 0..nulls {
        db.add_fact("R", vec![Value::null(i)]).unwrap();
        if i % 2 == 0 {
            db.add_fact("S", vec![Value::null(i)]).unwrap();
        } else {
            db.add_fact("S", vec![Value::null(nulls + i)]).unwrap();
        }
    }
    db.add_fact("R", vec![Value::constant(0)]).unwrap();
    db
}

/// A non-uniform Codd instance for the Theorem 3.7 algorithm: `facts` rows
/// `R(⊥, ⊥)` with overlapping two-element domains.
pub fn codd_self_loop_instance(facts: u32, domain_size: u64) -> IncompleteDatabase {
    let mut db = IncompleteDatabase::new_non_uniform();
    for i in 0..facts {
        let left = incdb_data::NullId(2 * i);
        let right = incdb_data::NullId(2 * i + 1);
        db.set_domain(left, 0..domain_size).unwrap();
        db.set_domain(right, (domain_size / 2)..(domain_size + domain_size / 2))
            .unwrap();
        db.add_fact("R", vec![Value::Null(left), Value::Null(right)])
            .unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_the_advertised_shapes() {
        let db = uniform_two_unary_relations(3, 4);
        assert!(db.is_uniform());
        assert_eq!(db.nulls().len(), 6);

        let db = uniform_self_loop_cycle(5, 3);
        assert_eq!(db.nulls().len(), 5);
        assert!(!db.is_codd());

        let db = uniform_codd_binary(4, 3);
        assert!(db.is_codd());
        assert_eq!(db.nulls().len(), 8);

        let db = wide_ground_cycle(4, 3, 100);
        assert_eq!(db.nulls().len(), 4);
        assert!(db.is_uniform());
        db.validate().unwrap();

        let db = uniform_unary_completions_instance(4, 5);
        assert!(db.is_uniform());

        let skewed = large_ground_instance(1_000, 99);
        assert_eq!(skewed.nulls().len(), 2);
        assert!(skewed.is_uniform());
        skewed.validate().unwrap();
        let uniform = large_ground_instance(1_000, 50);
        assert!(uniform.is_uniform());
        uniform.validate().unwrap();

        let db = merge_join_instance(8, 16, 32);
        assert_eq!(db.nulls().len(), 1);
        assert!(db.is_uniform());
        db.validate().unwrap();

        let db = mixed_separable_instance(2, 3, 3);
        assert_eq!(db.nulls().len(), 7);
        assert!(db.is_uniform());
        db.validate().unwrap();

        let db = key_local_band_instance(4, 3, 20);
        assert_eq!(db.nulls().len(), 4);
        assert!(db.is_codd());
        db.validate().unwrap();

        let db = bounded_stream_large_instance(50, 2);
        assert_eq!(db.nulls().len(), 6);
        assert!(db.is_uniform());
        db.validate().unwrap();

        let db = codd_self_loop_instance(3, 4);
        assert!(db.is_codd());
        assert!(!db.is_uniform());
        db.validate().unwrap();
    }
}
