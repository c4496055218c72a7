//! # incdb-data
//!
//! The relational substrate of the `incdb` workspace: complete databases,
//! incomplete databases (naïve tables and Codd tables, with uniform or
//! non-uniform null domains), valuations and completions — Section 2 of
//! Arenas, Barceló & Monet, *Counting Problems over Incomplete Databases*
//! (PODS 2020).
//!
//! ## Data model
//!
//! * A [`Constant`] is an element of the countably infinite set **Consts**;
//!   constants are represented by integer identifiers, with an optional
//!   [`ConstantPool`] to attach human-readable names.
//! * A [`NullId`] is a labelled null `⊥ᵢ` from the set **Nulls**.
//! * A [`Value`] is either a constant or a null, and a fact is a relation
//!   name applied to a tuple of values.
//! * A [`Database`] is a finite set of ground facts (a complete database).
//! * An [`IncompleteDatabase`] is a naïve table `T` together with a domain
//!   assignment `dom` — either one finite set of constants per null
//!   (non-uniform) or a single shared finite set (uniform).
//! * A [`Valuation`] maps every null of the table to a constant of its
//!   domain; applying it yields a completion ([`IncompleteDatabase::apply`]),
//!   with duplicate facts removed (set semantics).
//!
//! ## Example (Example 2.2 / Figure 1 of the paper)
//!
//! ```
//! use incdb_data::{IncompleteDatabase, NullId, Value};
//!
//! let b1 = NullId(1);
//! let b2 = NullId(2);
//! let mut db = IncompleteDatabase::new_non_uniform();
//! // T = { S(a,b), S(⊥1,a), S(a,⊥2) } with a = 0, b = 1, c = 2.
//! db.add_fact("S", vec![Value::constant(0), Value::constant(1)]).unwrap();
//! db.add_fact("S", vec![Value::Null(b1), Value::constant(0)]).unwrap();
//! db.add_fact("S", vec![Value::constant(0), Value::Null(b2)]).unwrap();
//! db.set_domain(b1, [0u64, 1, 2]).unwrap();
//! db.set_domain(b2, [0u64, 1]).unwrap();
//!
//! assert_eq!(db.valuation_count().to_u64(), Some(6));
//! assert_eq!(db.valuations().count(), 6);
//! assert!(db.is_codd()); // each null occurs exactly once
//! ```

pub mod database;
pub mod domain;
pub mod error;
pub mod fingerprint;
pub mod grounding;
pub mod incomplete;
pub mod interner;
pub mod scanmask;
pub mod table;
pub mod valuation;
pub mod value;

pub use database::{Database, GroundFact};
pub use domain::{Domain, DomainAssignment};
pub use error::DataError;
pub use fingerprint::{
    fingerprint_hash, key_heap_bytes, materialize_completion, CompletionKey, HashRange, PageHeap,
};
pub use grounding::{Grounding, KeyPlan, Occurrence, Separability, Splice};
pub use incomplete::{DeltaOp, IncompleteDatabase, IncompleteFact, NullDomains, DELTA_LOG_CAP};
pub use interner::{ConstantPool, RelId, SymbolRegistry};
pub use scanmask::{ScanMask, WORD_BITS};
pub use table::{FactId, Table};
pub use valuation::{Valuation, ValuationIter};
pub use value::{Constant, NullId, Value};
