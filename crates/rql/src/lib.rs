//! # rex-rql
//!
//! The RQL language front-end (§3): a SQL dialect extended with
//!
//! * recursion — `WITH R (cols) AS (base) UNION [ALL] UNTIL FIXPOINT BY
//!   key (step)` — executed stratum-by-stratum on the REX engine;
//! * user-defined aggregators and delta handlers referenced by name, with
//!   table-valued destructuring `F(args).{a, b}` (Listings 1–3);
//! * seamless use of user code registered in the engine's
//!   [`Registry`](rex_core::udf::Registry) without DDL.
//!
//! The relational surface is complete: `SELECT [DISTINCT] … [WHERE]
//! [GROUP BY] [HAVING] [ORDER BY … [LIMIT n [OFFSET m]]]` with
//! aggregates over arbitrary scalar expressions, plus `CREATE TABLE`,
//! `CREATE MATERIALIZED VIEW`, and `DROP` DDL. The authoritative
//! language reference is `docs/RQL.md` at the repository root.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`resolve`] (names & types against a
//! schema catalog) → [`logical`] plan → [`lower`] to a physical
//! [`PlanGraph`](rex_core::exec::PlanGraph) runnable on the local or
//! cluster runtime.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod logical;
pub mod lower;
pub mod parser;
pub mod provider;
pub mod resolve;

pub use ast::{Query, Statement};
pub use error::{RqlError, RqlStage};
pub use logical::LogicalPlan;
pub use lower::{lower_parallel, lower_with, LowerOptions, TableProvider};
pub use parser::parse;
pub use provider::{CatalogProvider, PartitionProvider};
pub use resolve::SchemaCatalog;

/// Parse and plan RQL text into a [`LogicalPlan`], tagging failures with
/// the front-end stage ([`RqlStage::Parse`] vs [`RqlStage::Plan`]) so the
/// caller can `?`-convert them into engine errors without losing where
/// the query died.
pub fn plan_rql(
    src: &str,
    catalog: &SchemaCatalog,
    reg: &rex_core::udf::Registry,
) -> std::result::Result<LogicalPlan, RqlError> {
    let stmt = parser::parse(src).map_err(|e| RqlError::at(RqlStage::Parse, e))?;
    logical::plan(&stmt, catalog, reg).map_err(|e| RqlError::at(RqlStage::Plan, e))
}
