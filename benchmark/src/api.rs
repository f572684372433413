//! The one place the benchmark names items of the repository.
//!
//! Every other file imports repo types through here, so an inner refactor
//! of the engine breaks at most this file, and the fix is a benchmark-only
//! change. The end-to-end driver ([`crate::workloads`], [`crate::server`])
//! uses only [`e2e`]; the per-layer probes ([`crate::probes`]) also use
//! [`layers`].

/// What the served, end-to-end path needs: a session to put behind the
/// server, the two delta handlers the paper's listings name, the wire
/// client, and the seeded graph generator.
pub mod e2e {
    pub use rex::algos::pagerank::PrAgg;
    pub use rex::algos::sssp::SpAgg;
    pub use rex::core::handlers::FlippedJoin;
    pub use rex::core::tuple::Tuple;
    pub use rex::core::value::Value;
    pub use rex::data::graph::{generate_graph, GraphSpec};
    pub use rex::Session;
    pub use rex_server::{protocol, Client, Server, ServerConfig};
}

/// What the in-process per-layer probes call in addition.
pub mod layers {
    pub use rex::core::delta::Delta;
    pub use rex::core::exec::LocalRuntime;
    pub use rex::core::telemetry::ExecTrace;
    pub use rex::core::thread_budget::set_budget as set_thread_budget;
    pub use rex::core::tuple::Schema;
    pub use rex::core::udf::Registry;
    pub use rex::core::value::DataType;
    pub use rex::{ClusterEngine, Engine, EngineContext, LocalEngine, QueryResult};
    pub use rex_optimizer::Optimizer;
    pub use rex_rql::logical;
    pub use rex_rql::lower::lower;
    pub use rex_rql::{parse, CatalogProvider, SchemaCatalog, Statement};
    pub use rex_storage::catalog::Catalog;
    pub use rex_storage::table::StoredTable;
    pub use rex_views::{MaterializedView, ViewCatalog};
}
