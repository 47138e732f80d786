//! `congest-serve`: batched simulation-as-a-service over the CONGEST
//! simulator.
//!
//! A long-lived process reads schema-versioned JSONL requests (stdin or a
//! Unix socket), accumulates detection queries, and on `flush` (or end of
//! input) executes the batch over the vendored rayon pool — answering each
//! query with a compact v3 run report, then the batch with a
//! [`congest::MetricsSnapshot`] of cache traffic and aggregate cost.
//!
//! Expensive reusables are **content-addressed**: generated graphs are
//! keyed by `generator:params:seed` ([`GraphSpec::cache_key`]), staged
//! clique topologies ([`congest::Prepared`]: shard plan, CSR handles,
//! bandwidth/round budget) by the graph key they derive from. A cache hit
//! shares the `Arc<Graph>` — including its lazily-packed adjacency bitset
//! — so a 100-query batch over one graph generates it once.
//!
//! Output is deterministic: byte-identical at any `RAYON_NUM_THREADS`
//! (see `service` module docs for the contract, and DESIGN.md §8 for the
//! protocol).
//!
//! ```text
//! $ congest-serve < requests.jsonl > responses.jsonl
//! $ congest-serve --socket /tmp/congest.sock --cache-cap 64
//! ```

pub mod cache;
pub mod protocol;
pub mod scenario;
pub mod service;

/// The request reader is `congest`'s one JSON module.
pub use congest::json;

pub use cache::{address_hex, content_address, Cache};
pub use protocol::{
    parse_request, GraphSpec, Query, Request, ScenarioSpec, BATCH_SCHEMA, PROTOCOL_VERSION,
    REQUEST_SCHEMA, RESPONSE_SCHEMA, TELEMETRY_SCHEMA,
};
pub use scenario::{execute, prepare_clique, Job, QueryOutcome};
pub use service::{compact_json, Service, ServiceConfig};
