//! # graphlib — graph substrate for the SPAA'18 subgraph-detection reproduction
//!
//! Centralized (non-distributed) graph machinery that everything else builds
//! on: a compact CSR [`graph::Graph`], generators, BFS/diameter, subgraph
//! isomorphism ([`iso`]), clique enumeration ([`cliques`]), exact cycle
//! detection ([`cycles`]), the even-cycle Turán bound ([`turan`]), the
//! Phase-II layer decomposition ([`decomposition`]), and the k-subset
//! encoding of §3.2 ([`combinatorics`]).

#![warn(missing_docs)]

pub mod atlas;
pub mod bfs;
pub mod bitset;
pub mod cliques;
pub mod combinatorics;
pub mod components;
pub mod cycles;
pub mod decomposition;
pub mod diameter;
pub mod generators;
pub mod graph;
pub mod hash;
pub mod io;
pub mod iso;
pub mod turan;

pub use graph::{Graph, GraphBuilder, VertexId};
pub use hash::{FxHashMap, FxHashSet};
