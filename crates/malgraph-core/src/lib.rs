//! MALGRAPH — the paper's primary contribution.
//!
//! A knowledge graph over an OSS-malware corpus: nodes are malicious
//! packages as collected from individual sources; edges carry one of four
//! relations (duplicated / dependency / similar / co-existing, §III-A);
//! connected subgraphs per relation (DG / DeG / SG / CG) are the paper's
//! unit of analysis. On top of the graph sit the four empirical analyses
//! of §IV (see [`analysis`]).
//!
//! The crate consumes only the collected corpus
//! ([`crawler::CollectedDataset`]) plus public registry metadata
//! ([`crawler::RegistryView`]); simulator ground truth is used nowhere in
//! the pipeline, only in validation tests.
//!
//! # Examples
//!
//! ```
//! use crawler::collect;
//! use malgraph_core::{build, BuildOptions, Relation};
//! use registry_sim::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig::small(1));
//! let corpus = collect(&world);
//! let graph = build(&corpus, &BuildOptions::default());
//! let similar_groups = graph.groups(Relation::Similar);
//! assert!(!similar_groups.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod checkpoint;
pub mod ingest;
pub mod node;
pub mod similarity;

pub use build::{build, BuildOptions, MalGraph};
pub use checkpoint::{
    recover, run_checkpointed_ingest, CheckpointError, CheckpointOptions, CheckpointStore,
    IngestRunError, RunStamp, CRASH_POINTS,
};
pub use ingest::IngestState;
pub use node::{MalNode, Relation};
pub use similarity::{similar_pairs, SimilarityCache, SimilarityConfig};

use graphstore::NodeId;

/// Renders one group (e.g. the Fig. 3 example) as Graphviz DOT, with
/// package identities as node labels and relation names on edges.
pub fn group_to_dot(graph: &MalGraph, members: &[NodeId]) -> String {
    graphstore::dot::to_dot(
        &graph.graph,
        Some(members),
        |_, node| format!("{}\\n{}", node.package, node.source.abbrev()),
        |relation| relation.group_label().to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    #[test]
    fn dot_rendering_of_a_group() {
        let world = World::generate(WorldConfig::small(91));
        let corpus = collect(&world);
        let graph = build(&corpus, &BuildOptions::default());
        let groups = graph.groups(Relation::Coexisting);
        let group = groups.iter().max_by_key(|g| g.len()).expect("cg exists");
        let dot = group_to_dot(&graph, group);
        assert!(dot.contains("graph malgraph"));
        assert!(dot.contains("CG"));
        // Every member appears.
        assert!(dot.matches("label=").count() > group.len());
    }
}
