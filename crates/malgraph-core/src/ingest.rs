//! Incremental graph construction from corpus deltas.
//!
//! Continuous monitoring delivers the corpus as a sequence of
//! [`CorpusDelta`]s (see `crawler::windows`); [`MalGraph::apply_delta`]
//! folds each one into a live graph without a from-scratch rebuild. The
//! contract is *byte identity*: ingesting windows `0..n` one at a time
//! yields a graph, diagnostics and analysis output bitwise-identical to
//! one [`crate::build()`] over the union corpus. The identity holds by
//! construction: `build` is a single window over an empty graph, and
//! both run the one stage body, `MalGraph::emit_stages`.
//!
//! # What is incremental, what is recomputed
//!
//! Node emission is append-only: a delta's packages take the next node
//! ids, so the node table matches a one-shot build positionally. Edges
//! are *cleared and re-emitted* over the union, because dependency and
//! co-existing edges between *old* nodes can appear when a new package
//! resolves a previously-legitimate dependency name or a
//! previously-unknown report member. Re-emission of those stages is
//! cheap (milliseconds at paper scale); the expense lives in the
//! similarity stage, which is where the caching goes:
//!
//! * per-ecosystem entry lists are corpus-ordered and append-only, so
//!   an unchanged length proves the list unchanged and the previous
//!   window's [`SimilarityOutput`] (behind an `Arc`, so reuse is a
//!   refcount bump) is reused outright;
//! * otherwise the pipeline re-runs through
//!   [`crate::similarity::similar_pairs`] with the ecosystem's
//!   [`SimilarityCache`], which parses and embeds only packages whose
//!   *source text* was never seen (republished byte-identical code hits
//!   the source memo) and decides the O(|c|²) refinement once per
//!   distinct-content vector group.
//!
//! # Cache invalidation (the PR7 `OnceLock`s)
//!
//! | cache                     | on `apply_delta`                        |
//! |---------------------------|-----------------------------------------|
//! | component indexes         | Duplicated: extended in place (append-only cliques) and parked in `dup_carry`; other relations: dropped |
//! | adjacency CSRs            | Duplicated: extended in place; others: dropped |
//! | Table-II stats            | dropped (single edge scan to rebuild)   |
//! | `AnalysisIndex`           | dropped (binds to the grown corpus)     |
//! | detector `SandboxCache`   | untouched — keyed by code content, so entries stay valid as the corpus grows |
//!
//! Every drop/extension increments an `ingest.*` counter, so stale-cache
//! regressions are observable, not silent.

use crate::build::{relation_slot, BuildOptions, MalGraph};
use crate::node::Relation;
use crate::similarity::{SimilarityCache, SimilarityOutput};
use crawler::{CollectedDataset, CorpusDelta};
use graphstore::NodeId;
use oss_types::{CrashPlan, CrashSignal, Ecosystem, SimTime};
use std::sync::Arc;

/// Per-ecosystem similarity memo, consulted and updated by the similar
/// stage of `MalGraph::emit_stages`. An [`IngestState`] carries one per
/// ecosystem across deltas; `build` uses throwaway ones; the checkpoint
/// module persists the entry-list length and last output and seeds them
/// back on restore. The embedding cache itself is never persisted — a
/// cold cache reproduces identical outputs.
#[derive(Debug, Default)]
pub(crate) struct EcoState {
    /// Embedding memo + collapse state for the cached pipeline.
    pub(crate) cache: SimilarityCache,
    /// Entry-list length at the last similarity run; since entry lists
    /// are append-only, an equal length proves the list unchanged.
    pub(crate) entries_len: usize,
    /// The output of the last similarity run over this ecosystem,
    /// shared with the graph's diagnostics (reuse is a refcount bump,
    /// not a multi-million-pair copy).
    pub(crate) output: Option<Arc<SimilarityOutput>>,
}

/// The mutable companion of an incrementally-built [`MalGraph`]: the
/// union corpus so far, the per-package node lists, and the
/// per-ecosystem similarity memos. One `IngestState` belongs to one
/// graph; start both from [`MalGraph::empty`] / [`IngestState::new`]
/// and feed every delta through [`MalGraph::apply_delta`].
#[derive(Debug)]
pub struct IngestState {
    pub(crate) dataset: CollectedDataset,
    pub(crate) nodes_by_pkg: Vec<Vec<NodeId>>,
    pub(crate) eco: Vec<EcoState>,
    pub(crate) windows: usize,
}

impl Default for IngestState {
    fn default() -> IngestState {
        IngestState::new()
    }
}

impl IngestState {
    /// Fresh state for an empty graph.
    pub fn new() -> IngestState {
        IngestState {
            dataset: CollectedDataset {
                packages: Vec::new(),
                reports: Vec::new(),
                website_count: 0,
                collect_time: SimTime::from_minutes(0),
                health: None,
            },
            nodes_by_pkg: Vec::new(),
            eco: Ecosystem::ALL.iter().map(|_| EcoState::default()).collect(),
            windows: 0,
        }
    }

    /// The union corpus ingested so far — equal, byte for byte, to the
    /// concatenation of every applied delta (pass this to the analysis
    /// passes alongside the graph).
    pub fn dataset(&self) -> &CollectedDataset {
        &self.dataset
    }

    /// Number of deltas applied.
    pub fn windows_applied(&self) -> usize {
        self.windows
    }
}

impl MalGraph {
    /// Folds one corpus delta into the graph; see the module docs for
    /// the identity contract and the invalidation matrix.
    pub fn apply_delta(
        &mut self,
        delta: &CorpusDelta,
        options: &BuildOptions,
        state: &mut IngestState,
    ) {
        self.apply_delta_with(delta, options, state, &CrashPlan::none())
            .expect("an unarmed crash plan never fires");
    }

    /// [`MalGraph::apply_delta`] with crash-fault injection: every stage
    /// boundary fires a named crash point through `crash`, and an armed
    /// point aborts the apply mid-flight with **no cleanup** — the graph
    /// and state are left exactly as the crash found them, the way a
    /// killed process leaves its checkpoint directory. Callers that
    /// receive the signal must discard both (the checkpointed driver
    /// does; recovery rebuilds them from disk).
    ///
    /// # Errors
    ///
    /// The [`CrashSignal`] of the armed crash point, if it fired during
    /// this delta.
    pub fn apply_delta_with(
        &mut self,
        delta: &CorpusDelta,
        options: &BuildOptions,
        state: &mut IngestState,
        crash: &CrashPlan,
    ) -> Result<(), CrashSignal> {
        let _span = obs::span!("ingest/delta");
        obs::counter_add("ingest.windows", 1);
        obs::counter_add("ingest.packages_added", delta.packages.len() as u64);
        obs::counter_add("ingest.reports_added", delta.reports.len() as u64);
        delta.apply_to(&mut state.dataset);
        let (reused, recomputed) = self.emit_stages(
            &state.dataset.packages,
            &state.dataset.reports,
            &mut state.nodes_by_pkg,
            &mut state.eco,
            &options.similarity,
            crash,
        )?;
        obs::counter_add("ingest.similarity_reused", reused);
        obs::counter_add("ingest.similarity_recomputed", recomputed);

        // Invalidate or extend the lazy query caches.
        {
            let _stage = obs::span!("ingest/delta/invalidate");
            let dup_slot = relation_slot(Relation::Duplicated);
            // Component indexes: the Duplicated forest is append-only
            // under ingestion, so it is extended and parked for the next
            // index build to re-adopt; the other relations are dropped.
            let carry = self.dup_carry.get_mut().expect("carry lock poisoned");
            let mut duplicated_index = match self.indexes.take() {
                Some(mut indexes) => {
                    obs::counter_add(
                        "ingest.invalidated{cache=components}",
                        (Relation::ALL.len() - 1) as u64,
                    );
                    Some(indexes.swap_remove(dup_slot))
                }
                None => carry.take(),
            };
            if let Some(index) = duplicated_index.as_mut() {
                index.extend(
                    &self.graph,
                    |l| *l == Relation::Duplicated,
                    index.node_watermark(),
                );
                obs::counter_add("ingest.extended{cache=components}", 1);
            }
            *carry = duplicated_index;
            // Adjacency CSRs: same split, per relation.
            for (slot, relation) in Relation::ALL.iter().enumerate() {
                if *relation == Relation::Duplicated {
                    if let Some(mut adjacency) = self.adjacency[slot].take() {
                        adjacency.extend(
                            &self.graph,
                            |l| *l == Relation::Duplicated,
                            adjacency.node_watermark(),
                        );
                        self.adjacency[slot]
                            .set(adjacency)
                            .expect("no concurrent init while holding &mut self");
                        obs::counter_add("ingest.extended{cache=adjacency}", 1);
                    }
                } else if self.adjacency[slot].take().is_some() {
                    obs::counter_add("ingest.invalidated{cache=adjacency}", 1);
                }
            }
            if self.stats.take().is_some() {
                obs::counter_add("ingest.invalidated{cache=stats}", 1);
            }
            if self.analysis.take().is_some() {
                obs::counter_add("ingest.invalidated{cache=analysis}", 1);
            }
        }
        state.windows += 1;
        crash.fire("ingest/apply")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crawler::{collect, partition_windows};
    use registry_sim::{WindowPlan, World, WorldConfig};

    fn graph_signature(
        graph: &MalGraph,
    ) -> (Vec<crate::node::MalNode>, Vec<(usize, usize, Relation)>) {
        let nodes = graph.graph.nodes().map(|(_, n)| n.clone()).collect();
        let edges = graph
            .graph
            .edges()
            .map(|e| (e.from.index(), e.to.index(), e.label))
            .collect();
        (nodes, edges)
    }

    #[test]
    fn windowed_ingest_matches_one_shot_build() {
        let world = World::generate(WorldConfig::small(19));
        let dataset = collect(&world);
        let plan = WindowPlan::disclosure_quantiles(&world, 4);
        let deltas = partition_windows(&dataset, &plan);
        let union = crawler::union_dataset(&deltas);
        let options = BuildOptions::default();
        let oracle = build(&union, &options);

        let mut graph = MalGraph::empty();
        let mut state = IngestState::new();
        for delta in &deltas {
            graph.apply_delta(delta, &options, &mut state);
        }
        assert_eq!(state.windows_applied(), deltas.len());
        assert_eq!(state.dataset().packages, union.packages);
        assert_eq!(state.dataset().reports, union.reports);
        assert_eq!(graph_signature(&graph), graph_signature(&oracle));
        assert_eq!(
            graph.similarity_diagnostics.len(),
            oracle.similarity_diagnostics.len()
        );
        for ((eco_a, out_a), (eco_b, out_b)) in graph
            .similarity_diagnostics
            .iter()
            .zip(&oracle.similarity_diagnostics)
        {
            assert_eq!(eco_a, eco_b);
            assert_eq!(out_a.pairs, out_b.pairs);
            assert_eq!(out_a.chosen_k, out_b.chosen_k);
        }
        // Queries served from the (partly extended, partly rebuilt)
        // caches match the oracle's.
        for relation in Relation::ALL {
            assert_eq!(graph.groups(relation), oracle.groups(relation));
            assert_eq!(graph.relation_stats(relation), oracle.relation_stats(relation));
        }
    }

    #[test]
    fn caches_forced_between_deltas_never_serve_stale_answers() {
        let world = World::generate(WorldConfig::small(23));
        let dataset = collect(&world);
        let plan = WindowPlan::disclosure_quantiles(&world, 3);
        let deltas = partition_windows(&dataset, &plan);
        let options = BuildOptions::default();

        let mut graph = MalGraph::empty();
        let mut state = IngestState::new();
        for (i, delta) in deltas.iter().enumerate() {
            graph.apply_delta(delta, &options, &mut state);
            // Force every cache between windows: group + adjacency +
            // stats + analysis queries populate all the `OnceLock`s,
            // which the next delta must extend or drop.
            for relation in Relation::ALL {
                let _ = graph.groups(relation);
                let _ = graph.adjacency(relation);
                let _ = graph.relation_stats(relation);
            }
            let _ = graph.analysis_index(state.dataset());
            // Compare against a fresh one-shot build over the union so
            // far — any stale cache shows up immediately.
            let union = crawler::union_dataset(&deltas[..=i]);
            let oracle = build(&union, &options);
            for relation in Relation::ALL {
                assert_eq!(
                    graph.groups(relation),
                    oracle.groups(relation),
                    "stale components after window {i}"
                );
                assert_eq!(
                    graph.relation_stats(relation),
                    oracle.relation_stats(relation),
                    "stale stats after window {i}"
                );
                for id in graph.graph.node_ids() {
                    assert_eq!(
                        graph.adjacency(relation).neighbors(id),
                        oracle.adjacency(relation).neighbors(id),
                        "stale adjacency after window {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_delta_equals_one_shot_build() {
        let world = World::generate(WorldConfig::small(29));
        let dataset = collect(&world);
        let plan = WindowPlan::equal_span(SimTime::from_minutes(0), world.config.collect_time, 1);
        let deltas = partition_windows(&dataset, &plan);
        assert_eq!(deltas.len(), 1);
        let options = BuildOptions::default();
        let oracle = build(&crawler::union_dataset(&deltas), &options);
        let mut graph = MalGraph::empty();
        let mut state = IngestState::new();
        graph.apply_delta(&deltas[0], &options, &mut state);
        assert_eq!(graph_signature(&graph), graph_signature(&oracle));
    }
}
