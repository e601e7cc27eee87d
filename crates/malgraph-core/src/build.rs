//! MALGRAPH construction from a collected corpus (paper §III).

use crate::analysis::index::AnalysisIndex;
use crate::ingest::EcoState;
use crate::node::{MalNode, Relation};
use crate::similarity::{similar_pairs, SimilarityConfig, SimilarityOutput};
use crawler::{CollectedDataset, CollectedPackage, CollectedReport};
use graphstore::index::{AdjacencyIndex, ComponentIndex};
use graphstore::{NodeId, PropertyGraph};
use oss_types::{CrashPlan, CrashSignal, Ecosystem, PackageId};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

/// Options of the graph builder.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Similarity-pipeline configuration.
    pub similarity: SimilarityConfig,
}

/// The MALGRAPH knowledge graph.
///
/// Nodes are package/source pairs ([`MalNode`]); edges carry one of the
/// four [`Relation`]s. Symmetric relations (duplicated / similar /
/// co-existing) are stored as directed pairs, dependency edges point from
/// the dependent package to its dependency.
#[derive(Debug)]
pub struct MalGraph {
    /// The underlying property graph.
    pub graph: PropertyGraph<MalNode, Relation>,
    pub(crate) primary: HashMap<PackageId, NodeId>,
    /// Similarity diagnostics per ecosystem (chosen k, schedule trace).
    /// `Arc` so the incremental ingestion path can share one output
    /// between its per-ecosystem memo and the graph without deep-copying
    /// millions of pairs every window.
    pub similarity_diagnostics: Vec<(Ecosystem, Arc<SimilarityOutput>)>,
    /// Lazily-built per-relation component indexes, in [`Relation::ALL`]
    /// order — all built in one adjacency traversal on the first
    /// component query (the similarity relation alone carries tens of
    /// millions of directed edges, so the traversal, not the union-find,
    /// dominates). The graph is immutable between queries — the one
    /// mutation path, [`MalGraph::apply_delta`], holds `&mut self` and
    /// explicitly invalidates (or incrementally extends) every snapshot
    /// before queries resume — so a snapshot taken at first query stays
    /// valid until the next delta.
    pub(crate) indexes: OnceLock<Vec<ComponentIndex>>,
    /// A Duplicated component index carried across deltas: the
    /// duplicated relation is append-only under ingestion (cliques stay
    /// within one package's nodes), so instead of discarding its index
    /// with the rest, [`MalGraph::apply_delta`] extends it in place and
    /// parks it here for the next [`MalGraph::component_index`] build to
    /// re-adopt. Behind a `Mutex` because the re-adoption happens inside
    /// the `OnceLock` initialiser, which runs under `&self`.
    pub(crate) dup_carry: Mutex<Option<ComponentIndex>>,
    /// Lazily-built per-relation CSR adjacency snapshots, in
    /// [`Relation::ALL`] order. Built per relation on demand — only the
    /// sparse co-existing relation is ever traversed, and materialising
    /// the similarity CSR would cost hundreds of megabytes.
    pub(crate) adjacency: [OnceLock<AdjacencyIndex>; Relation::ALL.len()],
    /// Lazily-computed Table-II statistics, in [`Relation::ALL`] order,
    /// gathered for all relations in a single edge scan.
    pub(crate) stats: OnceLock<Vec<graphstore::stats::RelationStats>>,
    /// Lazily-built corpus lookup structures shared by the RQ passes.
    pub(crate) analysis: OnceLock<AnalysisIndex>,
}

/// Position of `relation` in [`Relation::ALL`].
pub(crate) fn relation_slot(relation: Relation) -> usize {
    Relation::ALL
        .iter()
        .position(|r| *r == relation)
        .expect("relation listed in ALL")
}

impl MalGraph {
    /// The primary node of a package, if the package is in the corpus.
    pub fn primary_node(&self, id: &PackageId) -> Option<NodeId> {
        self.primary.get(id).copied()
    }

    /// Number of distinct packages (primary nodes).
    pub fn package_count(&self) -> usize {
        self.primary.len()
    }

    /// The cached component index for one relation. The first query
    /// builds the indexes of *all* relations in a single adjacency
    /// traversal ([`ComponentIndex::build_many`]); `OnceLock` serialises
    /// concurrent first queries, so the parallel analysis harness shares
    /// one snapshot per relation. A Duplicated index parked by
    /// [`MalGraph::apply_delta`] is re-adopted instead of rebuilt — the
    /// incremental extension is byte-identical to a fresh build.
    pub fn component_index(&self, relation: Relation) -> &ComponentIndex {
        let indexes = self.indexes.get_or_init(|| {
            // Detached: which analysis section wins the OnceLock race is
            // scheduling-dependent, so the build must root its own stack
            // for the folded profile to stay thread-count-invariant.
            let _detached = obs::detached();
            let _span = obs::span!("analysis/index/components");
            let mut carried = self.dup_carry.lock().expect("carry lock poisoned").take();
            let fresh: Vec<Relation> = Relation::ALL
                .iter()
                .copied()
                .filter(|r| carried.is_none() || *r != Relation::Duplicated)
                .collect();
            obs::counter_add("analysis.index_builds", fresh.len() as u64);
            if carried.is_some() {
                obs::counter_add("analysis.index_carried", 1);
            }
            let mut built = ComponentIndex::build_many(&self.graph, &fresh).into_iter();
            let indexes: Vec<ComponentIndex> = Relation::ALL
                .iter()
                .map(|r| {
                    if *r == Relation::Duplicated && carried.is_some() {
                        carried.take().expect("checked above")
                    } else {
                        built.next().expect("one fresh index per remaining relation")
                    }
                })
                .collect();
            for index in &indexes {
                obs::counter_add("analysis.indexed_components", index.components().len() as u64);
            }
            indexes
        });
        &indexes[relation_slot(relation)]
    }

    /// The cached CSR adjacency snapshot for one relation, built on first
    /// use (each relation independently — traversal queries only run over
    /// the sparse relations, and a dense relation's CSR would dwarf the
    /// graph itself).
    pub fn adjacency(&self, relation: Relation) -> &AdjacencyIndex {
        self.adjacency[relation_slot(relation)].get_or_init(|| {
            let _detached = obs::detached();
            let _span = obs::span!("analysis/index/adjacency/{}", relation.group_label());
            obs::counter_add("analysis.adjacency_builds", 1);
            AdjacencyIndex::build(&self.graph, |l| *l == relation)
        })
    }

    /// Connected components of one relation (paper's subgraph groups) —
    /// identical to `self.graph.components(|l| *l == relation)`, served
    /// from the cached [`ComponentIndex`] after the first call.
    pub fn groups(&self, relation: Relation) -> &[Vec<NodeId>] {
        obs::counter_add("analysis.group_queries", 1);
        self.component_index(relation).components()
    }

    /// Table II row for one relation, from a cache computed for all
    /// relations in one edge scan (identical to a fresh
    /// [`graphstore::stats::RelationStats::compute`]). Deliberately does
    /// *not* force the component indexes: the statistics need no
    /// union-find.
    pub fn relation_stats(&self, relation: Relation) -> graphstore::stats::RelationStats {
        let stats = self.stats.get_or_init(|| {
            let _detached = obs::detached();
            let _span = obs::span!("analysis/index/stats");
            graphstore::stats::RelationStats::compute_many(&self.graph, &Relation::ALL)
        });
        stats[relation_slot(relation)].clone()
    }

    /// The corpus-side [`AnalysisIndex`], built on first use. The index
    /// binds to the first `dataset` passed in — callers must keep
    /// querying with the corpus the graph was built from (enforced by a
    /// package-count check on the index's dataset-taking methods).
    pub fn analysis_index(&self, dataset: &CollectedDataset) -> &AnalysisIndex {
        self.analysis.get_or_init(|| AnalysisIndex::new(dataset))
    }

    /// A graph with no nodes and no edges — the starting point of every
    /// construction path: [`build`], the incremental ingestion path
    /// ([`MalGraph::apply_delta`]) and checkpoint restore.
    pub fn empty() -> MalGraph {
        MalGraph {
            graph: PropertyGraph::new(),
            primary: HashMap::new(),
            similarity_diagnostics: Vec::new(),
            indexes: OnceLock::new(),
            dup_carry: Mutex::new(None),
            adjacency: Default::default(),
            stats: OnceLock::new(),
            analysis: OnceLock::new(),
        }
    }
}

impl MalGraph {
    /// The five construction stages listed on [`build`], in that order —
    /// the one code path that emits MALGRAPH structure, shared by
    /// [`build`], [`MalGraph::apply_delta_with`] and checkpoint restore.
    ///
    /// Nodes are appended for the packages of `packages` past
    /// `nodes_by_pkg.len()`; every edge stage is cleared and re-emitted
    /// over the whole corpus, because dependency and co-existing edges
    /// between old nodes can appear when new packages resolve old
    /// dependency names or report members. The similar stage serves an
    /// ecosystem from its memo in `memos` when its entry list is
    /// unchanged. Each stage boundary fires its crash point through
    /// `crash`; an armed point returns mid-flight with no cleanup.
    ///
    /// Returns how many ecosystems reused their memoised similarity
    /// output and how many recomputed it.
    pub(crate) fn emit_stages(
        &mut self,
        packages: &[CollectedPackage],
        reports: &[CollectedReport],
        nodes_by_pkg: &mut Vec<Vec<NodeId>>,
        memos: &mut [EcoState],
        similarity: &SimilarityConfig,
        crash: &CrashPlan,
    ) -> Result<(u64, u64), CrashSignal> {
        let stage = obs::span!("build/nodes");
        let (nodes_before, packages_before) = (self.graph.node_count(), self.primary.len());
        let suffix = &packages[nodes_by_pkg.len()..];
        emit_package_nodes(&mut self.graph, &mut self.primary, nodes_by_pkg, suffix);
        let nodes_added = self.graph.node_count() - nodes_before;
        let packages_added = self.primary.len() - packages_before;
        obs::counter_add("build.nodes", nodes_added as u64);
        obs::counter_add("build.packages", packages_added as u64);
        drop(stage);
        crash.fire("build/nodes")?;

        let stage = obs::span!("build/duplicated");
        self.graph.clear_edges();
        let duplicated = emit_duplicated_edges(&mut self.graph, nodes_by_pkg);
        obs::counter_add("build.edges_added{relation=duplicated}", duplicated);
        drop(stage);
        crash.fire("build/duplicated")?;

        let stage = obs::span!("build/dependency");
        let dependency = emit_dependency_edges(&mut self.graph, &self.primary, packages);
        obs::counter_add("build.edges_added{relation=dependency}", dependency);
        drop(stage);
        crash.fire("build/dependency")?;

        let stage = obs::span!("build/similar");
        let (mut reused, mut recomputed, mut similar) = (0u64, 0u64, 0u64);
        let mut diagnostics = Vec::new();
        for (eco, entries) in similarity_jobs(packages) {
            let memo = &mut memos[eco_slot(eco)];
            let output = match &memo.output {
                Some(cached) if memo.entries_len == entries.len() => {
                    reused += 1;
                    Arc::clone(cached)
                }
                _ => {
                    recomputed += 1;
                    let _pipeline = obs::span!("build/similar/ecosystem={}", eco.display_name());
                    let output = Arc::new(similar_pairs(&entries, similarity, &mut memo.cache));
                    memo.entries_len = entries.len();
                    memo.output = Some(Arc::clone(&output));
                    // The memo now holds an output the graph does not
                    // carry yet.
                    crash.fire("similar/publish")?;
                    output
                }
            };
            // One primary lookup per entry instead of two per pair: the
            // similar relation carries millions of pairs per ecosystem,
            // and string-keyed `PackageId` hashing dominated this stage.
            let nodes: Vec<NodeId> = entries.iter().map(|(id, _)| self.primary[id]).collect();
            self.graph.add_undirected_edges(
                output.pairs.iter().map(|&(a, b)| (nodes[a], nodes[b])),
                Relation::Similar,
            );
            similar += output.pairs.len() as u64;
            diagnostics.push((eco, output));
        }
        self.similarity_diagnostics = diagnostics;
        obs::counter_add("build.edges_added{relation=similar}", similar);
        drop(stage);
        crash.fire("build/similar")?;

        let stage = obs::span!("build/coexisting");
        let coexisting = emit_coexisting_edges(&mut self.graph, &self.primary, reports);
        obs::counter_add("build.edges_added{relation=coexisting}", coexisting);
        drop(stage);
        crash.fire("build/coexisting")?;
        Ok((reused, recomputed))
    }
}

/// Position of `eco` in [`Ecosystem::ALL`] — its slot in the memo table.
pub(crate) fn eco_slot(eco: Ecosystem) -> usize {
    Ecosystem::ALL
        .iter()
        .position(|e| *e == eco)
        .expect("ecosystem listed in ALL")
}

/// Stage 1: appends one node per package/source mention of `packages`.
fn emit_package_nodes(
    graph: &mut PropertyGraph<MalNode, Relation>,
    primary: &mut HashMap<PackageId, NodeId>,
    nodes_by_pkg: &mut Vec<Vec<NodeId>>,
    packages: &[CollectedPackage],
) {
    for pkg in packages {
        let mut nodes_of_pkg: Vec<NodeId> = Vec::new();
        for (i, &(source, disclosed)) in pkg.mentions.iter().enumerate() {
            let node = graph.add_node(MalNode {
                package: pkg.id.clone(),
                source,
                disclosed,
                hash: pkg.signature,
                path: MalNode::storage_path(&pkg.id, source),
                primary: i == 0,
            });
            if i == 0 {
                primary.insert(pkg.id.clone(), node);
            }
            nodes_of_pkg.push(node);
        }
        nodes_by_pkg.push(nodes_of_pkg);
    }
}

/// Stage 2: duplicated cliques over the nodes of each package. Returns
/// the number of (undirected) edges added.
fn emit_duplicated_edges(
    graph: &mut PropertyGraph<MalNode, Relation>,
    nodes_by_pkg: &[Vec<NodeId>],
) -> u64 {
    let mut duplicated_edges = 0u64;
    for nodes_of_pkg in nodes_by_pkg {
        for a in 0..nodes_of_pkg.len() {
            for b in (a + 1)..nodes_of_pkg.len() {
                graph.add_undirected_edge(nodes_of_pkg[a], nodes_of_pkg[b], Relation::Duplicated);
                duplicated_edges += 1;
            }
        }
    }
    duplicated_edges
}

/// Stage 3: dependency edges between malicious packages of the corpus
/// (legitimate dependencies are dropped). Returns the edge count.
fn emit_dependency_edges(
    graph: &mut PropertyGraph<MalNode, Relation>,
    primary: &HashMap<PackageId, NodeId>,
    packages: &[CollectedPackage],
) -> u64 {
    let mut by_name: HashMap<(Ecosystem, &str), Vec<&PackageId>> = HashMap::new();
    for pkg in packages {
        by_name
            .entry((pkg.id.ecosystem(), pkg.id.name().as_str()))
            .or_default()
            .push(&pkg.id);
    }
    // `PropertyGraph::has_edge` is a linear scan of the adjacency list;
    // probing it inside these nested loops is quadratic-times-degree on
    // large reports. A local seen-pair set gives the same dedup in O(1).
    let mut seen_dependency: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut dependency_edges = 0u64;
    for pkg in packages {
        let Some(archive) = &pkg.archive else {
            continue;
        };
        let from = primary[&pkg.id];
        for dep in &archive.dependencies {
            let Some(candidates) = by_name.get(&(pkg.id.ecosystem(), dep.as_str())) else {
                continue; // a legitimate dependency: dropped
            };
            for target in candidates {
                if **target == pkg.id {
                    continue;
                }
                let to = primary[*target];
                if seen_dependency.insert((from, to)) {
                    graph.add_edge(from, to, Relation::Dependency);
                    dependency_edges += 1;
                }
            }
        }
    }
    dependency_edges
}

/// Stage 4 (inputs): the per-ecosystem similarity jobs — `(ecosystem,
/// entries)` in `Ecosystem::ALL` order, ecosystems with fewer than two
/// available packages dropped. Entries are corpus-ordered, so under
/// append-only corpus growth a job's entry list only ever gains a
/// suffix — an unchanged length implies an unchanged list.
pub(crate) fn similarity_jobs(
    packages: &[CollectedPackage],
) -> Vec<(Ecosystem, Vec<(PackageId, &str)>)> {
    Ecosystem::ALL
        .iter()
        .map(|&eco| {
            let entries: Vec<(PackageId, &str)> = packages
                .iter()
                .filter(|p| p.id.ecosystem() == eco)
                .filter_map(|p| p.archive.as_ref().map(|a| (p.id.clone(), a.code.as_str())))
                .collect();
            (eco, entries)
        })
        .filter(|(_, entries)| entries.len() >= 2)
        .collect()
}

/// Stage 5: co-existing cliques per report. Externally produced corpora
/// can name the same package twice in one report; deduping here keeps
/// the clique irreflexive (`add_undirected_edge` asserts a ≠ b) for
/// both `collect` and `import_json` inputs. Cross-report repeats are
/// deduped by the seen-pair set, replacing the `has_edge` linear scan.
fn emit_coexisting_edges(
    graph: &mut PropertyGraph<MalNode, Relation>,
    primary: &HashMap<PackageId, NodeId>,
    reports: &[CollectedReport],
) -> u64 {
    let mut seen_coexisting: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut coexisting_edges = 0u64;
    for report in reports {
        let mut in_report: HashSet<NodeId> = HashSet::new();
        let nodes: Vec<NodeId> = report
            .packages
            .iter()
            .filter_map(|id| primary.get(id).copied())
            .filter(|node| in_report.insert(*node))
            .collect();
        for a in 0..nodes.len() {
            for b in (a + 1)..nodes.len() {
                if seen_coexisting.insert((nodes[a], nodes[b])) {
                    seen_coexisting.insert((nodes[b], nodes[a]));
                    graph.add_undirected_edge(nodes[a], nodes[b], Relation::Coexisting);
                    coexisting_edges += 1;
                }
            }
        }
    }
    coexisting_edges
}

/// Builds MALGRAPH from a collected corpus.
///
/// The construction (paper §III-A):
/// 1. one node per package/source mention; the first mention is the
///    package's *primary* node;
/// 2. **duplicated** edges: clique over the nodes of the same package
///    (same artifact signature, or name+version when unavailable);
/// 3. **dependency** edges: metadata dependencies pointing at another
///    *malicious* package of the corpus (legitimate dependencies are
///    dropped);
/// 4. **similar** edges: the AST→embedding→K-Means pipeline per
///    ecosystem, over available packages;
/// 5. **co-existing** edges: clique over the packages named by the same
///    security report.
///
/// A one-shot build is the ingestion of a single window holding the
/// whole corpus: one pass of the shared stage body over an empty graph
/// with fresh similarity memos. [`MalGraph::apply_delta`] and checkpoint
/// restore run the same body, so no construction path can diverge from
/// another.
pub fn build(dataset: &CollectedDataset, options: &BuildOptions) -> MalGraph {
    let _build_span = obs::span!("build");
    let mut graph = MalGraph::empty();
    let mut nodes_by_pkg: Vec<Vec<NodeId>> = Vec::with_capacity(dataset.packages.len());
    let mut memos: Vec<EcoState> = Ecosystem::ALL.iter().map(|_| EcoState::default()).collect();
    graph
        .emit_stages(
            &dataset.packages,
            &dataset.reports,
            &mut nodes_by_pkg,
            &mut memos,
            &options.similarity,
            &CrashPlan::none(),
        )
        .expect("an unarmed crash plan never fires");
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn built() -> (World, CollectedDataset, MalGraph) {
        let world = World::generate(WorldConfig::small(31));
        let dataset = collect(&world);
        let graph = build(&dataset, &BuildOptions::default());
        (world, dataset, graph)
    }

    #[test]
    fn node_count_equals_mention_count() {
        let (world, _, graph) = built();
        assert_eq!(graph.graph.node_count(), world.mentions.len());
    }

    #[test]
    fn every_package_has_exactly_one_primary_node() {
        let (_, dataset, graph) = built();
        assert_eq!(graph.package_count(), dataset.packages.len());
        let primaries = graph
            .graph
            .nodes()
            .filter(|(_, n)| n.primary)
            .count();
        assert_eq!(primaries, dataset.packages.len());
    }

    #[test]
    fn duplicated_groups_are_multi_source_packages() {
        let (_, dataset, graph) = built();
        let dg = graph.groups(Relation::Duplicated);
        let multi = dataset
            .packages
            .iter()
            .filter(|p| p.mentions.len() >= 2)
            .count();
        assert_eq!(dg.len(), multi, "one DG per multi-source package");
        for group in dg {
            let first = &graph.graph.node(group[0]).package;
            assert!(
                group.iter().all(|&n| &graph.graph.node(n).package == first),
                "a DG must contain one package only"
            );
        }
    }

    #[test]
    fn dependency_edges_link_known_malicious_fronts() {
        let (world, _, graph) = built();
        let deg = graph.groups(Relation::Dependency);
        // The world always plans dependency campaigns; at least one front
        // and its library must both be in the corpus and linked.
        assert!(
            !deg.is_empty(),
            "dependency campaigns must produce DeG groups"
        );
        for group in deg {
            assert!(group.len() >= 2);
        }
        // Validate one edge against ground truth: the target of every
        // dependency edge is a dependency of the source.
        let mut checked = 0;
        for edge in graph.graph.edges().filter(|e| e.label == Relation::Dependency) {
            let from = graph.graph.node(edge.from);
            let to = graph.graph.node(edge.to);
            let truth = world
                .packages
                .iter()
                .find(|p| p.id == from.package)
                .expect("exists");
            assert!(truth.dependencies.contains(to.package.name()));
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn similar_edges_only_between_available_packages() {
        let (_, dataset, graph) = built();
        for edge in graph.graph.edges().filter(|e| e.label == Relation::Similar) {
            let node = graph.graph.node(edge.from);
            let pkg = dataset.get(&node.package).expect("exists");
            assert!(pkg.is_available(), "{} is not available", node.package);
        }
    }

    #[test]
    fn similar_groups_are_dominated_by_true_campaigns() {
        let (world, _, graph) = built();
        let sg = graph.groups(Relation::Similar);
        assert!(!sg.is_empty(), "similar campaigns must produce SGs");
        // Majority label purity: most members of each sizable group share
        // the campaign that truly generated them.
        let mut pure = 0usize;
        let mut sized = 0usize;
        for group in sg.iter().filter(|g| g.len() >= 4) {
            sized += 1;
            let mut counts: HashMap<Option<registry_sim::CampaignIdx>, usize> = HashMap::new();
            for &n in group {
                let id = &graph.graph.node(n).package;
                let truth = world.packages.iter().find(|p| p.id == *id).expect("exists");
                *counts.entry(truth.campaign).or_default() += 1;
            }
            let max = counts.values().max().copied().unwrap_or(0);
            if max * 10 >= group.len() * 7 {
                pure += 1;
            }
        }
        assert!(sized > 0, "no sizable similar groups formed");
        assert!(
            pure * 10 >= sized * 6,
            "only {pure}/{sized} sizable SGs are campaign-pure"
        );
    }

    #[test]
    fn coexisting_groups_come_from_reports() {
        let (_, dataset, graph) = built();
        let cg = graph.groups(Relation::Coexisting);
        let multi_reports = dataset.reports.iter().filter(|r| r.packages.len() >= 2).count();
        assert!(!cg.is_empty());
        assert!(cg.len() <= multi_reports, "chained reports merge CGs");
    }

    #[test]
    fn table2_stats_have_symmetric_degrees() {
        let (_, _, graph) = built();
        for relation in Relation::ALL {
            let stats = graph.relation_stats(relation);
            assert!(
                (stats.avg_out_degree - stats.avg_in_degree).abs() < 1e-9
                    || relation == Relation::Dependency,
                "{relation}: asymmetric degrees"
            );
        }
        // Duplicated graph must be non-trivial.
        let dg = graph.relation_stats(Relation::Duplicated);
        assert!(dg.nodes > 0);
        assert!(dg.edges >= dg.nodes, "cliques have at least n edges (directed)");
    }

    #[test]
    fn duplicated_package_in_report_builds_without_panicking() {
        let (_, mut dataset, _) = built();
        // A report naming the same package twice used to trip the
        // irreflexivity assert in `add_undirected_edge`.
        let report = dataset
            .reports
            .iter_mut()
            .find(|r| !r.packages.is_empty())
            .expect("reports exist");
        let dup = report.packages[0].clone();
        report.packages.push(dup);
        let graph = build(&dataset, &BuildOptions::default());
        assert!(graph.package_count() > 0);
    }

    #[test]
    fn dependency_and_coexisting_edges_are_deduplicated() {
        let (_, _, graph) = built();
        for relation in [Relation::Dependency, Relation::Coexisting] {
            let edges: Vec<(NodeId, NodeId)> = graph
                .graph
                .edges()
                .filter(|e| e.label == relation)
                .map(|e| (e.from, e.to))
                .collect();
            let distinct: std::collections::HashSet<_> = edges.iter().copied().collect();
            assert_eq!(
                edges.len(),
                distinct.len(),
                "{relation:?} contains duplicate directed edges"
            );
        }
    }

    #[test]
    fn similarity_diagnostics_cover_major_ecosystems() {
        let (_, _, graph) = built();
        assert!(graph
            .similarity_diagnostics
            .iter()
            .any(|(eco, _)| *eco == Ecosystem::PyPI));
    }
}
