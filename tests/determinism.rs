//! Determinism and sensitivity: the entire study must be a pure function
//! of the seed, and genuinely different across seeds.

use malgraph::crawler::collect;
use malgraph::malgraph_core::{build, BuildOptions};
use malgraph::oss_types::Sha256;
use malgraph::prelude::*;

#[test]
fn identical_seeds_produce_identical_studies() {
    let run = |seed: u64| {
        let world = World::generate(WorldConfig::small(seed));
        let corpus = collect(&world);
        let graph = build(&corpus, &BuildOptions::default());
        let ids: Vec<String> = corpus.packages.iter().map(|p| p.id.to_string()).collect();
        let sigs: Vec<Option<String>> = corpus
            .packages
            .iter()
            .map(|p| p.signature.map(|s| s.to_string()))
            .collect();
        let group_sizes: Vec<usize> = graph
            .groups(Relation::Similar)
            .iter()
            .map(Vec::len)
            .collect();
        (ids, sigs, graph.graph.edge_count(), group_sizes)
    };
    assert_eq!(run(7), run(7), "a seed must fully determine the study");
}

#[test]
fn different_seeds_produce_different_corpora() {
    let names = |seed: u64| {
        let world = World::generate(WorldConfig::small(seed));
        world
            .packages
            .iter()
            .map(|p| p.id.to_string())
            .collect::<std::collections::BTreeSet<_>>()
    };
    let a = names(1);
    let b = names(2);
    assert_ne!(a, b);
    // Not just a permutation: the intersection should be small (only the
    // fixed showcase names are shared).
    let shared = a.intersection(&b).count();
    assert!(shared < 20, "{shared} shared package ids across seeds");
}

#[test]
fn scale_changes_volume_not_structure() {
    let stats = |scale: f64| {
        let world = World::generate(
            WorldConfig {
                seed: 3,
                ..WorldConfig::default()
            }
            .with_scale(scale),
        );
        let corpus = collect(&world);
        let available = corpus.packages.iter().filter(|p| p.is_available()).count();
        (corpus.packages.len(), available as f64 / corpus.packages.len() as f64)
    };
    let (n_small, avail_small) = stats(0.03);
    let (n_large, avail_large) = stats(0.10);
    assert!(n_large > n_small * 2, "{n_small} → {n_large}");
    assert!(
        (avail_small - avail_large).abs() < 0.30,
        "availability fraction is roughly scale-stable: {avail_small:.2} vs {avail_large:.2}"
    );
}

/// SHA-256 of everything `build()` produces: node fields, the edge list
/// with relation labels, and each ecosystem's similarity pairs, chosen k
/// and schedule trace (`f32` bits). Strings are length-prefixed so the
/// encoding is unambiguous.
fn build_digest(graph: &MalGraph) -> String {
    fn word(bytes: &mut Vec<u8>, w: u64) {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fn text(bytes: &mut Vec<u8>, s: &str) {
        word(bytes, s.len() as u64);
        bytes.extend_from_slice(s.as_bytes());
    }
    let mut bytes: Vec<u8> = Vec::new();
    word(&mut bytes, graph.graph.node_count() as u64);
    for (_, node) in graph.graph.nodes() {
        text(&mut bytes, &node.package.to_string());
        text(&mut bytes, node.source.slug());
        word(&mut bytes, node.disclosed.as_minutes());
        match node.hash {
            Some(hash) => {
                bytes.push(1);
                bytes.extend_from_slice(hash.as_bytes());
            }
            None => bytes.push(0),
        }
        text(&mut bytes, &node.path);
        bytes.push(u8::from(node.primary));
    }
    word(&mut bytes, graph.graph.edge_count() as u64);
    for edge in graph.graph.edges() {
        word(&mut bytes, edge.from.index() as u64);
        word(&mut bytes, edge.to.index() as u64);
        bytes.push(
            Relation::ALL
                .iter()
                .position(|r| *r == edge.label)
                .expect("listed") as u8,
        );
    }
    word(&mut bytes, graph.similarity_diagnostics.len() as u64);
    for (eco, out) in &graph.similarity_diagnostics {
        text(&mut bytes, eco.slug());
        word(&mut bytes, out.pairs.len() as u64);
        for &(a, b) in &out.pairs {
            word(&mut bytes, a as u64);
            word(&mut bytes, b as u64);
        }
        word(&mut bytes, out.chosen_k as u64);
        word(&mut bytes, out.trace.len() as u64);
        for &(k, inertia) in &out.trace {
            word(&mut bytes, k as u64);
            word(&mut bytes, u64::from(inertia.to_bits()));
        }
    }
    Sha256::digest(&bytes).to_string()
}

/// Golden digest of `build()` on the small seed-31 world, pinned from a
/// known-good build. Any change to node emission, edge order, the
/// similarity pipeline or its diagnostics moves it.
const BUILD_DIGEST_SMALL_31: &str =
    "9eb735c6822158e51b13d3f7a6495d48bfda264b59a45cba9c922dfc3f2e45ce";

#[test]
fn build_output_matches_the_golden_digest_at_any_thread_count() {
    let corpus = collect(&World::generate(WorldConfig::small(31)));
    for threads in [1, 7] {
        let options = BuildOptions {
            similarity: SimilarityConfig {
                threads,
                ..SimilarityConfig::default()
            },
        };
        let digest = build_digest(&build(&corpus, &options));
        assert_eq!(
            digest, BUILD_DIGEST_SMALL_31,
            "build digest moved at {threads} threads"
        );
    }
}
