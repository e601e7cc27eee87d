//! Output-identity digests and the values pinned for known inputs.
//!
//! The hash is a fixed word-at-a-time mix (FxHash's multiplier), not
//! `DefaultHasher`, whose output may change between Rust releases: a
//! pinned digest must only move when the program's output does.

use malgraph_core::{MalGraph, Relation};

/// What one unit produced, reduced to comparable words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Node table, edge list, and per-ecosystem similarity pairs, chosen
    /// k and schedule trace (`f32` bits).
    pub graph: u64,
    /// The 23 section reports, in run order (`oneshot_report` only).
    pub sections: Option<u64>,
}

/// A digest known to be right for one `(seed, scale)` input.
pub struct Pin {
    pub seed: u64,
    pub scale: f64,
    pub graph: u64,
    pub sections: u64,
}

/// Digests of the current program's output, seen equal on the one-shot,
/// windowed and resumed paths when they were pinned. A change that
/// alters the graph or any section report must re-pin them.
pub const PINS: &[Pin] = &[
    Pin {
        seed: 42,
        scale: 1.0,
        graph: 0x0351_c986_2154_d5f8,
        sections: 0x6100_36c8_7c21_4ea2,
    },
    Pin {
        seed: 42,
        scale: 0.05,
        graph: 0xbba1_108e_e91b_a790,
        sections: 0x70c7_1d9f_bed3_da2b,
    },
];

pub fn pinned(seed: u64, scale: f64) -> Option<&'static Pin> {
    PINS.iter().find(|p| p.seed == seed && p.scale == scale)
}

struct Hasher(u64);

impl Hasher {
    fn new() -> Hasher {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

pub fn graph_digest(graph: &MalGraph) -> u64 {
    let mut h = Hasher::new();
    h.word(graph.graph.node_count() as u64);
    for (_, node) in graph.graph.nodes() {
        h.str(&node.package.to_string());
        h.str(&node.source.to_string());
        h.str(&node.disclosed.to_string());
        h.str(
            &node
                .hash
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_default(),
        );
        h.str(&node.path);
        h.word(node.primary as u64);
    }
    h.word(graph.graph.edge_count() as u64);
    for edge in graph.graph.edges() {
        let label = Relation::ALL
            .iter()
            .position(|r| *r == edge.label)
            .expect("relation listed in ALL");
        h.word((edge.from.index() as u64) << 32 | edge.to.index() as u64);
        h.word(label as u64);
    }
    for (eco, out) in &graph.similarity_diagnostics {
        h.str(&eco.to_string());
        h.word(out.chosen_k as u64);
        h.word(out.pairs.len() as u64);
        for &(a, b) in &out.pairs {
            h.word((a as u64) << 32 | b as u64);
        }
        h.word(out.trace.len() as u64);
        for &(k, inertia) in &out.trace {
            h.word(k as u64);
            h.word(inertia.to_bits() as u64);
        }
    }
    h.0
}

pub fn sections_digest(sections: &[String]) -> u64 {
    let mut h = Hasher::new();
    h.word(sections.len() as u64);
    for section in sections {
        h.str(section);
    }
    h.0
}
