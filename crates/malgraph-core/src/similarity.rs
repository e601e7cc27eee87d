//! The similar-edge pipeline: source code → AST → embedding → K-Means →
//! cosine-refined similar pairs (paper §III-A).
//!
//! [`similar_pairs`] is the one entry point. It carries a
//! [`SimilarityCache`] per ecosystem, so the same call serves a one-shot
//! build (a fresh cache) and windowed ingestion (a cache grown window by
//! window) with identical output.
//!
//! # Determinism contract
//!
//! [`similar_pairs`] is deterministic for a given input and config, on
//! any machine, at any worker count, and whatever the cache already
//! holds:
//!
//! * the K-Means engine guarantees bitwise-identical clusterings at any
//!   thread count (fixed chunk boundaries, in-index-order merging — see
//!   `cluster`'s crate docs);
//! * every fan-out here keys its partial results by input index
//!   (embedding misses, refinement clusters) and merges them in that
//!   index order, never in completion order.
//!
//! Future parallelism must keep both properties: work may be *scheduled*
//! freely, but results must be *combined* in an order derived from the
//! input alone. The test module holds a short serial reference — no
//! memo, no grouping, a plain nested pair walk — that the pipeline is
//! asserted bitwise-identical to.
//!
//! # What the cache saves
//!
//! * **embedding memo** — parse + embed runs once per package ever
//!   seen; a re-run after a 10% corpus delta embeds only the new
//!   packages, and the pipeline borrows the memoised vectors instead of
//!   cloning them per window. Sound because package code is immutable
//!   once collected and `embed_sparse_into` output is independent of
//!   buffer history.
//! * **source interning** — the embedding is a pure function of the
//!   source text, so a never-seen package whose code is byte-identical
//!   to an already-embedded one (flood campaigns republish the same
//!   artifact under hundreds of names) skips parse + embed entirely;
//!   the memo stores the exact source for the equality check, so a hash
//!   collision cannot conflate distinct code.
//! * **distinct-content interning** — each embedding is interned
//!   against every vector ever seen (hash-bucketed with exact bit
//!   comparison), so packages with bitwise-identical embeddings share
//!   one persistent *vid* and one canonical stored vector across
//!   windows.
//! * **collapsed refinement** — within a cluster, every member of a vid
//!   shares the same row bytes, so the screen + dot verdict is computed
//!   once per oriented pair of *distinct contents* instead of once per
//!   member pair (a flood cluster holds thousands of copies of a few
//!   artifacts, collapsing the O(|c|²) walk to O(G²)); orientations
//!   whose nested-loop emission range is provably empty are skipped
//!   outright. A cross-window decision memo was tried and reverted: at
//!   the observed ~55% hit rate the hash-map traffic on a multi-million
//!   entry table costs more than the O(dim) screens it saves.
//!
//! The K-Means schedule is *not* cached: clustering is a global
//! property of the grown corpus, and a warm-start from the previous
//! window's centroids would change the bits.

use cluster::{
    kmeans_points, kmeans_warm_points, KMeansConfig, KMeansResult, Kernel, Points, QuantMatrix,
};
use embed::{EmbedBuffer, Embedder, SparseEmbedding};
use oss_types::PackageId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Misses an embed worker claims at a time: small enough that a worker
/// which loses its core holds up little, large enough that the cursor
/// is not contended.
const EMBED_BLOCK: usize = 16;

/// Tuning knobs for the similarity pipeline.
#[derive(Debug, Clone)]
pub struct SimilarityConfig {
    /// Embedding dimensionality. The paper uses 3072
    /// (`text-embedding-3-large`); the default is 1024, which the
    /// dimension ablation bench shows recovers the same groups at a
    /// fraction of the cost (below ~512, hash collisions inflate
    /// cross-lineage similarity and groups start to merge).
    pub dim: usize,
    /// Minimum cosine similarity for a similar edge *within* a K-Means
    /// cluster. K-Means alone assigns every point somewhere; the paper
    /// handles the resulting false positives by manual inspection
    /// (§III-C) — this threshold is the automated stand-in.
    pub threshold: f32,
    /// Relative inertia improvement below which the grow-k schedule
    /// stops ("centroids of newly formed clusters do not change").
    pub min_improvement: f32,
    /// Upper bound on k.
    pub max_k: usize,
    /// Geometric growth factor of the k schedule. `1.0` reproduces the
    /// paper's k → k+1 schedule; the default 1.3 is the documented
    /// speed-up for large corpora (same stopping rule).
    pub growth: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Worker threads for the embed, assignment and refinement fan-outs;
    /// `0` means `available_parallelism`. Any value yields identical
    /// output (see the module-level determinism contract).
    pub threads: usize,
    /// Assignment/refinement kernel. Every [`Kernel`] produces
    /// bitwise-identical output; the default enables the cache-tiled
    /// sparse kernels with the certified i8 screen.
    pub kernel: Kernel,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            dim: 1024,
            threshold: 0.92,
            min_improvement: 0.10,
            max_k: 256,
            growth: 1.3,
            seed: 0x51,
            threads: 0,
            kernel: Kernel::default(),
        }
    }
}

impl SimilarityConfig {
    /// The paper's exact configuration: 3072 dimensions, k growing by 1.
    pub fn paper() -> Self {
        SimilarityConfig {
            dim: embed::PAPER_DIM,
            growth: 1.0,
            ..SimilarityConfig::default()
        }
    }
}

/// Output of the pipeline: similar pairs plus diagnostics.
#[derive(Debug, Clone)]
pub struct SimilarityOutput {
    /// Unordered similar pairs (indices into the input slice).
    pub pairs: Vec<(usize, usize)>,
    /// The k selected by the schedule.
    pub chosen_k: usize,
    /// `(k, inertia)` trace of the schedule, for the ablation bench.
    pub trace: Vec<(usize, f32)>,
}

/// Persistent state [`similar_pairs`] carries across corpus
/// deltas:
///
/// * the per-package embedding memo, stored as an interned vid (`None`
///   records a parse failure, so broken code is not re-parsed every
///   window either);
/// * the source interner: byte-identical code maps to its memoised
///   verdict without being parsed or embedded at all;
/// * the distinct-content interner: packages whose embeddings are
///   bitwise identical share one persistent vid and one canonical
///   stored vector.
///
/// Sound because a collected package's code is immutable (the memo is
/// keyed by [`PackageId`] and never invalidated, only extended) and
/// the embedding is a pure function of the source text and `dim` (one
/// config per cache — the ingestion pipeline never varies the config
/// mid-stream).
#[derive(Debug, Default)]
pub struct SimilarityCache {
    /// PackageId → interned vid of its embedding; `None` records a
    /// parse failure.
    embedded: HashMap<PackageId, Option<u32>>,
    /// vid → canonical embedding (one owned copy per distinct content,
    /// however many packages carry it).
    reps: Vec<SparseEmbedding>,
    /// Embedding-content hash → vids carrying that hash.
    intern: HashMap<u64, Vec<u32>>,
    /// Source-text hash → `(exact source, verdict)` bucket: the stored
    /// source makes the lookup an exact byte comparison.
    sources: HashMap<u64, Vec<(String, Option<u32>)>>,
}

impl SimilarityCache {
    /// An empty cache.
    pub fn new() -> SimilarityCache {
        SimilarityCache::default()
    }

    /// Number of memoised packages (including parse failures).
    pub fn len(&self) -> usize {
        self.embedded.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.embedded.is_empty()
    }

    /// Interns a vector's content, returning its persistent vid.
    fn intern_vid(&mut self, vector: &SparseEmbedding) -> u32 {
        let bucket = self.intern.entry(content_hash(vector)).or_default();
        match bucket
            .iter()
            .copied()
            .find(|&v| content_equal(&self.reps[v as usize], vector))
        {
            Some(v) => v,
            None => {
                let v = u32::try_from(self.reps.len()).expect("corpus too large");
                self.reps.push(vector.clone());
                bucket.push(v);
                v
            }
        }
    }

    /// Looks up a never-seen package's source text; a byte-exact match
    /// serves the memoised verdict without parsing.
    fn source_verdict(&self, code: &str) -> Option<Option<u32>> {
        self.sources
            .get(&source_hash(code))?
            .iter()
            .find(|(s, _)| s == code)
            .map(|(_, verdict)| *verdict)
    }

    /// Records a freshly computed verdict under its source text.
    fn intern_source(&mut self, code: &str, verdict: Option<u32>) {
        let bucket = self.sources.entry(source_hash(code)).or_default();
        if !bucket.iter().any(|(s, _)| s == code) {
            bucket.push((code.to_string(), verdict));
        }
    }
}

/// Hash of a vector's exact content (indices plus value bits).
fn content_hash(vector: &SparseEmbedding) -> u64 {
    let mut hasher = DefaultHasher::new();
    vector.indices().hash(&mut hasher);
    for &x in vector.values() {
        x.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// Bitwise content equality of two sparse vectors.
fn content_equal(a: &SparseEmbedding, b: &SparseEmbedding) -> bool {
    a.indices() == b.indices()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Hash of a package's source text, bucketing the source interner.
fn source_hash(code: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    code.hash(&mut hasher);
    hasher.finish()
}

/// Resolves a configured worker count (`0` = `available_parallelism`),
/// never exceeding the number of work items.
fn resolve_threads(requested: usize, items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, items.max(1))
}

/// Phase 1: parses and embeds only source text the cache has never
/// seen. Never-seen *packages* whose code is byte-identical to a
/// memoised source (or to an earlier entry in this same batch) are
/// served the interned verdict without being parsed; the remaining true
/// misses are embedded by workers claiming blocks of them and merged by
/// index, then both their embedding content and their source are
/// interned in miss-list order. The
/// caller assembles `(vectors, owners)` from the memo by reference — no
/// per-window clone of the whole corpus.
fn embed_misses(
    entries: &[(PackageId, &str)],
    config: &SimilarityConfig,
    cache: &mut SimilarityCache,
) {
    // Triage: memoised id → done; memoised source → copy the verdict;
    // repeated in-batch source → defer to the first occurrence.
    let mut misses: Vec<usize> = Vec::new();
    let mut dup_of: Vec<(usize, usize)> = Vec::new();
    let mut pending: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut id_hits = 0u64;
    let mut source_hits = 0u64;
    for (i, (id, code)) in entries.iter().enumerate() {
        if cache.embedded.contains_key(id) {
            id_hits += 1;
            continue;
        }
        if let Some(verdict) = cache.source_verdict(code) {
            cache.embedded.insert(id.clone(), verdict);
            source_hits += 1;
            continue;
        }
        let bucket = pending.entry(source_hash(code)).or_default();
        match bucket.iter().copied().find(|&m| entries[misses[m]].1 == *code) {
            Some(m) => {
                dup_of.push((i, m));
                source_hits += 1;
            }
            None => {
                bucket.push(misses.len());
                misses.push(i);
            }
        }
    }
    obs::counter_add("similarity.embed_cache_hits", id_hits);
    obs::counter_add("similarity.embed_source_hits", source_hits);
    obs::counter_add("similarity.embed_cache_misses", misses.len() as u64);
    if misses.is_empty() {
        return;
    }
    let embedder = Embedder::new(config.dim);
    let threads = resolve_threads(config.threads, misses.len().div_ceil(EMBED_BLOCK));
    // Workers claim blocks of misses through an atomic cursor, so a
    // worker that loses its core stalls one block, not a fixed share of
    // the batch; vectors land by miss position and are interned in miss
    // order, so vids do not depend on scheduling.
    let next = AtomicUsize::new(0);
    let mut vectors: Vec<Option<SparseEmbedding>> = (0..misses.len()).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (embedder, misses, next) = (&embedder, &misses, &next);
                scope.spawn(move |_| {
                    let mut buf = EmbedBuffer::new();
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(EMBED_BLOCK, Ordering::Relaxed);
                        if start >= misses.len() {
                            break;
                        }
                        for pos in start..(start + EMBED_BLOCK).min(misses.len()) {
                            let vector = minilang::parse(entries[misses[pos]].1)
                                .ok()
                                .map(|module| embedder.embed_sparse_into(&module, &mut buf));
                            out.push((pos, vector));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (pos, vector) in handle.join().expect("embed worker must not panic") {
                vectors[pos] = vector;
            }
        }
    })
    .expect("crossbeam scope");
    let mut verdicts: Vec<Option<u32>> = Vec::with_capacity(misses.len());
    for (&i, vector) in misses.iter().zip(vectors) {
        let verdict = vector.as_ref().map(|v| cache.intern_vid(v));
        cache.embedded.insert(entries[i].0.clone(), verdict);
        cache.intern_source(entries[i].1, verdict);
        verdicts.push(verdict);
    }
    for (i, m) in dup_of {
        cache.embedded.insert(entries[i].0.clone(), verdicts[m]);
    }
}

/// Phase 2: grow-k K-Means (paper §III-A: start at 3, grow until
/// stable). Each step warm-starts from the previous step's centroids
/// and k-means++-seeds only the `next_k - k` new ones, so the schedule
/// pays incremental refinement instead of a full re-convergence at
/// every k.
fn run_schedule(points: &Points, config: &SimilarityConfig) -> (KMeansResult, Vec<(usize, f32)>) {
    let phase = obs::span!("similarity/schedule");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kconfig = KMeansConfig {
        threads: config.threads,
        kernel: config.kernel,
        ..KMeansConfig::default()
    };
    let mut k = 3usize.min(points.n());
    let mut best = kmeans_points(points, k, &kconfig, &mut rng);
    let mut trace = vec![(k, best.inertia)];
    let max_k = config.max_k.min(points.n());
    while k < max_k {
        let next_k = (((k as f64) * config.growth) as usize).max(k + 1).min(max_k);
        let next = kmeans_warm_points(points, &best.centroids, next_k - k, &kconfig, &mut rng);
        trace.push((next_k, next.inertia));
        let improvement = if best.inertia <= f32::EPSILON {
            0.0
        } else {
            (best.inertia - next.inertia) / best.inertia
        };
        if improvement < config.min_improvement {
            break;
        }
        best = next;
        k = next_k;
    }
    obs::counter_add("similarity.schedule_steps", trace.len() as u64);
    drop(phase);
    (best, trace)
}

/// Groups a cluster's member positions by vid, in first-appearance
/// order; each group holds ascending member positions sharing one
/// distinct vector content.
fn group_by_vid(members: &[usize], vid_of: &[u32]) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<u32, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (pos, &m) in members.iter().enumerate() {
        let v = vid_of[m];
        let g = *group_of.entry(v).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(pos);
    }
    groups
}

/// The refinement verdict for the oriented row pair `(x, y)`: `None`
/// when the certified i8 screen (`quant`, present for the quantized
/// kernel) proves the cosine below the threshold, otherwise whether the
/// exact dot clears it. Embedder outputs are L2-normalized, so the
/// cosine is a single dot. The gather-based sparse·dense dot has the
/// same bits as the dense dot (zero-skip lemma, see `cluster::matrix`);
/// the dense-scalar kernel keeps the dense dot as the benchmark
/// baseline. The screen is only sound for `threshold > -1`: at
/// `threshold ≤ -1` the exact path's clamp to `-1` could lift a
/// provably-small dot back over the threshold, so `quant` must be `None`
/// there.
fn pair_verdict(
    points: &Points,
    quant: Option<&QuantMatrix>,
    x: usize,
    y: usize,
    config: &SimilarityConfig,
) -> Option<bool> {
    if let Some(q) = quant {
        if q.pair_upper_bound(x, q, y) < f64::from(config.threshold) {
            return None;
        }
    }
    let matrix = points.matrix();
    let dot = match config.kernel {
        Kernel::DenseScalar => cluster::matrix::dense_dot(matrix.row(x), matrix.row(y)),
        _ => {
            let (si, sv) = points.sparse().row(x);
            cluster::matrix::sparse_dot_dense(si, sv, matrix.row(y))
        }
    };
    Some(dot.clamp(-1.0, 1.0) >= config.threshold)
}

/// Phase 3: cosine-refined pairs within each cluster, in nested
/// member-pair order per cluster and cluster-index order overall,
/// paying each screen + dot once per *oriented pair of distinct vector
/// contents* within a cluster instead of once per member pair. The big
/// clusters (floods) dominate this step. Workers are bounded by the
/// configured thread count and claim clusters largest-first as they
/// come free; each worker tags its output with the cluster index and
/// the merge flattens in that order, so the pair list does not depend
/// on the worker count or scheduling.
///
/// Soundness: the decision for `(ia, ib)` is a pure function of the
/// bytes of rows `ia` and `ib` (quant scales, l1/norm terms and the
/// dots are all row-content-derived), so every member pair with the
/// same `(vid_from, vid_to)` orientation shares its representative's
/// decision exactly. Orientation is preserved (the sparse·dense dot is
/// not guaranteed bitwise-symmetric), and an orientation whose
/// nested-loop emission range is provably empty — every position of one
/// group precedes every position of the other — skips its decision
/// outright, since no emitted pair could consume it. Emission replays
/// the plain nested member walk with each pair's verdict served as a
/// byte lookup in the per-cluster group matrix, so accepted pairs
/// appear in exactly the original nested-loop order with no sort.
fn refine_pairs_grouped(
    points: &Points,
    vid_of: &[u32],
    clusters: &[Vec<usize>],
    owners: &[usize],
    config: &SimilarityConfig,
) -> Vec<(usize, usize)> {
    let phase = obs::span!("similarity/refine");
    let distinct: std::collections::HashSet<u32> = vid_of.iter().copied().collect();
    obs::counter_add("similarity.distinct_vectors", distinct.len() as u64);
    let quant = (config.kernel == Kernel::TiledQuantized && config.threshold > -1.0)
        .then(|| points.quant());
    let threads = resolve_threads(config.threads, clusters.len());
    // Clusters largest-first (by member count), each claimed through an
    // atomic cursor by whichever worker is free: one flood cluster
    // cannot serialize the tail, and a worker that loses its core holds
    // up only the cluster it is on.
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(clusters[c].len()));
    let next = AtomicUsize::new(0);
    type TaggedPairs = (Vec<(usize, Vec<(usize, usize)>)>, u64, u64);
    let mut by_cluster: Vec<Vec<(usize, usize)>> = vec![Vec::new(); clusters.len()];
    let refined: Vec<TaggedPairs> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (order, next) = (&order, &next);
                scope.spawn(move |_| {
                    let mut pruned = 0u64;
                    let mut rescored = 0u64;
                    let mut decide = |x: usize, y: usize| -> bool {
                        match pair_verdict(points, quant, x, y, config) {
                            None => {
                                pruned += 1;
                                false
                            }
                            Some(accept) => {
                                rescored += 1;
                                accept
                            }
                        }
                    };
                    let claimed = std::iter::from_fn(|| {
                        order.get(next.fetch_add(1, Ordering::Relaxed)).copied()
                    });
                    let tagged = claimed
                        .map(|c| {
                            let members = &clusters[c];
                            let groups = group_by_vid(members, vid_of);
                            let g = groups.len();
                            // Each member position's group, and the
                            // oriented per-group decision matrix
                            // (`1` = accept). Entries for orientations
                            // whose emission range below is empty stay
                            // `0` unconsulted.
                            let mut gid: Vec<u32> = vec![0; members.len()];
                            for (gi, pi) in groups.iter().enumerate() {
                                for &p in pi {
                                    gid[p] = gi as u32;
                                }
                            }
                            let mut verdicts: Vec<u8> = vec![0; g * g];
                            for gi in 0..g {
                                let pi = &groups[gi];
                                if pi.len() >= 2 && decide(members[pi[0]], members[pi[1]]) {
                                    verdicts[gi * g + gi] = 1;
                                }
                                for gj in (gi + 1)..g {
                                    let pj = &groups[gj];
                                    // Orientation (vid_i → vid_j): some
                                    // pair has its earlier position in
                                    // pi — always, since groups are in
                                    // first-appearance order.
                                    debug_assert!(pi[0] < pj[0]);
                                    if decide(members[pi[0]], members[pj[0]]) {
                                        verdicts[gi * g + gj] = 1;
                                    }
                                    // Orientation (vid_j → vid_i):
                                    // consulted only if some pi position
                                    // follows pj's first.
                                    if pj[0] < *pi.last().expect("groups are non-empty")
                                        && decide(members[pj[0]], members[pi[0]])
                                    {
                                        verdicts[gj * g + gi] = 1;
                                    }
                                }
                            }
                            // Emission: the plain nested member walk —
                            // already the canonical order, no sort —
                            // with each pair's verdict a byte lookup.
                            let mut local: Vec<(usize, usize)> = Vec::new();
                            for a in 0..members.len() {
                                let row = &verdicts[gid[a] as usize * g..][..g];
                                for b in (a + 1)..members.len() {
                                    if row[gid[b] as usize] != 0 {
                                        local.push((owners[members[a]], owners[members[b]]));
                                    }
                                }
                            }
                            (c, local)
                        })
                        .collect();
                    (tagged, pruned, rescored)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("refine worker must not panic"))
            .collect()
    })
    .expect("crossbeam scope");
    let mut pruned_total = 0u64;
    let mut rescored_total = 0u64;
    for (tagged, pruned, rescored) in refined {
        pruned_total += pruned;
        rescored_total += rescored;
        for (c, local) in tagged {
            by_cluster[c] = local;
        }
    }
    let pairs: Vec<(usize, usize)> = by_cluster.into_iter().flatten().collect();
    obs::counter_add("similarity.pairs", pairs.len() as u64);
    obs::counter_add("kernel.pruned_quantized", pruned_total);
    obs::counter_add("kernel.rescored", rescored_total);
    drop(phase);
    pairs
}

/// Runs the pipeline over `(package, code)` entries belonging to one
/// ecosystem, carrying `cache` across calls. Unparseable code is skipped
/// (it can never join a group, exactly like a package the Packj
/// extractor chokes on). Output depends only on `entries` and `config`,
/// never on what `cache` already holds (see the module docs); the cache
/// only decides the cost: never-seen *source text* is parsed and
/// embedded, everything else is borrowed from the memo (flood campaigns
/// republish the same artifacts, so mature windows embed almost
/// nothing), and the refinement pays its screen + dot once per oriented
/// distinct-content pair per cluster instead of once per member pair.
/// A one-shot caller passes a fresh [`SimilarityCache`].
pub fn similar_pairs(
    entries: &[(PackageId, &str)],
    config: &SimilarityConfig,
    cache: &mut SimilarityCache,
) -> SimilarityOutput {
    let phase = obs::span!("similarity/embed");
    obs::counter_add("similarity.entries", entries.len() as u64);
    embed_misses(entries, config, cache);
    // Assemble `(vectors, owners, vids)` in entry order by reference:
    // one row per parseable entry, `owners` mapping rows back to entries.
    let mut vectors: Vec<&SparseEmbedding> = Vec::with_capacity(entries.len());
    let mut owners: Vec<usize> = Vec::with_capacity(entries.len());
    let mut vid_of: Vec<u32> = Vec::with_capacity(entries.len());
    let mut failures = 0u64;
    for (i, (id, _)) in entries.iter().enumerate() {
        match cache.embedded.get(id).expect("every entry was just memoised") {
            Some(vid) => {
                vectors.push(&cache.reps[*vid as usize]);
                owners.push(i);
                vid_of.push(*vid);
            }
            None => failures += 1,
        }
    }
    obs::counter_add("similarity.parse_failures", failures);
    drop(phase);
    if vectors.len() < 2 {
        return SimilarityOutput {
            pairs: Vec::new(),
            chosen_k: 0,
            trace: Vec::new(),
        };
    }
    let rows: Vec<(&[u32], &[f32])> = vectors
        .iter()
        .map(|v| (v.indices(), v.values()))
        .collect();
    let points = Points::from_sparse_rows(config.dim, &rows);
    let (best, trace) = run_schedule(&points, config);
    let clusters = best.clusters();
    let pairs = refine_pairs_grouped(&points, &vid_of, &clusters, &owners, config);
    SimilarityOutput {
        pairs,
        chosen_k: best.k(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::gen::{generate, mutate, Behavior, Mutation};
    use minilang::printer::print_module;
    use rand::Rng;

    /// Builds `families` code families with `per` members each.
    fn corpus(families: usize, per: usize, seed: u64) -> Vec<(PackageId, String)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for f in 0..families {
            let behavior = Behavior::ALL[f % Behavior::ALL.len()];
            let base = generate(behavior, &mut rng);
            let mut current = base;
            for m in 0..per {
                if m > 0 && rng.gen_bool(0.5) {
                    let mutation = Mutation::ALL[m % Mutation::ALL.len()];
                    current = mutate(&current, mutation, &mut rng);
                }
                let id: PackageId = format!("pypi/fam{f}-pkg{m}@1.0.0").parse().unwrap();
                out.push((id, print_module(&current)));
            }
        }
        out
    }

    fn components(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut uf = graphstore::unionfind::UnionFind::new(n);
        for &(a, b) in pairs {
            uf.union(a, b);
        }
        let mut map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..n {
            map.entry(uf.find(i)).or_default().push(i);
        }
        map.into_values().filter(|c| c.len() > 1).collect()
    }

    /// The pipeline on a fresh cache, as a one-shot build runs it.
    fn fresh(entries: &[(PackageId, &str)], config: &SimilarityConfig) -> SimilarityOutput {
        similar_pairs(entries, config, &mut SimilarityCache::new())
    }

    /// Reference phase 1: parses and embeds every entry serially, no
    /// memo. Returns the vectors and the entry index of each.
    fn reference_embed(
        entries: &[(PackageId, &str)],
        config: &SimilarityConfig,
    ) -> (Vec<SparseEmbedding>, Vec<usize>) {
        let embedder = Embedder::new(config.dim);
        let mut buf = EmbedBuffer::new();
        let mut vectors = Vec::new();
        let mut owners = Vec::new();
        for (i, (_, code)) in entries.iter().enumerate() {
            if let Ok(module) = minilang::parse(code) {
                vectors.push(embedder.embed_sparse_into(&module, &mut buf));
                owners.push(i);
            }
        }
        (vectors, owners)
    }

    /// The serial reference the pipeline is held to: no memo, no
    /// interning, no grouping, no fan-out — the same schedule, then every
    /// cluster's member pairs walked in nested order with the same screen
    /// and dot.
    fn reference_pairs(
        entries: &[(PackageId, &str)],
        config: &SimilarityConfig,
    ) -> SimilarityOutput {
        let (vectors, owners) = reference_embed(entries, config);
        if vectors.len() < 2 {
            return SimilarityOutput {
                pairs: Vec::new(),
                chosen_k: 0,
                trace: Vec::new(),
            };
        }
        let rows: Vec<(&[u32], &[f32])> =
            vectors.iter().map(|v| (v.indices(), v.values())).collect();
        let points = Points::from_sparse_rows(config.dim, &rows);
        let (best, trace) = run_schedule(&points, config);
        let quant = (config.kernel == Kernel::TiledQuantized && config.threshold > -1.0)
            .then(|| points.quant());
        let mut pairs = Vec::new();
        for members in best.clusters() {
            for a in 0..members.len() {
                for b in (a + 1)..members.len() {
                    if pair_verdict(&points, quant, members[a], members[b], config) == Some(true) {
                        pairs.push((owners[members[a]], owners[members[b]]));
                    }
                }
            }
        }
        SimilarityOutput {
            pairs,
            chosen_k: best.k(),
            trace,
        }
    }

    #[test]
    fn recovers_code_families() {
        let data = corpus(4, 8, 1);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(id, c)| (id.clone(), c.as_str())).collect();
        let out = fresh(&entries, &SimilarityConfig::default());
        let comps = components(entries.len(), &out.pairs);
        // Family members must never be split across groups in a way that
        // merges two behaviours: check purity by index range.
        for comp in &comps {
            let family = comp[0] / 8;
            assert!(
                comp.iter().all(|&i| i / 8 == family),
                "component mixes families: {comp:?}"
            );
        }
        // And most family pairs should be recovered.
        let recovered: usize = comps.iter().map(|c| c.len()).sum();
        assert!(
            recovered >= entries.len() / 2,
            "too few grouped: {recovered}/{}",
            entries.len()
        );
    }

    #[test]
    fn unparseable_code_is_skipped_silently() {
        let id: PackageId = "pypi/broken@1.0.0".parse().unwrap();
        let good = corpus(1, 3, 2);
        let mut entries: Vec<(PackageId, &str)> =
            good.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        entries.push((id, "this is not ( valid code"));
        let out = fresh(&entries, &SimilarityConfig::default());
        let broken_idx = entries.len() - 1;
        assert!(
            out.pairs.iter().all(|&(a, b)| a != broken_idx && b != broken_idx),
            "broken code must not join any group"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<(PackageId, &str)> = Vec::new();
        assert!(fresh(&empty, &SimilarityConfig::default()).pairs.is_empty());
        let one = corpus(1, 1, 3);
        let entries: Vec<(PackageId, &str)> =
            one.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        assert!(fresh(&entries, &SimilarityConfig::default()).pairs.is_empty());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let data = corpus(3, 5, 4);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let a = fresh(&entries, &SimilarityConfig::default());
        let b = fresh(&entries, &SimilarityConfig::default());
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.chosen_k, b.chosen_k);
    }

    #[test]
    fn higher_threshold_never_adds_pairs() {
        let data = corpus(3, 6, 5);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let loose = fresh(
            &entries,
            &SimilarityConfig {
                threshold: 0.5,
                ..SimilarityConfig::default()
            },
        );
        let strict = fresh(
            &entries,
            &SimilarityConfig {
                threshold: 0.95,
                ..SimilarityConfig::default()
            },
        );
        assert!(strict.pairs.len() <= loose.pairs.len());
    }

    #[test]
    fn paper_config_uses_3072_dims() {
        let c = SimilarityConfig::paper();
        assert_eq!(c.dim, 3072);
        assert_eq!(c.growth, 1.0);
    }

    /// Asserts two pipeline outputs are bitwise-identical (the inertia
    /// trace compares by f32 bits, not approximate equality).
    fn assert_outputs_identical(a: &SimilarityOutput, b: &SimilarityOutput, label: &str) {
        assert_eq!(a.pairs, b.pairs, "{label}: pairs diverged");
        assert_eq!(a.chosen_k, b.chosen_k, "{label}: chosen_k diverged");
        assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace length diverged");
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.0, y.0, "{label}: trace k diverged");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "{label}: trace inertia bits diverged");
        }
    }

    #[test]
    fn cached_pipeline_is_bitwise_identical_to_plain() {
        // The corpus has duplicate code (mutation fires with p=0.5), so
        // the collapsed refinement genuinely takes the grouped path.
        let data = corpus(4, 8, 9);
        let mut entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let broken: PackageId = "pypi/broken@1.0.0".parse().unwrap();
        entries.push((broken, "this is not ( valid code"));
        for kernel in [Kernel::DenseScalar, Kernel::TiledQuantized] {
            for threads in [1, 3] {
                let config = SimilarityConfig {
                    kernel,
                    threads,
                    ..SimilarityConfig::default()
                };
                let label = format!("{kernel:?}/{threads}t");
                let plain = reference_pairs(&entries, &config);
                let mut cache = SimilarityCache::new();
                let cold = similar_pairs(&entries, &config, &mut cache);
                assert_outputs_identical(&plain, &cold, &format!("{label} cold"));
                assert_eq!(cache.len(), entries.len(), "{label}: memo must cover all entries");
                let warm = similar_pairs(&entries, &config, &mut cache);
                assert_outputs_identical(&plain, &warm, &format!("{label} warm"));
            }
        }
    }

    #[test]
    fn cache_carries_across_growing_corpora() {
        // Windowed growth: run the cached pipeline on a prefix, then on
        // the full list with the same cache — the second run must match
        // the plain pipeline over the full list exactly, embedding only
        // the suffix.
        let data = corpus(3, 6, 10);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let config = SimilarityConfig::default();
        let mut cache = SimilarityCache::new();
        let prefix = &entries[..entries.len() / 2];
        let prefix_plain = reference_pairs(prefix, &config);
        let prefix_cached = similar_pairs(prefix, &config, &mut cache);
        assert_outputs_identical(&prefix_plain, &prefix_cached, "prefix");
        assert_eq!(cache.len(), prefix.len());
        let full_plain = reference_pairs(&entries, &config);
        let full_cached = similar_pairs(&entries, &config, &mut cache);
        assert_outputs_identical(&full_plain, &full_cached, "grown");
        assert_eq!(cache.len(), entries.len());
    }

    #[test]
    fn interned_vids_collapse_exact_duplicates_only() {
        let data = corpus(2, 6, 11);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let config = SimilarityConfig::default();
        let mut cache = SimilarityCache::new();
        let _ = similar_pairs(&entries, &config, &mut cache);
        // Independent re-embedding: two entries share a vid exactly when
        // their embeddings are bitwise equal.
        let (vectors, owners) = reference_embed(&entries, &config);
        assert!(cache.reps.len() <= vectors.len());
        for (a, &ia) in owners.iter().enumerate() {
            for (b, &ib) in owners.iter().enumerate().skip(a + 1) {
                let va = cache.embedded[&entries[ia].0].expect("parseable");
                let vb = cache.embedded[&entries[ib].0].expect("parseable");
                assert_eq!(
                    va == vb,
                    content_equal(&vectors[a], &vectors[b]),
                    "vid assignment wrong for {ia},{ib}"
                );
            }
        }
    }

    #[test]
    fn republished_sources_are_never_reparsed() {
        let data = corpus(3, 6, 12);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let config = SimilarityConfig::default();
        let mut cache = SimilarityCache::new();
        let _ = similar_pairs(&entries, &config, &mut cache);
        let reps_before = cache.reps.len();
        // A flood republishes every artifact byte-identically under
        // fresh names: the grown corpus must reproduce the plain
        // pipeline exactly while embedding nothing new — every verdict
        // is served by the source interner, so the distinct-content
        // table cannot grow.
        let mut grown: Vec<(PackageId, &str)> = entries.clone();
        for (i, (_, code)) in entries.iter().enumerate() {
            let id: PackageId = format!("pypi/republished-{i}@1.0.0").parse().unwrap();
            grown.push((id, code));
        }
        let plain = reference_pairs(&grown, &config);
        let cached = similar_pairs(&grown, &config, &mut cache);
        assert_outputs_identical(&plain, &cached, "republished flood");
        assert_eq!(cache.reps.len(), reps_before, "no new distinct content");
        assert_eq!(cache.len(), grown.len(), "every clone memoised by id");
        // Same-window duplicates (two fresh ids, one source) must also
        // collapse to a single embedding.
        let novel = corpus(1, 1, 99);
        let twin_a: PackageId = "pypi/twin-a@1.0.0".parse().unwrap();
        let twin_b: PackageId = "pypi/twin-b@1.0.0".parse().unwrap();
        grown.push((twin_a.clone(), novel[0].1.as_str()));
        grown.push((twin_b.clone(), novel[0].1.as_str()));
        let plain = reference_pairs(&grown, &config);
        let cached = similar_pairs(&grown, &config, &mut cache);
        assert_outputs_identical(&plain, &cached, "in-window twins");
        assert_eq!(cache.embedded[&twin_a], cache.embedded[&twin_b]);
    }
}
