//! The parallel Lloyd engine behind [`crate::kmeans`] and
//! [`crate::kmeans_warm`].
//!
//! # Determinism contract
//!
//! Results are **bitwise identical at any thread count and any
//! [`crate::Kernel`]**. Four rules make that hold, and every future
//! change must preserve them:
//!
//! 1. **Fixed chunk boundaries.** Points are processed in chunks of
//!    [`DEFAULT_CHUNK`] — a constant, *never* derived from the thread
//!    count — so the partition of the input does not depend on
//!    parallelism. Tile boundaries inside a chunk are constants too.
//! 2. **In-index-order merging.** Per-chunk partial results (cluster
//!    sums, counts, inertia) are merged by ascending chunk index on one
//!    thread. Floating-point addition is not associative; a fixed merge
//!    order fixes the summation tree, so the same bits come out no
//!    matter which worker computed which chunk. Inside a chunk, the
//!    tiled kernel commits per-point results (and scatter-adds sparse
//!    rows into the partial sums) in ascending point order *after* each
//!    point tile completes — the same summation tree as the straight
//!    point loop.
//! 3. **Thread-independent work.** A chunk's pass reads only the input
//!    and the centroids of the previous iteration — never another
//!    chunk's output — so scheduling cannot leak into the arithmetic.
//! 4. **Exact kernels share one summation order.** Every f32 dot is
//!    accumulated in ascending component index (see [`crate::matrix`]);
//!    sparse kernels skip only zero-factor terms. The per-point winner
//!    is the lowest-indexed candidate of minimum distance in every
//!    kernel: the dense and tiled kernels get that from an ascending
//!    scan with a strict `d < best` update, the screened kernel from an
//!    explicit index tie-break (see [`assign_chunk_quant`]).
//!
//! # Candidate pruning
//!
//! Two screens run before an exact distance is paid for, both *provably*
//! lossless:
//!
//! * **Triangle bound** (dense and tiled kernels): `(‖p‖−‖c‖)² ≤
//!   ‖p−c‖²`, checked against the incumbent of the ascending scan — the
//!   seed engine's prune, unchanged. It bounds the *real* distance, so
//!   it is only bitwise-safe applied in the reference scan order, where
//!   a pruned candidate's computed distance is never compared at all.
//! * **Quantized bound** ([`crate::Kernel::TiledQuantized`]): the i8
//!   dot plus its certified error window yields a lower bound on the
//!   f32 distance *as the exact kernel computes it* (quantization
//!   error, f32 summation slack, and expansion-formula rounding all
//!   accounted for). That licenses best-first evaluation: the screened kernel
//!   establishes a tight incumbent from the windows first, then skips a
//!   candidate only when its bound proves it cannot be the
//!   lowest-indexed minimum — so the argmin, and every downstream bit,
//!   is unchanged.

use crate::matrix::{sparse_dot_dense, PointMatrix, Points, QuantMatrix};
use crate::{KMeansConfig, KMeansResult, Kernel};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default points-per-chunk of the assignment pass
/// ([`KMeansConfig::chunk`]). Whatever the value, it must stay
/// independent of the thread count — see the determinism contract above.
pub(crate) const DEFAULT_CHUNK: usize = 1024;

/// Points per tile of the tiled assignment kernel. A tile's points share
/// the transposed centroid block while its touched rows are cache-hot
/// (consecutive points overlap heavily in sparse support).
const POINT_TILE: usize = 32;

/// The assignment i8 screen runs only when the point set is dense enough
/// that the SpMM kernel's per-candidate cost (≈ `density · dim` f32
/// lanes) exceeds a full-width i8 window (≈ `dim` i8 lanes) — measured
/// crossover around one-third density; below it, computing every exact
/// dot is cheaper than screening. The gate is a function of the *data*,
/// never of threads or scheduling, so it cannot break determinism (and
/// the screen is lossless regardless). The *refinement* pair screen in
/// `malgraph-core` has no density gate: a pair's exact dot is a scattered
/// gather, against which the linear i8 window wins at any density.
const MIN_SCREEN_DENSITY: f64 = 0.35;

/// No point screening tiny vectors — the exact dot is a handful of ops.
const MIN_SCREEN_DIM: usize = 32;

/// Per-term rounding slack of the f32 expansion
/// `‖p‖² − 2·p·c + ‖c‖²` (2 f32 additions ≈ 2.1·ε₃₂, inflated).
const EXPANSION_SLACK: f64 = 1.3e-7;

/// Per-chunk output of one assignment pass.
struct ChunkPass {
    /// Assigned cluster per point of the chunk.
    assign: Vec<usize>,
    /// Squared distance of each point to its assigned centroid.
    dist: Vec<f32>,
    /// Per-cluster component sums (`k × dim`, flattened), empty when the
    /// pass only needs assignments.
    sums: Vec<f32>,
    /// Per-cluster member counts, empty when `sums` is.
    counts: Vec<usize>,
    /// Chunk inertia: `dist` summed in point order.
    inertia: f32,
    /// Point tiles processed by the tiled kernels.
    tiles: u64,
    /// Centroid scans skipped by the triangle-inequality bound.
    pruned_exact: u64,
    /// Centroid scans skipped by the certified i8 screen.
    pruned_quantized: u64,
    /// Exact f32 distance evaluations that survived every screen.
    rescored: u64,
}

pub(crate) fn distance_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Resolves the configured thread count: `0` means
/// `available_parallelism`, and no more workers than chunks are ever
/// useful.
fn resolve_threads(requested: usize, n_chunks: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, n_chunks.max(1))
}

/// Runs `f` over every chunk index and returns the outputs **ordered by
/// chunk index**, regardless of which worker produced them. Workers
/// claim the next chunk through an atomic cursor, so a worker that loses
/// its core holds up one chunk, not every chunk of its stride; with one
/// thread no scope is spawned at all.
fn run_chunks<T, F>(n_chunks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_chunks <= 1 {
        return (0..n_chunks).map(f).collect();
    }
    let workers = threads.min(n_chunks);
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        let (f, next) = (&f, &next);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut out = Vec::new();
                    loop {
                        let chunk = next.fetch_add(1, Ordering::Relaxed);
                        if chunk >= n_chunks {
                            break;
                        }
                        out.push((chunk, f(chunk)));
                    }
                    out
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
        for handle in handles {
            for (chunk, value) in handle.join().expect("kmeans worker must not panic") {
                slots[chunk] = Some(value);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every chunk processed exactly once"))
            .collect()
    })
    .expect("crossbeam scope")
}

/// Shared read-only context of one assignment pass.
struct PassCtx<'a> {
    points: &'a Points,
    pnorm: &'a [f32],
    proot: &'a [f32],
    /// Centroids in matrix form, rebuilt each iteration.
    cmat: &'a PointMatrix,
    cnorm: &'a [f32],
    croot: &'a [f32],
    /// Centroids transposed to `dim × k` (rows padded to `ct_stride`):
    /// the SpMM layout of the tiled kernel, where a point's sparse row
    /// scatter-reads contiguous length-`k` slices.
    ct: &'a [f32],
    ct_stride: usize,
    /// `(quantized points, quantized centroids)` when the i8 screen is
    /// active this pass.
    quant: Option<(&'a QuantMatrix, &'a QuantMatrix)>,
    chunk_size: usize,
    with_sums: bool,
    kernel: Kernel,
}

impl PassCtx<'_> {
    fn chunk_bounds(&self, chunk: usize) -> (usize, usize) {
        let lo = chunk * self.chunk_size;
        (lo, (lo + self.chunk_size).min(self.points.n()))
    }
}

/// One assignment pass over chunk `chunk`, dispatched on the kernel.
fn assign_chunk(ctx: &PassCtx<'_>, chunk: usize) -> ChunkPass {
    match ctx.kernel {
        Kernel::DenseScalar => assign_chunk_dense(ctx, chunk),
        Kernel::TiledQuantized if ctx.quant.is_some() => assign_chunk_quant(ctx, chunk),
        Kernel::Tiled | Kernel::TiledQuantized => assign_chunk_tiled(ctx, chunk),
    }
}

/// The seed engine's straight point loop over dense rows — the bitwise
/// reference the tiled kernels are tested against, and the benchmark
/// baseline.
fn assign_chunk_dense(ctx: &PassCtx<'_>, chunk: usize) -> ChunkPass {
    let (lo, hi) = ctx.chunk_bounds(chunk);
    let matrix = ctx.points.matrix();
    let dim = matrix.dim();
    let k = ctx.cmat.n();
    let mut pass = ChunkPass::empty(hi - lo, k, dim, ctx.with_sums);
    for i in lo..hi {
        let point = matrix.row(i);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..k {
            // Triangle-inequality lower bound: skip centroids that
            // cannot beat the incumbent without touching their
            // coordinates.
            let gap = ctx.proot[i] - ctx.croot[c];
            if gap * gap >= best_d {
                pass.pruned_exact += 1;
                continue;
            }
            pass.rescored += 1;
            let d = ctx.pnorm[i] - 2.0 * crate::matrix::dense_dot(point, ctx.cmat.row(c))
                + ctx.cnorm[c];
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        pass.commit(i, best, best_d, ctx);
    }
    pass
}

/// The cache-tiled SpMM kernel: for each point, every centroid dot is
/// accumulated simultaneously — `acc[c] += v · Cᵀ[i][c]` over the
/// point's nonzeros against the transposed centroid block — so the inner
/// loop is a contiguous length-`k` axpy the vectorizer turns into full
/// SIMD lanes, instead of `k` scattered gathers. Points are processed in
/// tiles of [`POINT_TILE`]; consecutive points share most of their
/// sparse support, keeping the touched `Cᵀ` rows cache-hot across a
/// tile.
///
/// # Bitwise equivalence
///
/// Each `acc[c]` starts at the f32 `Sum` fold identity (`-0.0`) and
/// accumulates the point's terms in ascending component index — the
/// exact summation sequence of [`sparse_dot_dense`], hence of the dense
/// kernel's dot (zero-skip lemma, see [`crate::matrix`]). The candidate
/// scan is ascending `c` with a strict `d < best` update, identical to
/// the dense kernel's; the triangle prune is not replayed here, which is
/// immaterial because pruning only ever skips evaluations, never changes
/// the values the argmin compares.
fn assign_chunk_tiled(ctx: &PassCtx<'_>, chunk: usize) -> ChunkPass {
    let (lo, hi) = ctx.chunk_bounds(chunk);
    let sparse = ctx.points.sparse();
    let dim = ctx.points.dim();
    let k = ctx.cmat.n();
    let stride = ctx.ct_stride;
    let mut pass = ChunkPass::empty(hi - lo, k, dim, ctx.with_sums);
    // One dot accumulator per centroid (padding lanes unused); at the
    // engine's k range this stays L1-resident.
    let mut acc = vec![0.0f32; stride];
    for tile_lo in (lo..hi).step_by(POINT_TILE) {
        let tile_hi = (tile_lo + POINT_TILE).min(hi);
        pass.tiles += 1;
        for i in tile_lo..tile_hi {
            let (si, sv) = sparse.row(i);
            // The fold identity of f32 `Sum` on this toolchain is -0.0;
            // starting there makes every acc[c] bit-identical to
            // `sparse_dot_dense`, not merely zero-sign-equivalent.
            acc.fill(-0.0);
            for (&ix, &v) in si.iter().zip(sv) {
                let row = &ctx.ct[ix as usize * stride..(ix as usize + 1) * stride];
                for (a, r) in acc.iter_mut().zip(row) {
                    *a += v * r;
                }
            }
            pass.rescored += k as u64;
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &dot) in acc[..k].iter().enumerate() {
                let d = ctx.pnorm[i] - 2.0 * dot + ctx.cnorm[c];
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            pass.commit(i, best, best_d, ctx);
        }
    }
    pass
}

/// The screened kernel: certified i8 windows for all candidates first,
/// exact evaluation of the most promising one to establish a tight
/// incumbent, then an ascending scan in which almost every remaining
/// candidate is pruned against it.
///
/// Evaluating out of ascending order is safe because the scan's result
/// is a pure function of the per-candidate distances, which are computed
/// with exactly the tiled kernel's arithmetic whenever they are computed
/// at all: the final winner is the lowest-indexed candidate of minimum
/// distance, which the explicit tie-break below reproduces. A candidate
/// is skipped only when a certified lower bound on its distance proves
/// it cannot be that winner — strictly worse than the incumbent, or
/// equal-at-best with a higher index (the ascending reference scan keeps
/// the incumbent on ties).
fn assign_chunk_quant(ctx: &PassCtx<'_>, chunk: usize) -> ChunkPass {
    let (lo, hi) = ctx.chunk_bounds(chunk);
    let sparse = ctx.points.sparse();
    let dim = ctx.points.dim();
    let k = ctx.cmat.n();
    let (pq, cq) = ctx.quant.expect("quant kernel dispatched with quant matrices");
    let mut pass = ChunkPass::empty(hi - lo, k, dim, ctx.with_sums);
    let mut lower = vec![0.0f64; k];
    for i in lo..hi {
        if (i - lo) % POINT_TILE == 0 {
            pass.tiles += 1;
        }
        let (si, sv) = sparse.row(i);
        let pn = f64::from(ctx.pnorm[i]);
        // Pass 1: i8 windows for every candidate — a lower bound on each
        // exact distance, and a guess at the winner from the approximate
        // distances.
        let mut guess = 0usize;
        let mut guess_key = f64::INFINITY;
        for (c, slot) in lower.iter_mut().enumerate() {
            let (approx, err) = pq.dot_window(i, cq, c);
            let cn = f64::from(ctx.cnorm[c]);
            let slack = EXPANSION_SLACK * (pn + cn + 2.0 * pq.norm2(i) * cq.norm2(c));
            *slot = pn + cn - 2.0 * (approx + err) - slack;
            let d_approx = pn + cn - 2.0 * approx;
            if d_approx < guess_key {
                guess_key = d_approx;
                guess = c;
            }
        }
        // Pass 2: exact incumbent at the guess (identical arithmetic to
        // the tiled kernel's evaluation of the same candidate).
        pass.rescored += 1;
        let mut best = guess;
        let mut best_d = ctx.pnorm[i] - 2.0 * sparse_dot_dense(si, sv, ctx.cmat.row(guess))
            + ctx.cnorm[guess];
        // Pass 3: ascending scan over the rest, pruning on the certified
        // window only. (The triangle bound is *not* used here: it bounds
        // the real distance, not the f32-computed one, which is only safe
        // when applied in the reference's own scan order. The i8 window's
        // error budget covers the exact kernel's f32 rounding, so it
        // bounds the computed value itself.) The prune lets a candidate
        // through when it could still tie the incumbent with a lower
        // index.
        for (c, &bound) in lower.iter().enumerate().take(k) {
            if c == guess {
                continue;
            }
            if bound > f64::from(best_d) || (c > best && bound >= f64::from(best_d)) {
                pass.pruned_quantized += 1;
                continue;
            }
            pass.rescored += 1;
            let d = ctx.pnorm[i] - 2.0 * sparse_dot_dense(si, sv, ctx.cmat.row(c))
                + ctx.cnorm[c];
            if d < best_d || (d == best_d && c < best) {
                best_d = d;
                best = c;
            }
        }
        pass.commit(i, best, best_d, ctx);
    }
    pass
}

impl ChunkPass {
    fn empty(len: usize, k: usize, dim: usize, with_sums: bool) -> ChunkPass {
        ChunkPass {
            assign: Vec::with_capacity(len),
            dist: Vec::with_capacity(len),
            sums: if with_sums { vec![0.0f32; k * dim] } else { Vec::new() },
            counts: if with_sums { vec![0usize; k] } else { Vec::new() },
            inertia: 0.0,
            tiles: 0,
            pruned_exact: 0,
            pruned_quantized: 0,
            rescored: 0,
        }
    }

    /// Records point `i`'s result and (when accumulating) scatter-adds
    /// its sparse row into the partial sums. Adding only the nonzero
    /// components is bitwise identical to adding the dense row: the
    /// skipped terms are `+0.0`, and a partial sum never holds `-0.0`
    /// (an f32 sum only rounds to `-0.0` when every term is `-0.0`, and
    /// stored sparse values are nonzero), so `s + 0.0 == s` exactly.
    fn commit(&mut self, i: usize, best: usize, best_d: f32, ctx: &PassCtx<'_>) {
        // The expansion can go epsilon-negative for a point sitting on
        // its centroid.
        let best_d = best_d.max(0.0);
        self.assign.push(best);
        self.dist.push(best_d);
        self.inertia += best_d;
        if ctx.with_sums {
            self.counts[best] += 1;
            let dim = ctx.points.dim();
            let row = &mut self.sums[best * dim..(best + 1) * dim];
            let (si, sv) = ctx.points.sparse().row(i);
            for (&idx, &v) in si.iter().zip(sv) {
                row[idx as usize] += v;
            }
        }
    }
}

/// Builds the per-iteration centroid structures (matrix form, norms,
/// optional quantization) and runs one full assignment pass.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    points: &Points,
    pnorm: &[f32],
    proot: &[f32],
    centroids: &[Vec<f32>],
    pquant: Option<&QuantMatrix>,
    config: &KMeansConfig,
    n_chunks: usize,
    threads: usize,
    with_sums: bool,
) -> Vec<ChunkPass> {
    let cmat = PointMatrix::from_rows(centroids);
    let k = cmat.n();
    let cnorm: Vec<f32> = (0..k)
        .map(|c| crate::matrix::dense_dot(cmat.row(c), cmat.row(c)))
        .collect();
    let croot: Vec<f32> = cnorm.iter().map(|v| v.sqrt()).collect();
    let cquant = pquant.map(|_| QuantMatrix::from_rows(points.dim(), centroids));
    // Transposed centroid block for the SpMM kernel: row `i` holds
    // component `i` of every centroid, padded to a whole number of SIMD
    // lanes.
    let ct_stride = k.div_ceil(crate::matrix::ROW_ALIGN) * crate::matrix::ROW_ALIGN;
    let mut ct = vec![0.0f32; points.dim() * ct_stride];
    for c in 0..k {
        for (i, &v) in cmat.row(c).iter().enumerate() {
            ct[i * ct_stride + c] = v;
        }
    }
    let ctx = PassCtx {
        points,
        pnorm,
        proot,
        cmat: &cmat,
        cnorm: &cnorm,
        croot: &croot,
        ct: &ct,
        ct_stride,
        quant: pquant.and_then(|pq| cquant.as_ref().map(|cq| (pq, cq))),
        chunk_size: config.chunk.max(1),
        with_sums,
        kernel: config.kernel,
    };
    run_chunks(n_chunks, threads, |chunk| assign_chunk(&ctx, chunk))
}

/// Lloyd iterations from the given initial centroids.
///
/// Shared by [`crate::kmeans`] (k-means++ init) and
/// [`crate::kmeans_warm`] (previous centroids + seeded extras).
pub(crate) fn lloyd(
    points: &Points,
    mut centroids: Vec<Vec<f32>>,
    config: &KMeansConfig,
) -> KMeansResult {
    let n = points.n();
    let dim = points.dim();
    let k = centroids.len();
    let chunk_size = config.chunk.max(1);
    let n_chunks = n.div_ceil(chunk_size);
    let threads = resolve_threads(config.threads, n_chunks);
    let matrix = points.matrix();
    let pnorm: Vec<f32> = (0..n)
        .map(|i| crate::matrix::dense_dot(matrix.row(i), matrix.row(i)))
        .collect();
    let proot: Vec<f32> = pnorm.iter().map(|v| v.sqrt()).collect();
    let screen = config.kernel == Kernel::TiledQuantized
        && dim >= MIN_SCREEN_DIM
        && points.density() >= MIN_SCREEN_DENSITY;
    let pquant = if screen { Some(points.quant()) } else { None };

    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    let mut tiles_total = 0u64;
    let mut pruned_exact_total = 0u64;
    let mut pruned_quantized_total = 0u64;
    let mut rescored_total = 0u64;
    let mut reseeded_total = 0u64;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let passes = run_pass(
            points, &pnorm, &proot, &centroids, pquant, config, n_chunks, threads, true,
        );
        // Merge partials in chunk-index order (the determinism contract).
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0usize; k];
        let mut dists = vec![0.0f32; n];
        for (chunk, pass) in passes.iter().enumerate() {
            let lo = chunk * chunk_size;
            assignments[lo..lo + pass.assign.len()].copy_from_slice(&pass.assign);
            dists[lo..lo + pass.dist.len()].copy_from_slice(&pass.dist);
            for (s, v) in sums.iter_mut().zip(&pass.sums) {
                *s += v;
            }
            for (count, v) in counts.iter_mut().zip(&pass.counts) {
                *count += v;
            }
            tiles_total += pass.tiles;
            pruned_exact_total += pass.pruned_exact;
            pruned_quantized_total += pass.pruned_quantized;
            rescored_total += pass.rescored;
        }
        // Update step, serial over k.
        let mut movement = 0.0f32;
        let mut reseed_order: Option<Vec<usize>> = None;
        let mut reseeded = 0usize;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: re-seed on the farthest point from its
                // centroid; successive empties take successively
                // farther-ranked points so they do not collapse onto one.
                let order = reseed_order.get_or_insert_with(|| {
                    let mut idx: Vec<usize> = (0..n).collect();
                    idx.sort_by(|&a, &b| dists[b].total_cmp(&dists[a]).then(a.cmp(&b)));
                    idx
                });
                let far = order[reseeded.min(order.len() - 1)];
                reseeded += 1;
                let fresh = matrix.row(far).to_vec();
                movement += distance_sq(&fresh, &centroids[c]);
                centroids[c] = fresh;
                continue;
            }
            let inv = 1.0 / counts[c] as f32;
            let fresh: Vec<f32> = sums[c * dim..(c + 1) * dim].iter().map(|s| s * inv).collect();
            movement += distance_sq(&fresh, &centroids[c]);
            centroids[c] = fresh;
        }
        reseeded_total += reseeded as u64;
        if movement <= config.tolerance {
            break;
        }
    }

    // Final assignment against the converged centroids; inertia is the
    // chunk-ordered sum of the per-chunk ordered sums.
    let passes = run_pass(
        points, &pnorm, &proot, &centroids, pquant, config, n_chunks, threads, false,
    );
    let mut inertia = 0.0f32;
    for (chunk, pass) in passes.iter().enumerate() {
        let lo = chunk * chunk_size;
        assignments[lo..lo + pass.assign.len()].copy_from_slice(&pass.assign);
        inertia += pass.inertia;
        tiles_total += pass.tiles;
        pruned_exact_total += pass.pruned_exact;
        pruned_quantized_total += pass.pruned_quantized;
        rescored_total += pass.rescored;
    }

    obs::counter_add("kmeans.runs", 1);
    obs::counter_add("kmeans.iterations", iterations as u64);
    obs::counter_add("kmeans.pruned_distances", pruned_exact_total);
    obs::counter_add("kmeans.reseeds", reseeded_total);
    obs::counter_add("kernel.tiles", tiles_total);
    obs::counter_add("kernel.pruned_exact", pruned_exact_total);
    obs::counter_add("kernel.pruned_quantized", pruned_quantized_total);
    obs::counter_add("kernel.rescored", rescored_total);

    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}
