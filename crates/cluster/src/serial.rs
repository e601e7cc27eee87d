//! The original single-threaded K-Means implementation, compiled only
//! for tests: the independent differential oracle for the parallel
//! engine, k-means++ initialisation included.
//!
//! It computes distances the naive way (`Σ (xᵢ−yᵢ)²`, no norm caching,
//! no pruning) and runs assignment and update on one thread.

use crate::{KMeansConfig, KMeansResult};
use rand::Rng;

fn distance_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Runs the reference serial K-Means with k-means++ initialization.
///
/// Same contract as [`crate::kmeans`]; `config.threads` is ignored.
///
/// # Panics
///
/// Panics if `data` is empty, `k == 0`, or points have inconsistent
/// dimensions.
pub fn kmeans<P: AsRef<[f32]>>(
    data: &[P],
    k: usize,
    config: &KMeansConfig,
    rng: &mut impl Rng,
) -> KMeansResult {
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    assert!(k > 0, "k must be positive");
    let dim = data[0].as_ref().len();
    assert!(
        data.iter().all(|p| p.as_ref().len() == dim),
        "inconsistent point dimensions"
    );
    let k = k.min(data.len());

    let mut centroids = init_plus_plus(data, k, rng);
    let mut assignments = vec![0usize; data.len()];
    let mut iterations = 0;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step.
        for (i, point) in data.iter().enumerate() {
            let p = point.as_ref();
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = distance_sq(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignments[i] = best;
        }
        // Update step.
        let mut sums = vec![vec![0.0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, point) in data.iter().enumerate() {
            let a = assignments[i];
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(point.as_ref()) {
                *s += v;
            }
        }
        let mut movement = 0.0f32;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: re-seed on the point farthest from its
                // centroid, the standard fix-up.
                let far = (0..data.len())
                    .max_by(|&a, &b| {
                        let da = distance_sq(data[a].as_ref(), &centroids[assignments[a]]);
                        let db = distance_sq(data[b].as_ref(), &centroids[assignments[b]]);
                        da.total_cmp(&db)
                    })
                    .expect("data non-empty");
                let fresh: Vec<f32> = data[far].as_ref().to_vec();
                movement += distance_sq(&fresh, &centroids[c]);
                centroids[c] = fresh;
                continue;
            }
            let mut fresh = sums[c].clone();
            for v in &mut fresh {
                *v /= counts[c] as f32;
            }
            movement += distance_sq(&fresh, &centroids[c]);
            centroids[c] = fresh;
        }
        if movement <= config.tolerance {
            break;
        }
    }

    // Final assignment against converged centroids.
    let mut inertia = 0.0f32;
    for (i, point) in data.iter().enumerate() {
        let p = point.as_ref();
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let d = distance_sq(p, centroid);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        assignments[i] = best;
        inertia += best_d;
    }

    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// k-means++ seeding: first centroid uniform, then each next centroid
/// sampled proportionally to squared distance from the nearest chosen one.
fn init_plus_plus<P: AsRef<[f32]>>(data: &[P], k: usize, rng: &mut impl Rng) -> Vec<Vec<f32>> {
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    let first = rng.gen_range(0..data.len());
    centroids.push(data[first].as_ref().to_vec());
    let mut dists: Vec<f32> = data
        .iter()
        .map(|p| distance_sq(p.as_ref(), &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f32 = dists.iter().sum();
        let chosen = if total <= f32::EPSILON {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = 0;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
                idx = i;
            }
            idx
        };
        centroids.push(data[chosen].as_ref().to_vec());
        let last = centroids.last().expect("just pushed");
        for (d, p) in dists.iter_mut().zip(data) {
            *d = d.min(distance_sq(p.as_ref(), last));
        }
    }
    centroids
}
