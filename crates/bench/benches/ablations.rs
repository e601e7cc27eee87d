//! Design-choice ablations called out in `DESIGN.md` §6:
//!
//! * embedding dimensionality (cost side; the quality side is reported by
//!   the `repro validation` section);
//! * auto-k schedule: the paper's k→k+1 growth vs. the geometric speed-up;
//! * K-Means engine: cold-restart grow-k (seed behavior) vs. the
//!   warm-started parallel engine;
//! * similarity threshold sweep (pair volume);
//! * dedup by hash vs. name+version fallback (DG construction with
//!   unavailable packages).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malgraph_core::{similar_pairs, SimilarityCache, SimilarityConfig};
use minilang::gen::{generate, mutate, Behavior, Mutation};
use minilang::printer::print_module;
use oss_types::PackageId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn lineage_corpus(lineages: usize, per: usize, seed: u64) -> Vec<(PackageId, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for l in 0..lineages {
        let mut cur = generate(Behavior::ALL[l % Behavior::ALL.len()], &mut rng);
        for m in 0..per {
            if m > 0 && rng.gen_bool(0.4) {
                let mutation = Mutation::ALL[rng.gen_range(0..Mutation::ALL.len())];
                cur = mutate(&cur, mutation, &mut rng);
            }
            let id: PackageId = format!("pypi/lin{l}-p{m}@1.0.0").parse().expect("valid");
            out.push((id, print_module(&cur)));
        }
    }
    out
}

fn bench_embedding_dim(c: &mut Criterion) {
    let corpus = lineage_corpus(10, 8, 1);
    let entries: Vec<(PackageId, &str)> = corpus
        .iter()
        .map(|(i, s)| (i.clone(), s.as_str()))
        .collect();
    let mut group = c.benchmark_group("ablation_similarity_dim");
    group.sample_size(10);
    for &dim in &[256usize, 1024, 3072] {
        let config = SimilarityConfig {
            dim,
            ..SimilarityConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(dim), &config, |b, config| {
            b.iter(|| similar_pairs(&entries, config, &mut SimilarityCache::new()));
        });
    }
    group.finish();
}

fn bench_autok_schedule(c: &mut Criterion) {
    let corpus = lineage_corpus(12, 10, 2);
    let entries: Vec<(PackageId, &str)> = corpus
        .iter()
        .map(|(i, s)| (i.clone(), s.as_str()))
        .collect();
    let mut group = c.benchmark_group("ablation_autok_growth");
    group.sample_size(10);
    for &(label, growth) in &[("paper_plus1", 1.0f64), ("geometric_1.3", 1.3)] {
        let config = SimilarityConfig {
            dim: 256,
            growth,
            max_k: 48,
            ..SimilarityConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| similar_pairs(&entries, config, &mut SimilarityCache::new()));
        });
    }
    group.finish();
}

fn bench_threshold_sweep(c: &mut Criterion) {
    let corpus = lineage_corpus(10, 8, 3);
    let entries: Vec<(PackageId, &str)> = corpus
        .iter()
        .map(|(i, s)| (i.clone(), s.as_str()))
        .collect();
    let mut group = c.benchmark_group("ablation_similarity_threshold");
    group.sample_size(10);
    for &threshold in &[0.80f32, 0.90, 0.97] {
        let config = SimilarityConfig {
            dim: 512,
            threshold,
            ..SimilarityConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &config,
            |b, config| {
                b.iter(|| similar_pairs(&entries, config, &mut SimilarityCache::new()));
            },
        );
    }
    group.finish();
}

fn bench_growk_engine(c: &mut Criterion) {
    // The whole grow-k schedule, cold restarts (what the seed paid at
    // every step) vs. warm starts (what `similar_pairs` pays now).
    // On this tiny corpus Lloyd converges in a couple of iterations and
    // k-means++ seeding dominates, so the two are near-even; the warm
    // win appears at corpus scale (clustering.rs engine groups and
    // BENCH_PR1.json, n ≥ 5000 × dim 1024).
    let corpus = lineage_corpus(12, 8, 5);
    let embedder = embed::Embedder::new(256);
    let data: Vec<Vec<f32>> = corpus
        .iter()
        .filter_map(|(_, code)| minilang::parse(code).ok())
        .map(|module| embedder.embed(&module).as_slice().to_vec())
        .collect();
    let config = cluster::KMeansConfig::default();
    let mut schedule = vec![3usize];
    while *schedule.last().expect("non-empty") < 24 {
        let k = *schedule.last().expect("non-empty");
        schedule.push((((k as f64) * 1.3) as usize).max(k + 1).min(24));
    }
    let mut group = c.benchmark_group("ablation_growk_engine");
    group.sample_size(10);
    group.bench_function("cold_restart", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(6);
            schedule
                .iter()
                .map(|&k| cluster::kmeans(&data, k, &config, &mut rng).inertia)
                .last()
        })
    });
    group.bench_function("warm_start", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(6);
            let mut current = cluster::kmeans(&data, schedule[0], &config, &mut rng);
            for &k in &schedule[1..] {
                let extra = k.saturating_sub(current.k());
                current = cluster::kmeans_warm(&data, &current.centroids, extra, &config, &mut rng);
            }
            current.inertia
        })
    });
    group.finish();
}

fn bench_dedup_strategies(c: &mut Criterion) {
    // DG construction: hashing the whole artifact vs. comparing
    // name+version strings (the fallback for unavailable packages).
    let mut rng = StdRng::seed_from_u64(4);
    let artifacts: Vec<(String, String)> = (0..2000)
        .map(|i| {
            let name = format!("pkg-{}", i % 500); // 4 duplicates per name
            let body: String = (0..200).map(|_| rng.gen_range(b'a'..=b'z') as char).collect();
            (name, body)
        })
        .collect();
    let mut group = c.benchmark_group("ablation_dedup");
    group.bench_function("by_sha256", |b| {
        b.iter(|| {
            let mut seen = std::collections::HashMap::new();
            for (name, body) in &artifacts {
                let h = oss_types::Sha256::digest_str(body);
                seen.entry(h).or_insert_with(Vec::new).push(name);
            }
            seen.len()
        })
    });
    group.bench_function("by_name_version", |b| {
        b.iter(|| {
            let mut seen = std::collections::HashMap::new();
            for (name, _) in &artifacts {
                seen.entry(name.clone()).or_insert_with(Vec::new).push(());
            }
            seen.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_embedding_dim,
    bench_autok_schedule,
    bench_growk_engine,
    bench_threshold_sweep,
    bench_dedup_strategies
);
criterion_main!(benches);
