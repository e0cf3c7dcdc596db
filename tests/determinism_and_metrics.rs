//! Integration tests for reproducibility and metric accounting across the
//! whole stack (datagen → mapreduce → knnjoin), driven through the unified
//! `Join` builder.

use pgbj::prelude::*;

fn workload(seed: u64) -> PointSet {
    datagen::gaussian_clusters(
        &datagen::ClusterConfig {
            n_points: 500,
            dims: 3,
            n_clusters: 5,
            std_dev: 5.0,
            extent: 300.0,
            skew: 0.5,
        },
        seed,
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    let r = workload(1);
    let s = workload(2);
    let ctx = ExecutionContext::default();
    let run = || {
        Join::new(&r, &s)
            .k(7)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(24)
            .reducers(6)
            .seed(99)
            .run(&ctx)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.rows.len(), b.rows.len());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.r_id, y.r_id);
        assert_eq!(x.neighbors, y.neighbors);
    }
    // Deterministic dataflow implies deterministic cost accounting too.
    assert_eq!(
        a.metrics.distance_computations,
        b.metrics.distance_computations
    );
    assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes);
    assert_eq!(a.metrics.s_records_shuffled, b.metrics.s_records_shuffled);
}

#[test]
fn worker_pool_size_does_not_change_results() {
    // The ExecutionContext owns physical parallelism; logical results and
    // cost accounting must be identical whatever the pool size.  Both
    // Voronoi joins move whole cells through their jobs, so this also pins
    // that no row or counter depends on which task a cell met; every join
    // count is a sum over tasks that add from several threads.
    let r = workload(21);
    let s = workload(22);
    let counters = |m: &pgbj::knnjoin::JoinMetrics| {
        [
            m.distance_computations,
            m.pivot_assignment_computations,
            m.r_records_shuffled,
            m.s_records_shuffled,
            m.index_builds,
            m.shuffle_records,
            m.shuffle_bytes,
            m.combine_input_records,
            m.combine_output_records,
        ]
    };
    for algorithm in Algorithm::ALL {
        let run = |workers: usize| {
            let ctx = ExecutionContext::builder().workers(workers).build();
            Join::new(&r, &s)
                .k(5)
                .algorithm(algorithm)
                .pivot_count(16)
                .reducers(4)
                .run(&ctx)
                .unwrap()
        };
        let single = run(1);
        for workers in [2, 4, 8] {
            let pooled = run(workers);
            assert!(single.matches(&pooled, 0.0), "{algorithm} x{workers}");
            assert_eq!(
                counters(&single.metrics),
                counters(&pooled.metrics),
                "{algorithm} x{workers}"
            );
        }
    }
}

#[test]
fn different_pivot_seeds_change_cost_but_not_results() {
    let r = workload(3);
    let s = workload(4);
    let ctx = ExecutionContext::default();
    let with_seed = |seed: u64| {
        Join::new(&r, &s)
            .k(5)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(24)
            .reducers(6)
            .seed(seed)
            .run(&ctx)
            .unwrap()
    };
    let a = with_seed(1);
    let b = with_seed(2);
    // Same answer...
    assert!(a.matches(&b, 1e-9));
    // ...through a (very likely) different execution plan.
    assert_eq!(a.rows.len(), r.len());
}

#[test]
fn join_cardinality_matches_definition() {
    // |R ⋉ S| = k · |R| whenever k ≤ |S| (Definition 2 in the paper).
    let r = workload(5);
    let s = workload(6);
    let ctx = ExecutionContext::default();
    for k in [1usize, 4, 16] {
        let result = Join::new(&r, &s)
            .k(k)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(16)
            .reducers(4)
            .run(&ctx)
            .unwrap();
        let total_pairs: usize = result.rows.iter().map(|row| row.neighbors.len()).sum();
        assert_eq!(total_pairs, k * r.len());
    }
}

#[test]
fn shuffle_accounting_matches_record_sizes() {
    // Every shuffled record of both PGBJ jobs is a serialised `Record`, so
    // the byte counter is exactly predictable: job 1 ships every object of
    // R ∪ S once, with one u32 cell key per batch its combiner let through;
    // job 2 ships the routed records (u32 group key + record).
    let r = workload(7);
    let s = workload(8);
    let ctx = ExecutionContext::default();
    let result = Join::new(&r, &s)
        .k(5)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(16)
        .reducers(4)
        .run(&ctx)
        .unwrap();
    let m = &result.metrics;
    let record_bytes =
        geom::Record::new(geom::RecordKind::R, 0, 0.0, r.points()[0].clone()).encoded_len() as u64;
    let job1_bytes = (r.len() + s.len()) as u64 * record_bytes + 4 * m.combine_output_records;
    let job2_bytes = (m.r_records_shuffled + m.s_records_shuffled) * (record_bytes + 4);
    assert_eq!(m.shuffle_bytes, job1_bytes + job2_bytes);
    assert_eq!(m.combine_input_records, (r.len() + s.len()) as u64);
}

#[test]
fn every_routed_r_replica_returns_as_one_merge_job_record() {
    // The two-job algorithms' shuffle is exact bookkeeping: PBJ's job 1
    // ships its combined batches, the join job ships every routed replica,
    // and the merge job ships one partial list per routed `R` replica —
    // whether one `r`'s lists land in different map splits (the default
    // `map_tasks = 2·reducers`) or share one (fewer map tasks).
    let r = workload(23);
    let s = workload(24);
    let ctx = ExecutionContext::default();
    for algorithm in [Algorithm::Hbrj, Algorithm::Pbj, Algorithm::Zknn] {
        for (reducers, map_tasks) in [(4, 8), (9, 18), (9, 3)] {
            let m = Join::new(&r, &s)
                .k(5)
                .algorithm(algorithm)
                .pivot_count(16)
                .reducers(reducers)
                .map_tasks(map_tasks)
                .run(&ctx)
                .unwrap()
                .metrics;
            assert_eq!(
                m.shuffle_records,
                m.combine_output_records + m.s_records_shuffled + 2 * m.r_records_shuffled,
                "{algorithm} reducers({reducers}) map_tasks({map_tasks})"
            );
        }
    }
}

#[test]
fn hbrj_replication_matches_block_count_exactly() {
    let r = workload(9);
    let s = workload(10);
    let ctx = ExecutionContext::default();
    for reducers in [4usize, 9, 16, 25] {
        let blocks = (reducers as f64).sqrt().floor() as u64;
        let result = Join::new(&r, &s)
            .k(3)
            .algorithm(Algorithm::Hbrj)
            .reducers(reducers)
            .run(&ctx)
            .unwrap();
        assert_eq!(result.metrics.r_records_shuffled, r.len() as u64 * blocks);
        assert_eq!(result.metrics.s_records_shuffled, s.len() as u64 * blocks);
    }
}

#[test]
fn phase_breakdown_covers_total_time() {
    let r = workload(11);
    let s = workload(12);
    let ctx = ExecutionContext::default();
    let result = Join::new(&r, &s)
        .k(5)
        .algorithm(Algorithm::Pbj)
        .pivot_count(16)
        .reducers(9)
        .run(&ctx)
        .unwrap();
    let m = &result.metrics;
    let summed: std::time::Duration = m.phase_times.iter().map(|(_, d)| *d).sum();
    assert_eq!(summed, m.total_time());
    assert!(m.total_time() > std::time::Duration::ZERO);
}

#[test]
fn every_join_result_carries_its_own_metrics() {
    // Joins sharing one context do not share metrics: each result reports
    // the |R| it was run over and the bytes its own jobs shuffled.
    let s = workload(13);
    let ctx = ExecutionContext::default();
    for (algorithm, r_len) in [
        (Algorithm::Pgbj, 500),
        (Algorithm::Hbrj, 300),
        (Algorithm::BroadcastJoin, 100),
    ] {
        let r = PointSet::from_points(s.points()[..r_len].to_vec());
        let result = Join::new(&r, &s)
            .k(4)
            .algorithm(algorithm)
            .pivot_count(12)
            .reducers(4)
            .run(&ctx)
            .unwrap();
        assert_eq!(result.metrics.r_size, r_len, "{algorithm}");
        assert_eq!(result.metrics.s_size, s.len(), "{algorithm}");
        assert!(result.metrics.shuffle_bytes > 0, "{algorithm}");
    }
}
