//! Literal answer digests on tie-heavy input.
//!
//! Every counter of a join can stay the same while the answer changes: when
//! two `S` objects are at exactly the same distance from an `R` object and
//! only one of them fits in its `k`, the order in which candidates are
//! offered (heap order in the R-tree, tile order in a scan, list order in a
//! merge) decides which one survives.  The counters do not see that choice;
//! these digests do.  Each is an FNV-1a hash over the rows in `r_id` order —
//! `r_id`, neighbour count, then every neighbour's id and distance bits — on
//! two inputs built to tie: a small `forest_like` set (integer coordinates)
//! and a 2-d set snapped to a coarse grid.
//!
//! The literals were recorded before the H-BRJ copy removal (borrowed
//! shuffle records, trees built from borrowed rows, a reused probe scratch
//! with 16-byte heap entries); the PBJ and H-zkNNJ `reducers(9)` rows before
//! the merge job took borrowed per-cell runs, and all three `reducers(9)`
//! rows before the merge job dropped its map-side combiner.  None may move
//! with a change that claims to keep answers.

use pgbj::prelude::*;

const K: usize = 10;

/// FNV-1a over the rows in `r_id` order: `r_id`, neighbour count, then each
/// neighbour's id and `distance.to_bits()`.
fn digest(result: &JoinResult) -> u64 {
    let mut rows: Vec<&JoinRow> = result.rows.iter().collect();
    rows.sort_by_key(|row| row.r_id);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in rows {
        mix(row.r_id);
        mix(row.neighbors.len() as u64);
        for n in &row.neighbors {
            mix(n.id);
            mix(n.distance.to_bits());
        }
    }
    hash
}

/// A 3-d self-join input with integer coordinates: every object ties with
/// itself at distance 0 and many ties with others.
fn forest() -> (PointSet, PointSet) {
    let data = forest_like(
        &ForestConfig {
            n_points: 500,
            dims: 3,
            n_clusters: 4,
        },
        31,
    );
    (data.clone(), data)
}

/// 2-d `R` and `S` with every coordinate snapped to one of 13 values per
/// axis, so most candidate distances repeat exactly.
fn grid() -> (PointSet, PointSet) {
    let snap = |set: PointSet| {
        PointSet::from_coords(
            set.iter()
                .map(|p| p.coords.iter().map(|c| (c / 8.0).floor()).collect())
                .collect(),
        )
    };
    (
        snap(uniform(150, 2, 100.0, 41)),
        snap(uniform(400, 2, 100.0, 42)),
    )
}

fn builder<'a>(
    r: &'a PointSet,
    s: &'a PointSet,
    algorithm: Algorithm,
    reducers: usize,
) -> Join<'a> {
    Join::new(r, s)
        .k(K)
        .algorithm(algorithm)
        .pivot_count(16)
        .reducers(reducers)
        .map_tasks(3)
        .seed(2012)
}

/// `(label, digest)` of every pinned run on one input.
fn digests(r: &PointSet, s: &PointSet) -> Vec<(String, u64)> {
    let ctx = ExecutionContext::default();
    let mut out = Vec::new();
    for algorithm in Algorithm::ALL {
        let result = builder(r, s, algorithm, 4).run(&ctx).expect("cold join");
        out.push((format!("{algorithm} cold"), digest(&result)));
    }
    let prepared = builder(r, s, Algorithm::Pgbj, 4)
        .prepare(&ctx)
        .expect("prepare");
    let result = prepared.query(r).expect("prepared query");
    out.push(("PGBJ prepared".into(), digest(&result)));
    // A 3 x 3 grid of merge-job inputs over 3 map tasks, where one `r`'s
    // lists can share a split: the merge job's list order decides
    // equal-distance survivors.
    for algorithm in [Algorithm::Hbrj, Algorithm::Pbj, Algorithm::Zknn] {
        let result = builder(r, s, algorithm, 9).run(&ctx).expect("cold join");
        let label = format!("{algorithm} reducers(9) map_tasks(3)");
        out.push((label, digest(&result)));
    }
    out
}

fn check(input: &str, (r, s): (PointSet, PointSet), expected: &[u64]) {
    let actual = digests(&r, &s);
    let table: String = actual
        .iter()
        .map(|(label, d)| format!("    {d:#018x}, // {label}\n"))
        .collect();
    let got: Vec<u64> = actual.iter().map(|&(_, d)| d).collect();
    assert_eq!(got, expected, "{input} digests now:\n{table}");
}

#[test]
fn forest_answers_are_pinned() {
    #[rustfmt::skip]
    let expected = [
        0x60d4_87aa_39b9_e167, // PGBJ cold
        0xbaf2_16aa_2e89_7d9d, // PBJ cold
        0xbaf2_16aa_2e89_7d9d, // H-BRJ cold
        0x5197_f0d7_f061_ef79, // H-zkNNJ cold
        0x8f27_b5cf_36f1_0cad, // Broadcast cold
        0x8f27_b5cf_36f1_0cad, // NestedLoop cold
        0x60d4_87aa_39b9_e167, // PGBJ prepared
        0x8f27_b5cf_36f1_0cad, // H-BRJ reducers(9) map_tasks(3)
        0x8f27_b5cf_36f1_0cad, // PBJ reducers(9) map_tasks(3)
        0x5197_f0d7_f061_ef79, // H-zkNNJ reducers(9) map_tasks(3)
    ];
    check("forest", forest(), &expected);
}

#[test]
fn grid_answers_are_pinned() {
    #[rustfmt::skip]
    let expected = [
        0xc0af_4bbc_9fb7_775b, // PGBJ cold
        0x61e3_53e1_a580_0acd, // PBJ cold
        0xf2d3_167d_59bd_8080, // H-BRJ cold
        0xf831_a0ce_3731_cb6e, // H-zkNNJ cold
        0x3638_282c_c389_8592, // Broadcast cold
        0x3638_282c_c389_8592, // NestedLoop cold
        0xc0af_4bbc_9fb7_775b, // PGBJ prepared
        0xa61f_34a9_aff5_9426, // H-BRJ reducers(9) map_tasks(3)
        0xc84f_466d_c564_c105, // PBJ reducers(9) map_tasks(3)
        0xf831_a0ce_3731_cb6e, // H-zkNNJ reducers(9) map_tasks(3)
    ];
    check("grid", grid(), &expected);
}
