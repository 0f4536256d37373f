//! The op-stream generator and the order-statistics helpers.

use std::time::Duration;

use dlfm_bench::gen::{stream_hash, Action, Gen, Layout, Plan};
use dlfm_bench::spec::{workload, Spec};
use dlfm_bench::stats::{highest_supported, iqr_pct, median, percentile, quartiles};

fn layout_for(spec: &Spec) -> Layout {
    let shards: Vec<String> = (0..spec.shards).map(|i| format!("s{i}")).collect();
    Layout::new(spec.clients, &shards)
}

fn stream(spec: &Spec, seed: u64, client: usize, ops: usize) -> Vec<Plan> {
    let mut gen = Gen::new(spec, &layout_for(spec), seed, client);
    (0..ops).map(|_| gen.next_plan()).collect()
}

#[test]
fn same_seed_and_client_replay_the_same_stream() {
    for name in ["link_wire", "commit_forced_2shard", "read_mostly"] {
        let spec = workload(name).unwrap();
        assert_eq!(stream(spec, 7, 0, 5_000), stream(spec, 7, 0, 5_000), "{name}");
        let layout = layout_for(spec);
        assert_eq!(
            stream_hash(spec, &layout, 7, 0, 5_000),
            stream_hash(spec, &layout, 7, 0, 5_000)
        );
    }
}

#[test]
fn another_seed_or_client_gives_another_stream() {
    let spec = workload("commit_forced_2shard").unwrap();
    let layout = layout_for(spec);
    assert_ne!(stream(spec, 1, 0, 1_000), stream(spec, 2, 0, 1_000));
    assert_ne!(stream_hash(spec, &layout, 1, 0, 1_000), stream_hash(spec, &layout, 2, 0, 1_000));
    assert_ne!(stream_hash(spec, &layout, 1, 0, 1_000), stream_hash(spec, &layout, 1, 1, 1_000));
}

#[test]
fn the_two_link_workloads_share_one_stream() {
    let (wire, inproc) = (workload("link_wire").unwrap(), workload("link_inproc").unwrap());
    assert_eq!(stream(wire, 3, 0, 5_000), stream(inproc, 3, 0, 5_000));
}

#[test]
fn shares_stay_within_a_point_of_the_mix() {
    let spec = workload("link_wire").unwrap();
    let ops = 100_000;
    let (mut reads, mut ins, mut upd, mut del) = (0u32, 0u32, 0u32, 0u32);
    for plan in stream(spec, 1, 0, ops) {
        match plan {
            Plan::Read { .. } => reads += 1,
            Plan::Write { stmts, n } => {
                for s in &stmts[..n] {
                    match s.action {
                        Action::Insert => ins += 1,
                        Action::Update => upd += 1,
                        Action::Delete => del += 1,
                    }
                }
            }
        }
    }
    let pct = |part: u32, whole: u32| f64::from(part) / f64::from(whole) * 100.0;
    let writes = ins + upd + del;
    assert!((pct(reads, ops as u32) - f64::from(spec.read_pct)).abs() < 1.0);
    assert!((pct(ins, writes) - f64::from(spec.mix.insert)).abs() < 1.0, "insert {ins}/{writes}");
    assert!((pct(upd, writes) - f64::from(spec.mix.update)).abs() < 1.0, "update {upd}/{writes}");
    assert!((pct(del, writes) - f64::from(spec.mix.delete)).abs() < 1.0, "delete {del}/{writes}");
}

#[test]
fn every_forced_transaction_spans_two_distinct_shards() {
    let spec = workload("commit_forced_2shard").unwrap();
    let layout = layout_for(spec);
    let map = hostdb::ShardMap::new();
    map.set_shards(&layout.shards);
    let route = |slot: i64, version: u32| {
        map.route(&layout.path(slot, version), map.epoch(), Duration::ZERO).unwrap().unwrap().shard
    };
    let mut writes = 0;
    for client in 0..spec.clients {
        for plan in stream(spec, 5, client, 20_000) {
            if let Plan::Write { stmts, n } = plan {
                assert_eq!(n, 2);
                let (a, b) = (
                    route(stmts[0].slot, stmts[0].version),
                    route(stmts[1].slot, stmts[1].version),
                );
                assert_ne!(a, b, "{stmts:?} stays on one shard");
                // The URL names the shard the map routes to.
                assert!(layout
                    .url(stmts[0].slot, stmts[0].version)
                    .starts_with(&format!("dlfs://{a}/")));
                writes += 1;
            }
        }
    }
    assert!(writes > 30_000);
}

#[test]
fn a_stream_never_touches_a_row_that_is_not_there() {
    // Replay the stream against a plain set: inserts hit empty slots,
    // updates, deletes and reads hit occupied ones, versions only rise.
    let spec = workload("link_wire").unwrap();
    let layout = layout_for(spec);
    let mut rows: std::collections::HashMap<i64, u32> =
        (0..layout.preload).map(|i| (layout.slot_id(0, i), 0)).collect();
    for plan in stream(spec, 9, 0, 50_000) {
        match plan {
            Plan::Read { slot, version } => assert_eq!(rows.get(&slot), Some(&version)),
            Plan::Write { stmts, n } => {
                for s in &stmts[..n] {
                    match s.action {
                        Action::Insert => assert!(rows.insert(s.slot, s.version).is_none()),
                        Action::Update => {
                            let old = rows.insert(s.slot, s.version).expect("row exists");
                            assert!(s.version > old);
                        }
                        Action::Delete => assert!(rows.remove(&s.slot).is_some()),
                    }
                }
            }
        }
    }
}

#[test]
fn exact_percentiles_against_hand_computed_cases() {
    let v: Vec<u32> = (1..=10).collect();
    assert_eq!(percentile(&v, 50.0), 5);
    assert_eq!(percentile(&v, 95.0), 10);
    assert_eq!(percentile(&v, 10.0), 1);
    assert_eq!(percentile(&v, 100.0), 10);
    assert_eq!(percentile(&[], 50.0), 0);
    assert_eq!(percentile(&[7], 99.9), 7);
    let hundred: Vec<u32> = (1..=100).collect();
    assert_eq!(percentile(&hundred, 95.0), 95);
    assert_eq!(percentile(&hundred, 99.0), 99);
    // 100 samples: only p90 leaves ten beyond it.
    assert_eq!(highest_supported(&hundred), (90.0, 90));
    let many: Vec<u32> = (1..=20_000).collect();
    assert_eq!(highest_supported(&many), (99.9, 19_980));
}

#[test]
fn slice_median_and_quartiles_against_hand_computed_cases() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert!((iqr_pct(&ten) - 100.0).abs() < 1e-9);
    // Throughput is the median of six slice rates.
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 3.5);
}
