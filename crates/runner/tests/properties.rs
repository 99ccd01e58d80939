//! Property-based tests of checkpoint merging and loading. Merging, the
//! operation the shard and dispatch workflows lean on, must be
//! idempotent, order-insensitive on disjoint shards, and last-wins on
//! overlap. Loading, what `--resume` reads, must keep every intact record
//! whatever else the file holds.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use thermorl_json::{JsonError, Value};
use thermorl_runner::checkpoint::load;
use thermorl_runner::{merge_checkpoints, record_line, Codec, JobOutcome, JobRecord};
use thermorl_telemetry::Snapshot;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh per-case scratch directory (cases run sequentially but must
/// not see each other's files).
fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "thermorl-runner-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn line(key: &str, payload: u64) -> String {
    format!("{{\"key\":\"{key}\",\"seed\":1,\"status\":\"ok\",\"payload\":{payload}}}")
}

/// Writes one shard file; entry `(k, payload)` becomes key `s{shard}/k{k}`
/// (the shard prefix keeps different shards' key sets disjoint, while
/// repeated `k` within one shard exercises last-wins inside a file).
fn write_shard(dir: &std::path::Path, shard: usize, entries: &[(u8, u64)]) -> PathBuf {
    let path = dir.join(format!("shard{shard}.jsonl"));
    let mut text = String::new();
    for (k, payload) in entries {
        text.push_str(&line(&format!("s{shard}/k{k}"), *payload));
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write shard");
    path
}

/// The merged file as a key → line map (order ignored).
fn merged_map(path: &std::path::Path) -> HashMap<String, String> {
    std::fs::read_to_string(path)
        .expect("read merged")
        .lines()
        .map(|l| {
            let key = l
                .split("\"key\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .expect("line has a key");
            (key.to_string(), l.to_string())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merging a merge's own output changes nothing, byte for byte.
    #[test]
    fn merge_is_idempotent(
        shards in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u64..1000), 0..8),
            1..4,
        ),
    ) {
        let dir = temp_dir();
        let inputs: Vec<PathBuf> = shards
            .iter()
            .enumerate()
            .map(|(i, entries)| write_shard(&dir, i, entries))
            .collect();
        let once = dir.join("once.jsonl");
        let twice = dir.join("twice.jsonl");
        let n1 = merge_checkpoints(&inputs, &once).expect("first merge");
        let n2 = merge_checkpoints(std::slice::from_ref(&once), &twice).expect("second merge");
        prop_assert_eq!(n1, n2);
        // Re-merging the merged output must be a byte-identical no-op.
        prop_assert_eq!(
            std::fs::read(&once).expect("read once"),
            std::fs::read(&twice).expect("read twice")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With disjoint key sets the input order cannot matter: any
    /// permutation merges to the same records.
    #[test]
    fn merge_is_order_insensitive_on_disjoint_shards(
        shards in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u64..1000), 0..8),
            2..5,
        ),
        rotate_by in 0usize..4,
    ) {
        let dir = temp_dir();
        let inputs: Vec<PathBuf> = shards
            .iter()
            .enumerate()
            .map(|(i, entries)| write_shard(&dir, i, entries))
            .collect();
        let mut permuted = inputs.clone();
        let pivot = rotate_by % permuted.len();
        permuted.rotate_left(pivot);
        permuted.reverse();
        let fwd = dir.join("fwd.jsonl");
        let perm = dir.join("perm.jsonl");
        let n1 = merge_checkpoints(&inputs, &fwd).expect("merge");
        let n2 = merge_checkpoints(&permuted, &perm).expect("permuted merge");
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(merged_map(&fwd), merged_map(&perm));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each key's merged line is the last occurrence across the inputs in
    /// merge order (within a file: top to bottom).
    #[test]
    fn merge_is_last_wins_per_key(
        shards in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u64..1000), 0..8),
            1..4,
        ),
    ) {
        let dir = temp_dir();
        // All shards share the prefix 0 so keys overlap across files.
        let inputs: Vec<PathBuf> = shards
            .iter()
            .enumerate()
            .map(|(i, entries)| {
                let path = dir.join(format!("overlap{i}.jsonl"));
                let text: String = entries
                    .iter()
                    .map(|(k, payload)| line(&format!("s0/k{k}"), *payload) + "\n")
                    .collect();
                std::fs::write(&path, text).expect("write shard");
                path
            })
            .collect();
        let mut expected: HashMap<String, String> = HashMap::new();
        for entries in &shards {
            for (k, payload) in entries {
                expected.insert(format!("s0/k{k}"), line(&format!("s0/k{k}"), *payload));
            }
        }
        let out = dir.join("merged.jsonl");
        let n = merge_checkpoints(&inputs, &out).expect("merge");
        prop_assert_eq!(n, expected.len());
        prop_assert_eq!(merged_map(&out), expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn u64_codec() -> Codec<u64> {
    Codec {
        encode: |v| Value::UInt(*v),
        decode: |v| v.as_u64().ok_or_else(|| JsonError::new("expected u64")),
    }
}

fn value_codec() -> Codec<Value> {
    Codec {
        encode: Value::clone,
        decode: |v| Ok(v.clone()),
    }
}

/// Two record lines as a campaign writes them: an `ok` record with a
/// policy tag, counters and a nested payload, and a `panicked` record
/// whose message is not ASCII.
fn real_records() -> [JobRecord<Value>; 2] {
    let mut metrics = Snapshot::default();
    metrics.counters.insert("engine.samples".into(), 40);
    let mut payload = Value::object();
    payload
        .set("avg_temp_c", 61.25)
        .set("mttf_years", &[3.5, 4.25][..])
        .set("policy", "das_dac14");
    let record = |key: &str, outcome| JobRecord {
        key: key.into(),
        policy: Some("das_dac14".into()),
        seed: 0x9E37_79B9_7F4A_7C15,
        attempts: 1,
        duration_ms: 5,
        resumed: false,
        metrics: Some(metrics.clone()),
        outcome,
    };
    [
        record("table2/tachyon-1/rl/0", JobOutcome::Completed(payload)),
        record(
            "fig6/rl/3",
            JobOutcome::Panicked("hazard at 95 °C: µ above bound".into()),
        ),
    ]
}

/// Seed texts outside `u64`: 2^64 as an integer and as a float, a
/// negative, a fraction, and a float that overflows to infinity.
const BAD_SEEDS: [&str; 5] = [
    "18446744073709551616",
    "1.8446744073709552e19",
    "-1",
    "1.5",
    "1e400",
];

fn seeded_line(key: &str, seed: &str, payload: u64) -> String {
    format!("{{\"key\":\"{key}\",\"seed\":{seed},\"status\":\"ok\",\"payload\":{payload}}}")
}

/// Every strict prefix of a real record line, as the torn final line of
/// a checkpoint, is skipped: the intact records before it all load, and
/// all survive a merge.
#[test]
fn load_and_merge_survive_a_real_record_torn_at_every_byte() {
    let dir = temp_dir();
    let path = dir.join("campaign.jsonl");
    let merged = dir.join("merged.jsonl");
    let codec = value_codec();
    let records = real_records();
    let lines = records.each_ref().map(|r| record_line(r, &codec));
    let intact = format!("{}\n{}\n", lines[0], lines[1]);
    for line in &lines {
        for cut in 0..line.len() {
            let mut bytes = intact.clone().into_bytes();
            bytes.extend_from_slice(&line.as_bytes()[..cut]);
            std::fs::write(&path, &bytes).expect("write checkpoint");
            let loaded = load(&path, &codec).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(loaded.len(), 2, "cut {cut} of {line}");
            for (got, want) in loaded.iter().zip(&records) {
                assert_eq!(
                    (&got.key, got.seed, &got.outcome),
                    (&want.key, want.seed, &want.outcome)
                );
            }
            let kept = merge_checkpoints(std::slice::from_ref(&path), &merged)
                .unwrap_or_else(|e| panic!("merge, cut {cut}: {e}"));
            assert_eq!(kept, 2, "merge, cut {cut} of {line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A checkpoint mixing intact records with out-of-range seeds,
    /// repeated keys and a torn final line loads without error or panic,
    /// and keeps every intact record: last wins per key, in first-seen
    /// key order. `bad` 0 writes an intact record, 1..=5 a `BAD_SEEDS`
    /// seed, which makes the line corrupt.
    #[test]
    fn load_keeps_every_intact_record(
        entries in proptest::collection::vec((0u8..5, 0usize..6, 0u64..1000), 0..12),
        torn in 0usize..2,
        cut in 0usize..1000,
    ) {
        let dir = temp_dir();
        let path = dir.join("campaign.jsonl");
        let mut text = String::new();
        let mut order: Vec<String> = Vec::new();
        let mut want: HashMap<String, u64> = HashMap::new();
        for (k, bad, payload) in &entries {
            let key = format!("k{k}");
            if *bad == 0 {
                text += &seeded_line(&key, &payload.to_string(), *payload);
                if !want.contains_key(&key) {
                    order.push(key.clone());
                }
                want.insert(key, *payload);
            } else {
                text += &seeded_line(&key, BAD_SEEDS[bad - 1], *payload);
            }
            text.push('\n');
        }
        let tail = record_line(&real_records()[torn], &value_codec());
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(&tail.as_bytes()[..cut % tail.len()]);
        std::fs::write(&path, &bytes).expect("write checkpoint");

        let loaded = load(&path, &u64_codec()).expect("load");
        let got: Vec<(String, u64, JobOutcome<u64>)> = loaded
            .into_iter()
            .map(|r| (r.key, r.seed, r.outcome))
            .collect();
        let expected: Vec<(String, u64, JobOutcome<u64>)> = order
            .into_iter()
            .map(|k| {
                let payload = want[&k];
                (k, payload, JobOutcome::Completed(payload))
            })
            .collect();
        prop_assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}
