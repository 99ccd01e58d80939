//! Every reader of the one JSONL store format agrees with a ten-line
//! reference fold: `jsonl::fold`, `checkpoint::load`, `merge-checkpoints`,
//! `CheckpointStore::open(.., true)` and the serve supervisor's restart
//! keep the same keys, the same winning line per key and the same key
//! order. The stores mix real checkpoint records and real snapshot lines
//! under shared keys with repeats, blank lines, CRLF line ends, garbage,
//! non-UTF-8 lines and a tail torn at any byte, sometimes inside a
//! multi-byte character.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use thermorl_control::ControlConfig;
use thermorl_dispatch::store::line_meta;
use thermorl_dispatch::CheckpointStore;
use thermorl_json::Value;
use thermorl_policy::PolicyId;
use thermorl_runner::checkpoint::load;
use thermorl_runner::jsonl;
use thermorl_runner::{merge_checkpoints, parse_line, record_line, Codec, JobOutcome, JobRecord};
use thermorl_serve::session::SNAPSHOT_STATUS;
use thermorl_serve::{ServeConfig, Session, SessionMode, Supervisor};
use thermorl_telemetry::Snapshot;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "thermorl-store-agreement-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The reference fold: of the lines a reader accepts, the last one per
/// key wins, keys in first-seen order.
fn reference<V>(
    lines: &[Vec<u8>],
    accept: impl Fn(&str) -> Option<(String, V)>,
) -> Vec<(String, V)> {
    let mut out: Vec<(String, V)> = Vec::new();
    for (key, v) in lines
        .iter()
        .filter_map(|l| accept(std::str::from_utf8(l).ok()?))
    {
        match out.iter().position(|(k, _)| *k == key) {
            Some(i) => out[i].1 = v,
            None => out.push((key, v)),
        }
    }
    out
}

fn value_codec() -> Codec<Value> {
    Codec {
        encode: Value::clone,
        decode: |v| Ok(v.clone()),
    }
}

/// The keys both kinds of line share.
const KEYS: [&str; 3] = ["die-0", "die-µ°", "table2/tachyon-1/rl/0"];

fn record(key: &str, outcome: JobOutcome<Value>) -> JobRecord<Value> {
    let mut metrics = Snapshot::default();
    metrics.counters.insert("engine.samples".into(), 40);
    JobRecord {
        key: key.into(),
        policy: Some("das_dac14".into()),
        seed: 0x9E37_79B9_7F4A_7C15,
        attempts: 1,
        duration_ms: 5,
        resumed: false,
        metrics: Some(metrics),
        outcome,
    }
}

/// Per key: two `ok` records with different payloads, a `panicked` and
/// a `timeout` record, and two snapshot lines of differently seeded
/// sessions.
fn real_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let codec = value_codec();
        let mut lines = Vec::new();
        for key in KEYS {
            for mttf in [3.5, 4.25] {
                let mut payload = Value::object();
                payload.set("mttf_years", mttf).set("note", "95 °C");
                lines.push(record_line(
                    &record(key, JobOutcome::Completed(payload)),
                    &codec,
                ));
            }
            let panicked = JobOutcome::Panicked("hazard at 95 °C: µ above bound".into());
            lines.push(record_line(&record(key, panicked), &codec));
            lines.push(record_line(&record(key, JobOutcome::TimedOut), &codec));
            for seed in [1, 2] {
                let cfg = ControlConfig::default();
                let session =
                    Session::new(key, 4, 4, SessionMode::Power, PolicyId::DasDac14, seed, cfg);
                lines.push(session.snapshot_line());
            }
        }
        lines
    })
}

/// Lines no reader takes for a record: blank, garbage, keyless, a
/// non-string key, not UTF-8.
const OTHER: [&[u8]; 9] = [
    b"",
    b"   ",
    b"junk",
    b"{\"key\":",
    b"{\"key\":7,\"status\":\"ok\"}",
    b"{\"status\":\"ok\"}",
    b"[1,2,3]",
    b"\xFF\xFE{}",
    b"{\"key\":\"die-\xCE\",\"status\":\"snapshot\"}",
];

/// A line's key, for the codec-free readers.
fn keyed(line: &str) -> Option<(String, String)> {
    let key = Value::parse(line).ok()?.field::<String>("key").ok()?;
    Some((key, line.to_string()))
}

fn joined(lines: &[(String, String)]) -> String {
    lines.iter().map(|(_, line)| format!("{line}\n")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `entries` picks lines from the real lines then `OTHER`, each
    /// ended by `\n` or `\r\n`; `torn` cuts a real line at any byte
    /// (`inside` 1: inside a multi-byte character where it has one) and
    /// appends it unterminated.
    #[test]
    fn every_reader_agrees_with_the_reference_fold(
        entries in proptest::collection::vec((0usize..27, 0u8..2), 0..16),
        torn in (0usize..18, 0u8..2, 0usize..1_000_000),
    ) {
        let real = real_lines();
        prop_assert_eq!(real.len() + OTHER.len(), 27);
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut bytes = Vec::new();
        for &(pick, crlf) in &entries {
            let line = match real.get(pick) {
                Some(line) => line.as_bytes(),
                None => OTHER[pick - real.len()],
            };
            lines.push(line.to_vec());
            bytes.extend_from_slice(line);
            bytes.extend_from_slice(if crlf == 1 { b"\r\n" } else { b"\n" });
        }
        let (pick, inside, cut) = torn;
        let tail = &real[pick];
        let splits: Vec<usize> =
            (1..tail.len()).filter(|&i| !tail.is_char_boundary(i)).collect();
        let cut = if inside == 1 && !splits.is_empty() {
            splits[cut % splits.len()]
        } else {
            cut % tail.len()
        };
        lines.push(tail.as_bytes()[..cut].to_vec());
        bytes.extend_from_slice(&tail.as_bytes()[..cut]);
        let dir = temp_dir();
        let path = dir.join("store.jsonl");
        std::fs::write(&path, &bytes).expect("write store");

        // The fold itself, and the codec-free merge.
        let want = reference(&lines, keyed);
        let folded = jsonl::fold(&[&path], |line| {
            Ok((Value::parse(&line)?.field::<String>("key")?, line))
        })
        .expect("fold");
        prop_assert_eq!(&folded, &want);
        let merged = dir.join("merged.jsonl");
        let kept = merge_checkpoints(std::slice::from_ref(&path), &merged).expect("merge");
        prop_assert_eq!(kept, want.len());
        let text = std::fs::read_to_string(&merged).expect("read merge");
        prop_assert_eq!(text, joined(&want));

        // `--resume`: the records a campaign decodes.
        let codec = value_codec();
        let want: Vec<(String, String)> = reference(&lines, |l| {
            let record = parse_line(l, &codec).ok()?;
            Some((record.key.clone(), record_line(&record, &codec)))
        });
        let got: Vec<(String, String)> = load(&path, &codec)
            .expect("load")
            .iter()
            .map(|r| (r.key.clone(), record_line(r, &codec)))
            .collect();
        prop_assert_eq!(got, want);

        // The dispatch store: complete when the last record is `ok`; the
        // open ends a torn tail and changes nothing else.
        let want: HashSet<String> = reference(&lines, |l| {
            let meta = line_meta(l).ok()?;
            Some((meta.key, meta.ok))
        })
        .into_iter()
        .filter_map(|(key, ok)| ok.then_some(key))
        .collect();
        let copy = dir.join("dispatch.jsonl");
        std::fs::write(&copy, &bytes).expect("copy store");
        let store = CheckpointStore::open(&copy, true).expect("open");
        prop_assert_eq!(store.completed(), &want);
        drop(store);
        let mut ended = bytes.clone();
        if ended.last().is_some_and(|&b| b != b'\n') {
            ended.push(b'\n');
        }
        prop_assert_eq!(std::fs::read(&copy).expect("read store"), ended);

        // The serve restart compacts to the newest snapshot line per die.
        let want = reference(&lines, |l| {
            let v = Value::parse(l).ok()?;
            if v.field::<&str>("status").ok()? != SNAPSHOT_STATUS {
                return None;
            }
            keyed(l)
        });
        let copy = dir.join("serve.jsonl");
        std::fs::write(&copy, &bytes).expect("copy store");
        let handle = Supervisor::spawn(ServeConfig {
            store: copy.clone(),
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("restart");
        handle.shutdown(true);
        handle.join().expect("join");
        let text = std::fs::read_to_string(&copy).expect("read compacted");
        prop_assert_eq!(text, joined(&want));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The one rule where the readers used to disagree: an `ok` record
/// followed by a failure record for the same key leaves the failure.
/// `--resume` and a resumed coordinator re-run the key, and a merge keeps
/// the failure line.
#[test]
fn an_ok_record_followed_by_a_failure_leaves_the_failure() {
    let codec = value_codec();
    let ok = record_line(&record("k", JobOutcome::Completed(Value::UInt(1))), &codec);
    let failed = record_line(&record("k", JobOutcome::TimedOut), &codec);
    let dir = temp_dir();
    let path = dir.join("store.jsonl");
    std::fs::write(&path, format!("{ok}\n{failed}\n")).expect("write store");

    let loaded = load(&path, &codec).expect("load");
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0].outcome, JobOutcome::TimedOut);
    let merged = dir.join("merged.jsonl");
    merge_checkpoints(std::slice::from_ref(&path), &merged).expect("merge");
    assert_eq!(
        std::fs::read_to_string(&merged).expect("read merge"),
        format!("{failed}\n")
    );
    let store = CheckpointStore::open(&path, true).expect("open");
    assert!(!store.is_completed("k"));
    std::fs::remove_dir_all(&dir).ok();
}
