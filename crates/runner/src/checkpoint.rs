//! Incremental JSONL checkpointing.
//!
//! Every completed job appends one line to the checkpoint file:
//!
//! ```json
//! {"key":"table2/tachyon-1/linux/0","seed":1234,"status":"ok","payload":{...}}
//! {"key":"table2/tachyon-1/rl/1","seed":99,"status":"panicked","error":"..."}
//! {"key":"fig6/rl/3","seed":7,"status":"timeout"}
//! ```
//!
//! Lines record only schedule-independent fields (no durations, no attempt
//! counts), so a checkpoint sorted by key is byte-identical no matter how
//! many workers produced it. When telemetry is live, a record additionally
//! carries the deterministic part of its per-job metrics delta — the
//! counters, as a `"metrics"` object — but never span timings, which vary
//! run to run. Loading is last-wins per key, and a corrupt trailing line
//! (a partial write from an interrupted campaign) is skipped with a
//! warning rather than aborting the resume.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use thermorl_json::{JsonError, Value};
use thermorl_telemetry::Snapshot;

use crate::job::{JobOutcome, JobRecord};

/// Encodes/decodes the job payload `T` to/from [`Value`].
///
/// Plain function pointers (not closures) so a `Codec` is trivially
/// `Copy` and campaign builders can embed it in configuration.
pub struct Codec<T> {
    /// Payload → JSON value.
    pub encode: fn(&T) -> Value,
    /// JSON value → payload.
    pub decode: fn(&Value) -> Result<T, JsonError>,
}

impl<T> Clone for Codec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Codec<T> {}

impl<T> std::fmt::Debug for Codec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Codec").finish_non_exhaustive()
    }
}

/// Renders one record as its checkpoint line (no trailing newline).
pub fn record_line<T>(record: &JobRecord<T>, codec: &Codec<T>) -> String {
    let mut obj = Value::object();
    obj.set("key", Value::Str(record.key.clone()));
    if let Some(policy) = &record.policy {
        obj.set("policy", Value::Str(policy.clone()));
    }
    obj.set("seed", Value::UInt(record.seed));
    if let Some(metrics) = &record.metrics {
        if !metrics.counters.is_empty() {
            let mut counters = Value::object();
            for (name, value) in &metrics.counters {
                counters.set(name, Value::UInt(*value));
            }
            obj.set("metrics", counters);
        }
    }
    match &record.outcome {
        JobOutcome::Completed(payload) => {
            obj.set("status", Value::Str("ok".into()));
            obj.set("payload", (codec.encode)(payload));
        }
        JobOutcome::Panicked(message) => {
            obj.set("status", Value::Str("panicked".into()));
            obj.set("error", Value::Str(message.clone()));
        }
        JobOutcome::TimedOut => {
            obj.set("status", Value::Str("timeout".into()));
        }
    }
    obj.to_json()
}

/// Parses one checkpoint line back into a (resumed) record.
pub fn parse_line<T>(line: &str, codec: &Codec<T>) -> Result<JobRecord<T>, JsonError> {
    let value = Value::parse(line)?;
    let key = value.field("key")?;
    // Optional: pre-policy checkpoints simply have no tag.
    let policy = value.opt_field("policy")?;
    let seed = value.field("seed")?;
    let status: &str = value.field("status")?;
    // Optional and tolerant: pre-telemetry checkpoints simply have no
    // "metrics" object, and unrecognisable entries are dropped rather than
    // failing the resume.
    let metrics = value.get("metrics").map(|m| {
        let mut snap = Snapshot::default();
        if let Value::Obj(entries) = m {
            for (name, v) in entries {
                if let Some(count) = v.as_u64() {
                    snap.counters.insert(name.clone(), count);
                }
            }
        }
        snap
    });
    let outcome = match status {
        "ok" => JobOutcome::Completed((codec.decode)(value.field("payload")?)?),
        "panicked" => JobOutcome::Panicked(
            value
                .field("error")
                .unwrap_or_else(|_| "unknown panic".to_string()),
        ),
        "timeout" => JobOutcome::TimedOut,
        other => return Err(JsonError::new(format!("unknown status {other:?}"))),
    };
    Ok(JobRecord {
        key,
        policy,
        seed,
        attempts: 0,
        duration_ms: 0,
        resumed: true,
        metrics,
        outcome,
    })
}

/// An append-only checkpoint writer. Each record is flushed as soon as it
/// is written, so an interrupted campaign loses at most the in-flight line.
pub struct CheckpointWriter<T> {
    path: PathBuf,
    out: BufWriter<File>,
    codec: Codec<T>,
}

impl<T> CheckpointWriter<T> {
    /// Opens `path` for appending (creating it and parent directories as
    /// needed). If an interrupted campaign left a torn final line with no
    /// trailing newline, one is added first so the next record starts on
    /// its own line instead of corrupting the torn one's neighbours. Only
    /// the file's last byte is read, however long the checkpoint is.
    pub fn append(path: &Path, codec: Codec<T>) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::Start(len - 1))?;
            file.read_exact(&mut last)?;
            // Appends go to the end whatever the read position.
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(CheckpointWriter {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            codec,
        })
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends and flushes one record.
    pub fn write(&mut self, record: &JobRecord<T>) -> std::io::Result<()> {
        let line = record_line(record, &self.codec);
        writeln!(self.out, "{line}")?;
        self.out.flush()
    }
}

/// The lines of `reader` without their line ends; `None` for a line that
/// is not UTF-8 (a write torn inside a multi-byte character), which the
/// caller skips like any other corrupt line. `BufRead::lines` would end
/// the whole read with an error instead. Every JSONL store reads through
/// it: campaign checkpoints, the dispatch store and serve's snapshots.
pub fn utf8_lines(reader: impl BufRead) -> impl Iterator<Item = std::io::Result<Option<String>>> {
    reader.split(b'\n').map(|line| {
        let mut bytes = line?;
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        Ok(String::from_utf8(bytes).ok())
    })
}

/// Loads a checkpoint: resumed records in first-seen key order, last
/// occurrence of each key winning. Returns an empty list if the file does
/// not exist. Corrupt lines (e.g. a torn final write, even one cut inside
/// a multi-byte character) are skipped with a warning on stderr.
pub fn load<T>(path: &Path, codec: &Codec<T>) -> std::io::Result<Vec<JobRecord<T>>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let reader = BufReader::new(File::open(path)?);
    let mut order: Vec<String> = Vec::new();
    let mut by_key: std::collections::HashMap<String, JobRecord<T>> =
        std::collections::HashMap::new();
    for (lineno, line) in utf8_lines(reader).enumerate() {
        let parsed = match line? {
            Some(line) if line.trim().is_empty() => continue,
            Some(line) => parse_line(&line, codec),
            None => Err(JsonError::new("line is not UTF-8")),
        };
        match parsed {
            Ok(record) => {
                if !by_key.contains_key(&record.key) {
                    order.push(record.key.clone());
                }
                by_key.insert(record.key.clone(), record);
            }
            Err(e) => {
                eprintln!(
                    "[runner] warning: skipping corrupt checkpoint line {} of {}: {}",
                    lineno + 1,
                    path.display(),
                    e
                );
            }
        }
    }
    Ok(order
        .into_iter()
        .map(|k| by_key.remove(&k).expect("ordered key present"))
        .collect())
}

/// Merges several JSONL checkpoints into `out`, last-wins per key: inputs
/// are read in the order given and, within each file, top to bottom, so a
/// record in a later input overrides an earlier one for the same key.
/// Output preserves first-seen key order. Lines are kept verbatim (no
/// payload decoding — the merge is codec-free and works on checkpoints of
/// any payload type). Corrupt or keyless lines are skipped with a warning.
///
/// All inputs are read fully before `out` is written, so `out` may safely
/// be one of the inputs. Returns the number of distinct keys written.
///
/// # Errors
///
/// Fails if an input cannot be read or the output cannot be written.
pub fn merge(inputs: &[PathBuf], out: &Path) -> std::io::Result<usize> {
    let mut order: Vec<String> = Vec::new();
    let mut by_key: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for path in inputs {
        let reader = BufReader::new(File::open(path)?);
        for (lineno, line) in utf8_lines(reader).enumerate() {
            let line = line?;
            if line.as_deref().is_some_and(|l| l.trim().is_empty()) {
                continue;
            }
            let keyed = line.and_then(|line| {
                let key = Value::parse(&line).ok()?.field::<String>("key").ok()?;
                Some((key, line))
            });
            match keyed {
                Some((key, line)) => {
                    if !by_key.contains_key(&key) {
                        order.push(key.clone());
                    }
                    by_key.insert(key, line);
                }
                None => eprintln!(
                    "[runner] warning: skipping corrupt line {} of {} during merge",
                    lineno + 1,
                    path.display()
                ),
            }
        }
    }
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut writer = BufWriter::new(File::create(out)?);
    for key in &order {
        writeln!(writer, "{}", by_key[key])?;
    }
    writer.flush()?;
    Ok(order.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u64_codec() -> Codec<u64> {
        Codec {
            encode: |v| Value::UInt(*v),
            decode: |v| v.as_u64().ok_or_else(|| JsonError::new("expected u64")),
        }
    }

    fn record(key: &str, seed: u64, outcome: JobOutcome<u64>) -> JobRecord<u64> {
        JobRecord {
            key: key.into(),
            policy: None,
            seed,
            attempts: 1,
            duration_ms: 12,
            resumed: false,
            metrics: None,
            outcome,
        }
    }

    #[test]
    fn line_round_trips_all_statuses() {
        let codec = u64_codec();
        for outcome in [
            JobOutcome::Completed(7),
            JobOutcome::Panicked("boom".into()),
            JobOutcome::TimedOut,
        ] {
            let rec = record("a/b/0", u64::MAX - 3, outcome.clone());
            let line = record_line(&rec, &codec);
            let back = parse_line(&line, &codec).expect("parse");
            assert_eq!(back.key, rec.key);
            assert_eq!(back.seed, rec.seed, "u64 seeds survive exactly");
            assert_eq!(back.outcome, outcome);
            assert!(back.resumed);
            assert_eq!(back.attempts, 0, "schedule fields not checkpointed");
        }
    }

    #[test]
    fn policy_tag_round_trips_and_is_optional() {
        let codec = u64_codec();
        let mut rec = record("grid/ucb1/0", 5, JobOutcome::Completed(7));
        rec.policy = Some("ucb1".into());
        let line = record_line(&rec, &codec);
        let back = parse_line(&line, &codec).expect("parse");
        assert_eq!(back.policy.as_deref(), Some("ucb1"));
        // Pre-policy lines decode with no tag.
        let untagged = record_line(&record("k", 1, JobOutcome::Completed(2)), &codec);
        assert!(!untagged.contains("policy"), "line: {untagged}");
        assert!(parse_line(&untagged, &codec)
            .expect("parse")
            .policy
            .is_none());
    }

    #[test]
    fn line_excludes_schedule_dependent_fields() {
        let line = record_line(&record("k", 1, JobOutcome::Completed(2)), &u64_codec());
        assert!(!line.contains("duration"), "line: {line}");
        assert!(!line.contains("attempts"), "line: {line}");
    }

    #[test]
    fn metrics_counters_round_trip_but_timings_do_not() {
        let mut metrics = Snapshot::default();
        metrics
            .counters
            .insert("thermal.propagator_builds".into(), 3);
        metrics.counters.insert("engine.samples".into(), 40);
        metrics
            .spans
            .entry("engine.decide".into())
            .or_default()
            .record(1234);
        let mut rec = record("k", 9, JobOutcome::Completed(2));
        rec.metrics = Some(metrics);
        let line = record_line(&rec, &u64_codec());
        assert!(!line.contains("engine.decide"), "no timings in: {line}");
        let back = parse_line(&line, &u64_codec()).expect("parse");
        let restored = back.metrics.expect("metrics survive");
        assert_eq!(restored.counters.get("thermal.propagator_builds"), Some(&3));
        assert_eq!(restored.counters.get("engine.samples"), Some(&40));
        assert!(restored.spans.is_empty());

        // Empty metrics and pre-telemetry lines both decode to None.
        let mut rec = record("k2", 9, JobOutcome::Completed(2));
        rec.metrics = Some(Snapshot::default());
        let line = record_line(&rec, &u64_codec());
        assert!(!line.contains("metrics"), "line: {line}");
        assert!(parse_line(&line, &u64_codec())
            .expect("parse")
            .metrics
            .is_none());
    }

    #[test]
    fn load_is_last_wins_and_skips_corrupt_tail() {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-runner-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("campaign.jsonl");
        let codec = u64_codec();
        let mut writer = CheckpointWriter::append(&path, codec).expect("open");
        writer
            .write(&record("a", 1, JobOutcome::Panicked("first try".into())))
            .expect("write");
        writer
            .write(&record("b", 2, JobOutcome::Completed(20)))
            .expect("write");
        writer
            .write(&record("a", 1, JobOutcome::Completed(10)))
            .expect("write");
        drop(writer);
        // Simulate a torn write from an interrupted campaign.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            write!(f, "{{\"key\":\"c\",\"se").expect("write partial");
        }
        let loaded = load(&path, &codec).expect("load");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].key, "a");
        assert_eq!(loaded[0].outcome, JobOutcome::Completed(10), "last wins");
        assert_eq!(loaded[1].key, "b");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_torn_tail_starts_on_a_fresh_line() {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-runner-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("campaign.jsonl");
        std::fs::write(&path, "{\"key\":\"torn\",\"se").expect("seed torn tail");
        let codec = u64_codec();
        let mut writer = CheckpointWriter::append(&path, codec).expect("open");
        writer
            .write(&record("a", 1, JobOutcome::Completed(10)))
            .expect("write");
        drop(writer);
        let loaded = load(&path, &codec).expect("load");
        assert_eq!(loaded.len(), 1, "record after torn tail must survive");
        assert_eq!(loaded[0].key, "a");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_to_an_empty_file_adds_no_newline() {
        let dir = temp_dir("empty");
        let path = dir.join("campaign.jsonl");
        std::fs::write(&path, "").expect("create empty file");
        let codec = u64_codec();
        let rec = record("a", 1, JobOutcome::Completed(10));
        let mut writer = CheckpointWriter::append(&path, codec).expect("open");
        writer.write(&rec).expect("write");
        drop(writer);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, format!("{}\n", record_line(&rec, &codec)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_a_complete_line_adds_no_blank_line() {
        let dir = temp_dir("complete");
        let path = dir.join("campaign.jsonl");
        let codec = u64_codec();
        let first = record_line(&record("a", 1, JobOutcome::Completed(10)), &codec);
        std::fs::write(&path, format!("{first}\n")).expect("seed one record");
        let second = record("b", 2, JobOutcome::Completed(20));
        let mut writer = CheckpointWriter::append(&path, codec).expect("open");
        writer.write(&second).expect("write");
        drop(writer);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, format!("{first}\n{}\n", record_line(&second, &codec)));
        let keys: Vec<String> = load(&path, &codec)
            .expect("load")
            .into_iter()
            .map(|r| r.key)
            .collect();
        assert_eq!(keys, ["a", "b"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_empty() {
        let loaded = load(Path::new("/nonexistent/campaign.jsonl"), &u64_codec()).expect("load");
        assert!(loaded.is_empty());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-runner-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn merge_is_last_wins_across_files() {
        let dir = temp_dir("merge");
        let shard1 = dir.join("shard1.jsonl");
        let shard2 = dir.join("shard2.jsonl");
        // shard1 has a stale record for "b" that shard2 supersedes; "junk"
        // is a corrupt line that must be skipped, not merged or fatal.
        std::fs::write(
            &shard1,
            "{\"key\":\"a\",\"seed\":1,\"status\":\"ok\",\"payload\":10}\n\
             {\"key\":\"b\",\"seed\":2,\"status\":\"timeout\"}\n\
             junk line\n",
        )
        .expect("write");
        std::fs::write(
            &shard2,
            "{\"key\":\"b\",\"seed\":2,\"status\":\"ok\",\"payload\":20}\n\
             {\"key\":\"c\",\"seed\":3,\"status\":\"ok\",\"payload\":30}\n",
        )
        .expect("write");
        let out = dir.join("merged.jsonl");
        let n = merge(&[shard1, shard2], &out).expect("merge");
        assert_eq!(n, 3);
        let loaded = load(&out, &u64_codec()).expect("load merged");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[0].key, "a");
        assert_eq!(loaded[1].key, "b");
        assert_eq!(
            loaded[1].outcome,
            JobOutcome::Completed(20),
            "later input wins"
        );
        assert_eq!(loaded[2].key, "c");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_skips_torn_trailing_line_in_any_input() {
        let dir = temp_dir("merge-torn");
        // Both inputs end in a torn line (interrupted shard processes);
        // neither torn fragment may surface in the merge, and neither may
        // take the whole input down with it.
        let shard1 = dir.join("shard1.jsonl");
        let shard2 = dir.join("shard2.jsonl");
        std::fs::write(
            &shard1,
            "{\"key\":\"a\",\"seed\":1,\"status\":\"ok\",\"payload\":10}\n\
             {\"key\":\"b\",\"se",
        )
        .expect("write");
        std::fs::write(
            &shard2,
            "{\"key\":\"c\",\"seed\":3,\"status\":\"ok\",\"payload\":30}\n\
             {\"key\":\"d\",\"seed\":4,\"status\":\"ok\",\"pa",
        )
        .expect("write");
        let out = dir.join("merged.jsonl");
        let n = merge(&[shard1, shard2], &out).expect("merge");
        // The shard2 torn line still parses far enough to lack a valid
        // shape only if truncated mid-token; `{"key":"d",...,"pa` is
        // invalid JSON, so only the two complete records survive.
        assert_eq!(n, 2);
        let loaded = load(&out, &u64_codec()).expect("load merged");
        let keys: Vec<&str> = loaded.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["a", "c"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_output_may_be_an_input() {
        let dir = temp_dir("merge-inplace");
        let main = dir.join("main.jsonl");
        let extra = dir.join("extra.jsonl");
        std::fs::write(
            &main,
            "{\"key\":\"a\",\"seed\":1,\"status\":\"ok\",\"payload\":1}\n",
        )
        .expect("write");
        std::fs::write(
            &extra,
            "{\"key\":\"b\",\"seed\":2,\"status\":\"ok\",\"payload\":2}\n",
        )
        .expect("write");
        let n = merge(&[main.clone(), extra], &main).expect("merge in place");
        assert_eq!(n, 2);
        let loaded = load(&main, &u64_codec()).expect("load");
        assert_eq!(loaded.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_missing_input_is_an_error() {
        let dir = temp_dir("merge-missing");
        let out = dir.join("out.jsonl");
        assert!(merge(&[dir.join("nope.jsonl")], &out).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
