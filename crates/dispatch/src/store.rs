//! The shared checkpoint store: one authoritative JSONL file the
//! coordinator appends every ingested result to.
//!
//! The store is **codec-free** — it never decodes payloads, it files the
//! verbatim checkpoint lines workers produce (the same lines a local
//! `CheckpointWriter` would have written), keyed by the `"key"` field.
//! Append-and-flush per line keeps it crash-safe: a killed coordinator
//! loses at most the in-flight line, and reopening skips a torn tail the
//! same way `checkpoint::load` does. Completed keys are deduplicated on
//! ingest (a late result for an already-completed job is dropped), so the
//! final file sorted by key is byte-identical to a serial run's
//! checkpoint; failed records are last-wins — a later success overrides
//! an earlier failure on load, exactly like `checkpoint::merge`.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use thermorl_json::Value;
use thermorl_runner::checkpoint::utf8_lines;

/// How [`CheckpointStore::ingest`] filed a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Appended; the key is now complete.
    Completed,
    /// Appended; the record is a failure (`panicked` / `timeout`).
    Failed,
    /// Dropped: the key already has a completed record.
    Duplicate,
}

/// The fields the store needs from a checkpoint line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineMeta {
    /// The job key.
    pub key: String,
    /// Whether the record's status is `"ok"`.
    pub ok: bool,
}

/// Parses the key and status out of a checkpoint line without touching
/// the payload. Returns `None` for lines that are not valid records
/// (torn tails, garbage).
pub fn line_meta(line: &str) -> Option<LineMeta> {
    let v = Value::parse(line).ok()?;
    let key = v.get("key")?.as_str()?.to_string();
    let status = v.get("status")?.as_str()?;
    Some(LineMeta {
        key,
        ok: status == "ok",
    })
}

/// The append-only shared checkpoint store.
pub struct CheckpointStore {
    path: PathBuf,
    out: BufWriter<File>,
    completed: HashSet<String>,
}

impl CheckpointStore {
    /// Opens the store at `path`. With `resume`, existing records are
    /// kept and their completed keys pre-marked (corrupt lines, a tail
    /// torn inside a multi-byte character included, skipped with a
    /// warning); without it any existing file is truncated. A torn
    /// trailing line is terminated so the next append starts fresh.
    ///
    /// # Errors
    ///
    /// Fails if the file (or a parent directory) cannot be created or
    /// read.
    pub fn open(path: &Path, resume: bool) -> std::io::Result<CheckpointStore> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut completed = HashSet::new();
        if resume && path.exists() {
            let reader = BufReader::new(File::open(path)?);
            for (lineno, line) in utf8_lines(reader).enumerate() {
                let line = line?;
                if line.as_deref().is_some_and(|l| l.trim().is_empty()) {
                    continue;
                }
                match line.as_deref().and_then(line_meta) {
                    Some(meta) if meta.ok => {
                        completed.insert(meta.key);
                    }
                    Some(_) => {} // failed record: the job stays runnable
                    None => eprintln!(
                        "[dispatch] warning: skipping corrupt store line {} of {}",
                        lineno + 1,
                        path.display()
                    ),
                }
            }
        }
        let needs_newline = resume
            && match std::fs::read(path) {
                Ok(bytes) => !bytes.is_empty() && bytes.last() != Some(&b'\n'),
                Err(_) => false,
            };
        let mut file = if resume {
            OpenOptions::new().create(true).append(true).open(path)?
        } else {
            File::create(path)?
        };
        if needs_newline {
            file.write_all(b"\n")?;
        }
        Ok(CheckpointStore {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            completed,
        })
    }

    /// The store path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Keys with a completed record (restored or ingested).
    pub fn completed(&self) -> &HashSet<String> {
        &self.completed
    }

    /// Whether `key` already has a completed record.
    pub fn is_completed(&self, key: &str) -> bool {
        self.completed.contains(key)
    }

    /// Files one checkpoint line: appends and flushes it unless the key
    /// already completed (re-ingest of a completed key is dropped so the
    /// file stays free of duplicate successes; a failure followed by a
    /// success is appended and resolves last-wins on load).
    ///
    /// # Errors
    ///
    /// Fails on an unparsable line or when the append cannot be flushed.
    pub fn ingest(&mut self, line: &str) -> std::io::Result<Ingest> {
        let meta = line_meta(line).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparsable checkpoint line: {line:?}"),
            )
        })?;
        self.ingest_with(meta, line)
    }

    /// [`CheckpointStore::ingest`] for a line whose key and status the
    /// caller already knows (because it built the line), without parsing
    /// it again.
    ///
    /// # Errors
    ///
    /// Fails when the append cannot be flushed.
    pub fn ingest_with(&mut self, meta: LineMeta, line: &str) -> std::io::Result<Ingest> {
        if self.completed.contains(&meta.key) {
            return Ok(Ingest::Duplicate);
        }
        writeln!(self.out, "{line}")?;
        self.out.flush()?;
        if meta.ok {
            self.completed.insert(meta.key);
            Ok(Ingest::Completed)
        } else {
            Ok(Ingest::Failed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-dispatch-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn ok_line(key: &str, payload: u64) -> String {
        format!("{{\"key\":\"{key}\",\"seed\":1,\"status\":\"ok\",\"payload\":{payload}}}")
    }

    fn fail_line(key: &str) -> String {
        format!("{{\"key\":\"{key}\",\"seed\":1,\"status\":\"timeout\"}}")
    }

    #[test]
    fn ingest_dedupes_completed_keys_and_upgrades_failures() {
        let dir = temp_dir("ingest");
        let path = dir.join("store.jsonl");
        let mut store = CheckpointStore::open(&path, false).expect("open");

        assert_eq!(store.ingest(&fail_line("a")).expect("fail"), Ingest::Failed);
        assert!(!store.is_completed("a"));
        assert_eq!(
            store.ingest(&ok_line("a", 10)).expect("ok"),
            Ingest::Completed
        );
        assert_eq!(
            store.ingest(&ok_line("a", 99)).expect("dup"),
            Ingest::Duplicate,
            "re-ingest of a completed key is dropped"
        );
        assert_eq!(
            store.ingest(&fail_line("a")).expect("stale fail"),
            Ingest::Duplicate,
            "a stale failure cannot shadow a success"
        );

        // A caller that knows the key and status files the line unparsed,
        // under the same rules.
        let meta = |key: &str, ok| LineMeta {
            key: key.into(),
            ok,
        };
        assert_eq!(
            store
                .ingest_with(meta("a", false), "not parsed")
                .expect("dup"),
            Ingest::Duplicate
        );
        assert_eq!(
            store
                .ingest_with(meta("b", false), &fail_line("b"))
                .expect("b"),
            Ingest::Failed
        );

        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 3, "two failures + one success");
        assert!(store.ingest("garbage").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_restores_completed_keys_and_skips_torn_tail() {
        let dir = temp_dir("resume");
        let path = dir.join("store.jsonl");
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n{{\"key\":\"torn\",\"se",
                ok_line("a", 1),
                fail_line("b")
            ),
        )
        .expect("seed file");
        let mut store = CheckpointStore::open(&path, true).expect("open");
        assert!(store.is_completed("a"));
        assert!(!store.is_completed("b"), "failed records stay runnable");
        store.ingest(&ok_line("b", 2)).expect("append");
        drop(store);
        let text = std::fs::read_to_string(&path).expect("read");
        let last = text.lines().last().expect("lines");
        assert!(
            last.contains("\"key\":\"b\""),
            "append after torn tail starts on a fresh line: {last:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every strict prefix of a record whose key is not ASCII, as the torn
    /// final line, is skipped: every intact key before it stays completed.
    #[test]
    fn resume_survives_a_non_ascii_record_torn_at_every_byte() {
        let dir = temp_dir("torn-utf8");
        let path = dir.join("store.jsonl");
        let intact = format!("{}\n{}\n", ok_line("die-Ω", 1), ok_line("b", 2));
        let tail = ok_line("die-µ°", 3);
        for cut in 0..tail.len() {
            let mut bytes = intact.clone().into_bytes();
            bytes.extend_from_slice(&tail.as_bytes()[..cut]);
            std::fs::write(&path, &bytes).expect("seed file");
            let store =
                CheckpointStore::open(&path, true).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let mut keys: Vec<&str> = store.completed().iter().map(String::as_str).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["b", "die-Ω"], "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_without_resume_truncates() {
        let dir = temp_dir("truncate");
        let path = dir.join("store.jsonl");
        std::fs::write(&path, ok_line("old", 1) + "\n").expect("seed file");
        let store = CheckpointStore::open(&path, false).expect("open");
        assert!(!store.is_completed("old"));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "");
        std::fs::remove_dir_all(&dir).ok();
    }
}
