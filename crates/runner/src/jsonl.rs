//! The one JSONL store format, behind campaign checkpoints, the dispatch
//! coordinator's store and serve's snapshots: one JSON object per line,
//! each with a `"key"`.
//!
//! * [`fold`]: the last record of a key wins, whatever its status (an `ok`
//!   line followed by a failure for the same key leaves the failure), in
//!   first-seen key order. A line that is not one of the reader's records
//!   (a torn tail, even one cut inside a multi-byte character, garbage,
//!   another reader's kind of line) is skipped with a warning and shadows
//!   nothing. Blank lines are skipped silently; `\r\n` ends are accepted.
//! * [`Appender::open`]: each line is flushed as it is written, and after
//!   a torn tail the next line starts fresh.
//! * [`Appender::rewrite`]: a sibling temp file renamed over the store, so
//!   a killed process leaves the old store or the new one, whole. Nothing
//!   is `fsync`ed: the stores survive a killed process, not a power cut.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use thermorl_json::JsonError;

/// Folds the stores at `paths`, read in order and each top to bottom, into
/// the last record per key, in first-seen key order. `parse` turns a line
/// into its key and record, once per line, and errs on a line that is not
/// one of the reader's records; that line is skipped with a warning naming
/// its line number and path.
///
/// # Errors
///
/// Fails if a store cannot be opened or read.
pub fn fold<P: AsRef<Path>, V>(
    paths: &[P],
    mut parse: impl FnMut(String) -> Result<(String, V), JsonError>,
) -> io::Result<Vec<(String, V)>> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut records: Vec<(String, V)> = Vec::new();
    for path in paths {
        let path = path.as_ref();
        for (lineno, line) in BufReader::new(File::open(path)?).split(b'\n').enumerate() {
            let mut line = line?;
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            // `BufRead::lines` would end the whole read at a line that is
            // not UTF-8 (a write torn inside a multi-byte character).
            let parsed = match String::from_utf8(line) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => parse(line),
                Err(_) => Err(JsonError::new("line is not UTF-8")),
            };
            match parsed {
                Ok((key, record)) => match index.get(&key) {
                    Some(&i) => records[i].1 = record,
                    None => {
                        index.insert(key.clone(), records.len());
                        records.push((key, record));
                    }
                },
                Err(e) => eprintln!(
                    "[store] warning: skipping corrupt line {} of {}: {e}",
                    lineno + 1,
                    path.display()
                ),
            }
        }
    }
    Ok(records)
}

/// A store open for appending.
pub struct Appender(BufWriter<File>);

impl Appender {
    /// Opens `path` for appending, creating it and its parent directories
    /// as needed. If the store ends in a torn line, ends that line first.
    /// Only the store's last byte is read, however long the store is.
    pub fn open(path: &Path) -> io::Result<Appender> {
        create_parent(path)?;
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
        Ok(Appender(BufWriter::new(file)))
    }

    /// Replaces the store at `path` with `lines`, through the sibling
    /// `<path>.tmp` and a rename, creating parent directories as needed.
    /// Returns an appender on the new store, which is not read again.
    ///
    /// # Errors
    ///
    /// Fails if the temp file cannot be written or renamed over `path`;
    /// the store is then left as it was.
    pub fn rewrite<S: AsRef<str>>(
        path: &Path,
        lines: impl IntoIterator<Item = S>,
    ) -> io::Result<Appender> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        create_parent(path)?;
        let mut out = BufWriter::new(File::create(&tmp)?);
        for line in lines {
            writeln!(out, "{}", line.as_ref())?;
        }
        out.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(Appender(out))
    }

    /// Appends one line and flushes it, so a killed writer loses at most
    /// the line in flight.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.0, "{line}")?;
        self.0.flush()
    }
}

fn create_parent(path: &Path) -> io::Result<()> {
    path.parent().map_or(Ok(()), std::fs::create_dir_all)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-runner-jsonl-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Key = the text before the first `=`; a line without one is corrupt.
    fn key_eq_value(line: String) -> Result<(String, String), JsonError> {
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| JsonError::new("no '='"))?;
        Ok((key.to_string(), value.to_string()))
    }

    #[test]
    fn fold_is_last_wins_in_first_seen_order_across_stores() {
        let dir = temp_dir("fold");
        let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        std::fs::write(&a, "x=1\r\n\n  \ny=2\ngarbage\nx=3\n").expect("write a");
        // A non-UTF-8 line is corrupt; an unterminated last line is a
        // record if it parses.
        std::fs::write(&b, b"z=4\n\xCE\ny=5\nw=").expect("write b");
        let folded = fold(&[&a, &b], key_eq_value).expect("fold");
        let got: Vec<(&str, &str)> = folded
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(got, [("x", "3"), ("y", "5"), ("z", "4"), ("w", "")]);
        assert!(fold(&[dir.join("missing.jsonl")], key_eq_value).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_replaces_the_store_and_keeps_appending_to_it() {
        let dir = temp_dir("rewrite");
        let path = dir.join("nested").join("store.jsonl");
        drop(Appender::rewrite(&path, ["old=1", "old=2"]).expect("rewrite creates the parent"));
        let mut out = Appender::rewrite(&path, ["a=1", "b=2"]).expect("rewrite");
        out.append("c=3").expect("append");
        drop(out);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "a=1\nb=2\nc=3\n"
        );
        assert!(!dir.join("nested").join("store.jsonl.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rewrite_leaves_the_store_as_it_was() {
        let dir = temp_dir("rewrite-fails");
        let path = dir.join("store.jsonl");
        std::fs::write(&path, "a=1\ntorn").expect("seed store");
        std::fs::create_dir_all(dir.join("store.jsonl.tmp")).expect("block the temp name");
        assert!(Appender::rewrite(&path, ["b=2"]).is_err());
        assert_eq!(std::fs::read(&path).expect("read"), b"a=1\ntorn");
        std::fs::remove_dir_all(&dir).ok();
    }
}
