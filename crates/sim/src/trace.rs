//! Time-series trace recording (for the paper's profile figures 1, 4, 5).

use std::io::{self, Write};

/// A labelled event on the trace timeline (decisions, app switches).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Time of the event (s).
    pub time: f64,
    /// Short description, e.g. `"app-switch:tachyon"`.
    pub label: String,
}

/// Records per-sample time series during a run: temperatures, frequencies
/// and performance, plus discrete events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    /// Sample timestamps (s).
    pub times: Vec<f64>,
    /// Per-core temperature rows, one inner `Vec` per sample.
    pub temps: Vec<Vec<f64>>,
    /// Per-core frequency rows (GHz), one inner `Vec` per sample.
    pub freqs: Vec<Vec<f64>>,
    /// Windowed fps at each sample.
    pub fps: Vec<f64>,
    /// Discrete events.
    pub events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Appends one sample row.
    pub fn push(&mut self, time: f64, temps: &[f64], freqs: &[f64], fps: f64) {
        self.times.push(time);
        self.temps.push(temps.to_vec());
        self.freqs.push(freqs.to_vec());
        self.fps.push(fps);
    }

    /// Appends a labelled event.
    pub fn event(&mut self, time: f64, label: impl Into<String>) {
        self.events.push(TraceEvent {
            time,
            label: label.into(),
        });
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The hottest core's temperature at each sample (the series the
    /// paper's profile plots show).
    pub fn max_temp_series(&self) -> Vec<f64> {
        self.temps
            .iter()
            .map(|row| row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect()
    }

    /// Writes the trace as CSV: `time,temp0..,freq0..,fps`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer. A `&mut Vec<u8>` or
    /// `&mut File` can be passed, since `Write` is implemented for
    /// mutable references.
    pub fn to_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        let cores = self.temps.first().map(|t| t.len()).unwrap_or(0);
        write!(w, "time")?;
        for c in 0..cores {
            write!(w, ",temp{c}")?;
        }
        for c in 0..cores {
            write!(w, ",freq{c}")?;
        }
        writeln!(w, ",fps")?;
        for i in 0..self.times.len() {
            write!(w, "{:.3}", self.times[i])?;
            for t in &self.temps[i] {
                write!(w, ",{t:.3}")?;
            }
            for f in &self.freqs[i] {
                write!(w, ",{f:.2}")?;
            }
            writeln!(w, ",{:.4}", self.fps[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut t = TraceRecorder::new();
        assert!(t.is_empty());
        t.push(0.0, &[40.0, 50.0], &[1.6, 3.4], 2.0);
        t.push(1.0, &[41.0, 49.0], &[1.6, 3.4], 2.5);
        t.event(0.5, "decision");
        assert_eq!(t.len(), 2);
        assert_eq!(t.max_temp_series(), vec![50.0, 49.0]);
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn csv_output_shape() {
        let mut t = TraceRecorder::new();
        t.push(0.0, &[40.0], &[3.4], 1.0);
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some("time,temp0,freq0,fps"));
        assert_eq!(lines.next(), Some("0.000,40.000,3.40,1.0000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn empty_csv_has_minimal_header() {
        let t = TraceRecorder::new();
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "time,fps\n");
    }
}
