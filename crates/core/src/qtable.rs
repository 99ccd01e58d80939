//! The Q-table and the update rule of Eq. 7.

use std::io::{self, BufRead, Write};

use crate::state::StateId;

/// A dense `states × actions` Q-value table.
///
/// The paper's agent "maintains two Q-Tables — one with static Q values
/// from the end of the exploration phase and the other with Q values that
/// are updated at each decision epoch"; [`QTable::snapshot`] /
/// [`QTable::restore`] implement that mechanism.
///
/// # Example
///
/// ```
/// use thermorl_control::{QTable, StateId};
///
/// let mut q = QTable::new(4, 3);
/// q.update(StateId(0), 1, 5.0, 1.0, 0.9, StateId(2));
/// assert_eq!(q.best_action(StateId(0)).0, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    num_states: usize,
    num_actions: usize,
    values: Vec<f64>,
}

impl QTable {
    /// Creates a zero-initialised table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_states: usize, num_actions: usize) -> Self {
        assert!(num_states > 0 && num_actions > 0, "table cannot be empty");
        QTable {
            num_states,
            num_actions,
            values: vec![0.0; num_states * num_actions],
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// The Q value of a state-action pair.
    pub fn q(&self, state: StateId, action: usize) -> f64 {
        self.values[state.0 * self.num_actions + action]
    }

    /// Sets a Q value directly (tests, priors).
    pub fn set_q(&mut self, state: StateId, action: usize, value: f64) {
        self.values[state.0 * self.num_actions + action] = value;
    }

    /// Best action for a state and its Q value; ties break toward the
    /// lowest action index (deterministic).
    pub fn best_action(&self, state: StateId) -> (usize, f64) {
        let row = &self.values[state.0 * self.num_actions..(state.0 + 1) * self.num_actions];
        let mut best = 0;
        let mut best_q = row[0];
        for (i, &q) in row.iter().enumerate().skip(1) {
            if q > best_q {
                best = i;
                best_q = q;
            }
        }
        (best, best_q)
    }

    /// The maximum Q value over a state's actions.
    pub fn max_q(&self, state: StateId) -> f64 {
        self.best_action(state).1
    }

    /// Applies the paper's Eq. 7:
    ///
    /// ```text
    /// Q(E_i, ℵ_i) += α · (R(E_i, E_{i+1}) + γ·max_{ℵ_j} Q(E_{i+1}, ℵ_j) − Q(E_i, ℵ_i))
    /// ```
    ///
    /// Returns the temporal-difference error `target − Q(E_i, ℵ_i)`
    /// (before scaling by α) — the learning-dynamics signal the agent's
    /// telemetry exports.
    pub fn update(
        &mut self,
        state: StateId,
        action: usize,
        reward: f64,
        alpha: f64,
        gamma: f64,
        next_state: StateId,
    ) -> f64 {
        let target = reward + gamma * self.max_q(next_state);
        let idx = state.0 * self.num_actions + action;
        let td_error = target - self.values[idx];
        self.values[idx] += alpha * td_error;
        td_error
    }

    /// Copies the current values out (the `Q_exp` table of §5.4).
    pub fn snapshot(&self) -> Vec<f64> {
        self.values.clone()
    }

    /// Restores values from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's size does not match.
    pub fn restore(&mut self, snapshot: &[f64]) {
        assert_eq!(snapshot.len(), self.values.len(), "snapshot size mismatch");
        self.values.copy_from_slice(snapshot);
    }

    /// Zeroes the whole table (the inter-application reset of §5.4).
    pub fn reset(&mut self) {
        self.values.fill(0.0);
    }

    /// The greedy policy: best action index per state. Used to detect
    /// convergence (Figure 8's iteration counts).
    pub fn greedy_policy(&self) -> Vec<usize> {
        (0..self.num_states)
            .map(|s| self.best_action(StateId(s)).0)
            .collect()
    }

    /// Writes the table as a portable text document (`states actions`
    /// header, then one row of Q values per state) — the persistence
    /// format behind cross-process warm starts.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{} {}", self.num_states, self.num_actions)?;
        for s in 0..self.num_states {
            let row: Vec<String> = (0..self.num_actions)
                .map(|a| format!("{:e}", self.q(StateId(s), a)))
                .collect();
            writeln!(w, "{}", row.join(" "))?;
        }
        Ok(())
    }

    /// Reads a table previously written by [`QTable::write_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed headers, rows or numbers.
    pub fn read_from<R: BufRead>(r: R) -> io::Result<QTable> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("missing header"))??;
        let mut parts = header.split_whitespace();
        let num_states: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad state count"))?;
        let num_actions: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad action count"))?;
        if num_states == 0 || num_actions == 0 {
            return Err(bad("table cannot be empty"));
        }
        let mut table = QTable::new(num_states, num_actions);
        for s in 0..num_states {
            let line = lines.next().ok_or_else(|| bad("missing row"))??;
            let values: Vec<f64> = line
                .split_whitespace()
                .map(|v| v.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| bad("bad Q value"))?;
            if values.len() != num_actions {
                return Err(bad("row has wrong width"));
            }
            for (a, &v) in values.iter().enumerate() {
                table.set_q(StateId(s), a, v);
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_moves_toward_target() {
        let mut q = QTable::new(2, 2);
        let td = q.update(StateId(0), 0, 10.0, 0.5, 0.0, StateId(1));
        assert!((td - 10.0).abs() < 1e-12, "first TD-error is the target");
        assert!((q.q(StateId(0), 0) - 5.0).abs() < 1e-12);
        let td = q.update(StateId(0), 0, 10.0, 0.5, 0.0, StateId(1));
        assert!((td - 5.0).abs() < 1e-12, "TD-error shrinks as Q converges");
        assert!((q.q(StateId(0), 0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn update_bootstraps_through_gamma() {
        let mut q = QTable::new(2, 2);
        q.set_q(StateId(1), 1, 8.0);
        // Full learning rate: Q = R + γ·max_Q(next) = 2 + 0.5·8 = 6.
        q.update(StateId(0), 0, 2.0, 1.0, 0.5, StateId(1));
        assert!((q.q(StateId(0), 0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_alpha_freezes_the_table() {
        let mut q = QTable::new(2, 2);
        q.set_q(StateId(0), 0, 3.0);
        q.update(StateId(0), 0, 100.0, 0.0, 0.9, StateId(1));
        assert_eq!(q.q(StateId(0), 0), 3.0);
    }

    #[test]
    fn best_action_breaks_ties_deterministically() {
        let q = QTable::new(1, 4);
        assert_eq!(q.best_action(StateId(0)).0, 0);
        let mut q = QTable::new(1, 4);
        q.set_q(StateId(0), 2, 1.0);
        q.set_q(StateId(0), 3, 1.0);
        assert_eq!(q.best_action(StateId(0)).0, 2);
    }

    #[test]
    fn snapshot_restore_reset_cycle() {
        let mut q = QTable::new(2, 2);
        q.set_q(StateId(0), 1, 4.0);
        let snap = q.snapshot();
        q.set_q(StateId(0), 1, -1.0);
        q.restore(&snap);
        assert_eq!(q.q(StateId(0), 1), 4.0);
        q.reset();
        assert_eq!(q.q(StateId(0), 1), 0.0);
    }

    #[test]
    fn greedy_policy_reflects_values() {
        let mut q = QTable::new(3, 2);
        q.set_q(StateId(1), 1, 2.0);
        assert_eq!(q.greedy_policy(), vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn restore_validates_size() {
        let mut q = QTable::new(2, 2);
        q.restore(&[0.0; 3]);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut q = QTable::new(3, 4);
        q.set_q(StateId(0), 1, 1.5);
        q.set_q(StateId(2), 3, -0.25);
        q.set_q(StateId(1), 0, 1e-12);
        let mut buf = Vec::new();
        q.write_to(&mut buf).unwrap();
        let back = QTable::read_from(&buf[..]).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn read_rejects_malformed_input() {
        assert!(QTable::read_from(&b""[..]).is_err());
        assert!(QTable::read_from(&b"abc def\n"[..]).is_err());
        assert!(
            QTable::read_from(&b"2 2\n1 2\n"[..]).is_err(),
            "missing row"
        );
        assert!(
            QTable::read_from(&b"2 2\n1 2 3\n4 5\n"[..]).is_err(),
            "wrong width"
        );
        assert!(QTable::read_from(&b"0 2\n"[..]).is_err(), "empty dims");
        assert!(
            QTable::read_from(&b"2 2\n1 x\n3 4\n"[..]).is_err(),
            "bad number"
        );
    }
}
