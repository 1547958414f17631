//! Declarative scenarios: series × sweep points, one cell function.

use crate::policy::PolicyKind;

/// One column of a scenario's result table — usually one scheduling
/// policy, sometimes a fixed configuration (e.g. the paper's quoted
/// latencies in `table_latency`).
#[derive(Debug, Clone)]
pub struct SeriesDef {
    /// Series label shown in tables and JSON.
    pub label: String,
    /// The policy this series runs under, when it runs one at all.
    pub policy: Option<PolicyKind>,
}

impl SeriesDef {
    /// A series labelled with the policy's legend name.
    pub fn policy(kind: PolicyKind) -> Self {
        Self {
            label: kind.label().to_string(),
            policy: Some(kind),
        }
    }

    /// A series that is not a policy run (fixed reference values).
    pub fn fixed(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            policy: None,
        }
    }
}

/// One point of a scenario's sweep axis.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Nominal x value (cells may refine it, e.g. to the measured total
    /// KB).
    pub x: f64,
    /// Human-readable label ("8192 KB", "future 8x8", "L1 hit").
    pub label: String,
    /// Scenario-specific scalar the cell function interprets (a size in
    /// KB, a migration cost in cycles, a machine index, …).
    pub value: u64,
}

impl SweepPoint {
    /// A point whose x value is the scalar itself.
    pub fn scalar(value: u64, label: impl Into<String>) -> Self {
        Self {
            x: value as f64,
            label: label.into(),
            value,
        }
    }

    /// An ordinal point (1-based x) carrying an arbitrary scalar.
    pub fn ordinal(i: usize, value: u64, label: impl Into<String>) -> Self {
        Self {
            x: (i + 1) as f64,
            label: label.into(),
            value,
        }
    }
}

/// What one matrix cell produced.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The x value to plot this cell at.
    pub x: f64,
    /// The y value (throughput, latency, …, per the scenario's units).
    pub y: f64,
    /// Free-form detail lines (e.g. Figure 2's per-cache occupancy).
    pub lines: Vec<String>,
    /// Operations the cell's policy migrated in its measured window, for
    /// a summary that judges migration (`fig_scale`'s); `None` elsewhere.
    pub migrations: Option<u64>,
}

impl CellResult {
    /// A plain (x, y) cell with no detail lines.
    pub fn point(x: f64, y: f64) -> Self {
        Self {
            x,
            y,
            lines: Vec::new(),
            migrations: None,
        }
    }
}

/// Builds and runs the cell `(series, point)` of a scenario. The
/// function must construct the *entire* experiment from the scenario's
/// plain data plus the derived seed — workers call it from arbitrary OS
/// threads, so nothing may be shared with other cells.
pub type CellFn = fn(&Scenario, usize, usize, u64) -> CellResult;

/// Derives summary notes once every cell of the scenario has run (e.g.
/// Figure 4's crossover point), from the assembled table and the cells
/// themselves in cell order (series-major). Must be deterministic.
pub type SummarizeFn = fn(&Scenario, &o2_metrics::SeriesTable, &[CellResult]) -> Vec<String>;

/// One experiment of the matrix: a set of series swept over an axis,
/// with a cell function that runs any single `(series, point)` pair.
pub struct Scenario {
    /// Registry key (`fig4a`, `ablation_migration`, …).
    pub name: &'static str,
    /// Report title.
    pub title: &'static str,
    /// One-line description for `o2 --list`.
    pub description: &'static str,
    /// Label of the sweep axis.
    pub x_label: &'static str,
    /// Report parameters (machine shape, workload knobs, …).
    pub params: Vec<(String, String)>,
    /// The series (columns) of the result table.
    pub series: Vec<SeriesDef>,
    /// The sweep points (rows).
    pub points: Vec<SweepPoint>,
    /// A scenario-wide scalar knob the cell function may interpret
    /// (e.g. the fixed working-set size of the hardware ablation).
    pub payload: u64,
    /// Runs one cell.
    pub run: CellFn,
    /// Derives summary notes from the assembled table, if any.
    pub summarize: Option<SummarizeFn>,
}

impl Scenario {
    /// Number of matrix cells (series × points).
    pub fn cell_count(&self) -> usize {
        self.series.len() * self.points.len()
    }

    /// The index of the first series that runs `kind`. Summaries find
    /// their columns through it, never by position.
    pub fn series_of(&self, kind: PolicyKind) -> Option<usize> {
        self.series.iter().position(|s| s.policy == Some(kind))
    }

    /// Runs one cell with its derived seed.
    pub fn run_cell(&self, series: usize, point: usize) -> CellResult {
        let seed = derive_cell_seed(self.name, &self.series[series].label, point);
        (self.run)(self, series, point, seed)
    }
}

/// Derives the RNG seed of one matrix cell from its coordinates.
///
/// The seed is a pure function of `(scenario, series label, point
/// index)` — stable across runs, processes and worker counts — so a
/// cell's placement and interleaving never depend on which worker ran
/// it or in which order. Distinct cells get distinct seeds (FNV-1a over
/// the coordinates, finished with a splitmix64 round so close inputs
/// land far apart).
pub fn derive_cell_seed(scenario: &str, series: &str, point: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(scenario.as_bytes());
    eat(&[0xff]); // separator: ("ab", "c") must differ from ("a", "bc")
    eat(series.as_bytes());
    eat(&[0xff]);
    eat(&(point as u64).to_le_bytes());
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_cells_get_distinct_seeds() {
        let mut seen = std::collections::HashSet::new();
        for scenario in ["fig4a", "fig4b", "fig_fsmeta"] {
            for series in ["With CoreTime", "Without CoreTime"] {
                for point in 0..16 {
                    assert!(
                        seen.insert(derive_cell_seed(scenario, series, point)),
                        "seed collision at ({scenario}, {series}, {point})"
                    );
                }
            }
        }
        // The separator keeps concatenation ambiguities apart.
        assert_ne!(
            derive_cell_seed("ab", "c", 0),
            derive_cell_seed("a", "bc", 0)
        );
    }

    #[test]
    fn seeds_are_stable_across_runs() {
        // Pinned: changing the derivation re-seeds every cell of every
        // scenario, which silently re-captures all figure outputs.
        assert_eq!(
            derive_cell_seed("fig4a", "With CoreTime", 0),
            0x52de_ef27_d7ec_29e5
        );
        assert_eq!(
            derive_cell_seed("fig4a", "With CoreTime", 1),
            derive_cell_seed("fig4a", "With CoreTime", 1)
        );
    }
}
