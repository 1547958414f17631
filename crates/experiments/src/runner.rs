//! The sharded matrix runner.
//!
//! Matrix cells — one per `(scenario, series, sweep point)` — fan out
//! across OS threads with `std::thread::scope`. Each worker claims the
//! next unclaimed cell from a shared atomic cursor and builds the whole
//! experiment *inside* its thread: specs are plain data, and everything
//! `Rc`-shaped (the volume, the engine, the directory set) is
//! constructed, run and dropped without ever crossing a thread
//! boundary. Seeds are derived per cell, and results land in a slot
//! indexed by cell number, so the assembled output is bit-identical to
//! a serial run no matter how many workers raced or in which order the
//! cells finished.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::scenario::{CellResult, Scenario};

/// One assembled series of a scenario's result table.
#[derive(Debug, Clone)]
pub struct SeriesResult {
    /// Series label.
    pub label: String,
    /// `(x, y)` per sweep point, in point order.
    pub points: Vec<(f64, f64)>,
}

/// Everything one scenario produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Registry key.
    pub name: String,
    /// Report title.
    pub title: String,
    /// Sweep-axis label.
    pub x_label: String,
    /// Report parameters.
    pub params: Vec<(String, String)>,
    /// The assembled series, in scenario order.
    pub series: Vec<SeriesResult>,
    /// Cell detail lines (cell order) followed by summary notes.
    pub notes: Vec<String>,
}

impl ScenarioResult {
    /// The result as an `o2-metrics` table (for reports and analysis).
    pub fn table(&self) -> o2_metrics::SeriesTable {
        let mut table = o2_metrics::SeriesTable::new(self.x_label.clone());
        for s in &self.series {
            let mut series = o2_metrics::Series::new(s.label.clone());
            for &(x, y) in &s.points {
                series.push(x, y);
            }
            table.add(series);
        }
        table
    }
}

/// The assembled output of one matrix run.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// One result per scenario, in the order the scenarios were given.
    pub scenarios: Vec<ScenarioResult>,
}

/// Runs every cell of every scenario on up to `jobs` worker threads and
/// assembles the results in cell-index order.
///
/// `jobs` is clamped to at least 1 and at most the number of cells; the
/// output is independent of it by construction.
pub fn run_matrix(scenarios: &[Scenario], jobs: usize) -> MatrixRun {
    // The global cell list: (scenario, series, point), scenario-major,
    // then series-major — the same order a serial nested loop would run.
    let cells: Vec<(usize, usize, usize)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(sc, s)| {
            (0..s.series.len()).flat_map(move |se| (0..s.points.len()).map(move |pt| (sc, se, pt)))
        })
        .collect();

    let results: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = jobs.max(1).min(cells.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let (sc, se, pt) = cells[i];
                let r = scenarios[sc].run_cell(se, pt);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    // Collect in cell-index order, scenario by scenario.
    let mut flat = results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"));
    let mut out = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let cells: Vec<CellResult> = (0..s.cell_count())
            .map(|_| flat.next().flatten().expect("every cell ran exactly once"))
            .collect();
        let n = s.points.len();
        let series = s
            .series
            .iter()
            .enumerate()
            .map(|(se, def)| SeriesResult {
                label: def.label.clone(),
                points: cells[se * n..(se + 1) * n]
                    .iter()
                    .map(|cell| (cell.x, cell.y))
                    .collect(),
            })
            .collect();
        let notes = cells.iter().flat_map(|cell| cell.lines.clone()).collect();
        let mut result = ScenarioResult {
            name: s.name.to_string(),
            title: s.title.to_string(),
            x_label: s.x_label.to_string(),
            params: s.params.clone(),
            series,
            notes,
        };
        if let Some(summarize) = s.summarize {
            let table = result.table();
            result.notes.extend(summarize(s, &table, &cells));
        }
        out.push(result);
    }
    MatrixRun { scenarios: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CellResult, SeriesDef, SweepPoint};

    /// A host-only scenario: y encodes the cell coordinates so ordering
    /// bugs are visible, and the derived seed rides along in a line.
    fn toy(points: usize) -> Scenario {
        Scenario {
            name: "toy",
            title: "Toy scenario",
            description: "runner unit-test scenario",
            x_label: "point",
            params: vec![("kind".into(), "toy".into())],
            series: vec![SeriesDef::fixed("a"), SeriesDef::fixed("b")],
            points: (0..points)
                .map(|i| SweepPoint::scalar(i as u64, format!("p{i}")))
                .collect(),
            payload: 0,
            run: |sc, se, pt, seed| {
                let mut r = CellResult::point(pt as f64, (se * 100 + pt) as f64);
                r.lines
                    .push(format!("{}[{se}][{pt}] seed={seed:#x}", sc.name));
                r
            },
            summarize: Some(|_, table, _| vec![format!("{} series", table.series.len())]),
        }
    }

    #[test]
    fn parallel_and_serial_runs_assemble_identically() {
        let scenarios = vec![toy(7), toy(3)];
        let serial = run_matrix(&scenarios, 1);
        for jobs in [2, 4, 16] {
            let parallel = run_matrix(&scenarios, jobs);
            assert_eq!(serial.scenarios.len(), parallel.scenarios.len());
            for (a, b) in serial.scenarios.iter().zip(&parallel.scenarios) {
                assert_eq!(a.notes, b.notes, "jobs={jobs}");
                for (sa, sb) in a.series.iter().zip(&b.series) {
                    assert_eq!(sa.label, sb.label);
                    assert_eq!(sa.points, sb.points, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn cells_land_in_their_own_slots() {
        let run = run_matrix(&[toy(4)], 3);
        let s = &run.scenarios[0];
        assert_eq!(s.series.len(), 2);
        for (se, series) in s.series.iter().enumerate() {
            for (pt, &(x, y)) in series.points.iter().enumerate() {
                assert_eq!(x, pt as f64);
                assert_eq!(y, (se * 100 + pt) as f64);
            }
        }
        // Notes: one line per cell in cell order, then the summary.
        assert_eq!(s.notes.len(), 9);
        assert!(s.notes[0].starts_with("toy[0][0]"));
        assert!(s.notes[7].starts_with("toy[1][3]"));
        assert_eq!(s.notes[8], "2 series");
    }
}
