//! Tables and CSV output for the experiment harness.
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::io::Write;
use std::path::Path;

use spcube_common::{Error, Result};

use crate::runner::Measurement;

/// A printable results table: one row per measurement, one column per
/// plotted quantity.
pub struct Table<'a> {
    title: &'a str,
    rows: &'a [Measurement],
}

impl<'a> Table<'a> {
    /// Wrap measurements for display.
    pub fn new(title: &'a str, rows: &'a [Measurement]) -> Table<'a> {
        Table { title, rows }
    }

    /// Render as an aligned text table (what `figures` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!(
            "{:<10} {:>9} {:>11} {:>10} {:>12} {:>12} {:>11} {:>7} {:>10} {:>9} {:>8} {:>7} {:>7} {:>6} {:>9} {:>6}",
            "algo",
            "x",
            "total_s",
            "map_s",
            "reduce_s",
            "mapout_MB",
            "sketch_KB",
            "rounds",
            "spill_MB",
            "balance",
            "retries",
            "lost",
            "reexec",
            "spec",
            "wasted_s",
            "fallbk"
        ));
        out.push('\n');
        for m in self.rows {
            let total = m
                .total_seconds
                .map_or_else(|| "STUCK".to_string(), |s| format!("{s:.1}"));
            let sketch = m
                .sketch_kb
                .map_or_else(|| "-".to_string(), |kb| format!("{kb:.1}"));
            out.push_str(&format!(
                "{:<10} {:>9.3} {:>11} {:>10.2} {:>12.2} {:>12.2} {:>11} {:>7} {:>10.2} {:>9.2} {:>8} {:>7} {:>7} {:>6} {:>9.2} {:>6}",
                m.algo,
                m.x,
                total,
                m.avg_map_seconds,
                m.avg_reduce_seconds,
                m.map_output_mb,
                sketch,
                m.rounds,
                m.spilled_mb,
                m.imbalance,
                m.task_retries,
                m.tasks_lost,
                m.re_executions,
                m.speculative_launches,
                m.wasted_seconds,
                m.fallback_events,
            ));
            out.push('\n');
        }
        out
    }
}

/// CSV header used for every experiment file.
pub const CSV_HEADER: &str = "experiment,algo,x,total_seconds,avg_map_seconds,avg_reduce_seconds,\
map_output_mb,sketch_kb,rounds,spilled_mb,imbalance,cube_groups,wall_seconds,\
task_retries,tasks_lost,re_executions,speculative_launches,wasted_seconds,fallback_events";

/// Append measurements of one experiment to a CSV file (with header when
/// the file is new).
pub fn write_csv(path: impl AsRef<Path>, experiment: &str, rows: &[Measurement]) -> Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating {}", dir.display()), e))?;
    }
    let fresh = !path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| Error::Io(format!("opening {}", path.display()), e))?;
    let wrap = |e| Error::Io("writing CSV".into(), e);
    if fresh {
        writeln!(f, "{CSV_HEADER}").map_err(wrap)?;
    }
    for m in rows {
        writeln!(
            f,
            "{},{},{},{},{:.6},{:.6},{:.6},{},{},{:.6},{:.4},{},{:.3},{},{},{},{},{:.6},{}",
            experiment,
            m.algo,
            m.x,
            m.total_seconds
                .map_or_else(|| "stuck".into(), |s| format!("{s:.3}")),
            m.avg_map_seconds,
            m.avg_reduce_seconds,
            m.map_output_mb,
            m.sketch_kb.map_or_else(|| "".into(), |s| format!("{s:.3}")),
            m.rounds,
            m.spilled_mb,
            m.imbalance,
            m.cube_groups,
            m.wall_seconds,
            m.task_retries,
            m.tasks_lost,
            m.re_executions,
            m.speculative_launches,
            m.wasted_seconds,
            m.fallback_events,
        )
        .map_err(wrap)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(algo: &'static str, x: f64, total: Option<f64>) -> Measurement {
        Measurement {
            algo,
            x,
            total_seconds: total,
            avg_map_seconds: 1.0,
            avg_reduce_seconds: 2.0,
            map_output_mb: 3.0,
            sketch_kb: Some(4.0),
            rounds: 2,
            spilled_mb: 0.0,
            imbalance: 1.1,
            cube_groups: 10,
            wall_seconds: 0.5,
            task_retries: 7,
            tasks_lost: 1,
            re_executions: 2,
            speculative_launches: 3,
            wasted_seconds: 4.5,
            fallback_events: 1,
        }
    }

    #[test]
    fn table_and_csv_carry_recovery_counters() {
        let rows = vec![m("SP-Cube", 1.0, Some(12.3))];
        let table = Table::new("chaos", &rows).render();
        for col in ["retries", "lost", "reexec", "spec", "wasted_s", "fallbk"] {
            assert!(table.contains(col), "table missing column {col}");
        }
        assert!(CSV_HEADER.contains(
            "task_retries,tasks_lost,re_executions,speculative_launches,\
             wasted_seconds,fallback_events"
        ));
    }

    #[test]
    fn table_renders_stuck_runs() {
        let rows = vec![m("SP-Cube", 1.0, Some(12.3)), m("Hive", 1.0, None)];
        let s = Table::new("fig6", &rows).render();
        assert!(s.contains("SP-Cube"));
        assert!(s.contains("STUCK"));
        assert!(s.contains("12.3"));
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("spbench-{}", std::process::id()));
        let path = dir.join("test.csv");
        let _ = std::fs::remove_file(&path);
        write_csv(&path, "fig4", &[m("Pig", 2.0, Some(1.0))]).unwrap();
        write_csv(&path, "fig4", &[m("Hive", 2.0, None)]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[0].starts_with("experiment,algo"));
        let columns = CSV_HEADER.split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == columns));
        assert!(lines[2].contains("stuck"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
