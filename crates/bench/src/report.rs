//! Tables and CSV output for the experiment harness.
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::io::Write;
use std::path::Path;

use spcube_common::{Error, Result};

use crate::runner::Measurement;
use crate::serving::PhaseProfile;

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

    /// Render as an aligned text table (what `figures` prints). When any
    /// row carries serving metrics (serve-bench), the serving columns —
    /// QPS, p50/p99 latency, cache hit rate — are appended on the right.
    pub fn render(&self) -> String {
        let serving = self.rows.iter().any(|m| m.qps.is_some());
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
        if serving {
            out.push_str(&format!(
                " {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
                "qps",
                "p50_us",
                "p99_us",
                "hit_rate",
                "degrade",
                "dl_miss",
                "hdg_win",
                "ing_rtry",
                "scrub_fix"
            ));
        }
        out.push('\n');
        let opt = |v: Option<f64>, prec: usize| {
            v.map_or_else(|| "-".to_string(), |x| format!("{x:.prec$}"))
        };
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
            if serving {
                let count = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |n| n.to_string());
                out.push_str(&format!(
                    " {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
                    opt(m.qps, 0),
                    opt(m.p50_us, 1),
                    opt(m.p99_us, 1),
                    opt(m.cache_hit_rate, 3),
                    count(m.degraded_recomputes),
                    opt(m.deadline_miss_rate, 3),
                    opt(m.hedge_win_rate, 3),
                    count(m.ingest_retries),
                    count(m.scrub_repaired),
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// CSV header used for every experiment file. The serving columns (QPS,
/// latency percentiles, cache hit rate) are empty for build-side rows and
/// populated by the serve-bench experiment.
pub const CSV_HEADER: &str = "experiment,algo,x,total_seconds,avg_map_seconds,avg_reduce_seconds,\
map_output_mb,sketch_kb,rounds,spilled_mb,imbalance,cube_groups,wall_seconds,\
task_retries,tasks_lost,re_executions,speculative_launches,wasted_seconds,fallback_events,\
qps,p50_us,p99_us,cache_hit_rate,degraded_recomputes,\
deadline_miss_rate,hedge_win_rate,ingest_retries,scrub_repaired";

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
    let opt = |v: Option<f64>| v.map_or_else(String::new, |x| format!("{x:.3}"));
    let count = |v: Option<u64>| v.map_or_else(String::new, |n| n.to_string());
    for m in rows {
        writeln!(
            f,
            "{},{},{},{},{:.6},{:.6},{:.6},{},{},{:.6},{:.4},{},{:.3},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{}",
            experiment,
            m.algo,
            m.x,
            m.total_seconds.map_or_else(|| "stuck".into(), |s| format!("{s:.3}")),
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
            opt(m.qps),
            opt(m.p50_us),
            opt(m.p99_us),
            opt(m.cache_hit_rate),
            count(m.degraded_recomputes),
            opt(m.deadline_miss_rate),
            opt(m.hedge_win_rate),
            count(m.ingest_retries),
            count(m.scrub_repaired),
        )
        .map_err(wrap)?;
    }
    Ok(())
}

/// Header of the standalone phase-attribution CSV (separate from
/// [`CSV_HEADER`], whose layout existing figure tooling depends on).
pub const PHASE_CSV_HEADER: &str = "run,queue_p50_us,queue_p99_us,io_p50_us,io_p99_us,\
decode_p50_us,decode_p99_us,merge_p50_us,merge_p99_us,finalize_p50_us,finalize_p99_us,\
traces_kept";

/// Render profiled runs as an aligned phase-attribution table: one row
/// per run, p50/p99 per phase. This is the `spcube profile` and
/// `serve-bench --profile` output.
pub fn phase_table(title: &str, rows: &[(String, PhaseProfile)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title}: phase attribution (us) ==\n"));
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}\n",
        "run",
        "queue_p50",
        "queue_p99",
        "io_p50",
        "io_p99",
        "decode_p50",
        "decode_p99",
        "merge_p50",
        "merge_p99",
        "final_p50",
        "final_p99",
        "kept"
    ));
    for (run, p) in rows {
        out.push_str(&format!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>6}\n",
            run,
            p.queue_p50_us,
            p.queue_p99_us,
            p.io_p50_us,
            p.io_p99_us,
            p.decode_p50_us,
            p.decode_p99_us,
            p.merge_p50_us,
            p.merge_p99_us,
            p.finalize_p50_us,
            p.finalize_p99_us,
            p.traces_kept,
        ));
    }
    out
}

/// Render profiled runs as CSV lines under [`PHASE_CSV_HEADER`].
pub fn phase_csv(rows: &[(String, PhaseProfile)]) -> String {
    let mut out = String::new();
    out.push_str(PHASE_CSV_HEADER);
    out.push('\n');
    for (run, p) in rows {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{}\n",
            run,
            p.queue_p50_us,
            p.queue_p99_us,
            p.io_p50_us,
            p.io_p99_us,
            p.decode_p50_us,
            p.decode_p99_us,
            p.merge_p50_us,
            p.merge_p99_us,
            p.finalize_p50_us,
            p.finalize_p99_us,
            p.traces_kept,
        ));
    }
    out
}

/// Write a phase-attribution CSV (header + one row per run) to `path`,
/// creating parent directories as needed.
pub fn write_phase_csv(path: impl AsRef<Path>, rows: &[(String, PhaseProfile)]) -> Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating {}", dir.display()), e))?;
    }
    std::fs::write(path, phase_csv(rows))
        .map_err(|e| Error::Io(format!("writing {}", path.display()), e))
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
            qps: None,
            p50_us: None,
            p99_us: None,
            cache_hit_rate: None,
            degraded_recomputes: None,
            deadline_miss_rate: None,
            hedge_win_rate: None,
            ingest_retries: None,
            scrub_repaired: None,
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
    fn serving_columns_appear_only_when_populated() {
        let plain = Table::new("fig4", &[m("Pig", 1.0, Some(2.0))]).render();
        assert!(!plain.contains("qps"), "build-side tables stay unchanged");

        let mut served = m("Serve", 0.5, Some(1.0));
        served.qps = Some(123456.0);
        served.p50_us = Some(12.5);
        served.p99_us = Some(87.25);
        served.cache_hit_rate = Some(0.913);
        served.degraded_recomputes = Some(4);
        served.deadline_miss_rate = Some(0.021);
        served.hedge_win_rate = Some(0.875);
        served.ingest_retries = Some(42);
        served.scrub_repaired = Some(2);
        let rows = vec![served];
        let table = Table::new("serve_bench", &rows).render();
        for col in [
            "qps",
            "p50_us",
            "p99_us",
            "hit_rate",
            "degrade",
            "dl_miss",
            "hdg_win",
            "ing_rtry",
            "scrub_fix",
        ] {
            assert!(table.contains(col), "serving table missing column {col}");
        }
        assert!(table.contains("123456"));
        assert!(table.contains("0.913"));
        assert!(table.contains("0.021"));
        assert!(table.contains("0.875"));
        assert!(table.contains("42"));
        assert!(CSV_HEADER.ends_with(
            "qps,p50_us,p99_us,cache_hit_rate,degraded_recomputes,\
             deadline_miss_rate,hedge_win_rate,ingest_retries,scrub_repaired"
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
    fn phase_table_and_csv_carry_every_phase_column() {
        let p = PhaseProfile {
            queue_p50_us: 10.0,
            queue_p99_us: 55.5,
            io_p50_us: 200.0,
            io_p99_us: 900.25,
            decode_p50_us: 30.0,
            decode_p99_us: 80.0,
            merge_p50_us: 0.0,
            merge_p99_us: 5.0,
            finalize_p50_us: 15.0,
            finalize_p99_us: 40.0,
            traces_kept: 7,
        };
        let rows = vec![("chaos".to_string(), p)];
        let table = phase_table("serve_bench", &rows);
        for col in [
            "queue_p50",
            "queue_p99",
            "io_p50",
            "io_p99",
            "decode_p50",
            "decode_p99",
            "merge_p50",
            "merge_p99",
            "final_p50",
            "final_p99",
            "kept",
        ] {
            assert!(table.contains(col), "phase table missing column {col}");
        }
        assert!(table.contains("900.2"), "p99 io rendered: {table}");
        assert!(table.contains("chaos"));

        let csv = phase_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2, "header + 1 row");
        assert_eq!(lines[0], PHASE_CSV_HEADER);
        assert!(lines[1].starts_with("chaos,10.000,55.500,200.000,900.250"));
        assert!(lines[1].ends_with(",7"));
        // The phase CSV is its own file: the main experiment header must
        // stay byte-identical for downstream figure tooling.
        assert!(!CSV_HEADER.contains("queue_p50_us"));
    }

    #[test]
    fn phase_csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("spphase-{}", std::process::id()));
        let path = dir.join("phases.csv");
        write_phase_csv(&path, &[("run".to_string(), PhaseProfile::default())]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with(PHASE_CSV_HEADER));
        assert_eq!(content.lines().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
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
        assert!(lines[2].contains("stuck"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
