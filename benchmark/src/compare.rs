//! `stbench compare A B`: do two sets of runs agree?
//!
//! Each set is a directory of captured run outputs. Every line of the form
//! `workload/metric value unit` in any file of the directory is one value
//! of that cell in that set.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};

type Cells = BTreeMap<(String, String), Vec<f64>>;

fn parse(text: &str, cells: &mut Cells) {
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let (Some(cell), Some(value), Some(_unit), None) =
            (words.next(), words.next(), words.next(), words.next())
        else {
            continue;
        };
        let (Some((workload, metric)), Ok(value)) = (cell.split_once('/'), value.parse::<f64>())
        else {
            continue;
        };
        cells
            .entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push(value);
    }
}

fn read_set(dir: &Path) -> Result<Cells, String> {
    let mut cells = Cells::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            // Anything that is not text holds no metric lines.
            if let Ok(text) = std::fs::read_to_string(&path) {
                parse(&text, &mut cells);
            }
        }
    }
    Ok(cells)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own quartiles lie further apart than the bound.
    Unresolved,
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if spread(a) > metric.bound || spread(b) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one line per end-to-end cell present in both sets; `true` when
/// every one is `ok`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let mut all_ok = true;
    let mut compared = 0;
    for ((workload, name), values_a) in &set_a {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let Some(values_b) = set_b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let verdict = judge(metric, values_a, values_b);
        all_ok &= verdict == Verdict::Ok;
        compared += 1;
        println!(
            "{workload}/{name} {:<10} A {:.6} ±{:.1}% (n={})  B {:.6} ±{:.1}% (n={})  bound {:.0}%",
            format!("{verdict:?}").to_lowercase(),
            median(values_a),
            spread(values_a) * 100.0,
            values_a.len(),
            median(values_b),
            spread(values_b) * 100.0,
            values_b.len(),
            metric.bound * 100.0,
        );
    }
    if compared == 0 {
        return Err("the two sets share no end-to-end cell".into());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = END_TO_END[2];
    const RATE: EndToEnd = END_TO_END[1];

    #[test]
    fn direction_and_bound_decide_a_regression() {
        assert_eq!(
            (LATENCY.better, RATE.better),
            (Better::Lower, Better::Higher)
        );
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(&LATENCY, &base, &slower), Verdict::Regressed);
        assert_eq!(judge(&LATENCY, &slower, &base), Verdict::Ok);
        assert_eq!(judge(&RATE, &base, &slower), Verdict::Ok);
        assert_eq!(judge(&RATE, &slower, &base), Verdict::Regressed);
        assert_eq!(judge(&LATENCY, &base, &base), Verdict::Ok);
    }

    #[test]
    fn a_set_wider_than_the_bound_resolves_nothing() {
        let wide = [0.7, 1.0, 1.3, 0.8, 1.2];
        let tight = [1.0, 1.0, 1.01, 0.99, 1.0];
        assert_eq!(judge(&LATENCY, &wide, &tight), Verdict::Unresolved);
        assert_eq!(judge(&LATENCY, &tight, &wide), Verdict::Unresolved);
    }

    #[test]
    fn only_metric_lines_are_read() {
        let mut cells = Cells::new();
        parse(
            "warning: slow\nstream_clean/range_p50_ms 0.33 ms\n{\"correct\": true}\n\
             stream_clean/range_p50_ms 0.35 ms\nlive_mixed/size.reads 12 count\n",
            &mut cells,
        );
        let key = ("stream_clean".to_string(), "range_p50_ms".to_string());
        assert_eq!(cells[&key], vec![0.33, 0.35]);
        assert_eq!(cells.len(), 2);
    }
}
