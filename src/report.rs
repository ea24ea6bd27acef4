//! Human- and machine-readable output for the `ibsim` experiments:
//! aligned text tables, CSV files, JSON dumps and a small ASCII line
//! plot for eyeballing figure shapes in a terminal.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Render rows as an aligned monospace table.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate().take(cols) {
            let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
        }
        out.pop();
        out.pop();
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Write a CSV file (naive quoting: cells containing commas or quotes
/// are double-quoted).
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let quote = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// A labelled series for [`ascii_plot`].
pub struct PlotSeries<'a> {
    pub label: &'a str,
    pub points: Vec<(f64, f64)>,
}

/// Plot series as ASCII art (x left-to-right, y bottom-to-top). Each
/// series is drawn with its own glyph; the legend maps glyphs to labels.
pub fn ascii_plot(series: &[PlotSeries<'_>], width: usize, height: usize) -> String {
    const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return "(no data)\n".into();
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if xmax == xmin {
        xmax = xmin + 1.0;
    }
    if ymax == ymin {
        ymax = ymin + 1.0;
    }
    ymin = ymin.min(0.0);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = g;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{ymax:>10.2} ┐");
    for row in &grid {
        let _ = writeln!(out, "{:>10} │{}", "", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{ymin:>10.2} └{}", "─".repeat(width));
    let _ = writeln!(
        out,
        "{:>11}{xmin:<10.1}{:>w$}{xmax:.1}",
        "",
        "",
        w = width.saturating_sub(20)
    );
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "{:>11}{} = {}", "", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

/// Serialize any result structure to pretty JSON on disk.
pub fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, serde_json::to_string_pretty(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = ascii_table(
            &["a", "longer"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    longer"));
        assert!(lines[2].starts_with("1    2"));
        assert!(lines[3].starts_with("333  4"));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let dir = std::env::temp_dir().join("ibsim_csv_test");
        let p = dir.join("t.csv");
        write_csv(
            &p,
            &["x", "note"],
            &[
                vec!["1".into(), "a,b".into()],
                vec!["2".into(), "q\"q".into()],
            ],
        )
        .unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"q\"\"q\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plot_renders_extremes() {
        let s = [PlotSeries {
            label: "t",
            points: vec![(0.0, 0.0), (10.0, 5.0)],
        }];
        let out = ascii_plot(&s, 40, 10);
        assert!(out.contains('*'));
        assert!(out.contains("t"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn plot_handles_empty() {
        assert_eq!(ascii_plot(&[], 10, 5), "(no data)\n");
    }

    #[test]
    fn json_roundtrip() {
        #[derive(serde::Serialize)]
        struct S {
            a: u32,
        }
        let dir = std::env::temp_dir().join("ibsim_json_test");
        let p = dir.join("t.json");
        write_json(&p, &S { a: 7 }).unwrap();
        assert!(std::fs::read_to_string(&p).unwrap().contains("\"a\": 7"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
