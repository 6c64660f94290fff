//! Gnuplot export for figure data.
//!
//! The paper's figures are classic gnuplot scatter/line plots; this
//! module writes each [`FigureData`] as one `.dat` file per panel plus a
//! `.gp` multiplot script, so `gnuplot <id>.gp` regenerates the figure
//! as a PNG.

use crate::report::FigureData;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes `<id>_panelN.dat` files and an `<id>.gp` script into `dir`.
/// Returns the paths written (script last).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_figure(fig: &FigureData, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let stem = fig
        .id
        .to_lowercase()
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    let mut written = Vec::new();

    for (pi, panel) in fig.panels.iter().enumerate() {
        let dat = dir.join(format!("{stem}_panel{pi}.dat"));
        // Figure exports are terminal, human-facing output, not pipeline
        // state: a torn .dat file is regenerated by rerunning the report,
        // so the durable Vfs envelope path would be overkill.
        #[allow(clippy::disallowed_methods)]
        let mut f = std::fs::File::create(&dat)?;
        writeln!(f, "# {} — {} ({})", fig.id, panel.label, panel.axes)?;
        for series in &panel.series {
            writeln!(f, "# series: {}", series.label)?;
            for (x, y) in &series.points {
                writeln!(f, "{x} {y}")?;
            }
            // Blank line separates gnuplot data blocks.
            writeln!(f)?;
        }
        written.push(dat);
    }

    let script = dir.join(format!("{stem}.gp"));
    // Terminal figure export, like the .dat files above.
    #[allow(clippy::disallowed_methods)]
    let mut f = std::fs::File::create(&script)?;
    let cols = fig.panels.len().clamp(1, 3);
    let rows = fig.panels.len().div_ceil(cols).max(1);
    writeln!(f, "# Regenerates {} — {}", fig.id, fig.title)?;
    writeln!(
        f,
        "set terminal pngcairo size {},{}",
        cols * 480,
        rows * 360
    )?;
    writeln!(f, "set output '{stem}.png'")?;
    writeln!(
        f,
        "set multiplot layout {rows},{cols} title '{}'",
        fig.title.replace('\'', " ")
    )?;
    for (pi, panel) in fig.panels.iter().enumerate() {
        writeln!(f, "set title '{}'", panel.label.replace('\'', " "))?;
        let mut plot_parts = Vec::new();
        for (si, series) in panel.series.iter().enumerate() {
            plot_parts.push(format!(
                "'{stem}_panel{pi}.dat' index {si} with points pt 7 ps 0.3 title '{}'",
                series.label.replace('\'', " ")
            ));
        }
        if let Some(fit) = &panel.fit {
            plot_parts.push(format!(
                "{} * x + {} with lines lw 2 title '{}'",
                fit.slope,
                fit.intercept,
                fit.equation()
            ));
        }
        writeln!(f, "plot {}", plot_parts.join(", \\\n     "))?;
    }
    writeln!(f, "unset multiplot")?;
    written.push(script);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Panel, Series};
    use geotopo_stats::LinearFit;

    fn sample_figure() -> FigureData {
        FigureData {
            id: "Figure 2".into(),
            title: "Density vs Density".into(),
            panels: vec![
                Panel {
                    label: "US".into(),
                    series: vec![Series {
                        label: "patches".into(),
                        points: vec![(1.0, 2.0), (3.0, 4.5)],
                    }],
                    fit: Some(LinearFit {
                        slope: 1.25,
                        intercept: 0.75,
                        r2: 1.0,
                        slope_stderr: 0.0,
                        n: 2,
                    }),
                    axes: "log-log".into(),
                },
                Panel {
                    label: "Europe".into(),
                    series: vec![Series {
                        label: "patches".into(),
                        points: vec![(0.0, 0.0)],
                    }],
                    fit: None,
                    axes: "log-log".into(),
                },
            ],
        }
    }

    #[test]
    fn exports_dat_and_script() {
        let dir = std::env::temp_dir().join("geotopo_gnuplot_test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = export_figure(&sample_figure(), &dir).unwrap();
        assert_eq!(written.len(), 3); // 2 panels + script
        let dat = std::fs::read_to_string(&written[0]).unwrap();
        assert!(dat.contains("1 2"));
        assert!(dat.contains("3 4.5"));
        let gp = std::fs::read_to_string(written.last().unwrap()).unwrap();
        assert!(gp.contains("set multiplot layout 1,2"));
        assert!(gp.contains("figure_2_panel0.dat"));
        assert!(gp.contains("1.25 * x + 0.75"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure_id_sanitized_for_paths() {
        let dir = std::env::temp_dir().join("geotopo_gnuplot_test2");
        let _ = std::fs::remove_dir_all(&dir);
        let mut fig = sample_figure();
        fig.id = "Figure 10 (a/b)".into();
        let written = export_figure(&fig, &dir).unwrap();
        for p in &written {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
                "bad path {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
