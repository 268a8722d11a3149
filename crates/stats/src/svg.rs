//! Minimal dependency-free SVG charts.
//!
//! Enough of a plotting library to regenerate the paper's three figures:
//! multi-series line charts (Figures 5, 6) and large scatter/line overlays
//! (Figure 4). Output is a standalone `.svg` file.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Plot area geometry.
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 560.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 230.0; // room for the legend
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 55.0;

/// A qualitative 10-colour palette (one per heuristic curve).
pub(crate) const PALETTE: [&str; 10] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

/// How a series is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Style {
    /// Connected polyline.
    Line,
    /// Unconnected dots (for Figure-4-style clouds).
    Dots,
}

/// One data series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
    /// Drawing style.
    pub(crate) style: Style,
    /// Stroke/fill colour (any SVG colour string).
    pub color: String,
}

impl Series {
    /// A line series with an automatic palette colour.
    pub fn line(name: impl Into<String>, points: Vec<(f64, f64)>, index: usize) -> Series {
        Series {
            name: name.into(),
            points,
            style: Style::Line,
            color: PALETTE[index % PALETTE.len()].to_string(),
        }
    }

    /// A dot series with an automatic palette colour.
    pub fn dots(name: impl Into<String>, points: Vec<(f64, f64)>, index: usize) -> Series {
        Series {
            name: name.into(),
            points,
            style: Style::Dots,
            color: PALETTE[index % PALETTE.len()].to_string(),
        }
    }
}

/// A 2-D chart with labelled axes and a legend.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Chart title.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// Data series.
    pub series: Vec<Series>,
    /// Optional fixed axis ranges (auto-fitted when `None`).
    pub x_range: Option<(f64, f64)>,
    /// Optional fixed Y range.
    pub y_range: Option<(f64, f64)>,
}

impl Chart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Chart {
        Chart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            x_range: None,
            y_range: None,
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    fn ranges(&self) -> ((f64, f64), (f64, f64)) {
        let fit = |get: fn(&(f64, f64)) -> f64| -> (f64, f64) {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for s in &self.series {
                for p in &s.points {
                    lo = lo.min(get(p));
                    hi = hi.max(get(p));
                }
            }
            if !lo.is_finite() || !hi.is_finite() {
                (0.0, 1.0)
            } else if lo == hi {
                (lo - 0.5, hi + 0.5)
            } else {
                (lo, hi)
            }
        };
        (
            self.x_range.unwrap_or_else(|| fit(|p| p.0)),
            self.y_range.unwrap_or_else(|| fit(|p| p.1)),
        )
    }

    /// Renders the chart as an SVG document.
    pub(crate) fn to_svg(&self) -> String {
        let ((x0, x1), (y0, y1)) = self.ranges();
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let sx = move |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * plot_w;
        let sy = move |y: f64| MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h;

        let mut out = String::with_capacity(16 * 1024);
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
        );
        let _ = writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#);
        let _ = writeln!(
            out,
            r#"<text x="{}" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">{}</text>"#,
            MARGIN_L + plot_w / 2.0,
            xml_escape(&self.title)
        );

        // axes box
        let _ = writeln!(
            out,
            r#"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>"#
        );

        // ticks: 6 per axis
        for i in 0..=5 {
            let fx = x0 + (x1 - x0) * i as f64 / 5.0;
            let px = sx(fx);
            let _ = writeln!(
                out,
                r#"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="black"/>"#,
                MARGIN_T + plot_h,
                MARGIN_T + plot_h + 5.0
            );
            let _ = writeln!(
                out,
                r#"<text x="{px}" y="{}" text-anchor="middle" font-family="sans-serif" font-size="11">{}</text>"#,
                MARGIN_T + plot_h + 18.0,
                tick_label(fx)
            );
            let fy = y0 + (y1 - y0) * i as f64 / 5.0;
            let py = sy(fy);
            let _ = writeln!(
                out,
                r#"<line x1="{}" y1="{py}" x2="{MARGIN_L}" y2="{py}" stroke="black"/>"#,
                MARGIN_L - 5.0
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" text-anchor="end" font-family="sans-serif" font-size="11">{}</text>"#,
                MARGIN_L - 8.0,
                py + 4.0,
                tick_label(fy)
            );
        }

        // axis labels
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{}" text-anchor="middle" font-family="sans-serif" font-size="13">{}</text>"#,
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = writeln!(
            out,
            r#"<text x="18" y="{}" text-anchor="middle" font-family="sans-serif" font-size="13" transform="rotate(-90 18 {})">{}</text>"#,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            xml_escape(&self.y_label)
        );

        // series
        for s in &self.series {
            match s.style {
                Style::Line => {
                    let pts: Vec<String> = s
                        .points
                        .iter()
                        .map(|&(x, y)| {
                            format!("{:.2},{:.2}", sx(x.clamp(x0, x1)), sy(y.clamp(y0, y1)))
                        })
                        .collect();
                    let _ = writeln!(
                        out,
                        r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="1.8"/>"#,
                        pts.join(" "),
                        s.color
                    );
                }
                Style::Dots => {
                    for &(x, y) in &s.points {
                        let _ = writeln!(
                            out,
                            r#"<circle cx="{:.2}" cy="{:.2}" r="1.2" fill="{}" fill-opacity="0.5"/>"#,
                            sx(x.clamp(x0, x1)),
                            sy(y.clamp(y0, y1)),
                            s.color
                        );
                    }
                }
            }
        }

        // legend
        for (i, s) in self.series.iter().enumerate() {
            let lx = MARGIN_L + plot_w + 15.0;
            let ly = MARGIN_T + 14.0 + i as f64 * 18.0;
            let _ = writeln!(
                out,
                r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{}" stroke-width="3"/>"#,
                lx + 22.0,
                s.color
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12">{}</text>"#,
                lx + 28.0,
                ly + 4.0,
                xml_escape(&s.name)
            );
        }

        out.push_str("</svg>\n");
        out
    }

    /// Writes the SVG to a file, creating parent directories.
    pub fn write_svg(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_svg())
    }
}

fn tick_label(v: f64) -> String {
    if v.abs() >= 1000.0 || (v - v.round()).abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_well_formed_svg() {
        let mut c = Chart::new("t", "x", "y");
        c.push(Series::line("a", vec![(0.0, 1.0), (1.0, 2.0)], 0));
        c.push(Series::dots("b", vec![(0.5, 1.5)], 1));
        let svg = c.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("circle"));
        assert!(svg.matches("<text").count() >= 10);
    }

    #[test]
    fn escapes_xml_in_labels() {
        let c = Chart::new("a<b&c", "x", "y");
        let svg = c.to_svg();
        assert!(svg.contains("a&lt;b&amp;c"));
    }

    #[test]
    fn fixed_ranges_are_respected() {
        let mut c = Chart::new("t", "x", "y");
        c.x_range = Some((0.0, 100.0));
        c.y_range = Some((1.0, 10.0));
        c.push(Series::line("a", vec![(0.0, 1.0), (200.0, 20.0)], 0));
        let svg = c.to_svg();
        // out-of-range points are clamped, not dropped
        assert!(svg.contains("polyline"));
    }

    #[test]
    fn empty_chart_still_renders() {
        let c = Chart::new("empty", "x", "y");
        assert!(c.to_svg().contains("</svg>"));
    }

    #[test]
    fn write_creates_directories() {
        let dir = std::env::temp_dir().join(format!("paotr_svg_{}", std::process::id()));
        let path = dir.join("a/b/plot.svg");
        Chart::new("t", "x", "y").write_svg(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
