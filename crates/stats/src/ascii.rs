//! ASCII charts for terminal output.
//!
//! The example binaries print quick performance-profile sketches without
//! leaving the terminal. One character cell per grid position; each series
//! draws with its own glyph, later series win collisions.

/// A terminal chart over a fixed character grid.
#[derive(Debug, Clone)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    x_range: (f64, f64),
    y_range: (f64, f64),
    grid: Vec<Vec<char>>,
    legend: Vec<(char, String)>,
}

/// Glyphs assigned to series, in order.
pub(crate) const GLYPHS: [char; 10] = ['*', '+', 'o', 'x', '#', '@', '%', '&', '=', '~'];

impl AsciiChart {
    /// Creates an empty chart of `width x height` character cells mapped
    /// onto the given data ranges.
    pub fn new(
        width: usize,
        height: usize,
        x_range: (f64, f64),
        y_range: (f64, f64),
    ) -> AsciiChart {
        assert!(width >= 10 && height >= 4, "chart too small to be legible");
        assert!(
            x_range.0 < x_range.1 && y_range.0 < y_range.1,
            "empty axis range"
        );
        AsciiChart {
            width,
            height,
            x_range,
            y_range,
            grid: vec![vec![' '; width]; height],
            legend: Vec::new(),
        }
    }

    /// Plots a series with the next free glyph.
    pub fn plot(&mut self, name: impl Into<String>, points: &[(f64, f64)]) {
        let glyph = GLYPHS[self.legend.len() % GLYPHS.len()];
        self.legend.push((glyph, name.into()));
        for &(x, y) in points {
            if let Some((cx, cy)) = self.cell(x, y) {
                self.grid[cy][cx] = glyph;
            }
        }
    }

    fn cell(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        let (x0, x1) = self.x_range;
        let (y0, y1) = self.y_range;
        if !(x0..=x1).contains(&x) || !(y0..=y1).contains(&y) {
            return None;
        }
        let cx = ((x - x0) / (x1 - x0) * (self.width - 1) as f64).round() as usize;
        let cy = ((y - y0) / (y1 - y0) * (self.height - 1) as f64).round() as usize;
        Some((cx, self.height - 1 - cy))
    }

    /// Renders the chart with a frame, y-range annotations and legend.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>8.3} ┌{}┐\n",
            self.y_range.1,
            "─".repeat(self.width)
        ));
        for (i, row) in self.grid.iter().enumerate() {
            let label = if i + 1 == self.height {
                format!("{:>8.3} ", self.y_range.0)
            } else {
                " ".repeat(9)
            };
            out.push_str(&label);
            out.push('│');
            out.extend(row.iter());
            out.push_str("│\n");
        }
        out.push_str(&format!(
            "{}└{}┘\n{}{:<10.2}{:>width$.2}\n",
            " ".repeat(9),
            "─".repeat(self.width),
            " ".repeat(10),
            self.x_range.0,
            self.x_range.1,
            width = self.width - 6
        ));
        for (glyph, name) in &self.legend {
            out.push_str(&format!("  {glyph} {name}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plots_points_in_grid() {
        let mut c = AsciiChart::new(20, 5, (0.0, 10.0), (0.0, 1.0));
        c.plot("s", &[(0.0, 0.0), (10.0, 1.0), (5.0, 0.5)]);
        let r = c.render();
        assert!(r.contains('*'));
        assert!(r.contains("s\n"));
        // corner points land in corners: first grid row has the max point
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[1].trim_start().starts_with('│') || lines[1].contains('*'));
    }

    #[test]
    fn out_of_range_points_are_dropped() {
        let mut c = AsciiChart::new(20, 5, (0.0, 1.0), (0.0, 1.0));
        c.plot("s", &[(5.0, 5.0)]);
        // only the legend mentions the glyph; the plot area stays empty
        assert_eq!(c.render().matches('*').count(), 1);
    }

    #[test]
    fn multiple_series_use_distinct_glyphs() {
        let mut c = AsciiChart::new(20, 5, (0.0, 1.0), (0.0, 1.0));
        c.plot("a", &[(0.2, 0.2)]);
        c.plot("b", &[(0.8, 0.8)]);
        let r = c.render();
        assert!(r.contains('*') && r.contains('+'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_grids() {
        AsciiChart::new(2, 2, (0.0, 1.0), (0.0, 1.0));
    }
}
