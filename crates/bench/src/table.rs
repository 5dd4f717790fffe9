//! Minimal aligned-text / markdown table rendering for experiment output.

/// A simple table: title, column headers, string rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends an explanatory note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n*{note}*\n"));
        }
        out
    }

    /// Prints the text rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_text());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_owned()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["n", "b", "msgs"]);
        t.row(vec!["4".into(), "1".into(), "6".into()]);
        t.row(vec!["16".into(), "3".into(), "20".into()]);
        t.note("counts per operation");
        t
    }

    #[test]
    fn text_rendering_aligns() {
        let text = sample().to_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("msgs"));
        assert!(text.contains("note: counts per operation"));
        let lines: Vec<&str> = text.lines().collect();
        // Header and rows have equal width.
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### demo"));
        assert!(md.contains("| n | b | msgs |"));
        assert!(md.contains("| 16 | 3 | 20 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("t", &["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(ratio(4.0, 2.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "∞");
        assert!(!sample().is_empty());
        assert_eq!(sample().len(), 2);
    }
}
