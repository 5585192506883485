//! Table rendering: markdown for the console / EXPERIMENTS.md, CSV for
//! downstream plotting.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (printed above).
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        let widths: Vec<usize> = (0..self.header.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain([self.header[c].len()])
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&render_row(&self.header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for r in &self.rows {
            out.push_str(&render_row(r));
        }
        out
    }

    /// Renders CSV (quoted only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes markdown + CSV into `dir` as `<stem>.md` / `<stem>.csv`.
    pub fn write_to(&self, dir: &std::path::Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{stem}.md")), self.to_markdown())?;
        std::fs::write(dir.join(format!("{stem}.csv")), self.to_csv())?;
        Ok(())
    }
}

/// Formats an optional delay ("-" when never detected, like Table 3).
pub fn fmt_delay(delay: Option<usize>) -> String {
    match delay {
        Some(d) => d.to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "22".into()]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| name  | value |"));
        assert!(md.contains("| alpha | 1     |"));
        assert_eq!(md.matches('\n').count(), 6);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["plain".into(), "with,comma".into()]);
        t.push_row(vec!["with\"quote".into(), "x".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn write_to_disk() {
        let dir = std::env::temp_dir().join("seqdrift-report-test");
        sample().write_to(&dir, "demo").unwrap();
        let md = std::fs::read_to_string(dir.join("demo.md")).unwrap();
        assert!(md.contains("alpha"));
        let csv = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert!(csv.contains("alpha,1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_delay(Some(42)), "42");
        assert_eq!(fmt_delay(None), "-");
    }
}
