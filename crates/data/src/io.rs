//! Reading and writing rating matrices.
//!
//! The paper's public data sets (Netflix, YahooMusic, Hugewiki) are
//! distributed as text triplet files; the synthetic reproductions in this
//! repository can be exported the same way so that external tools (or the
//! original cuMF) can consume them.  Two formats are supported:
//!
//! * **MatrixMarket coordinate** (`%%MatrixMarket matrix coordinate real
//!   general`), the format Hugewiki and most MF benchmarks use.  Indices are
//!   1-based on disk and converted to 0-based in memory.
//! * **CSV/TSV triplets** (`user,item,rating` per line, optional header),
//!   the common export format of recommender data sets.

use cumf_sparse::{Coo, Csr, SparseError};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors produced while reading a rating file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed.
    Parse { line: usize, message: String },
    /// The parsed entries were structurally invalid (out-of-range indices).
    Sparse(SparseError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Sparse(e) => write!(f, "invalid matrix: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<SparseError> for IoError {
    fn from(e: SparseError) -> Self {
        IoError::Sparse(e)
    }
}

/// Reads a MatrixMarket coordinate file into a [`Coo`] matrix.
pub fn read_matrix_market(path: &Path) -> Result<Coo, IoError> {
    let reader = BufReader::new(File::open(path)?);
    read_matrix_market_from(reader)
}

/// Reads MatrixMarket coordinate data from any buffered reader.
fn read_matrix_market_from<R: BufRead>(reader: R) -> Result<Coo, IoError> {
    let mut lines = reader.lines().enumerate();

    // Header: skip comments, read the size line.
    let mut size_seen = false;
    let mut coo = Coo::new(0, 0);
    for (idx, line) in &mut lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if !size_seen {
            let parts: Vec<&str> = trimmed.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(IoError::Parse {
                    line: idx + 1,
                    message: format!("expected 'rows cols nnz', got '{trimmed}'"),
                });
            }
            let m: u32 = parse(parts[0], idx)?;
            let n: u32 = parse(parts[1], idx)?;
            let declared_nnz: usize = parse(parts[2], idx)?;
            coo = Coo::with_capacity(m, n, declared_nnz);
            size_seen = true;
            continue;
        }
        let (u, v, r) = parse_triplet(trimmed, idx)?;
        if u == 0 || v == 0 {
            return Err(IoError::Parse {
                line: idx + 1,
                message: "MatrixMarket indices are 1-based; found 0".to_string(),
            });
        }
        coo.push(u - 1, v - 1, r)?;
    }
    if !size_seen {
        return Err(IoError::Parse {
            line: 0,
            message: "missing MatrixMarket size line".into(),
        });
    }
    Ok(coo)
}

/// Writes a sparse matrix as a MatrixMarket coordinate file.
pub fn write_matrix_market(path: &Path, r: &Csr) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by cumf-rs")?;
    writeln!(w, "{} {} {}", r.n_rows(), r.n_cols(), r.nnz())?;
    for e in r.iter() {
        writeln!(w, "{} {} {}", e.row + 1, e.col + 1, e.val)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a delimiter-separated triplet file (`user,item,rating`).
///
/// * `delimiter` — typically `,` or `\t`.
/// * `has_header` — skip the first non-empty line.
///
/// Indices are taken as 0-based; the matrix shape is the maximum index + 1.
pub fn read_csv_triplets(path: &Path, delimiter: char, has_header: bool) -> Result<Coo, IoError> {
    let reader = BufReader::new(File::open(path)?);
    read_csv_triplets_from(reader, delimiter, has_header)
}

/// Reads delimiter-separated triplets from any buffered reader.
fn read_csv_triplets_from<R: BufRead>(
    reader: R,
    delimiter: char,
    has_header: bool,
) -> Result<Coo, IoError> {
    let mut entries: Vec<(u32, u32, f32)> = Vec::new();
    let mut max_row = 0u32;
    let mut max_col = 0u32;
    let mut header_skipped = !has_header;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !header_skipped {
            header_skipped = true;
            continue;
        }
        let parts: Vec<&str> = trimmed.split(delimiter).map(str::trim).collect();
        if parts.len() < 3 {
            return Err(IoError::Parse {
                line: idx + 1,
                message: format!("expected at least 3 fields, got {}", parts.len()),
            });
        }
        let u: u32 = parse(parts[0], idx)?;
        let v: u32 = parse(parts[1], idx)?;
        let r: f32 = parse(parts[2], idx)?;
        max_row = max_row.max(u);
        max_col = max_col.max(v);
        entries.push((u, v, r));
    }
    let mut coo = Coo::with_capacity(max_row + 1, max_col + 1, entries.len());
    for (u, v, r) in entries {
        coo.push(u, v, r)?;
    }
    Ok(coo)
}

/// Writes a sparse matrix as delimiter-separated triplets with a header.
pub fn write_csv_triplets(path: &Path, r: &Csr, delimiter: char) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "user{delimiter}item{delimiter}rating")?;
    for e in r.iter() {
        writeln!(w, "{}{delimiter}{}{delimiter}{}", e.row, e.col, e.val)?;
    }
    w.flush()?;
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str, line_idx: usize) -> Result<T, IoError>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| IoError::Parse {
        line: line_idx + 1,
        message: format!("'{s}': {e}"),
    })
}

fn parse_triplet(line: &str, line_idx: usize) -> Result<(u32, u32, f32), IoError> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() < 3 {
        return Err(IoError::Parse {
            line: line_idx + 1,
            message: format!("expected 'row col value', got '{line}'"),
        });
    }
    Ok((
        parse(parts[0], line_idx)?,
        parse(parts[1], line_idx)?,
        parse(parts[2], line_idx)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticConfig;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_path(ext: &str) -> std::path::PathBuf {
        let id = COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("cumf_io_test_{}_{id}.{ext}", std::process::id()))
    }

    fn sample() -> Csr {
        SyntheticConfig {
            m: 40,
            n: 25,
            nnz: 300,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn matrix_market_roundtrip() {
        let r = sample();
        let path = temp_path("mtx");
        write_matrix_market(&path, &r).unwrap();
        let back = read_matrix_market(&path).unwrap().to_csr();
        assert_eq!(back, r);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn csv_roundtrip() {
        let r = sample();
        let path = temp_path("csv");
        write_csv_triplets(&path, &r, ',').unwrap();
        let back = read_csv_triplets(&path, ',', true).unwrap().to_csr();
        // Shape may shrink if the last rows/cols are empty; compare entries.
        let a: Vec<_> = r.iter().map(|e| (e.row, e.col, e.val)).collect();
        let b: Vec<_> = back.iter().map(|e| (e.row, e.col, e.val)).collect();
        assert_eq!(a, b);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reads_matrix_market_with_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\n\
                    3 4 2\n\
                    1 1 2.5\n\
                    3 4 -1.0\n";
        let coo = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(coo.n_rows(), 3);
        assert_eq!(coo.n_cols(), 4);
        assert_eq!(coo.nnz(), 2);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), Some(2.5));
        assert_eq!(csr.get(2, 3), Some(-1.0));
    }

    #[test]
    fn rejects_zero_based_matrix_market_indices() {
        let text = "3 3 1\n0 1 1.0\n";
        let err = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn rejects_malformed_lines() {
        let text = "3 3\n";
        assert!(read_matrix_market_from(Cursor::new(text)).is_err());
        let csv = "user,item,rating\n1,2\n";
        assert!(read_csv_triplets_from(Cursor::new(csv), ',', true).is_err());
        let csv_bad_num = "1,2,not_a_number\n";
        assert!(read_csv_triplets_from(Cursor::new(csv_bad_num), ',', false).is_err());
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let text = "2 2 1\n5 1 1.0\n";
        let err = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Sparse(_)));
        // Column out of range as well as row.
        let text = "2 2 1\n1 9 1.0\n";
        assert!(matches!(
            read_matrix_market_from(Cursor::new(text)).unwrap_err(),
            IoError::Sparse(_)
        ));
    }

    #[test]
    fn rejects_truncated_header() {
        // Comments only — the size line never arrives.
        let text = "%%MatrixMarket matrix coordinate real general\n% truncated here\n";
        let err = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("missing MatrixMarket size line"));
        // Completely empty input.
        let err = read_matrix_market_from(Cursor::new("")).unwrap_err();
        assert!(err.to_string().contains("missing MatrixMarket size line"));
        // Size line with too few fields.
        let err = read_matrix_market_from(Cursor::new("4 4\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_non_numeric_entries() {
        // Non-numeric value field.
        let text = "2 2 1\n1 1 four\n";
        let err = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }));
        assert!(err.to_string().contains("four"));
        // Non-numeric index field.
        let text = "2 2 1\nx 1 1.0\n";
        assert!(matches!(
            read_matrix_market_from(Cursor::new(text)).unwrap_err(),
            IoError::Parse { line: 2, .. }
        ));
        // Non-numeric size line.
        let text = "two 2 1\n";
        assert!(matches!(
            read_matrix_market_from(Cursor::new(text)).unwrap_err(),
            IoError::Parse { line: 1, .. }
        ));
    }

    #[test]
    fn rejects_truncated_data_line() {
        let text = "3 3 2\n1 1 1.0\n2 2\n";
        let err = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }));
        assert!(err.to_string().contains("expected 'row col value'"));
    }

    #[test]
    fn tsv_with_no_header() {
        let tsv = "0\t1\t4.5\n2\t0\t1.0\n";
        let coo = read_csv_triplets_from(Cursor::new(tsv), '\t', false).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.n_rows(), 3);
        assert_eq!(coo.n_cols(), 2);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_matrix_market(Path::new("/nonexistent/cumf.mtx")).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
    }
}
