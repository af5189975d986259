//! PHYLIP-style square distance-matrix I/O.
//!
//! The format accepted by [`parse_phylip`] is the classic one used by
//! `phylip neighbor` and friends:
//!
//! ```text
//!     4
//! alpha      0.0  1.0  2.0  3.0
//! beta       1.0  0.0  2.0  3.0
//! gamma      2.0  2.0  0.0  3.0
//! delta      3.0  3.0  3.0  0.0
//! ```
//!
//! The first non-empty line holds the number of taxa; each subsequent line
//! holds a label followed by a full row of distances. Rows may wrap across
//! lines. [`to_phylip`] produces the same format.

use crate::{DistanceMatrix, MatrixError};

/// Parses a PHYLIP-style square distance matrix.
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] on malformed input and the usual
/// construction errors (asymmetry, negative distances, …) otherwise.
pub fn parse_phylip(input: &str) -> Result<DistanceMatrix, MatrixError> {
    let mut lines = input.lines().enumerate();
    let (header_line_no, header) =
        lines
            .by_ref()
            .find(|(_, l)| !l.trim().is_empty())
            .ok_or(MatrixError::Parse {
                line: 1,
                message: "empty input".into(),
            })?;
    let n: usize = header.trim().parse().map_err(|_| MatrixError::Parse {
        line: header_line_no + 1,
        message: format!("expected taxon count, found {:?}", header.trim()),
    })?;
    if n < 2 {
        return Err(MatrixError::TooSmall { n });
    }

    // Collect remaining whitespace-separated tokens with their line numbers;
    // rows are "label + n numbers" but may wrap across physical lines.
    let mut tokens: Vec<(usize, &str)> = Vec::new();
    for (line_no, line) in lines {
        for tok in line.split_whitespace() {
            tokens.push((line_no + 1, tok));
        }
    }

    // The header count is untrusted: reserve no more than the input could
    // possibly fill.
    let cap = n.min(tokens.len());
    let mut labels = Vec::with_capacity(cap);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(cap);
    let mut it = tokens.into_iter();
    for row in 0..n {
        let (line, label) = it.next().ok_or(MatrixError::Parse {
            line: 0,
            message: format!("missing label for row {row}"),
        })?;
        if label.parse::<f64>().is_ok() {
            return Err(MatrixError::Parse {
                line,
                message: format!("expected a label for row {row}, found number {label:?}"),
            });
        }
        labels.push(label.to_string());
        let mut values = Vec::with_capacity(cap);
        for col in 0..n {
            let (line, tok) = it.next().ok_or(MatrixError::Parse {
                line: 0,
                message: format!("row {row} ended after {col} of {n} distances"),
            })?;
            let v: f64 = tok.parse().map_err(|_| MatrixError::Parse {
                line,
                message: format!("bad distance {tok:?} in row {row}"),
            })?;
            values.push(v);
        }
        rows.push(values);
    }
    if let Some((line, tok)) = it.next() {
        return Err(MatrixError::Parse {
            line,
            message: format!("unexpected trailing token {tok:?}"),
        });
    }

    let mut m = DistanceMatrix::from_rows(&rows)?;
    m.set_labels(labels);
    Ok(m)
}

/// Formats a matrix in PHYLIP square format with 6-decimal distances.
pub fn to_phylip(m: &DistanceMatrix) -> String {
    let n = m.len();
    let mut out = format!("{n}\n");
    let width = (0..n).map(|i| m.label(i).len()).max().unwrap_or(0).max(10);
    for i in 0..n {
        out.push_str(&format!("{:<width$}", m.label(i), width = width));
        for j in 0..n {
            out.push_str(&format!(" {:>12.6}", m.get(i, j)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
4
alpha  0 1 4 4
beta   1 0 4 4
gamma  4 4 0 2
delta  4 4 2 0
";

    #[test]
    fn parses_simple_matrix() {
        let m = parse_phylip(SAMPLE).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 3), 2.0);
        assert_eq!(m.label(3), "delta");
    }

    #[test]
    fn roundtrips_through_format() {
        let m = parse_phylip(SAMPLE).unwrap();
        let text = to_phylip(&m);
        let again = parse_phylip(&text).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn accepts_wrapped_rows_and_blank_lines() {
        let wrapped = "\n3\n a 0 1\n   2\n b 1 0 3\n c 2 3\n 0\n";
        let m = parse_phylip(wrapped).unwrap();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    fn huge_header_counts_are_parse_errors_not_allocations() {
        // u64::MAX used to overflow the reservation ("capacity overflow")
        // and four billion to abort the process on allocation.
        for n in ["18446744073709551615", "4000000000"] {
            let text = format!("{n}\nalpha 0 1\nbeta 1 0\n");
            assert!(
                matches!(parse_phylip(&text), Err(MatrixError::Parse { .. })),
                "{n}"
            );
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse_phylip("x\n"),
            Err(MatrixError::Parse { .. })
        ));
        assert!(matches!(
            parse_phylip("1\n a 0\n"),
            Err(MatrixError::TooSmall { n: 1 })
        ));
        assert!(matches!(parse_phylip(""), Err(MatrixError::Parse { .. })));
    }

    #[test]
    fn rejects_truncated_and_trailing() {
        assert!(parse_phylip("3\n a 0 1 2\n b 1 0\n").is_err());
        assert!(parse_phylip(&format!("{SAMPLE} extra")).is_err());
    }

    #[test]
    fn rejects_numeric_label() {
        assert!(matches!(
            parse_phylip("2\n 7 0 1\n b 1 0\n"),
            Err(MatrixError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_input() {
        let bad = "2\n a 0 1\n b 2 0\n";
        assert!(matches!(
            parse_phylip(bad),
            Err(MatrixError::Asymmetric { .. })
        ));
    }
}
