//! Newick serialization and parsing for ultrametric trees.
//!
//! [`to_newick`] writes the standard parenthesized format with branch
//! lengths (`((A:1,B:1):3,C:4);`). [`parse_newick`] reads it back,
//! verifying that the tree is binary and that all leaves are equidistant
//! from the root (the ultrametric property); taxon ids are assigned in
//! order of appearance and the leaf names are returned alongside.

use crate::{NodeId, NodeKind, TreeError, UltrametricTree};

/// Formats the tree in Newick notation. `name` maps a taxon id to its
/// printed label.
///
/// Walks the tree on an explicit stack, so a caterpillar of any depth
/// prints without exhausting the call stack.
pub fn to_newick_with<F: Fn(usize) -> String>(tree: &UltrametricTree, name: F) -> String {
    /// What is left to write, innermost last.
    enum Step {
        /// A whole subtree, with its branch length.
        Subtree(NodeId),
        /// The comma between two siblings.
        Comma,
        /// The closing parenthesis of an internal node, and its branch
        /// length.
        Close(NodeId),
    }
    let branch_length = |id: NodeId, out: &mut String| {
        if let Some(p) = tree.parent(id) {
            let len = tree.height_of(p) - tree.height_of(id);
            out.push_str(&format!(":{len}"));
        }
    };
    let mut out = String::new();
    let mut todo = vec![Step::Subtree(tree.root())];
    while let Some(step) = todo.pop() {
        match step {
            Step::Subtree(id) => match tree.kind(id) {
                NodeKind::Leaf(t) => {
                    out.push_str(&name(t));
                    branch_length(id, &mut out);
                }
                NodeKind::Internal(a, b) => {
                    out.push('(');
                    todo.extend([
                        Step::Close(id),
                        Step::Subtree(b),
                        Step::Comma,
                        Step::Subtree(a),
                    ]);
                }
            },
            Step::Comma => out.push(','),
            Step::Close(id) => {
                out.push(')');
                branch_length(id, &mut out);
            }
        }
    }
    out.push(';');
    out
}

/// Formats the tree in Newick notation with default `t<taxon>` labels.
pub fn to_newick(tree: &UltrametricTree) -> String {
    to_newick_with(tree, |t| format!("t{t}"))
}

/// Parses a Newick string into an ultrametric tree.
///
/// Taxon `k` is the `k`-th leaf encountered (left to right); the returned
/// vector holds the original leaf names in taxon order. Branch lengths are
/// required everywhere except above the root.
///
/// # Errors
///
/// [`TreeError::Parse`] on syntax errors, [`TreeError::NotUltrametric`]
/// when the tree is not binary or leaf depths differ by more than `1e-6`
/// relative.
pub fn parse_newick(input: &str) -> Result<(UltrametricTree, Vec<String>), TreeError> {
    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    enum Parsed {
        Leaf { name: String },
        Internal { children: Vec<(Parsed, f64)> },
    }

    impl<'a> Parser<'a> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }
        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
                self.pos += 1;
            }
        }
        fn expect(&mut self, b: u8) -> Result<(), TreeError> {
            self.skip_ws();
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(TreeError::Parse {
                    at: self.pos,
                    message: format!("expected {:?}", b as char),
                })
            }
        }
        fn name(&mut self) -> String {
            self.skip_ws();
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'(' | b')' | b',' | b':' | b';') || b.is_ascii_whitespace() {
                    break;
                }
                self.pos += 1;
            }
            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
        }
        fn length(&mut self) -> Result<f64, TreeError> {
            self.skip_ws();
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') || b.is_ascii_digit() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or(TreeError::Parse {
                    at: start,
                    message: "expected a branch length".into(),
                })
        }
        fn node(&mut self) -> Result<Parsed, TreeError> {
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.pos += 1;
                let mut children = Vec::new();
                loop {
                    let child = self.node()?;
                    self.expect(b':')?;
                    let len = self.length()?;
                    if !len.is_finite() || len < 0.0 {
                        return Err(TreeError::Parse {
                            at: self.pos,
                            message: format!("invalid branch length {len}"),
                        });
                    }
                    children.push((child, len));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => {
                            return Err(TreeError::Parse {
                                at: self.pos,
                                message: "expected ',' or ')'".into(),
                            })
                        }
                    }
                }
                // An internal node may carry a (ignored) label.
                let _ = self.name();
                Ok(Parsed::Internal { children })
            } else {
                let name = self.name();
                if name.is_empty() {
                    return Err(TreeError::Parse {
                        at: self.pos,
                        message: "expected a leaf name or '('".into(),
                    });
                }
                Ok(Parsed::Leaf { name })
            }
        }
    }

    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let root = p.node()?;
    // Optional root branch length, then the mandatory semicolon.
    p.skip_ws();
    if p.peek() == Some(b':') {
        p.pos += 1;
        let _ = p.length()?;
    }
    p.expect(b';')?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(TreeError::Parse {
            at: p.pos,
            message: "trailing input after ';'".into(),
        });
    }

    // First pass: leaf depths (distance from root) to find the tree height.
    fn max_depth(node: &Parsed, acc: f64) -> f64 {
        match node {
            Parsed::Leaf { .. } => acc,
            Parsed::Internal { children } => children
                .iter()
                .map(|(c, len)| max_depth(c, acc + len))
                .fold(0.0, f64::max),
        }
    }
    let height = max_depth(&root, 0.0);

    // Second pass: build, checking binarity and equal leaf depths.
    fn build(
        node: &Parsed,
        depth: f64,
        height: f64,
        names: &mut Vec<String>,
    ) -> Result<UltrametricTree, TreeError> {
        match node {
            Parsed::Leaf { name } => {
                let tol = 1e-6 * (1.0 + height.abs());
                if (height - depth).abs() > tol {
                    return Err(TreeError::NotUltrametric {
                        message: format!("leaf {name:?} at depth {depth}, expected {height}"),
                    });
                }
                let taxon = names.len();
                names.push(name.clone());
                Ok(UltrametricTree::leaf(taxon))
            }
            Parsed::Internal { children } => {
                if children.len() != 2 {
                    return Err(TreeError::NotUltrametric {
                        message: format!(
                            "internal node has {} children, expected 2",
                            children.len()
                        ),
                    });
                }
                let left = build(&children[0].0, depth + children[0].1, height, names)?;
                let right = build(&children[1].0, depth + children[1].1, height, names)?;
                let h = height - depth;
                let h = h.max(left.height()).max(right.height());
                Ok(UltrametricTree::join(left, right, h))
            }
        }
    }
    let mut names = Vec::new();
    let tree = build(&root, 0.0, height, &mut names)?;
    Ok((tree, names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::DistanceMatrix;

    fn fitted4() -> UltrametricTree {
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0, 8.0],
            vec![2.0, 0.0, 8.0, 8.0],
            vec![8.0, 8.0, 0.0, 4.0],
            vec![8.0, 8.0, 4.0, 0.0],
        ])
        .unwrap();
        crate::cluster(&m, crate::Linkage::Maximum)
    }

    #[test]
    fn formats_with_branch_lengths() {
        let t = UltrametricTree::cherry(0, 1, 2.0);
        assert_eq!(to_newick(&t), "(t0:2,t1:2);");
    }

    #[test]
    fn formats_nested_subtrees_left_to_right() {
        let t = UltrametricTree::join(
            UltrametricTree::cherry(0, 3, 1.5),
            UltrametricTree::join(
                UltrametricTree::cherry(1, 4, 0.25),
                UltrametricTree::leaf(2),
                2.0,
            ),
            7.125,
        );
        assert_eq!(
            to_newick(&t),
            "((t0:1.5,t3:1.5):5.625,((t1:0.25,t4:0.25):1.75,t2:2):5.125);"
        );
    }

    #[test]
    fn custom_names() {
        let t = UltrametricTree::cherry(0, 1, 2.0);
        let s = to_newick_with(&t, |t| ["human", "chimp"][t].to_string());
        assert_eq!(s, "(human:2,chimp:2);");
    }

    #[test]
    fn roundtrip_preserves_distances() {
        let t = fitted4();
        let text = to_newick(&t);
        let (parsed, names) = parse_newick(&text).unwrap();
        assert_eq!(parsed.leaf_count(), 4);
        assert_eq!(names.len(), 4);
        assert!(parsed.validate().is_ok());
        // Distances must match under the name correspondence.
        let orig_taxon_of = |name: &str| name[1..].parse::<usize>().unwrap();
        for (a, na) in names.iter().enumerate() {
            for (b, nb) in names.iter().enumerate().skip(a + 1) {
                let want = t
                    .leaf_distance(orig_taxon_of(na), orig_taxon_of(nb))
                    .unwrap();
                let got = parsed.leaf_distance(a, b).unwrap();
                assert!((want - got).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parses_whitespace_and_internal_labels() {
        let (t, names) = parse_newick("( (A:1, B:1)anc:3 , C:4 ) root ;").unwrap();
        assert_eq!(names, vec!["A", "B", "C"]);
        assert_eq!(t.height(), 4.0);
        assert_eq!(t.leaf_distance(0, 1).unwrap(), 2.0);
    }

    #[test]
    fn rejects_non_ultrametric() {
        let err = parse_newick("((A:1,B:2):3,C:4);").unwrap_err();
        assert!(matches!(err, TreeError::NotUltrametric { .. }));
    }

    #[test]
    fn rejects_multifurcation() {
        let err = parse_newick("(A:1,B:1,C:1);").unwrap_err();
        assert!(matches!(err, TreeError::NotUltrametric { .. }));
    }

    #[test]
    fn rejects_syntax_errors() {
        for bad in [
            "",
            "(A:1,B:1)",
            "(A:1,B:1;",
            "(A,B);",
            "(A:1,B:1)); ",
            "(A:1,B:1);x",
        ] {
            assert!(parse_newick(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn scientific_notation_lengths() {
        let (t, _) = parse_newick("(A:1e1,B:1E1);").unwrap();
        assert_eq!(t.height(), 10.0);
    }
}
