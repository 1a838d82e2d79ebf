//! Plain-text edge-list serialization (a DIMACS-flavored format) so
//! experiment inputs can be shipped, diffed, and regenerated.
//!
//! Format: a header line `p edge <n> <m>` followed by `m` lines `e <u> <v>`
//! with 0-based endpoints. Lines starting with `c` are comments.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use std::io::{BufRead, Write};

/// Errors from [`read_edge_list`].
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the input text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write `g` in the edge-list format.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "p edge {} {}", g.num_nodes(), g.num_edges())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "e {u} {v}")?;
    }
    Ok(())
}

/// Read a graph from the edge-list format.
pub fn read_edge_list<R: BufRead>(r: R) -> Result<Graph, IoError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_edges = 0usize;
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: "duplicate problem line".into(),
                    });
                }
                if tok.next() != Some("edge") {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: "expected 'p edge <n> <m>'".into(),
                    });
                }
                let n: usize = parse_tok(&mut tok, lineno, "node count")?;
                declared_edges = parse_tok(&mut tok, lineno, "edge count")?;
                builder = Some(GraphBuilder::with_capacity(n, declared_edges));
            }
            Some("e") => {
                let b = builder.as_mut().ok_or_else(|| IoError::Parse {
                    line: lineno,
                    message: "edge before problem line".into(),
                })?;
                let u: u32 = parse_tok(&mut tok, lineno, "endpoint")?;
                let v: u32 = parse_tok(&mut tok, lineno, "endpoint")?;
                b.add_edge(u, v);
            }
            Some(_) => {
                // Reported by line number only: the text may come from any
                // file a caller can name, so errors never quote it.
                return Err(IoError::Parse {
                    line: lineno,
                    message: "unknown record".into(),
                });
            }
            None => {}
        }
    }
    let mut b = builder.ok_or(IoError::Parse {
        line: 0,
        message: "missing problem line".into(),
    })?;
    let g = b.build().map_err(|e| IoError::Parse {
        line: 0,
        message: e.to_string(),
    })?;
    if g.num_edges() != declared_edges {
        return Err(IoError::Parse {
            line: 0,
            message: format!(
                "declared {declared_edges} edges but parsed {} (after dedup)",
                g.num_edges()
            ),
        });
    }
    Ok(g)
}

fn parse_tok<T: std::str::FromStr>(
    tok: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, IoError> {
    tok.next()
        .ok_or_else(|| IoError::Parse {
            line,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| IoError::Parse {
            line,
            message: format!("bad {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip() {
        let g = generators::gnp(40, 0.12, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c a comment\n\np edge 3 2\ne 0 1\nc mid comment\ne 1 2\n";
        let g = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "e 0 1\n",                         // edge before header
            "p edge 3\n",                      // missing m
            "p edge 3 1\ne 0 9\n",             // endpoint out of range
            "p edge 3 2\ne 0 1\n",             // wrong edge count
            "p edge 2 1\nx 0 1\n",             // unknown record
            "p edge 2 1\np edge 2 1\ne 0 1\n", // duplicate header
        ] {
            assert!(
                read_edge_list(std::io::Cursor::new(bad)).is_err(),
                "{bad:?}"
            );
        }
        // A file that is not an edge list is rejected without echoing
        // its content back to the caller.
        let err = read_edge_list(std::io::Cursor::new("topsecret-token-1234\n"))
            .unwrap_err()
            .to_string();
        assert_eq!(err, "line 1: unknown record");
        assert!(!err.contains("topsecret"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let g = generators::torus(5, 5);
        let dir = std::env::temp_dir().join("ldc-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torus.col");
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let h =
            read_edge_list(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        assert_eq!(g, h);
    }
}
