//! DIMACS CNF reader/writer — interop with external SAT tooling.

use crate::solver::{SatLit, SatVar, Solver};
use std::fmt;

/// Error from [`parse_dimacs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError(String);

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dimacs parse error: {}", self.0)
    }
}

impl std::error::Error for ParseDimacsError {}

/// A plain CNF: clause list over 1-based DIMACS variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<i32>>,
}

impl Cnf {
    /// An empty CNF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a clause of non-zero DIMACS literals.
    ///
    /// # Panics
    ///
    /// Panics if any literal is zero.
    pub fn add_clause(&mut self, lits: &[i32]) {
        assert!(lits.iter().all(|&l| l != 0), "0 terminates DIMACS clauses");
        for &l in lits {
            self.num_vars = self.num_vars.max(l.unsigned_abs() as usize);
        }
        self.clauses.push(lits.to_vec());
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<i32>] {
        &self.clauses
    }

    /// Loads the CNF into a fresh [`Solver`]; returns the solver and the
    /// solver variable of DIMACS variable 1 (variables are allocated
    /// contiguously, so DIMACS var `k` is `first + k - 1`).
    pub fn into_solver(&self) -> (Solver, SatVar) {
        let mut solver = Solver::new();
        let first = solver.new_var();
        for _ in 1..self.num_vars {
            solver.new_var();
        }
        for clause in &self.clauses {
            let lits: Vec<SatLit> = clause
                .iter()
                .map(|&l| SatLit::new(first + l.unsigned_abs() - 1, l < 0))
                .collect();
            solver.add_clause(&lits);
        }
        (solver, first)
    }
}

/// Serialises a CNF in DIMACS format.
pub fn write_dimacs(cnf: &Cnf) -> String {
    let mut out = format!("p cnf {} {}\n", cnf.num_vars(), cnf.clauses().len());
    for clause in cnf.clauses() {
        for l in clause {
            out.push_str(&format!("{l} "));
        }
        out.push_str("0\n");
    }
    out
}

/// Parses DIMACS CNF text.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] for a missing/malformed problem line,
/// a clause before the problem line, non-integer tokens, and literals
/// whose variable exceeds the declared count (`i32::MIN` included, which
/// has no positive counterpart).
pub fn parse_dimacs(text: &str) -> Result<Cnf, ParseDimacsError> {
    let mut cnf = Cnf::new();
    let mut declared: Option<usize> = None;
    let mut current: Vec<i32> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 3 || fields[0] != "cnf" {
                return Err(ParseDimacsError(format!("bad problem line `{line}`")));
            }
            let nv = fields[1]
                .parse()
                .map_err(|_| ParseDimacsError("bad var count".into()))?;
            fields[2]
                .parse::<usize>()
                .map_err(|_| ParseDimacsError("bad clause count".into()))?;
            declared = Some(nv);
            continue;
        }
        let Some(num_vars) = declared else {
            return Err(ParseDimacsError("clause before the problem line".into()));
        };
        for tok in line.split_whitespace() {
            let v: i32 = tok
                .parse()
                .map_err(|_| ParseDimacsError(format!("bad literal `{tok}`")))?;
            if v == i32::MIN || v.unsigned_abs() as usize > num_vars {
                return Err(ParseDimacsError(format!(
                    "literal `{tok}` exceeds the declared {num_vars} variables"
                )));
            }
            if v == 0 {
                cnf.add_clause(&current.clone());
                current.clear();
            } else {
                current.push(v);
            }
        }
    }
    if !current.is_empty() {
        cnf.add_clause(&current);
    }
    if declared.is_none() {
        return Err(ParseDimacsError("missing problem line".into()));
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;

    #[test]
    fn roundtrip() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, -2]);
        cnf.add_clause(&[2, 3]);
        let text = write_dimacs(&cnf);
        let back = parse_dimacs(&text).expect("round-trips");
        assert_eq!(back, cnf);
    }

    #[test]
    fn solves_parsed_instance() {
        let text = "c demo\np cnf 2 2\n1 2 0\n-1 0\n";
        let cnf = parse_dimacs(text).expect("parses");
        let (mut solver, first) = cnf.into_solver();
        assert_eq!(solver.solve(&[]), SatResult::Sat);
        assert_eq!(solver.value(first), Some(false)); // var 1 forced false
        assert_eq!(solver.value(first + 1), Some(true)); // so var 2 true
    }

    #[test]
    fn detects_unsat_instance() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let (mut solver, _) = parse_dimacs(text).expect("parses").into_solver();
        assert_eq!(solver.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_dimacs("p cnf x 2\n").is_err());
        assert!(parse_dimacs("1 2 0\n").is_err(), "missing problem line");
        assert!(parse_dimacs("p cnf 2 1\n1 q 0\n").is_err());
        assert!(
            parse_dimacs("p cnf 1 1\n2000000000 0\n").is_err(),
            "literal beyond the declared variable count"
        );
        assert!(parse_dimacs("p cnf 2 1\n1 -3 0\n").is_err());
        assert!(
            parse_dimacs("p cnf 2147483647 1\n-2147483648 0\n").is_err(),
            "i32::MIN has no variable"
        );
        assert!(
            parse_dimacs("1 2 0\np cnf 2 1\n").is_err(),
            "clause before the problem line"
        );
        assert!(parse_dimacs("p cnf 2 1\n-2 2 0\n").is_ok());
    }
}
