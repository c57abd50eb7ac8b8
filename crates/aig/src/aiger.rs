//! AIGER format (ASCII `aag`) reader and writer.
//!
//! AIGER is the interchange format of the ABC/AIGER ecosystem the paper's
//! toolchain lives in. The ASCII variant is supported for combinational
//! circuits (no latches); literal encoding matches [`Lit::index`].

use crate::aig::{Aig, Lit};
use std::collections::HashMap;
use std::fmt;

/// Error from [`parse_aag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError(String);

impl ParseAigerError {
    fn new(msg: impl Into<String>) -> Self {
        ParseAigerError(msg.into())
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aiger parse error: {}", self.0)
    }
}

impl std::error::Error for ParseAigerError {}

/// Serialises an AIG as ASCII AIGER (`aag`).
///
/// Node indices are compacted to the AIGER convention (inputs first, then
/// AND nodes in topological order); input/output names are emitted in the
/// symbol table.
pub fn write_aag(aig: &Aig) -> String {
    // Map our vars to contiguous AIGER variables: inputs 1..=I, ANDs after.
    let mut var_map: HashMap<u32, u64> = HashMap::new();
    var_map.insert(0, 0);
    let mut next = 1u64;
    for &v in aig.inputs() {
        var_map.insert(v, next);
        next += 1;
    }
    let ands: Vec<u32> = aig.iter_ands().collect();
    for &v in &ands {
        var_map.insert(v, next);
        next += 1;
    }
    let lit_of = |l: Lit| -> u64 { var_map[&l.var()] * 2 + l.is_complement() as u64 };

    let m = next - 1;
    let mut out = String::new();
    out.push_str(&format!(
        "aag {} {} 0 {} {}\n",
        m,
        aig.num_inputs(),
        aig.num_outputs(),
        ands.len()
    ));
    for &v in aig.inputs() {
        out.push_str(&format!("{}\n", var_map[&v] * 2));
    }
    for o in aig.outputs() {
        out.push_str(&format!("{}\n", lit_of(*o)));
    }
    for &v in &ands {
        let (a, b) = aig.and_fanins(v).expect("AND node");
        out.push_str(&format!(
            "{} {} {}\n",
            var_map[&v] * 2,
            lit_of(a),
            lit_of(b)
        ));
    }
    for i in 0..aig.num_inputs() {
        out.push_str(&format!("i{i} {}\n", aig.input_name(i)));
    }
    for i in 0..aig.num_outputs() {
        out.push_str(&format!("o{i} {}\n", aig.output_name(i)));
    }
    out.push_str("c\ngenerated by almost-aig\n");
    out
}

/// Parses an ASCII AIGER (`aag`) file into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] for malformed headers, latches (sequential
/// circuits are unsupported), forward references, or out-of-range
/// literals. Memory follows the lines actually present, not the header's
/// counts, so a huge `M` or `I` in a short file is an error, not an
/// allocation.
pub fn parse_aag(text: &str) -> Result<Aig, ParseAigerError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| ParseAigerError::new("empty file"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(ParseAigerError::new(format!("bad header `{header}`")));
    }
    let parse_num = |s: &str| -> Result<u64, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::new(format!("bad number `{s}`")))
    };
    let m = parse_num(fields[1])?;
    let i = parse_num(fields[2])?;
    let l = parse_num(fields[3])?;
    let o = parse_num(fields[4])?;
    let a = parse_num(fields[5])?;
    if l != 0 {
        return Err(ParseAigerError::new("latches are not supported"));
    }
    if m > u64::MAX / 2 {
        // Literal 2M + 1 must fit.
        return Err(ParseAigerError::new(format!("header M = {m} out of range")));
    }
    if i.checked_add(a).is_none_or(|defined| m < defined) {
        return Err(ParseAigerError::new("header M < I + A"));
    }

    let mut aig = Aig::new();
    // AIGER var -> our Lit, holding only the vars the file defines.
    let mut lit_map: HashMap<u64, Lit> = HashMap::new();
    lit_map.insert(0, Lit::FALSE);

    for _ in 0..i {
        let line = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing input line"))?;
        let lit = parse_num(line.trim())?;
        if lit % 2 != 0 || lit == 0 {
            return Err(ParseAigerError::new(format!("bad input literal {lit}")));
        }
        let var = lit / 2;
        if var > m || lit_map.contains_key(&var) {
            return Err(ParseAigerError::new(format!("bad input var {var}")));
        }
        lit_map.insert(var, aig.add_input());
    }

    let mut output_lits_raw = Vec::new();
    for _ in 0..o {
        let line = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing output line"))?;
        output_lits_raw.push(parse_num(line.trim())?);
    }

    for _ in 0..a {
        let line = lines
            .next()
            .ok_or_else(|| ParseAigerError::new("missing AND line"))?;
        let nums: Vec<u64> = line
            .split_whitespace()
            .map(parse_num)
            .collect::<Result<_, _>>()?;
        if nums.len() != 3 {
            return Err(ParseAigerError::new(format!("bad AND line `{line}`")));
        }
        let (out_lit, a_lit, b_lit) = (nums[0], nums[1], nums[2]);
        if out_lit % 2 != 0 {
            return Err(ParseAigerError::new("AND output literal must be even"));
        }
        let resolve = |lit: u64| -> Result<Lit, ParseAigerError> {
            let var = lit / 2;
            let base = lit_map
                .get(&var)
                .ok_or_else(|| ParseAigerError::new(format!("forward reference to {var}")))?;
            Ok(base.xor_complement(lit % 2 == 1))
        };
        let fa = resolve(a_lit)?;
        let fb = resolve(b_lit)?;
        let var = out_lit / 2;
        if var > m {
            return Err(ParseAigerError::new(format!(
                "AND var {var} exceeds M = {m}"
            )));
        }
        if lit_map.contains_key(&var) {
            return Err(ParseAigerError::new(format!("var {var} defined twice")));
        }
        lit_map.insert(var, aig.and(fa, fb));
    }

    // Symbol table (optional).
    for line in lines {
        let line = line.trim();
        if line == "c" {
            break;
        }
        if let Some(rest) = line.strip_prefix('i') {
            if let Some((idx, name)) = rest.split_once(' ') {
                if let Ok(idx) = idx.parse::<usize>() {
                    if idx < aig.num_inputs() {
                        aig.set_input_name(idx, name);
                    }
                }
            }
        }
    }

    for (k, &raw) in output_lits_raw.iter().enumerate() {
        let var = raw / 2;
        let base = lit_map
            .get(&var)
            .ok_or_else(|| ParseAigerError::new(format!("undefined output var {var}")))?;
        aig.add_named_output(base.xor_complement(raw % 2 == 1), format!("o{k}"));
    }
    Ok(aig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::probably_equivalent;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_named_input("a");
        let b = aig.add_named_input("b");
        let c = aig.add_named_input("c");
        let x = aig.xor(a, b);
        let f = aig.mux(c, x, a);
        aig.add_named_output(f, "f");
        aig.add_named_output(!x, "g");
        aig
    }

    #[test]
    fn roundtrip_preserves_function() {
        let aig = sample_aig();
        let text = write_aag(&aig);
        let back = parse_aag(&text).expect("round-trips");
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_outputs(), aig.num_outputs());
        assert!(probably_equivalent(&aig, &back, 4, 1));
        assert_eq!(back.input_name(0), "a");
    }

    #[test]
    fn parses_the_canonical_and_example() {
        // The AIGER spec's AND-gate example.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let aig = parse_aag(text).expect("parses");
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.eval(&[true, true]), vec![true]);
        assert_eq!(aig.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 3\n";
        assert!(parse_aag(text).is_err());
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(parse_aag("").is_err());
        assert!(parse_aag("aig 1 1 0 0 0\n").is_err());
        assert!(parse_aag("aag x 1 0 0 0\n").is_err());
    }

    #[test]
    fn garbage_never_panics() {
        for text in [
            // AND var above M.
            "aag 1 0 0 0 1\n4 0 0\n",
            // M + 1 overflows; any huge M must not size an allocation.
            "aag 18446744073709551615 0 0 0 0\n",
            "aag 18446744073709551615 1 0 1 0\n2\n",
            // I + A overflows.
            "aag 2 1 0 0 18446744073709551615\n",
            // Huge counts over a short body.
            "aag 9223372036854775807 9223372036854775806 0 0 1\n2\n",
            "aag 0 0 0 18446744073709551615 0\n",
            // Constant var redefined, self reference, undefined output.
            "aag 1 0 0 0 1\n0 0 0\n",
            "aag 1 0 0 0 1\n2 2 2\n",
            "aag 1 0 0 1 0\n2\n",
        ] {
            assert!(parse_aag(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn constant_outputs_roundtrip() {
        let mut aig = Aig::new();
        let _ = aig.add_input();
        aig.add_output(Lit::TRUE);
        aig.add_output(Lit::FALSE);
        let back = parse_aag(&write_aag(&aig)).expect("round-trips");
        assert_eq!(back.eval(&[false]), vec![true, false]);
    }
}
