//! Gate (standard-cell) types and their Boolean semantics.
//!
//! A [`GateType`] names a logic *function family*. The arity of an instance
//! is given by its input list: the bench format permits variadic
//! `AND`/`OR`/`NAND`/`NOR`/`XOR`/`XNOR` gates, while mapped standard-cell
//! libraries restrict each family to specific arities (see
//! [`crate::library::CellLibrary`]).

use std::fmt;
use std::str::FromStr;

/// Logic function family of a gate.
///
/// Complex cells (`Aoi*`, `Oai*`, `Mux2`, `Mxi2`, `Maj3`) have fixed arity;
/// the simple families accept any arity ≥ 1 (`Buf`/`Inv` exactly 1).
///
/// # Examples
///
/// ```
/// use gnnunlock_netlist::GateType;
/// assert_eq!(GateType::Nand.eval(&[true, true]), false);
/// assert_eq!(GateType::Aoi21.eval(&[true, true, false]), false);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateType {
    /// Buffer: `y = a`.
    Buf,
    /// Inverter: `y = !a`.
    Inv,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (parity).
    Xor,
    /// N-input XNOR (complement of parity).
    Xnor,
    /// AND-OR-INVERT 2-1: `y = !((a & b) | c)`.
    Aoi21,
    /// AND-OR-INVERT 2-2: `y = !((a & b) | (c & d))`.
    Aoi22,
    /// AND-OR-INVERT 2-1-1: `y = !((a & b) | c | d)`.
    Aoi211,
    /// AND-OR-INVERT 2-2-1: `y = !((a & b) | (c & d) | e)`.
    Aoi221,
    /// OR-AND-INVERT 2-1: `y = !((a | b) & c)`.
    Oai21,
    /// OR-AND-INVERT 2-2: `y = !((a | b) & (c | d))`.
    Oai22,
    /// OR-AND-INVERT 2-1-1: `y = !((a | b) & c & d)`.
    Oai211,
    /// OR-AND-INVERT 2-2-1: `y = !((a | b) & (c | d) & e)`.
    Oai221,
    /// 2:1 multiplexer: `y = s ? b : a` with inputs `(a, b, s)`.
    Mux2,
    /// Inverting 2:1 multiplexer: `y = !(s ? b : a)`.
    Mxi2,
    /// 3-input majority (full-adder carry): `y = ab | ac | bc`.
    Maj3,
}

/// All gate types, in a stable order (used for feature layouts and stats).
pub const ALL_GATE_TYPES: [GateType; 19] = [
    GateType::Buf,
    GateType::Inv,
    GateType::And,
    GateType::Nand,
    GateType::Or,
    GateType::Nor,
    GateType::Xor,
    GateType::Xnor,
    GateType::Aoi21,
    GateType::Aoi22,
    GateType::Aoi211,
    GateType::Aoi221,
    GateType::Oai21,
    GateType::Oai22,
    GateType::Oai211,
    GateType::Oai221,
    GateType::Mux2,
    GateType::Mxi2,
    GateType::Maj3,
];

impl GateType {
    /// Fixed arity of the gate, or `None` for the variadic families.
    ///
    /// `Buf` and `Inv` report `Some(1)`.
    pub fn fixed_arity(self) -> Option<usize> {
        use GateType::*;
        match self {
            Buf | Inv => Some(1),
            And | Nand | Or | Nor | Xor | Xnor => None,
            Aoi21 | Oai21 | Mux2 | Mxi2 | Maj3 => Some(3),
            Aoi22 | Oai22 | Aoi211 | Oai211 => Some(4),
            Aoi221 | Oai221 => Some(5),
        }
    }

    /// Whether `n` inputs is a legal arity for this family.
    pub fn arity_ok(self, n: usize) -> bool {
        match self.fixed_arity() {
            Some(k) => n == k,
            None => n >= 2,
        }
    }

    /// Evaluate the gate on Boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the family.
    pub fn eval(self, inputs: &[bool]) -> bool {
        use GateType::*;
        assert!(
            self.arity_ok(inputs.len()),
            "gate {self} does not accept {} inputs",
            inputs.len()
        );
        match self {
            Buf => inputs[0],
            Inv => !inputs[0],
            And => inputs.iter().all(|&b| b),
            Nand => !inputs.iter().all(|&b| b),
            Or => inputs.iter().any(|&b| b),
            Nor => !inputs.iter().any(|&b| b),
            Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            Aoi211 => !((inputs[0] & inputs[1]) | inputs[2] | inputs[3]),
            Aoi221 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3]) | inputs[4]),
            Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
            Oai211 => !((inputs[0] | inputs[1]) & inputs[2] & inputs[3]),
            Oai221 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3]) & inputs[4]),
            Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            Mxi2 => !(if inputs[2] { inputs[1] } else { inputs[0] }),
            Maj3 => (inputs[0] & inputs[1]) | (inputs[0] & inputs[2]) | (inputs[1] & inputs[2]),
        }
    }

    /// Evaluate the gate on 64 parallel patterns packed into `u64` words.
    ///
    /// Bit `i` of every word belongs to pattern `i`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the family.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        use GateType::*;
        debug_assert!(self.arity_ok(inputs.len()));
        match self {
            Buf => inputs[0],
            Inv => !inputs[0],
            And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            Aoi211 => !((inputs[0] & inputs[1]) | inputs[2] | inputs[3]),
            Aoi221 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3]) | inputs[4]),
            Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
            Oai211 => !((inputs[0] | inputs[1]) & inputs[2] & inputs[3]),
            Oai221 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3]) & inputs[4]),
            Mux2 => (inputs[0] & !inputs[2]) | (inputs[1] & inputs[2]),
            Mxi2 => !((inputs[0] & !inputs[2]) | (inputs[1] & inputs[2])),
            Maj3 => (inputs[0] & inputs[1]) | (inputs[0] & inputs[2]) | (inputs[1] & inputs[2]),
        }
    }

    /// Canonical upper-case name used by the bench format and as the stem of
    /// standard-cell names.
    pub fn name(self) -> &'static str {
        use GateType::*;
        match self {
            Buf => "BUF",
            Inv => "NOT",
            And => "AND",
            Nand => "NAND",
            Or => "OR",
            Nor => "NOR",
            Xor => "XOR",
            Xnor => "XNOR",
            Aoi21 => "AOI21",
            Aoi22 => "AOI22",
            Aoi211 => "AOI211",
            Aoi221 => "AOI221",
            Oai21 => "OAI21",
            Oai22 => "OAI22",
            Oai211 => "OAI211",
            Oai221 => "OAI221",
            Mux2 => "MUX2",
            Mxi2 => "MXI2",
            Maj3 => "MAJ3",
        }
    }
}

impl fmt::Display for GateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`GateType`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateTypeError(pub String);

impl fmt::Display for ParseGateTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate type `{}`", self.0)
    }
}

impl std::error::Error for ParseGateTypeError {}

impl FromStr for GateType {
    type Err = ParseGateTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use GateType::*;
        let up = s.to_ascii_uppercase();
        // Strip a standard-cell arity+drive suffix such as `NAND2_X1` or
        // `NAND2X2` down to the family stem.
        let stem: &str = up.split('_').next().unwrap_or(&up);
        let family = stem.trim_end_matches(|c: char| c.is_ascii_digit() || c == 'X');
        let lookup = |name: &str| -> Option<GateType> {
            match name {
                "BUF" | "BUFF" => Some(Buf),
                "NOT" | "INV" => Some(Inv),
                "AND" => Some(And),
                "NAND" => Some(Nand),
                "OR" => Some(Or),
                "NOR" => Some(Nor),
                "XOR" => Some(Xor),
                "XNOR" => Some(Xnor),
                "MAJ" => Some(Maj3),
                _ => None,
            }
        };
        // Complex cells keep their digits in the family name, so match the
        // full stem first.
        match stem {
            "AOI21" => return Ok(Aoi21),
            "AOI22" => return Ok(Aoi22),
            "AOI211" => return Ok(Aoi211),
            "AOI221" => return Ok(Aoi221),
            "OAI21" => return Ok(Oai21),
            "OAI22" => return Ok(Oai22),
            "OAI211" => return Ok(Oai211),
            "OAI221" => return Ok(Oai221),
            "MUX2" | "MUX" => return Ok(Mux2),
            "MXI2" | "MXI" => return Ok(Mxi2),
            "MAJ3" => return Ok(Maj3),
            _ => {}
        }
        lookup(family)
            .or_else(|| lookup(stem))
            .ok_or_else(|| ParseGateTypeError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variadic_and_truth_table() {
        assert!(GateType::And.eval(&[true, true, true]));
        assert!(!GateType::And.eval(&[true, false, true]));
        assert!(GateType::Nand.eval(&[true, false]));
        assert!(!GateType::Nand.eval(&[true, true]));
    }

    #[test]
    fn parity_gates() {
        assert!(GateType::Xor.eval(&[true, false, false]));
        assert!(!GateType::Xor.eval(&[true, true, false, false]));
        assert!(GateType::Xnor.eval(&[true, true]));
        assert!(!GateType::Xnor.eval(&[true, false]));
    }

    #[test]
    fn complex_cells_match_definitions() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assert_eq!(GateType::Aoi21.eval(&[a, b, c]), !((a & b) | c));
                    assert_eq!(GateType::Oai21.eval(&[a, b, c]), !((a | b) & c));
                    assert_eq!(GateType::Mux2.eval(&[a, b, c]), if c { b } else { a });
                    assert_eq!(GateType::Mxi2.eval(&[a, b, c]), !if c { b } else { a });
                    assert_eq!(GateType::Maj3.eval(&[a, b, c]), (a & b) | (a & c) | (b & c));
                    for d in [false, true] {
                        assert_eq!(GateType::Aoi22.eval(&[a, b, c, d]), !((a & b) | (c & d)));
                        assert_eq!(GateType::Oai22.eval(&[a, b, c, d]), !((a | b) & (c | d)));
                        assert_eq!(GateType::Aoi211.eval(&[a, b, c, d]), !((a & b) | c | d));
                        assert_eq!(GateType::Oai211.eval(&[a, b, c, d]), !((a | b) & c & d));
                        for e in [false, true] {
                            assert_eq!(
                                GateType::Aoi221.eval(&[a, b, c, d, e]),
                                !((a & b) | (c & d) | e)
                            );
                            assert_eq!(
                                GateType::Oai221.eval(&[a, b, c, d, e]),
                                !((a | b) & (c | d) & e)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_eval_matches_scalar_eval() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for &ty in ALL_GATE_TYPES.iter() {
            let arity = ty.fixed_arity().unwrap_or(4);
            let words: Vec<u64> = (0..arity).map(|_| rng.random()).collect();
            let word_out = ty.eval_word(&words);
            for bit in 0..64 {
                let bits: Vec<bool> = words.iter().map(|w| (w >> bit) & 1 == 1).collect();
                assert_eq!(
                    (word_out >> bit) & 1 == 1,
                    ty.eval(&bits),
                    "mismatch for {ty} at bit {bit}"
                );
            }
        }
    }

    #[test]
    fn parse_cell_names() {
        assert_eq!("NAND2_X1".parse::<GateType>().unwrap(), GateType::Nand);
        assert_eq!("INVX4".parse::<GateType>().unwrap(), GateType::Inv);
        assert_eq!("not".parse::<GateType>().unwrap(), GateType::Inv);
        assert_eq!("AOI211".parse::<GateType>().unwrap(), GateType::Aoi211);
        assert_eq!("MUX2_X1".parse::<GateType>().unwrap(), GateType::Mux2);
        assert!("FOO".parse::<GateType>().is_err());
    }

    #[test]
    fn arity_validation() {
        assert!(GateType::And.arity_ok(5));
        assert!(!GateType::And.arity_ok(1));
        assert!(GateType::Inv.arity_ok(1));
        assert!(!GateType::Inv.arity_ok(2));
        assert!(GateType::Aoi221.arity_ok(5));
        assert!(!GateType::Aoi221.arity_ok(4));
    }
}
