//! Cell libraries.
//!
//! A [`CellLibrary`] defines which `(gate family, arity)` combinations a
//! netlist may use and assigns each a *feature class*, the index used by the
//! GNN's neighbourhood histogram. The three libraries match the paper's
//! feature-vector lengths exactly:
//!
//! | Library | Gate classes | Extra features (IN, OUT, PI, PO, KI) | `\|f̂\|` |
//! |---|---|---|---|
//! | `Bench8` | 8 | 5 | 13 |
//! | `Lpe65` | 29 | 5 | 34 |
//! | `Nangate45` | 13 | 5 | 18 |

use crate::gate::GateType;
use std::fmt;
use std::str::FromStr;

/// Number of non-gate-type features (IN, OUT, PI, PO, KI) in a node feature
/// vector (paper Section IV-B).
pub const EXTRA_FEATURES: usize = 5;

/// A target cell library constraining gate families and arities.
///
/// # Examples
///
/// ```
/// use gnnunlock_netlist::{CellLibrary, GateType};
/// let lib = CellLibrary::Lpe65;
/// assert!(lib.allows(GateType::Nand, 3));
/// assert!(!lib.allows(GateType::Nand, 7));
/// assert_eq!(lib.feature_len(), 34);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellLibrary {
    /// The 8-gate bench-format vocabulary (variadic arities), used for
    /// Anti-SAT datasets. `|f̂| = 13`.
    #[default]
    Bench8,
    /// A 29-cell library modelled on a commercial 65nm LPe flow.
    /// `|f̂| = 34`.
    Lpe65,
    /// A 13-cell library modelled on the Nangate 45nm open cell library.
    /// `|f̂| = 18`.
    Nangate45,
}

/// Classes of the `Bench8` library in feature order.
const BENCH8: [GateType; 8] = [
    GateType::Buf,
    GateType::Inv,
    GateType::And,
    GateType::Nand,
    GateType::Or,
    GateType::Nor,
    GateType::Xor,
    GateType::Xnor,
];

/// `(family, arity)` classes of the `Lpe65` library in feature order.
const LPE65: [(GateType, usize); 29] = [
    (GateType::Inv, 1),
    (GateType::Buf, 1),
    (GateType::Nand, 2),
    (GateType::Nand, 3),
    (GateType::Nand, 4),
    (GateType::Nor, 2),
    (GateType::Nor, 3),
    (GateType::Nor, 4),
    (GateType::And, 2),
    (GateType::And, 3),
    (GateType::And, 4),
    (GateType::Or, 2),
    (GateType::Or, 3),
    (GateType::Or, 4),
    (GateType::Xor, 2),
    (GateType::Xor, 3),
    (GateType::Xnor, 2),
    (GateType::Xnor, 3),
    (GateType::Aoi21, 3),
    (GateType::Aoi22, 4),
    (GateType::Aoi211, 4),
    (GateType::Aoi221, 5),
    (GateType::Oai21, 3),
    (GateType::Oai22, 4),
    (GateType::Oai211, 4),
    (GateType::Oai221, 5),
    (GateType::Mux2, 3),
    (GateType::Mxi2, 3),
    (GateType::Maj3, 3),
];

/// `(family, arity)` classes of the `Nangate45` library in feature order.
const NANGATE45: [(GateType, usize); 13] = [
    (GateType::Inv, 1),
    (GateType::Buf, 1),
    (GateType::Nand, 2),
    (GateType::Nand, 3),
    (GateType::Nor, 2),
    (GateType::Nor, 3),
    (GateType::And, 2),
    (GateType::Or, 2),
    (GateType::Xor, 2),
    (GateType::Xnor, 2),
    (GateType::Aoi21, 3),
    (GateType::Oai21, 3),
    (GateType::Mux2, 3),
];

impl CellLibrary {
    /// Number of gate-type feature classes.
    pub fn num_classes(self) -> usize {
        match self {
            CellLibrary::Bench8 => BENCH8.len(),
            CellLibrary::Lpe65 => LPE65.len(),
            CellLibrary::Nangate45 => NANGATE45.len(),
        }
    }

    /// Total node feature vector length `|f̂|` (gate classes + IN, OUT, PI,
    /// PO, KI).
    pub fn feature_len(self) -> usize {
        self.num_classes() + EXTRA_FEATURES
    }

    /// Whether a gate of `family` with `arity` inputs is a legal cell here.
    pub fn allows(self, family: GateType, arity: usize) -> bool {
        self.feature_class(family, arity).is_some()
    }

    /// Feature-class index of `(family, arity)`, or `None` if the cell is
    /// not in the library.
    pub fn feature_class(self, family: GateType, arity: usize) -> Option<usize> {
        match self {
            CellLibrary::Bench8 => {
                if !family.arity_ok(arity) {
                    return None;
                }
                BENCH8.iter().position(|&t| t == family)
            }
            CellLibrary::Lpe65 => LPE65.iter().position(|&(t, a)| t == family && a == arity),
            CellLibrary::Nangate45 => NANGATE45
                .iter()
                .position(|&(t, a)| t == family && a == arity),
        }
    }

    /// Standard-cell instance name for Verilog output, e.g. `NAND2_X1`.
    ///
    /// For `Bench8` the bare family name is returned (bench gates have no
    /// drive strength).
    pub fn cell_name(self, family: GateType, arity: usize) -> String {
        match self {
            CellLibrary::Bench8 => family.name().to_string(),
            CellLibrary::Lpe65 | CellLibrary::Nangate45 => {
                format!("{}_X1", cell_stem(family, arity))
            }
        }
    }

    /// Iterate over the `(family, arity)` pairs of the library in feature
    /// order. `Bench8` families are reported with their minimum arity.
    pub fn cells(self) -> Vec<(GateType, usize)> {
        match self {
            CellLibrary::Bench8 => BENCH8
                .iter()
                .map(|&t| (t, t.fixed_arity().unwrap_or(2)))
                .collect(),
            CellLibrary::Lpe65 => LPE65.to_vec(),
            CellLibrary::Nangate45 => NANGATE45.to_vec(),
        }
    }

    /// Short identifier used in dataset names (`bench`, `65nm`, `45nm`).
    pub fn tag(self) -> &'static str {
        match self {
            CellLibrary::Bench8 => "bench",
            CellLibrary::Lpe65 => "65nm",
            CellLibrary::Nangate45 => "45nm",
        }
    }
}

/// Cell stem such as `NAND3` or `AOI21` (complex cells already encode their
/// shape in the family name).
fn cell_stem(family: GateType, arity: usize) -> String {
    use GateType::*;
    match family {
        Inv => "INV".to_string(),
        Buf => "BUF".to_string(),
        And | Nand | Or | Nor | Xor | Xnor => format!("{}{}", family.name(), arity),
        _ => family.name().to_string(),
    }
}

impl fmt::Display for CellLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CellLibrary::Bench8 => "Bench8",
            CellLibrary::Lpe65 => "Lpe65",
            CellLibrary::Nangate45 => "Nangate45",
        })
    }
}

/// Error returned when parsing a [`CellLibrary`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCellLibraryError(pub String);

impl fmt::Display for ParseCellLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown cell library `{}`", self.0)
    }
}

impl std::error::Error for ParseCellLibraryError {}

impl FromStr for CellLibrary {
    type Err = ParseCellLibraryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bench8" | "bench" => Ok(CellLibrary::Bench8),
            "lpe65" | "65nm" | "65" => Ok(CellLibrary::Lpe65),
            "nangate45" | "45nm" | "45" => Ok(CellLibrary::Nangate45),
            other => Err(ParseCellLibraryError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_lengths_match_paper() {
        assert_eq!(CellLibrary::Bench8.feature_len(), 13);
        assert_eq!(CellLibrary::Lpe65.feature_len(), 34);
        assert_eq!(CellLibrary::Nangate45.feature_len(), 18);
    }

    #[test]
    fn bench8_accepts_wide_gates() {
        assert!(CellLibrary::Bench8.allows(GateType::And, 17));
        assert!(CellLibrary::Bench8.allows(GateType::Inv, 1));
        assert!(!CellLibrary::Bench8.allows(GateType::Aoi21, 3));
    }

    #[test]
    fn lpe65_arity_bounds() {
        let lib = CellLibrary::Lpe65;
        assert!(lib.allows(GateType::Nand, 4));
        assert!(!lib.allows(GateType::Nand, 5));
        assert!(lib.allows(GateType::Xor, 3));
        assert!(!lib.allows(GateType::Xor, 4));
        assert!(lib.allows(GateType::Maj3, 3));
    }

    #[test]
    fn nangate45_is_strict_subset_of_families() {
        let lib = CellLibrary::Nangate45;
        assert!(lib.allows(GateType::Mux2, 3));
        assert!(!lib.allows(GateType::Mxi2, 3));
        assert!(!lib.allows(GateType::And, 3));
    }

    #[test]
    fn feature_classes_are_dense_and_unique() {
        for lib in [
            CellLibrary::Bench8,
            CellLibrary::Lpe65,
            CellLibrary::Nangate45,
        ] {
            let mut seen = vec![false; lib.num_classes()];
            for (family, arity) in lib.cells() {
                let idx = lib.feature_class(family, arity).unwrap();
                assert!(!seen[idx], "duplicate class in {lib}");
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s), "gap in classes of {lib}");
        }
    }

    #[test]
    fn cell_names_round_trip_to_families() {
        for lib in [CellLibrary::Lpe65, CellLibrary::Nangate45] {
            for (family, arity) in lib.cells() {
                let name = lib.cell_name(family, arity);
                let parsed: GateType = name.parse().unwrap();
                assert_eq!(parsed, family, "{name} parsed to {parsed}");
            }
        }
    }

    #[test]
    fn library_parsing() {
        assert_eq!("65nm".parse::<CellLibrary>().unwrap(), CellLibrary::Lpe65);
        assert_eq!(
            "nangate45".parse::<CellLibrary>().unwrap(),
            CellLibrary::Nangate45
        );
        assert!("90nm".parse::<CellLibrary>().is_err());
    }
}
