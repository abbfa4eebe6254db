//! Synthesis simulator: technology mapping and structural rewrites with
//! label provenance.
//!
//! The paper synthesizes locked RTL with Synopsys Design Compiler for a
//! 65nm LPe library (and Nangate 45nm for the format-robustness study).
//! This crate reproduces what synthesis means *to the attack*: the same
//! locking instance maps to structurally different netlists depending on
//! library and seed, while the ground-truth
//! [`gnnunlock_netlist::NodeRole`] of every gate survives all rewrites
//! (protection roles are sticky — see [`roles::merge_roles`]).
//!
//! Pass pipeline ([`synthesize`]):
//!
//! 1. constant propagation + dead sweep,
//! 2. buffer removal and inverter-pair collapsing,
//! 3. `effort` rounds of randomized De Morgan rewrites and AOI/OAI/MUX
//!    complex-cell extraction,
//! 4. legalization into the target [`CellLibrary`] (tree decomposition of
//!    wide gates, expansion of unsupported cells),
//! 5. final cleanup, compaction and validation.
//!
//! # Examples
//!
//! ```
//! use gnnunlock_netlist::{generator::BenchmarkSpec, CellLibrary};
//! use gnnunlock_synth::{synthesize, SynthesisConfig};
//!
//! let nl = BenchmarkSpec::named("c2670").unwrap().scaled(0.03).generate();
//! let cfg = SynthesisConfig::new(CellLibrary::Lpe65).with_seed(7);
//! let mapped = synthesize(&nl, &cfg).unwrap();
//! mapped.validate(Some(CellLibrary::Lpe65)).unwrap();
//! ```

#![warn(missing_docs)]

mod cleanup;
mod const_prop;
mod decompose;
mod restructure;
pub mod roles;

pub use cleanup::{collapse_inverter_pairs, remove_buffers};
pub use const_prop::{constant_propagation, sweep_dead};
pub use decompose::{expand_complex, is_legal, legalize};
pub use restructure::{absorb_inverters, demorgan, map_complex_cells};

use gnnunlock_netlist::{CellLibrary, Netlist, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Target cell library.
    pub library: CellLibrary,
    /// Number of randomized restructuring rounds (0 = mapping only).
    pub effort: u8,
    /// Seed for the randomized rewrites; different seeds model different
    /// synthesis runs/settings.
    pub seed: u64,
    /// Probability of applying a De Morgan rewrite per candidate gate.
    pub demorgan_p: f64,
    /// Probability of extracting a complex cell per matched pattern.
    pub map_p: f64,
}

impl SynthesisConfig {
    /// Default configuration for a library: effort 2, balanced rewrite
    /// probabilities.
    pub fn new(library: CellLibrary) -> Self {
        SynthesisConfig {
            library,
            effort: 2,
            seed: 0,
            demorgan_p: 0.25,
            map_p: 0.6,
        }
    }

    /// Replace the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Synthesize `input` into the configured library.
///
/// The result is functionally equivalent to `input` (same PIs/KIs/POs),
/// contains only legal cells of `cfg.library`, and carries role labels
/// inherited from the source gates.
///
/// # Errors
///
/// Propagates structural errors (e.g. a cyclic input netlist).
pub fn synthesize(input: &Netlist, cfg: &SynthesisConfig) -> Result<Netlist> {
    let mut nl = input.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    constant_propagation(&mut nl);
    remove_buffers(&mut nl);
    collapse_inverter_pairs(&mut nl);
    sweep_dead(&mut nl);
    // Polarity optimization runs unconditionally (every synthesis tool
    // performs it); the randomized passes below are effort-gated.
    absorb_inverters(&mut nl, &mut rng, cfg.library, 0.9);
    for _ in 0..cfg.effort {
        absorb_inverters(&mut nl, &mut rng, cfg.library, 0.9);
        demorgan(&mut nl, &mut rng, cfg.library, cfg.demorgan_p);
        map_complex_cells(&mut nl, &mut rng, cfg.library, cfg.map_p);
        collapse_inverter_pairs(&mut nl);
        sweep_dead(&mut nl);
    }
    legalize(&mut nl, cfg.library);
    remove_buffers(&mut nl);
    sweep_dead(&mut nl);
    nl.compact();
    nl.validate(Some(cfg.library))?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_locking::{lock_sfll_hd, SfllConfig};
    use gnnunlock_netlist::generator::BenchmarkSpec;

    use rand::RngExt;

    fn check_equiv_random(a: &Netlist, b: &Netlist, kis: usize, seed: u64) {
        let n_pi = a.primary_inputs().len();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let pi: Vec<bool> = (0..n_pi).map(|_| rng.random_bool(0.5)).collect();
            let ki: Vec<bool> = (0..kis).map(|_| rng.random_bool(0.5)).collect();
            assert_eq!(
                a.eval_outputs(&pi, &ki).unwrap(),
                b.eval_outputs(&pi, &ki).unwrap(),
                "synthesized netlist diverges"
            );
        }
    }

    #[test]
    fn synthesis_preserves_function_lpe65() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.05)
            .generate();
        let mapped =
            synthesize(&nl, &SynthesisConfig::new(CellLibrary::Lpe65).with_seed(11)).unwrap();
        mapped.validate(Some(CellLibrary::Lpe65)).unwrap();
        check_equiv_random(&nl, &mapped, 0, 1);
    }

    #[test]
    fn synthesis_preserves_function_nangate45() {
        let nl = BenchmarkSpec::named("c3540")
            .unwrap()
            .scaled(0.05)
            .generate();
        let mapped = synthesize(
            &nl,
            &SynthesisConfig::new(CellLibrary::Nangate45).with_seed(3),
        )
        .unwrap();
        mapped.validate(Some(CellLibrary::Nangate45)).unwrap();
        check_equiv_random(&nl, &mapped, 0, 2);
    }

    #[test]
    fn different_seeds_give_different_structures() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.05)
            .generate();
        let a = synthesize(&nl, &SynthesisConfig::new(CellLibrary::Lpe65).with_seed(1)).unwrap();
        let b = synthesize(&nl, &SynthesisConfig::new(CellLibrary::Lpe65).with_seed(2)).unwrap();
        let ha = a.cell_histogram();
        let hb = b.cell_histogram();
        assert_ne!(ha, hb, "seeds produced identical cell mixes");
        check_equiv_random(&a, &b, 0, 3);
    }

    #[test]
    fn locked_circuit_roles_survive_synthesis() {
        let design = BenchmarkSpec::named("c3540")
            .unwrap()
            .scaled(0.04)
            .generate();
        let locked = lock_sfll_hd(&design, &SfllConfig::new(12, 2, 5)).unwrap();
        let mapped = synthesize(
            &locked.netlist,
            &SynthesisConfig::new(CellLibrary::Lpe65).with_seed(9),
        )
        .unwrap();
        let [_, pn, rn, _] = mapped.role_histogram();
        assert!(pn > 0, "perturb labels lost in synthesis");
        assert!(rn > 0, "restore labels lost in synthesis");
        check_equiv_random(&locked.netlist, &mapped, 12, 4);
    }

    #[test]
    fn keys_still_unlock_after_synthesis() {
        let design = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.04)
            .generate();
        let locked = lock_sfll_hd(&design, &SfllConfig::new(10, 2, 6)).unwrap();
        let mapped = synthesize(
            &locked.netlist,
            &SynthesisConfig::new(CellLibrary::Nangate45).with_seed(10),
        )
        .unwrap();
        let n_pi = design.primary_inputs().len();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let pi: Vec<bool> = (0..n_pi).map(|_| rng.random_bool(0.5)).collect();
            assert_eq!(
                design.eval_outputs(&pi, &[]).unwrap(),
                mapped.eval_outputs(&pi, locked.key.bits()).unwrap()
            );
        }
    }

    #[test]
    fn effort_zero_is_pure_mapping() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.03)
            .generate();
        let cfg = SynthesisConfig {
            effort: 0,
            ..SynthesisConfig::new(CellLibrary::Lpe65)
        };
        let mapped = synthesize(&nl, &cfg).unwrap();
        assert!(is_legal(&mapped, CellLibrary::Lpe65));
        check_equiv_random(&nl, &mapped, 0, 5);
        // No randomized passes ran: no complex cells should appear.
        assert!(!mapped
            .gate_ids()
            .any(|g| matches!(mapped.gate_type(g), gnnunlock_netlist::GateType::Aoi21)));
    }

    #[test]
    fn protection_never_relabelled_as_design() {
        // Count protection gates before and after: rewrites may merge or
        // split them, but the boundary rule keeps protection sticky, so
        // the protected cone cannot vanish while its logic remains.
        let design = BenchmarkSpec::named("c3540")
            .unwrap()
            .scaled(0.04)
            .generate();
        let locked = lock_sfll_hd(&design, &SfllConfig::new(16, 4, 3)).unwrap();
        let mapped = synthesize(
            &locked.netlist,
            &SynthesisConfig::new(CellLibrary::Lpe65).with_seed(4),
        )
        .unwrap();
        let before = locked.netlist.role_histogram();
        let after = mapped.role_histogram();
        // Protection shrinks only through genuine logic simplification;
        // it must stay within a sane band of the original size.
        let before_prot = before[1] + before[2];
        let after_prot = after[1] + after[2];
        assert!(
            after_prot * 2 >= before_prot,
            "protection logic collapsed: {before_prot} -> {after_prot}"
        );
    }
}
