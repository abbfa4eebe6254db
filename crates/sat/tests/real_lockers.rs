//! The staged checker against the retained monolithic oracle
//! (`equiv::reference`) on circuits locked by the real lockers, where
//! the proptests use hand-built key gates. None of these cases reaches
//! SAT search: the random-simulation prefilter discharges both locked
//! ones and structural hashing collapses the clone. The proptests'
//! zero-simulation cases are the ones that force the solver.

use gnnunlock_locking::{lock_antisat, lock_rll, AntiSatConfig};
use gnnunlock_netlist::generator::BenchmarkSpec;
use gnnunlock_sat::{check_equivalence, equiv::reference, EquivOptions, EquivResult};
use std::mem::discriminant;

#[test]
fn staged_checker_agrees_with_reference_on_real_lockers() {
    let design = BenchmarkSpec::named("c5315")
        .unwrap()
        .scaled(0.02)
        .generate();
    let rll = lock_rll(&design, 16, 5).unwrap();
    let inverted: Vec<bool> = rll.key.bits().iter().map(|b| !b).collect();
    // Anti-SAT accepts any key with K1 == K2, so inverting every bit
    // lands on another correct key; flipping one bit makes K1 != K2,
    // which corrupts exactly one pattern of the block's inputs.
    let antisat = lock_antisat(&design, &AntiSatConfig::new(16, 2)).unwrap();
    let mut one_flipped = antisat.key.bits().to_vec();
    one_flipped[0] = !one_flipped[0];

    let cases = [
        ("rll_inverted_key", rll.netlist, Some(inverted), false),
        (
            "antisat_one_key_bit_flipped",
            antisat.netlist,
            Some(one_flipped),
            false,
        ),
        ("design_against_its_clone", design.clone(), None, true),
    ];
    for (name, locked, key, equivalent) in cases {
        let opts = EquivOptions {
            key_b: key.clone(),
            workers: 2,
            ..Default::default()
        };
        let staged = check_equivalence(&design, &locked, &opts);
        let oracle = reference::check_equivalence(&design, &locked, &opts);
        assert_eq!(
            discriminant(&staged),
            discriminant(&oracle),
            "{name}: staged {staged:?} vs reference {oracle:?}"
        );
        assert_eq!(staged.is_equivalent(), equivalent, "{name}: {staged:?}");
        for verdict in [&staged, &oracle] {
            match verdict {
                EquivResult::NotEquivalent(cex) => assert_ne!(
                    design.eval_outputs(cex, &[]).unwrap(),
                    locked
                        .eval_outputs(cex, key.as_deref().unwrap_or_default())
                        .unwrap(),
                    "{name}: the counterexample must distinguish the circuits"
                ),
                EquivResult::Equivalent => {}
                EquivResult::InterfaceMismatch(why) => panic!("{name}: {why}"),
            }
        }
    }
}
