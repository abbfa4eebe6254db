//! Staged combinational equivalence checking — the stand-in for
//! Synopsys Formality in the paper's evaluation flow (Fig. 4).
//!
//! Two netlists are compared over their shared primary inputs; key inputs
//! of either side may be bound to constant values (checking a locked
//! circuit under a specific key against the original). The check runs as
//! a pipeline of stages, each discharging the instance as cheaply as it
//! can before handing the rest to the next:
//!
//! 1. **Bit-parallel prefilter** — `sim_words` rounds of 64-way random
//!    word simulation directly on both netlists (one random `u64` per
//!    primary input, word-level XOR compare over matched outputs);
//!    bit-index extraction happens only on a mismatch. Most
//!    not-equivalent instances die here without ever touching CNF.
//! 2. **Output-cone partitioning** — primary outputs are grouped by
//!    shared transitive-fanin support ([`Netlist::output_cones`] +
//!    union-find), and each group becomes an independent sub-miter over
//!    only its cone's logic. Cones are solved across a worker pool;
//!    verdict selection is deterministic (the lowest cone index with a
//!    difference wins), so results are byte-identical at any worker
//!    count.
//! 3. **Incremental solving** — each worker encodes its cones' logic
//!    once and checks every owned cone through
//!    [`Solver::solve_with_assumptions`] with a per-cone activation
//!    literal, so learned clauses are reused across the output family
//!    instead of re-deriving them per miter.
//!
//! Counterexamples are canonicalized by re-solving the winning cone in a
//! fresh solver, which makes the returned pattern independent of which
//! worker found the difference first.
//!
//! The pre-pipeline monolithic checker survives verbatim as
//! [`reference`](mod@reference), the oracle the proptests and
//! `tests/real_lockers.rs` compare against.

use crate::encode::{assert_lit, encode_netlist_filtered, fresh_lit, or_lit, xor_lit, StrashTable};
use crate::lit::Lit;
use crate::solver::{SolveResult, Solver};
use gnnunlock_netlist::{InputKind, Netlist, OutputCone, KEY_INPUT_PREFIX};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivResult {
    /// The circuits agree on every input pattern.
    Equivalent,
    /// A distinguishing primary-input pattern (in `a`'s PI declaration
    /// order) was found.
    NotEquivalent(Vec<bool>),
    /// The circuits' interfaces cannot be matched.
    InterfaceMismatch(String),
}

impl EquivResult {
    /// `true` when the result is [`EquivResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Configuration for [`check_equivalence`].
#[derive(Debug, Clone, Default)]
pub struct EquivOptions {
    /// Key values for `a`'s key inputs (`keyinput{i}` gets bit `i`).
    pub key_a: Option<Vec<bool>>,
    /// Key values for `b`'s key inputs.
    pub key_b: Option<Vec<bool>>,
    /// Number of 64-pattern random-simulation words to try before SAT
    /// (default 32 → 2048 patterns).
    pub sim_words: usize,
    /// RNG seed for the simulation prefilter.
    pub seed: u64,
    /// Worker threads for the cone-partitioned SAT stage (`0` and `1`
    /// both mean serial). Verdicts and counterexamples are byte-identical
    /// at any value — the lowest not-equivalent cone index always wins,
    /// and its counterexample is re-derived in a fresh solver.
    pub workers: usize,
}

/// Aggregate statistics of one staged equivalence check: how far each
/// stage got and what the SAT search cost. Purely observational — the
/// verdict never depends on them — and summed across every worker of
/// the cone stage (plus the canonical-counterexample re-solve).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// The random-simulation prefilter found the counterexample; no CNF
    /// was ever built.
    pub prefilter_discharged: bool,
    /// Output-cone groups the SAT stage partitioned the miter into
    /// (0 when the prefilter discharged the instance).
    pub cones: usize,
    /// Cones whose every output collapsed to identical literals under
    /// structural hashing — equivalent with no SAT search at all.
    pub strash_collapsed_cones: usize,
    /// `solve` / `solve_with_assumptions` queries issued.
    pub solver_calls: u64,
    /// Conflicts across every solver involved.
    pub conflicts: u64,
    /// Decisions across every solver involved.
    pub decisions: u64,
    /// Unit propagations across every solver involved.
    pub propagations: u64,
    /// Restarts across every solver involved.
    pub restarts: u64,
    /// Learnt clauses still live per worker solver at the end of its
    /// cone family — reuse across the family is the point of the
    /// incremental encoding.
    pub learnt_clauses: u64,
}

/// Shared accumulator the cone-stage workers fold their solver costs
/// into (relaxed atomics; the totals are read only after the worker
/// scope joins).
#[derive(Default)]
struct StatsAcc {
    solver_calls: AtomicU64,
    conflicts: AtomicU64,
    decisions: AtomicU64,
    propagations: AtomicU64,
    restarts: AtomicU64,
    learnt_clauses: AtomicU64,
    strash_collapsed: AtomicU64,
}

impl StatsAcc {
    /// Fold one solver's cumulative stats (and live learnt count) in.
    fn fold_solver(&self, solver: &Solver) {
        let s = solver.stats();
        self.conflicts.fetch_add(s.conflicts, Ordering::Relaxed);
        self.decisions.fetch_add(s.decisions, Ordering::Relaxed);
        self.propagations
            .fetch_add(s.propagations, Ordering::Relaxed);
        self.restarts.fetch_add(s.restarts, Ordering::Relaxed);
        self.learnt_clauses
            .fetch_add(solver.num_learnts() as u64, Ordering::Relaxed);
    }
}

/// The matched interface of the two circuits: name↔position index maps
/// built once up front (the old checker re-scanned name lists per output
/// and per primary input during counterexample extraction).
struct Interface {
    /// For each `b` primary input (in `b` declaration order), its
    /// position in `a`'s primary-input declaration order.
    b_pi_to_a: Vec<usize>,
    /// `a` output names in declaration order.
    a_out_names: Vec<String>,
    /// For each `a` output position, the matching `b` output position
    /// (by name; the last duplicate wins, matching the monolithic
    /// checker's map semantics).
    b_out_pos: Vec<usize>,
    /// Parsed `keyinput{i}` indices per `a` key input in declaration
    /// order; empty when `a`'s key is unbound.
    a_key_idx: Vec<usize>,
    /// Same for `b`.
    b_key_idx: Vec<usize>,
}

fn primary_input_names(nl: &Netlist) -> Vec<String> {
    nl.inputs()
        .filter(|(_, k, _)| *k == InputKind::Primary)
        .map(|(n, _, _)| n.to_string())
        .collect()
}

/// Parse the `keyinput{i}` bit index out of a key-input name.
fn key_bit_index(name: &str) -> Option<usize> {
    name.strip_prefix(KEY_INPUT_PREFIX)?.parse().ok()
}

/// Parse every key-input bit index of `nl`, in declaration order.
fn key_indices(nl: &Netlist) -> Result<Vec<usize>, String> {
    nl.inputs()
        .filter(|(_, k, _)| *k == InputKind::Key)
        .map(|(name, _, _)| {
            key_bit_index(name)
                .ok_or_else(|| format!("malformed key input name '{name}' (want keyinput<N>)"))
        })
        .collect()
}

impl Interface {
    fn match_up(a: &Netlist, b: &Netlist, opts: &EquivOptions) -> Result<Interface, String> {
        let a_pis = primary_input_names(a);
        let b_pis = primary_input_names(b);
        let mut a_sorted = a_pis.clone();
        let mut b_sorted = b_pis.clone();
        a_sorted.sort();
        b_sorted.sort();
        if a_sorted != b_sorted {
            return Err(format!(
                "primary inputs differ: {} vs {}",
                a_pis.len(),
                b_pis.len()
            ));
        }
        let a_out_names: Vec<String> = a.outputs().map(|(n, _)| n.to_string()).collect();
        let b_out_names: Vec<&str> = b.outputs().map(|(n, _)| n).collect();
        let mut a_pos: Vec<&str> = a_out_names.iter().map(String::as_str).collect();
        let mut b_pos = b_out_names.clone();
        a_pos.sort();
        a_pos.dedup();
        b_pos.sort();
        b_pos.dedup();
        if a_pos != b_pos {
            return Err(format!(
                "primary outputs differ: {} vs {}",
                a_pos.len(),
                b_pos.len()
            ));
        }
        let a_pi_index: HashMap<&str, usize> = a_pis
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let b_pi_to_a = b_pis.iter().map(|n| a_pi_index[n.as_str()]).collect();
        let b_out_index: HashMap<&str, usize> = b_out_names
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i))
            .collect();
        let b_out_pos = a_out_names
            .iter()
            .map(|n| b_out_index[n.as_str()])
            .collect();
        let a_key_idx = if opts.key_a.is_some() {
            key_indices(a)?
        } else {
            Vec::new()
        };
        let b_key_idx = if opts.key_b.is_some() {
            key_indices(b)?
        } else {
            Vec::new()
        };
        Ok(Interface {
            b_pi_to_a,
            a_out_names,
            b_out_pos,
            a_key_idx,
            b_key_idx,
        })
    }
}

/// Check combinational equivalence of `a` and `b`.
///
/// Primary inputs and outputs are matched by name; both sides must expose
/// the same sets. Unbound key inputs are treated as free variables, i.e.
/// the check asks whether the circuits agree for *every* key — bind keys
/// via [`EquivOptions`] for the usual locked-vs-original comparison.
///
/// Bound keys require canonical `keyinput{i}` names; anything else is an
/// [`EquivResult::InterfaceMismatch`] (the bit a malformed name should
/// bind to is unknowable, and guessing bit 0 silently verifies the wrong
/// circuit).
///
/// The result — including the counterexample pattern — is a pure
/// function of `(a, b, opts)` minus `opts.workers`: any worker count
/// produces identical bytes.
pub fn check_equivalence(a: &Netlist, b: &Netlist, opts: &EquivOptions) -> EquivResult {
    check_equivalence_stats(a, b, opts).0
}

/// [`check_equivalence`] plus the per-check [`VerifyStats`]. The
/// verdict is identical; the stats are observational (and mirrored
/// into the process-wide telemetry registry).
pub fn check_equivalence_stats(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
) -> (EquivResult, VerifyStats) {
    let mut stats = VerifyStats::default();
    let iface = match Interface::match_up(a, b, opts) {
        Ok(iface) => iface,
        Err(msg) => return (EquivResult::InterfaceMismatch(msg), stats),
    };
    if let Some(cex) = word_prefilter(a, b, opts, &iface) {
        stats.prefilter_discharged = true;
        metrics::mirror(&stats);
        return (EquivResult::NotEquivalent(cex), stats);
    }
    let result = solve_cones(a, b, opts, &iface, &mut stats);
    metrics::mirror(&stats);
    (result, stats)
}

/// Process-wide telemetry mirrors of [`VerifyStats`] (resolved once;
/// increments are relaxed atomics off the solver's inner loops — stats
/// are folded per check, never per conflict).
mod metrics {
    use super::VerifyStats;
    use gnnunlock_telemetry::{Counter, Registry};
    use std::sync::OnceLock;

    fn counter(
        slot: &'static OnceLock<Counter>,
        name: &'static str,
        help: &'static str,
    ) -> &'static Counter {
        slot.get_or_init(|| Registry::global().counter_with(name, help, &[]))
    }

    macro_rules! sat_counter {
        ($fn_name:ident, $name:literal, $help:literal) => {
            fn $fn_name() -> &'static Counter {
                static C: OnceLock<Counter> = OnceLock::new();
                counter(&C, $name, $help)
            }
        };
    }

    sat_counter!(
        checks,
        "sat_equiv_checks_total",
        "Staged equivalence checks completed."
    );
    sat_counter!(
        prefilter,
        "sat_prefilter_discharged_total",
        "Checks discharged by the random-simulation prefilter (no CNF built)."
    );
    sat_counter!(
        cones,
        "sat_cones_total",
        "Output-cone groups partitioned across all checks."
    );
    sat_counter!(
        strash_collapsed,
        "sat_strash_collapsed_cones_total",
        "Cones proved equivalent by structural hashing alone (no SAT search)."
    );
    sat_counter!(
        solver_calls,
        "sat_solver_calls_total",
        "SAT solve queries issued by the equivalence pipeline."
    );
    sat_counter!(
        conflicts,
        "sat_conflicts_total",
        "Solver conflicts across all equivalence checks."
    );
    sat_counter!(
        propagations,
        "sat_propagations_total",
        "Solver unit propagations across all equivalence checks."
    );
    sat_counter!(
        learnt,
        "sat_learnt_clauses_total",
        "Learnt clauses live at the end of each worker's cone family."
    );

    pub(super) fn mirror(stats: &VerifyStats) {
        checks().inc();
        if stats.prefilter_discharged {
            prefilter().inc();
        }
        cones().add(stats.cones as u64);
        strash_collapsed().add(stats.strash_collapsed_cones as u64);
        solver_calls().add(stats.solver_calls);
        conflicts().add(stats.conflicts);
        propagations().add(stats.propagations);
        learnt().add(stats.learnt_clauses);
    }
}

// ---------------------------------------------------------------------
// Stage 1: bit-parallel random-simulation prefilter.

/// Random-simulation prefilter: returns a counterexample pattern if one
/// is found. Only meaningful when both keys are bound (free keys require
/// SAT). Works directly on 64-wide simulation words — one random `u64`
/// per primary input per round, constant words for the bound key bits —
/// and extracts a Boolean pattern only for the first differing bit.
fn word_prefilter(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
    iface: &Interface,
) -> Option<Vec<bool>> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let a_kis = a.key_inputs();
    let b_kis = b.key_inputs();
    if (!a_kis.is_empty() && opts.key_a.is_none()) || (!b_kis.is_empty() && opts.key_b.is_none()) {
        return None; // cannot fix keys for simulation
    }
    let a_order = a.topo_order().ok()?;
    let b_order = b.topo_order().ok()?;
    let a_pis = a.primary_inputs();
    let b_pis = b.primary_inputs();
    let a_out_nets = a.output_nets();
    let b_out_nets = b.output_nets();

    let mut a_in = vec![0u64; a.num_nets()];
    let mut b_in = vec![0u64; b.num_nets()];
    let key_a = opts.key_a.as_deref().unwrap_or(&[]);
    let key_b = opts.key_b.as_deref().unwrap_or(&[]);
    for (net, &idx) in a_kis.iter().zip(&iface.a_key_idx) {
        a_in[net.index()] = word_of(key_a.get(idx).copied().unwrap_or(false));
    }
    for (net, &idx) in b_kis.iter().zip(&iface.b_key_idx) {
        b_in[net.index()] = word_of(key_b.get(idx).copied().unwrap_or(false));
    }

    let words = if opts.sim_words == 0 {
        32
    } else {
        opts.sim_words
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut pi_words = vec![0u64; a_pis.len()];
    let (mut wa, mut wb) = (Vec::new(), Vec::new());
    for _ in 0..words {
        for (w, net) in pi_words.iter_mut().zip(&a_pis) {
            *w = rng.random();
            a_in[net.index()] = *w;
        }
        for (net, &a_idx) in b_pis.iter().zip(&iface.b_pi_to_a) {
            b_in[net.index()] = pi_words[a_idx];
        }
        a.simulate_words_into(&a_order, &|n| a_in[n.index()], &mut wa);
        b.simulate_words_into(&b_order, &|n| b_in[n.index()], &mut wb);
        let mut diff = 0u64;
        for (p, an) in a_out_nets.iter().enumerate() {
            let bn = b_out_nets[iface.b_out_pos[p]];
            diff |= wa[an.index()] ^ wb[bn.index()];
        }
        if diff != 0 {
            // Lowest differing bit = lowest pattern index in this word,
            // mirroring the monolithic checker's first-pattern rule.
            let bit = diff.trailing_zeros();
            return Some(pi_words.iter().map(|w| (w >> bit) & 1 == 1).collect());
        }
    }
    None
}

fn word_of(bit: bool) -> u64 {
    if bit {
        !0u64
    } else {
        0u64
    }
}

// ---------------------------------------------------------------------
// Stages 2+3: cone-partitioned incremental SAT.

/// Minimal union-find over output positions.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins so group ordering is stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi] = lo;
        }
    }
}

/// Group `a`'s output positions into cones of shared transitive-fanin
/// support (an input shared through *either* circuit merges the
/// outputs). Cones are ordered by their smallest member position and
/// list members in ascending position order — the deterministic verdict
/// order.
fn partition_outputs(
    a: &Netlist,
    b: &Netlist,
    iface: &Interface,
    a_cones: &[OutputCone],
    b_cones: &[OutputCone],
) -> Vec<Vec<usize>> {
    let n_out = iface.a_out_names.len();
    let mut uf = UnionFind::new(n_out);
    let mut first_seen: HashMap<&str, usize> = HashMap::new();
    for p in 0..n_out {
        let sides = [(a, &a_cones[p]), (b, &b_cones[iface.b_out_pos[p]])];
        for (nl, cone) in sides {
            for &net in &cone.inputs {
                match first_seen.entry(nl.net_name(net)) {
                    std::collections::hash_map::Entry::Occupied(e) => uf.union(p, *e.get()),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(p);
                    }
                }
            }
        }
    }
    let mut group_of_root: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for p in 0..n_out {
        let root = uf.find(p);
        let g = *group_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(p);
    }
    groups
}

/// The per-worker encoding of the owned cones' logic, plus name-keyed
/// output literal maps.
struct ConeContext {
    solver: Solver,
    a_out: HashMap<String, Lit>,
    b_out: HashMap<String, Lit>,
    a_pi_lits: Vec<Lit>,
}

/// Encode the union of the given cones' logic for both circuits into a
/// fresh solver, sharing primary inputs and binding any fixed keys.
///
/// A single structural-hashing table spans both encodings, so wherever
/// `b` repeats `a`'s structure over the shared inputs the two sides
/// collapse to the *same literals* — a design checked against a clone
/// (or a perfectly recovered netlist) produces identical output
/// literals and its cones discharge without any SAT search.
#[allow(clippy::too_many_arguments)]
fn encode_cones(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
    iface: &Interface,
    a_cones: &[OutputCone],
    b_cones: &[OutputCone],
    groups: &[Vec<usize>],
    owned: impl Iterator<Item = usize>,
) -> ConeContext {
    let mut fa = vec![false; a.gate_capacity()];
    let mut fb = vec![false; b.gate_capacity()];
    for c in owned {
        for &p in &groups[c] {
            for &g in &a_cones[p].gates {
                fa[g.index()] = true;
            }
            for &g in &b_cones[iface.b_out_pos[p]].gates {
                fb[g.index()] = true;
            }
        }
    }
    let mut solver = Solver::new();
    let mut strash = StrashTable::new();
    let enc_a = encode_netlist_filtered(&mut solver, a, None, Some(&fa), Some(&mut strash));
    let shared: HashMap<String, Lit> = enc_a
        .primary_inputs
        .iter()
        .map(|(n, l)| (n.clone(), *l))
        .collect();
    let enc_b =
        encode_netlist_filtered(&mut solver, b, Some(&shared), Some(&fb), Some(&mut strash));
    if let Some(key) = &opts.key_a {
        for ((_, lit), &idx) in enc_a.key_inputs.iter().zip(&iface.a_key_idx) {
            assert_lit(&mut solver, *lit, key.get(idx).copied().unwrap_or(false));
        }
    }
    if let Some(key) = &opts.key_b {
        for ((_, lit), &idx) in enc_b.key_inputs.iter().zip(&iface.b_key_idx) {
            assert_lit(&mut solver, *lit, key.get(idx).copied().unwrap_or(false));
        }
    }
    let a_pi_lits = enc_a.primary_inputs.iter().map(|&(_, l)| l).collect();
    let into_map = |outs: Vec<(String, Lit)>| outs.into_iter().collect();
    ConeContext {
        solver,
        a_out: into_map(enc_a.outputs),
        b_out: into_map(enc_b.outputs),
        a_pi_lits,
    }
}

/// Build the sub-miter of one cone: a literal that is true iff some
/// output in the cone differs. Outputs that structural hashing already
/// proved identical (same literal on both sides) are skipped; `None`
/// means *every* output collapsed and the cone is equivalent without
/// any SAT search.
fn cone_diff_lit(ctx: &mut ConeContext, iface: &Interface, members: &[usize]) -> Option<Lit> {
    let diffs: Vec<Lit> = members
        .iter()
        .filter_map(|&p| {
            let name = iface.a_out_names[p].as_str();
            let la = ctx.a_out[name];
            let lb = ctx.b_out[name];
            if la == lb {
                None
            } else {
                Some(xor_lit(&mut ctx.solver, la, lb))
            }
        })
        .collect();
    if diffs.is_empty() {
        None
    } else {
        Some(or_lit(&mut ctx.solver, &diffs))
    }
}

/// Solve the cones a worker owns (ascending indices), incrementally in
/// one solver via per-cone activation literals; publishes the lowest
/// not-equivalent cone index into `best`.
#[allow(clippy::too_many_arguments)]
fn solve_owned_cones(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
    iface: &Interface,
    a_cones: &[OutputCone],
    b_cones: &[OutputCone],
    groups: &[Vec<usize>],
    owned: &[usize],
    best: &AtomicUsize,
    acc: &StatsAcc,
) {
    if owned.is_empty() {
        return;
    }
    let mut ctx = encode_cones(
        a,
        b,
        opts,
        iface,
        a_cones,
        b_cones,
        groups,
        owned.iter().copied(),
    );
    for &c in owned {
        // A lower cone already reported a difference: it wins the
        // verdict whatever we find, so everything at or above it is
        // dead work (owned indices ascend).
        if best.load(Ordering::Acquire) < c {
            break;
        }
        let Some(d) = cone_diff_lit(&mut ctx, iface, &groups[c]) else {
            // every output strash-collapsed: trivially equivalent
            acc.strash_collapsed.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let act = fresh_lit(&mut ctx.solver);
        ctx.solver.add_clause(&[!act, d]);
        acc.solver_calls.fetch_add(1, Ordering::Relaxed);
        if ctx.solver.solve_with_assumptions(&[act]) == SolveResult::Sat {
            best.fetch_min(c, Ordering::AcqRel);
            break;
        }
    }
    acc.fold_solver(&ctx.solver);
}

/// Re-solve the winning cone in a fresh solver to extract a canonical
/// counterexample: the model of a deterministic clause sequence, so the
/// pattern does not depend on which worker (or what learned-clause
/// history) found the difference.
#[allow(clippy::too_many_arguments)]
fn canonical_cex(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
    iface: &Interface,
    a_cones: &[OutputCone],
    b_cones: &[OutputCone],
    groups: &[Vec<usize>],
    winner: usize,
    acc: &StatsAcc,
) -> Vec<bool> {
    let mut ctx = encode_cones(
        a,
        b,
        opts,
        iface,
        a_cones,
        b_cones,
        groups,
        std::iter::once(winner),
    );
    let d = cone_diff_lit(&mut ctx, iface, &groups[winner])
        .expect("winning cone has at least one non-collapsed output diff");
    assert_lit(&mut ctx.solver, d, true);
    acc.solver_calls.fetch_add(1, Ordering::Relaxed);
    let r = ctx.solver.solve();
    assert_eq!(
        r,
        SolveResult::Sat,
        "winning cone must re-solve SAT (it did under assumptions)"
    );
    acc.fold_solver(&ctx.solver);
    ctx.a_pi_lits
        .iter()
        .map(|&l| ctx.solver.model_lit(l).unwrap_or(false))
        .collect()
}

/// The SAT stage: partition outputs into support cones, fan the cones
/// out over `opts.workers` threads (each with one incremental solver
/// over its cones' union logic), pick the deterministic winner.
fn solve_cones(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
    iface: &Interface,
    stats: &mut VerifyStats,
) -> EquivResult {
    let n_out = iface.a_out_names.len();
    if n_out == 0 {
        return EquivResult::Equivalent;
    }
    let a_cones = a.output_cones();
    let b_cones = b.output_cones();
    let groups = partition_outputs(a, b, iface, &a_cones, &b_cones);
    stats.cones = groups.len();
    let workers = opts.workers.max(1).min(groups.len());
    let best = AtomicUsize::new(usize::MAX);
    let acc = StatsAcc::default();
    if workers <= 1 {
        let owned: Vec<usize> = (0..groups.len()).collect();
        solve_owned_cones(
            a, b, opts, iface, &a_cones, &b_cones, &groups, &owned, &best, &acc,
        );
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (a_cones, b_cones, groups, best, acc) =
                    (&a_cones, &b_cones, &groups, &best, &acc);
                let owned: Vec<usize> = (w..groups.len()).step_by(workers).collect();
                scope.spawn(move || {
                    solve_owned_cones(
                        a, b, opts, iface, a_cones, b_cones, groups, &owned, best, acc,
                    );
                });
            }
        });
    }
    let result = match best.into_inner() {
        usize::MAX => EquivResult::Equivalent,
        winner => EquivResult::NotEquivalent(canonical_cex(
            a, b, opts, iface, &a_cones, &b_cones, &groups, winner, &acc,
        )),
    };
    stats.strash_collapsed_cones = acc.strash_collapsed.load(Ordering::Relaxed) as usize;
    stats.solver_calls = acc.solver_calls.load(Ordering::Relaxed);
    stats.conflicts = acc.conflicts.load(Ordering::Relaxed);
    stats.decisions = acc.decisions.load(Ordering::Relaxed);
    stats.propagations = acc.propagations.load(Ordering::Relaxed);
    stats.restarts = acc.restarts.load(Ordering::Relaxed);
    stats.learnt_clauses = acc.learnt_clauses.load(Ordering::Relaxed);
    result
}

pub mod reference {
    //! The pre-pipeline monolithic equivalence checker, kept verbatim as
    //! the oracle the staged path is validated against, like
    //! `gnnunlock_neural::reference` for the kernels.

    use super::{EquivOptions, EquivResult};
    use crate::encode::{assert_lit, encode_netlist, or_lit, xor_lit};
    use crate::lit::Lit;
    use crate::solver::{SolveResult, Solver};
    use gnnunlock_netlist::Netlist;
    use std::collections::HashMap;

    /// Monolithic check: per-pattern random simulation, then one SAT
    /// miter over every output at once. Same verdicts as
    /// [`super::check_equivalence`] (the proptests assert it), slower,
    /// and counterexamples may differ (both always distinguish).
    pub fn check_equivalence(a: &Netlist, b: &Netlist, opts: &EquivOptions) -> EquivResult {
        // Interface matching.
        let mut a_pis: Vec<String> = a
            .inputs()
            .filter(|(_, k, _)| *k == gnnunlock_netlist::InputKind::Primary)
            .map(|(n, _, _)| n.to_string())
            .collect();
        let mut b_pis: Vec<String> = b
            .inputs()
            .filter(|(_, k, _)| *k == gnnunlock_netlist::InputKind::Primary)
            .map(|(n, _, _)| n.to_string())
            .collect();
        a_pis.sort();
        b_pis.sort();
        if a_pis != b_pis {
            return EquivResult::InterfaceMismatch(format!(
                "primary inputs differ: {} vs {}",
                a_pis.len(),
                b_pis.len()
            ));
        }
        let mut a_pos: Vec<String> = a.outputs().map(|(n, _)| n.to_string()).collect();
        let mut b_pos: Vec<String> = b.outputs().map(|(n, _)| n.to_string()).collect();
        a_pos.sort();
        a_pos.dedup();
        b_pos.sort();
        b_pos.dedup();
        if a_pos != b_pos {
            return EquivResult::InterfaceMismatch(format!(
                "primary outputs differ: {} vs {}",
                a_pos.len(),
                b_pos.len()
            ));
        }

        if let Some(cex) = simulate_difference(a, b, opts) {
            return EquivResult::NotEquivalent(cex);
        }

        // SAT miter.
        let mut solver = Solver::new();
        let enc_a = encode_netlist(&mut solver, a, None);
        let shared: HashMap<String, Lit> = enc_a
            .primary_inputs
            .iter()
            .map(|(n, l)| (n.clone(), *l))
            .collect();
        let enc_b = encode_netlist(&mut solver, b, Some(&shared));
        if let Some(key) = &opts.key_a {
            bind_key(&mut solver, &enc_a.key_inputs, key);
        }
        if let Some(key) = &opts.key_b {
            bind_key(&mut solver, &enc_b.key_inputs, key);
        }
        let out_b: HashMap<&str, Lit> = enc_b
            .outputs
            .iter()
            .map(|(n, l)| (n.as_str(), *l))
            .collect();
        let diffs: Vec<Lit> = enc_a
            .outputs
            .iter()
            .map(|(n, la)| xor_lit(&mut solver, *la, out_b[n.as_str()]))
            .collect();
        let any_diff = or_lit(&mut solver, &diffs);
        assert_lit(&mut solver, any_diff, true);
        match solver.solve() {
            SolveResult::Unsat => EquivResult::Equivalent,
            SolveResult::Sat => {
                let cex = a
                    .inputs()
                    .filter(|(_, k, _)| *k == gnnunlock_netlist::InputKind::Primary)
                    .map(|(n, _, _)| {
                        let lit = enc_a
                            .primary_inputs
                            .iter()
                            .find(|(pn, _)| pn == n)
                            .map(|&(_, l)| l)
                            .expect("pi encoded");
                        solver.model_lit(lit).unwrap_or(false)
                    })
                    .collect();
                EquivResult::NotEquivalent(cex)
            }
        }
    }

    fn bind_key(solver: &mut Solver, kis: &[(String, Lit)], key: &[bool]) {
        for (name, lit) in kis {
            // Historical quirk, preserved in the oracle only: a
            // malformed name silently binds bit 0. The staged checker
            // reports an interface mismatch instead.
            let idx: usize = name
                .trim_start_matches(gnnunlock_netlist::KEY_INPUT_PREFIX)
                .parse()
                .unwrap_or(0);
            let value = key.get(idx).copied().unwrap_or(false);
            assert_lit(solver, *lit, value);
        }
    }

    /// Random-simulation prefilter: returns a counterexample pattern if
    /// one is found. Only meaningful when both keys are bound.
    fn simulate_difference(a: &Netlist, b: &Netlist, opts: &EquivOptions) -> Option<Vec<bool>> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let a_kis = a.key_inputs().len();
        let b_kis = b.key_inputs().len();
        if (a_kis > 0 && opts.key_a.is_none()) || (b_kis > 0 && opts.key_b.is_none()) {
            return None; // cannot fix keys for simulation
        }
        let names: Vec<String> = a
            .inputs()
            .filter(|(_, k, _)| *k == gnnunlock_netlist::InputKind::Primary)
            .map(|(n, _, _)| n.to_string())
            .collect();
        let b_order: Vec<usize> = b
            .inputs()
            .filter(|(_, k, _)| *k == gnnunlock_netlist::InputKind::Primary)
            .map(|(n, _, _)| names.iter().position(|x| x == n).expect("matched"))
            .collect();
        let key_a = opts.key_a.clone().unwrap_or_default();
        let key_b = opts.key_b.clone().unwrap_or_default();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let words = if opts.sim_words == 0 {
            32
        } else {
            opts.sim_words
        };
        let n_patterns = words * 64;
        let mut pi_a: Vec<Vec<bool>> = Vec::with_capacity(n_patterns);
        for _ in 0..n_patterns {
            pi_a.push((0..names.len()).map(|_| rng.random_bool(0.5)).collect());
        }
        let ki_a = vec![key_a.clone(); n_patterns];
        let out_a = a.eval_many(&pi_a, &ki_a).ok()?;
        let pi_b: Vec<Vec<bool>> = pi_a
            .iter()
            .map(|p| b_order.iter().map(|&i| p[i]).collect())
            .collect();
        let ki_b = vec![key_b.clone(); n_patterns];
        let out_b = b.eval_many(&pi_b, &ki_b).ok()?;
        // Compare by output name.
        let a_out_names: Vec<&str> = a.outputs().map(|(n, _)| n).collect();
        let b_out_names: Vec<&str> = b.outputs().map(|(n, _)| n).collect();
        let b_pos: Vec<usize> = a_out_names
            .iter()
            .map(|n| b_out_names.iter().position(|x| x == n).expect("matched"))
            .collect();
        for (i, (ra, rb)) in out_a.iter().zip(&out_b).enumerate() {
            for (j, &bj) in b_pos.iter().enumerate() {
                if ra[j] != rb[bj] {
                    return Some(pi_a[i].clone());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_netlist::generator::BenchmarkSpec;
    use gnnunlock_netlist::GateType;

    #[test]
    fn identical_circuits_are_equivalent() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.02)
            .generate();
        let r = check_equivalence(&nl, &nl.clone(), &EquivOptions::default());
        assert!(r.is_equivalent());
    }

    #[test]
    fn single_gate_change_is_caught() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.02)
            .generate();
        let mut other = nl.clone();
        // Flip one gate type (And -> Nand preserves arity).
        let victim = other
            .gate_ids()
            .find(|&g| other.gate_type(g) == GateType::And)
            .expect("an AND exists");
        other.set_gate_type(victim, GateType::Nand);
        match check_equivalence(&nl, &other, &EquivOptions::default()) {
            EquivResult::NotEquivalent(cex) => {
                let out_a = nl.eval_outputs(&cex, &[]).unwrap();
                let out_b = other.eval_outputs(&cex, &[]).unwrap();
                assert_ne!(out_a, out_b, "counterexample does not distinguish");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn structurally_different_but_equal_functions() {
        // y = !(a & b) vs y = !a | !b (De Morgan).
        let mut x = Netlist::new("x");
        let a = x.add_primary_input("a");
        let b = x.add_primary_input("b");
        let g = x.add_gate(GateType::Nand, &[a, b]);
        x.add_output("y", x.gate_output(g));

        let mut y = Netlist::new("y");
        let a2 = y.add_primary_input("a");
        let b2 = y.add_primary_input("b");
        let na = y.add_gate(GateType::Inv, &[a2]);
        let nb = y.add_gate(GateType::Inv, &[b2]);
        let o = y.add_gate(GateType::Or, &[y.gate_output(na), y.gate_output(nb)]);
        y.add_output("y", y.gate_output(o));

        assert!(check_equivalence(&x, &y, &EquivOptions::default()).is_equivalent());
    }

    #[test]
    fn interface_mismatch_detected() {
        let mut x = Netlist::new("x");
        let a = x.add_primary_input("a");
        let g = x.add_gate(GateType::Inv, &[a]);
        x.add_output("y", x.gate_output(g));
        let mut y = Netlist::new("y");
        let a2 = y.add_primary_input("different");
        let g2 = y.add_gate(GateType::Inv, &[a2]);
        y.add_output("y", y.gate_output(g2));
        assert!(matches!(
            check_equivalence(&x, &y, &EquivOptions::default()),
            EquivResult::InterfaceMismatch(_)
        ));
    }

    #[test]
    fn locked_circuit_equivalent_under_correct_key_only() {
        // Minimal inline "locking": y = a XOR k, correct key = 0.
        let mut orig = Netlist::new("o");
        let a = orig.add_primary_input("a");
        let g = orig.add_gate(GateType::Buf, &[a]);
        orig.add_output("y", orig.gate_output(g));

        let mut locked = Netlist::new("l");
        let a2 = locked.add_primary_input("a");
        let k = locked.add_key_input("keyinput0");
        let g2 = locked.add_gate(GateType::Xor, &[a2, k]);
        locked.add_output("y", locked.gate_output(g2));

        let good = EquivOptions {
            key_b: Some(vec![false]),
            ..Default::default()
        };
        assert!(check_equivalence(&orig, &locked, &good).is_equivalent());
        let bad = EquivOptions {
            key_b: Some(vec![true]),
            ..Default::default()
        };
        assert!(!check_equivalence(&orig, &locked, &bad).is_equivalent());
    }

    #[test]
    fn malformed_key_input_name_is_an_interface_mismatch() {
        // Regression: the old checker silently bound a malformed key
        // input name to bit 0 and could verify the wrong circuit.
        let mut orig = Netlist::new("o");
        let a = orig.add_primary_input("a");
        let g = orig.add_gate(GateType::Buf, &[a]);
        orig.add_output("y", orig.gate_output(g));

        let mut locked = Netlist::new("l");
        let a2 = locked.add_primary_input("a");
        let k = locked.add_key_input("key_enable"); // not keyinput<N>
        let g2 = locked.add_gate(GateType::Xor, &[a2, k]);
        locked.add_output("y", locked.gate_output(g2));

        let opts = EquivOptions {
            key_b: Some(vec![false]),
            ..Default::default()
        };
        match check_equivalence(&orig, &locked, &opts) {
            EquivResult::InterfaceMismatch(msg) => {
                assert!(msg.contains("key_enable"), "message names the input: {msg}");
            }
            other => panic!("expected InterfaceMismatch, got {other:?}"),
        }
        // Unbound (free) keys never parse names, so the same netlist is
        // still checkable in for-all-keys mode.
        let free = EquivOptions::default();
        assert!(!check_equivalence(&orig, &locked, &free).is_equivalent());
    }

    /// A circuit with two independent output cones: the staged checker
    /// must catch a difference confined to the second cone, and report
    /// identical results at every worker count.
    #[test]
    fn disjoint_cones_and_worker_independence() {
        let build = |flip: bool| {
            let mut nl = Netlist::new("two-cones");
            let a = nl.add_primary_input("a");
            let b = nl.add_primary_input("b");
            let c = nl.add_primary_input("c");
            let d = nl.add_primary_input("d");
            let g0 = nl.add_gate(GateType::And, &[a, b]);
            let ty = if flip { GateType::Nor } else { GateType::Or };
            let g1 = nl.add_gate(ty, &[c, d]);
            nl.add_output("y0", nl.gate_output(g0));
            nl.add_output("y1", nl.gate_output(g1));
            nl
        };
        let x = build(false);
        let y = build(true);
        // Disable the prefilter's luck by making it tiny but present;
        // the cones still catch the diff via SAT if simulation misses.
        let base = EquivOptions {
            sim_words: 1,
            ..Default::default()
        };
        let serial = check_equivalence(&x, &y, &base);
        let EquivResult::NotEquivalent(cex) = &serial else {
            panic!("expected NotEquivalent, got {serial:?}");
        };
        assert_ne!(
            x.eval_outputs(cex, &[]).unwrap(),
            y.eval_outputs(cex, &[]).unwrap()
        );
        for workers in [2, 3, 8] {
            let opts = EquivOptions {
                workers,
                ..base.clone()
            };
            assert_eq!(check_equivalence(&x, &y, &opts), serial);
            let opts_eq = EquivOptions {
                workers,
                sim_words: 1,
                ..Default::default()
            };
            assert!(check_equivalence(&x, &x.clone(), &opts_eq).is_equivalent());
        }
    }

    /// The stats surface tracks which stage discharged the instance: a
    /// clone strash-collapses every cone (zero SAT search), a mutated
    /// circuit under the default prefilter dies before CNF exists.
    #[test]
    fn verify_stats_reflect_stage_discharge() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.02)
            .generate();
        let (r, s) = check_equivalence_stats(&nl, &nl.clone(), &EquivOptions::default());
        assert!(r.is_equivalent());
        assert!(!s.prefilter_discharged);
        assert!(s.cones > 0);
        assert_eq!(
            s.strash_collapsed_cones, s.cones,
            "a clone's cones all collapse under shared structural hashing"
        );
        assert_eq!(s.solver_calls, 0);
        assert_eq!(s.conflicts, 0);

        let mut other = nl.clone();
        let victim = other
            .gate_ids()
            .find(|&g| other.gate_type(g) == GateType::And)
            .expect("an AND exists");
        other.set_gate_type(victim, GateType::Nand);
        let (r, s) = check_equivalence_stats(&nl, &other, &EquivOptions::default());
        assert!(!r.is_equivalent());
        assert!(
            s.prefilter_discharged || s.solver_calls > 0,
            "a real difference is found by simulation or by SAT: {s:?}"
        );
    }

    /// The staged pipeline and the retained monolithic oracle agree on
    /// the classic scenarios.
    #[test]
    fn staged_agrees_with_reference() {
        let nl = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.02)
            .generate();
        let mut other = nl.clone();
        let victim = other
            .gate_ids()
            .find(|&g| other.gate_type(g) == GateType::And)
            .expect("an AND exists");
        other.set_gate_type(victim, GateType::Nand);
        let opts = EquivOptions::default();
        assert_eq!(
            check_equivalence(&nl, &nl.clone(), &opts).is_equivalent(),
            reference::check_equivalence(&nl, &nl.clone(), &opts).is_equivalent()
        );
        assert_eq!(
            check_equivalence(&nl, &other, &opts).is_equivalent(),
            reference::check_equivalence(&nl, &other, &opts).is_equivalent()
        );
    }
}
