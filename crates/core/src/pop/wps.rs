//! Weighted Path Selection (Algorithm 1, Sec. IV-A).
//!
//! When the validator needs the next child of verifying block `b_v`, it picks
//! a neighbor of `v` whose *closed neighborhood* overlaps least with the set
//! `R_i` of nodes already on the proof path:
//!
//! ```text
//! w_v̂ = |R_i ∩ (N(v̂) ∪ {v̂})| / (|N(v̂)| + 1)          (Eq. 7)
//! ```
//!
//! The minimum-weight candidate is chosen (Eq. 8); ties are broken in favour
//! of candidates not already in `R_i`, then uniformly at random.

use std::collections::HashSet;
use tldag_sim::{DetRng, NodeId, Topology};

/// The WPS weight of `candidate` given the current path set `ri` (Eq. 7),
/// returned as the exact rational `(numerator, denominator)` to avoid
/// floating-point ties.
pub fn weight(topology: &Topology, candidate: NodeId, ri: &HashSet<NodeId>) -> (usize, usize) {
    let neighbors = topology.neighbors(candidate);
    let mut overlap = neighbors.iter().filter(|n| ri.contains(n)).count();
    if ri.contains(&candidate) {
        overlap += 1;
    }
    (overlap, neighbors.len() + 1)
}

/// The WPS weight as an `f64`, for reporting.
pub fn weight_f64(topology: &Topology, candidate: NodeId, ri: &HashSet<NodeId>) -> f64 {
    let (num, den) = weight(topology, candidate, ri);
    num as f64 / den as f64
}

/// Compares two rational weights `a = an/ad`, `b = bn/bd` exactly.
fn less(a: (usize, usize), b: (usize, usize)) -> bool {
    (a.0 * b.1) < (b.0 * a.1)
}

fn equal(a: (usize, usize), b: (usize, usize)) -> bool {
    (a.0 * b.1) == (b.0 * a.1)
}

/// Selects the next responder among `candidates` (Algorithm 1).
///
/// Sec. IV-A's case analysis: a candidate already in `R_i` "does not
/// contribute to the consensus", so **case 1** restricts the choice to
/// candidates outside `R_i`; only when every neighbor is already in `R_i`
/// (**case 2**, the micro-loop situation of Fig. 6) does the path revisit a
/// node. The minimum-weight candidate of the admissible pool wins (Eq. 8);
/// remaining ties break uniformly at random.
///
/// `candidates` should be the neighbors of the current verifying node that
/// have not been tried and are not excluded; the caller filters. Returns
/// `None` when no candidate remains.
///
/// # Example
///
/// ```
/// use std::collections::HashSet;
/// use tldag_core::pop::wps;
/// use tldag_sim::{DetRng, NodeId, Topology};
///
/// // Fig. 4: B-C, B-D, C-D, A-B, D-E (A=0, B=1, C=2, D=3, E=4).
/// let topo = Topology::from_edges(5, &[(1, 2), (1, 3), (2, 3), (0, 1), (3, 4)]);
/// let ri: HashSet<NodeId> = [NodeId(1)].into();
/// let mut rng = DetRng::seed_from(1);
/// // Verifying B1: the candidate with minimum weight is D.
/// let next = wps::select_next(&topo, &[NodeId(0), NodeId(2), NodeId(3)], &ri, &mut rng);
/// assert_eq!(next, Some(NodeId(3)));
/// ```
pub fn select_next(
    topology: &Topology,
    candidates: &[NodeId],
    ri: &HashSet<NodeId>,
    rng: &mut DetRng,
) -> Option<NodeId> {
    if candidates.is_empty() {
        return None;
    }
    // Case 1: restrict to candidates that can still grow R_i.
    let fresh: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|c| !ri.contains(c))
        .collect();
    // Case 2: all neighbors already in R_i — any choice has the same effect.
    let pool: &[NodeId] = if fresh.is_empty() { candidates } else { &fresh };

    // Z = argmin over the admissible pool (lines 1-4), each weight
    // computed once.
    let weighted: Vec<(NodeId, (usize, usize))> =
        pool.iter().map(|&c| (c, weight(topology, c, ri))).collect();
    let mut best = weighted[0].1;
    for &(_, w) in &weighted[1..] {
        if less(w, best) {
            best = w;
        }
    }
    let z: Vec<NodeId> = weighted
        .iter()
        .filter(|&&(_, w)| equal(w, best))
        .map(|&(c, _)| c)
        .collect();
    if z.len() == 1 {
        return Some(z[0]); // lines 5-7
    }
    rng.choose(&z).copied() // lines 8-13
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 4 topology: A=0, B=1, C=2, D=3, E=4.
    fn fig4() -> Topology {
        Topology::from_edges(5, &[(1, 2), (1, 3), (2, 3), (0, 1), (3, 4)])
    }

    #[test]
    fn fig4_weights_match_paper_step1() {
        // Verifying B1 with R_i = {B}: w_A = 1/2, w_C = 1/3, w_D = 1/4.
        let topo = fig4();
        let ri: HashSet<NodeId> = [NodeId(1)].into();
        assert_eq!(weight(&topo, NodeId(0), &ri), (1, 2));
        assert_eq!(weight(&topo, NodeId(2), &ri), (1, 3));
        assert_eq!(weight(&topo, NodeId(3), &ri), (1, 4));
        assert!((weight_f64(&topo, NodeId(3), &ri) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fig4_selects_d_then_e() {
        let topo = fig4();
        let mut rng = DetRng::seed_from(7);

        // Step 1: verifying B1, R_i = {B}; candidates N(B) = {A, C, D} → D.
        let ri: HashSet<NodeId> = [NodeId(1)].into();
        let step1 = select_next(&topo, &[NodeId(0), NodeId(2), NodeId(3)], &ri, &mut rng);
        assert_eq!(step1, Some(NodeId(3)), "paper: choose D1");

        // Step 2: verifying D1, R_i = {B, D}; candidates N(D) = {B, C, E}.
        // Paper: w_B = 1/2, w_C = 2/3, w_E = 1/2; tie {B, E}, B ∈ R_i → E.
        let ri: HashSet<NodeId> = [NodeId(1), NodeId(3)].into();
        assert_eq!(weight(&topo, NodeId(1), &ri), (2, 4));
        assert_eq!(weight(&topo, NodeId(2), &ri), (2, 3));
        assert_eq!(weight(&topo, NodeId(4), &ri), (1, 2));
        let step2 = select_next(&topo, &[NodeId(1), NodeId(2), NodeId(4)], &ri, &mut rng);
        assert_eq!(step2, Some(NodeId(4)), "paper: choose E2 because B ∈ R_i");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let topo = fig4();
        let ri = HashSet::new();
        assert_eq!(
            select_next(&topo, &[], &ri, &mut DetRng::seed_from(0)),
            None
        );
    }

    #[test]
    fn all_tied_all_in_ri_selects_any() {
        // Case 2 of Algorithm 1: every candidate in R_i — still returns one.
        let topo = Topology::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let ri: HashSet<NodeId> = [NodeId(0), NodeId(1), NodeId(2)].into();
        let got = select_next(
            &topo,
            &[NodeId(1), NodeId(2)],
            &ri,
            &mut DetRng::seed_from(3),
        );
        assert!(matches!(got, Some(NodeId(1)) | Some(NodeId(2))));
    }

    #[test]
    fn single_candidate_returned_directly() {
        let topo = fig4();
        let ri = HashSet::new();
        assert_eq!(
            select_next(&topo, &[NodeId(2)], &ri, &mut DetRng::seed_from(4)),
            Some(NodeId(2))
        );
    }

    #[test]
    fn tie_break_prefers_fresh_nodes() {
        // Star topology: center 0, leaves 1..=3 all weight-tied.
        let topo = Topology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let ri: HashSet<NodeId> = [NodeId(0), NodeId(1)].into();
        // leaves 1, 2, 3 have closed neighborhoods {1,0},{2,0},{3,0}:
        // w_1 = 2/2 = 1, w_2 = w_3 = 1/2 → Z = {2, 3}, both outside R_i.
        for seed in 0..10 {
            let got = select_next(
                &topo,
                &[NodeId(1), NodeId(2), NodeId(3)],
                &ri,
                &mut DetRng::seed_from(seed),
            );
            assert!(
                matches!(got, Some(NodeId(2)) | Some(NodeId(3))),
                "seed {seed}"
            );
        }
    }

    /// The original two-pass selector (every weight computed twice), kept
    /// as the reference for [`select_next`].
    fn select_next_two_pass(
        topology: &Topology,
        candidates: &[NodeId],
        ri: &HashSet<NodeId>,
        rng: &mut DetRng,
    ) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        let fresh: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|c| !ri.contains(c))
            .collect();
        let pool: &[NodeId] = if fresh.is_empty() { candidates } else { &fresh };
        let mut best = weight(topology, pool[0], ri);
        for &c in &pool[1..] {
            let w = weight(topology, c, ri);
            if less(w, best) {
                best = w;
            }
        }
        let z: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&c| equal(weight(topology, c, ri), best))
            .collect();
        if z.len() == 1 {
            return Some(z[0]);
        }
        rng.choose(&z).copied()
    }

    #[test]
    fn single_pass_matches_two_pass_reference() {
        let mut gen = DetRng::seed_from(0x5eed);
        let mut draws = 0usize;
        for case in 0..300u64 {
            let n = 3 + gen.index(30);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if gen.index(4) == 0 {
                        edges.push((a, b));
                    }
                }
            }
            let topo = Topology::from_edges(n, &edges);
            let ri: HashSet<NodeId> = (0..n as u32)
                .filter(|_| gen.index(3) == 0)
                .map(NodeId)
                .collect();
            let candidates: Vec<NodeId> = (0..n as u32)
                .filter(|_| gen.index(2) == 0)
                .map(NodeId)
                .collect();
            let mut fast_rng = DetRng::seed_from(case);
            let mut slow_rng = DetRng::seed_from(case);
            let fast = select_next(&topo, &candidates, &ri, &mut fast_rng);
            let slow = select_next_two_pass(&topo, &candidates, &ri, &mut slow_rng);
            assert_eq!(fast, slow, "case {case}");
            let (a, b) = (fast_rng.next_u64(), slow_rng.next_u64());
            assert_eq!(a, b, "case {case}: same RNG draws");
            draws += usize::from(a != DetRng::seed_from(case).next_u64());
        }
        assert!(draws > 0, "some cases broke ties at random");
    }

    #[test]
    fn weight_counts_candidate_itself() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let ri: HashSet<NodeId> = [NodeId(1)].into();
        // Candidate 1: closed neighborhood {1, 0}; R_i ∩ = {1} → 1/2.
        assert_eq!(weight(&topo, NodeId(1), &ri), (1, 2));
        // Candidate 0: closed neighborhood {0, 1}; R_i ∩ = {1} → 1/2.
        assert_eq!(weight(&topo, NodeId(0), &ri), (1, 2));
    }
}
