//! The lemma verification engine: machine checks of the combinatorial
//! statements in Sections II–III of the paper, evaluated on the actual
//! encoder graphs and generated CDAGs of the catalog algorithms.
//!
//! | Paper statement | Check here |
//! |---|---|
//! | Lemma 3.1 (matching `≥ 1+⌈(\|Y'\|−1)/2⌉` for all `Y'`) | [`check_lemma_3_1`] — exhaustive over all 2⁷ subsets |
//! | Lemma 3.2 (degree ≥ 2 singletons, ≥ 4 pairs) | [`check_lemma_3_2`] |
//! | Lemma 3.3 (no duplicate neighbour sets) | [`check_lemma_3_3`] |
//! | Lemma 3.4 / Corollary 3.5 (Hopcroft–Kerr families) | [`check_hopcroft_kerr_families`] |
//! | Lemma 2.2 (sub-CDAG output counts) | [`check_lemma_2_2`] |
//! | Lemma 3.7 (`\|Γ\| ≥ \|Z\|/2`) | [`check_lemma_3_7_sampled`] — exact min dominators |
//! | Lemma 3.11 (disjoint-path extension) | [`check_lemma_3_11_sampled`] — exact max-flow counts |

use crate::bilinear::Bilinear2x2;
use fmm_cdag::flow::{max_vertex_disjoint_paths, min_dominator_size};
use fmm_cdag::matching::Bipartite;
use fmm_cdag::topo::reachable_avoiding;
use fmm_cdag::{RecursiveCdag, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Outcome of one lemma check.
#[derive(Clone, Debug)]
pub struct LemmaReport {
    /// Which lemma.
    pub lemma: &'static str,
    /// Algorithm checked.
    pub algorithm: String,
    /// Did every instance satisfy the bound?
    pub holds: bool,
    /// Instances checked.
    pub instances: usize,
    /// Human-readable detail (first failure or summary).
    pub detail: String,
}

/// Lemma 3.1: for every `Y' ⊆ Y` of an encoder graph there is a matching of
/// `Y'` into `X` of size at least `1 + ⌈(|Y'|−1)/2⌉`. Checked exhaustively
/// (all `2^t − 1` nonempty subsets) via Hopcroft–Karp on the flipped graph.
pub fn check_lemma_3_1(enc: &Bipartite, algorithm: &str) -> LemmaReport {
    let t = enc.ny();
    assert!(t <= 20, "exhaustive subset check limited to 20 products");
    let flipped = enc.flipped();
    let mut instances = 0;
    for mask in 1u32..(1 << t) {
        let ys: Vec<usize> = (0..t).filter(|&y| mask >> y & 1 == 1).collect();
        let need = 1 + ys.len().saturating_sub(1).div_ceil(2);
        let got = flipped.max_matching_subset(&ys);
        instances += 1;
        if got < need {
            return LemmaReport {
                lemma: "3.1",
                algorithm: algorithm.into(),
                holds: false,
                instances,
                detail: format!("Y'={ys:?}: matching {got} < required {need}"),
            };
        }
    }
    LemmaReport {
        lemma: "3.1",
        algorithm: algorithm.into(),
        holds: true,
        instances,
        detail: format!("all {instances} subsets satisfy the matching bound"),
    }
}

/// Lemma 3.2: every `x ∈ X` has ≥ 2 neighbours, and every pair ≥ 4.
pub fn check_lemma_3_2(enc: &Bipartite, algorithm: &str) -> LemmaReport {
    let mut instances = 0;
    for x in 0..enc.nx() {
        instances += 1;
        if enc.neighbours(x).len() < 2 {
            return LemmaReport {
                lemma: "3.2",
                algorithm: algorithm.into(),
                holds: false,
                instances,
                detail: format!("input {x} has fewer than 2 neighbours"),
            };
        }
    }
    for x1 in 0..enc.nx() {
        for x2 in x1 + 1..enc.nx() {
            instances += 1;
            let n = enc.neighbourhood(&[x1, x2]).len();
            if n < 4 {
                return LemmaReport {
                    lemma: "3.2",
                    algorithm: algorithm.into(),
                    holds: false,
                    instances,
                    detail: format!("pair ({x1},{x2}) has only {n} neighbours"),
                };
            }
        }
    }
    LemmaReport {
        lemma: "3.2",
        algorithm: algorithm.into(),
        holds: true,
        instances,
        detail: "all singleton and pair degree bounds hold".into(),
    }
}

/// Lemma 3.3: no two products have identical neighbour (support) sets.
pub fn check_lemma_3_3(enc: &Bipartite, algorithm: &str) -> LemmaReport {
    let flipped = enc.flipped();
    let supports: Vec<Vec<usize>> = (0..enc.ny())
        .map(|y| flipped.neighbours(y).to_vec())
        .collect();
    let mut instances = 0;
    for i in 0..supports.len() {
        for j in i + 1..supports.len() {
            instances += 1;
            if supports[i] == supports[j] {
                return LemmaReport {
                    lemma: "3.3",
                    algorithm: algorithm.into(),
                    holds: false,
                    instances,
                    detail: format!("products {i} and {j} share neighbour set {:?}", supports[i]),
                };
            }
        }
    }
    LemmaReport {
        lemma: "3.3",
        algorithm: algorithm.into(),
        holds: true,
        instances,
        detail: "all product neighbour sets distinct".into(),
    }
}

/// The nine Hopcroft–Kerr families of Lemma 3.4 / Corollary 3.5, each given
/// by the supports (subsets of `{A11, A12, A21, A22}` as bitmasks) of its
/// three linear sums.
pub(crate) fn hopcroft_kerr_families() -> [[u8; 3]; 9] {
    // Bit i of the mask ↔ input i in order (A11, A12, A21, A22).
    const A11: u8 = 1;
    const A12: u8 = 2;
    const A21: u8 = 4;
    const A22: u8 = 8;
    [
        // Lemma 3.4 base family.
        [A11, A12 | A21, A11 | A12 | A21],
        // Corollary 3.5 (1)–(8).
        [A11 | A21, A12 | A21 | A22, A11 | A12 | A22],
        [A11 | A12, A12 | A21 | A22, A11 | A12 | A22],
        [A11 | A12 | A21 | A22, A12 | A21, A11 | A22],
        [A21, A11 | A22, A11 | A21 | A22],
        [A21 | A22, A11 | A12 | A22, A11 | A12 | A21],
        [A12, A11 | A22, A11 | A12 | A22],
        [A12 | A22, A11 | A21 | A22, A11 | A12 | A21],
        [A22, A12 | A21, A12 | A21 | A22],
    ]
}

/// Hopcroft–Kerr consistency (the engine behind Lemma 3.3's proof): a
/// 7-multiplication algorithm may use **at most one** multiplicand from
/// each family (`k` members ⇒ `≥ 6 + k` multiplications). We check the
/// left-hand multiplicands of `alg` (by support) against all nine families.
pub fn check_hopcroft_kerr_families(alg: &Bilinear2x2) -> LemmaReport {
    let supports: Vec<u8> = alg
        .u
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, _)| 1u8 << i)
                .sum()
        })
        .collect();
    let mut instances = 0;
    for (fi, fam) in hopcroft_kerr_families().iter().enumerate() {
        instances += 1;
        let k = supports.iter().filter(|s| fam.contains(s)).count();
        // t multiplications with k family members requires t ≥ 6 + k.
        if alg.t() < 6 + k {
            return LemmaReport {
                lemma: "3.4/3.5",
                algorithm: alg.name.clone(),
                holds: false,
                instances,
                detail: format!("family {fi} has {k} members but t = {}", alg.t()),
            };
        }
    }
    LemmaReport {
        lemma: "3.4/3.5",
        algorithm: alg.name.clone(),
        holds: true,
        instances,
        detail: "every family consistent with t ≥ 6 + k".into(),
    }
}

/// Lemma 2.2 on a generated CDAG: `|V_out(SUB_H^{r×r})| = (n/r)^{log₂t}·r²`.
pub fn check_lemma_2_2(h: &RecursiveCdag, t: usize, algorithm: &str) -> LemmaReport {
    let violation = fmm_cdag::census::lemma_2_2_violation(h, t);
    let k = h.n.trailing_zeros() as usize + 1;
    LemmaReport {
        lemma: "2.2",
        algorithm: algorithm.into(),
        holds: violation.is_none(),
        instances: k,
        detail: match violation {
            None => format!("output counts match at all {k} levels"),
            Some(j) => format!("count mismatch at level {j}"),
        },
    }
}

/// Lemma 3.7, sampled: for random `Z ⊆ V_out(SUB_H^{r×r})` of size `r²`,
/// the **exact** minimum dominator (computed as a minimum vertex cut via
/// max-flow) satisfies `|Γ| ≥ |Z|/2`.
pub fn check_lemma_3_7_sampled(
    h: &RecursiveCdag,
    j: usize,
    samples: usize,
    rng: &mut impl Rng,
    algorithm: &str,
) -> LemmaReport {
    let r2 = 1usize << (2 * j);
    let pool = h.sub_output_vertices(j);
    let mut instances = 0;
    for _ in 0..samples {
        let z: Vec<VertexId> = pool
            .choose_multiple(rng, r2.min(pool.len()))
            .copied()
            .collect();
        let md = min_dominator_size(&h.graph, &z);
        instances += 1;
        if 2 * md < z.len() {
            return LemmaReport {
                lemma: "3.7",
                algorithm: algorithm.into(),
                holds: false,
                instances,
                detail: format!("|Z|={} has dominator of size {md}", z.len()),
            };
        }
    }
    LemmaReport {
        lemma: "3.7",
        algorithm: algorithm.into(),
        holds: true,
        instances,
        detail: format!("{instances} sampled Z sets all need |Γ| ≥ |Z|/2"),
    }
}

/// Lemma 3.11, sampled: draw `Z ⊆ V_out(SUB_H^{r×r})` and
/// `Γ ⊆ V_int(SUB_H^{r×r})` with `|Z| ≥ 2|Γ|`; let `Y` be the sub-problem
/// input vertices from which `Z` is reachable avoiding `Γ`; then the number
/// of vertex-disjoint paths from `V_inp(H^{n×n})` to `Y` is at least
/// `2r·√(|Z| − 2|Γ|)`.
pub fn check_lemma_3_11_sampled(
    h: &RecursiveCdag,
    j: usize,
    z_size: usize,
    gamma_size: usize,
    samples: usize,
    rng: &mut impl Rng,
    algorithm: &str,
) -> LemmaReport {
    assert!(z_size >= 2 * gamma_size, "need |Z| ≥ 2|Γ|");
    let r = 1usize << j;
    let z_pool = h.sub_output_vertices(j);
    // Γ is drawn from the internal vertices of the sub-CDAGs: ancestors of
    // sub-outputs that are not sub-inputs. We approximate V_int(SUB) by the
    // union of each sub-problem's internal cone; sampling from all internal
    // vertices of those cones.
    let gamma_pool: Vec<VertexId> = {
        let inputs = h.sub_input_vertices(j);
        let outputs = h.sub_output_vertices(j);
        let anc = fmm_cdag::topo::ancestors_of(&h.graph, &outputs);
        let desc = fmm_cdag::topo::reachable_from(&h.graph, &inputs);
        h.graph
            .vertices()
            .filter(|v| anc[v.idx()] && desc[v.idx()])
            .collect()
    };
    let inputs = h.graph.inputs();
    let mut instances = 0;
    for _ in 0..samples {
        let z: Vec<VertexId> = z_pool.choose_multiple(rng, z_size).copied().collect();
        let gamma: Vec<VertexId> = gamma_pool
            .choose_multiple(rng, gamma_size.min(gamma_pool.len()))
            .copied()
            .collect();
        // Y: sub-problem inputs that still reach Z when Γ is blocked.
        let mut blocked = vec![false; h.graph.len()];
        for &g in &gamma {
            blocked[g.idx()] = true;
        }
        let z_set: std::collections::HashSet<VertexId> = z.iter().copied().collect();
        let y: Vec<VertexId> = h
            .sub_input_vertices(j)
            .into_iter()
            .filter(|&yv| {
                if blocked[yv.idx()] {
                    return false;
                }
                let reach = reachable_avoiding(&h.graph, &[yv], &blocked);
                z_set.iter().any(|zv| reach[zv.idx()])
            })
            .collect();
        let d = z.len() as f64 - 2.0 * gamma.len() as f64;
        let bound = (2.0 * r as f64 * d.sqrt()).floor() as usize;
        let got = max_vertex_disjoint_paths(&h.graph, &inputs, &y, &gamma);
        instances += 1;
        if got < bound {
            return LemmaReport {
                lemma: "3.11",
                algorithm: algorithm.into(),
                holds: false,
                instances,
                detail: format!(
                    "|Z|={z_size}, |Γ|={gamma_size}: {got} disjoint paths < bound {bound}"
                ),
            };
        }
    }
    LemmaReport {
        lemma: "3.11",
        algorithm: algorithm.into(),
        holds: true,
        instances,
        detail: format!("{instances} sampled (Z, Γ) instances meet the path bound"),
    }
}

/// Lemma 3.10, sampled: build `q` vertex-disjoint copies of `H^{n×n}`,
/// draw `Γ` and `O'` across the copies, and check that the inputs **not**
/// dominated by `Γ` number at least `2n·√(|O'| − 2|Γ|)`.
#[cfg(test)]
pub(crate) fn check_lemma_3_10_sampled(
    alg: &Bilinear2x2,
    n: usize,
    q: usize,
    o_size: usize,
    gamma_size: usize,
    samples: usize,
    rng: &mut impl Rng,
) -> LemmaReport {
    assert!(o_size >= 2 * gamma_size, "need |O'| ≥ 2|Γ|");
    // Assemble G^{q,n×n}.
    let single = RecursiveCdag::build(&alg.to_base(), n);
    let mut g = fmm_cdag::Cdag::new();
    let mut outputs: Vec<VertexId> = Vec::new();
    for _ in 0..q {
        let off = g.disjoint_union(&single.graph);
        outputs.extend(single.outputs.iter().map(|v| VertexId(off + v.0)));
    }
    let inputs = g.inputs();
    let internals: Vec<VertexId> = g.internals();
    let mut instances = 0;
    for _ in 0..samples {
        let o: Vec<VertexId> = outputs.choose_multiple(rng, o_size).copied().collect();
        let gamma: Vec<VertexId> = internals
            .choose_multiple(rng, gamma_size)
            .copied()
            .collect();
        // Undominated inputs: those from which some o ∈ O' is reachable
        // avoiding Γ.
        let mut blocked = vec![false; g.len()];
        for &v in &gamma {
            blocked[v.idx()] = true;
        }
        let o_set: std::collections::HashSet<VertexId> = o.iter().copied().collect();
        let undominated = inputs
            .iter()
            .filter(|&&x| {
                if blocked[x.idx()] {
                    return false;
                }
                let reach = reachable_avoiding(&g, &[x], &blocked);
                o_set.iter().any(|&ov| reach[ov.idx()])
            })
            .count();
        let bound = crate::grigoriev::undominated_inputs_bound(n, o.len(), gamma.len());
        instances += 1;
        if (undominated as f64) < bound {
            return LemmaReport {
                lemma: "3.10",
                algorithm: alg.name.clone(),
                holds: false,
                instances,
                detail: format!(
                    "q={q} |O'|={o_size} |Γ|={gamma_size}: {undominated} undominated < {bound}"
                ),
            };
        }
    }
    LemmaReport {
        lemma: "3.10",
        algorithm: alg.name.clone(),
        holds: true,
        instances,
        detail: format!("{instances} sampled (O', Γ) meet the undominated-inputs bound"),
    }
}

/// Run the full lemma battery for one algorithm at size `n`, returning all
/// reports (callers assert `holds` on each).
pub fn full_battery(alg: &Bilinear2x2, n: usize, rng: &mut impl Rng) -> Vec<LemmaReport> {
    let enc_a = fmm_cdag::Base2x2::encoder_bipartite_a(&alg.to_base());
    let enc_b = fmm_cdag::Base2x2::encoder_bipartite_b(&alg.to_base());
    let h = RecursiveCdag::build(&alg.to_base(), n);
    let j = 1.min(n.trailing_zeros() as usize);
    vec![
        check_lemma_3_1(&enc_a, &alg.name),
        check_lemma_3_1(&enc_b, &alg.name),
        check_lemma_3_2(&enc_a, &alg.name),
        check_lemma_3_2(&enc_b, &alg.name),
        check_lemma_3_3(&enc_a, &alg.name),
        check_lemma_3_3(&enc_b, &alg.name),
        check_hopcroft_kerr_families(alg),
        check_lemma_2_2(&h, alg.t(), &alg.name),
        check_lemma_3_7_sampled(&h, j, 5, rng, &alg.name),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lemma_3_1_holds_for_catalog_fast() {
        for alg in catalog::all_fast() {
            let base = alg.to_base();
            let ra = check_lemma_3_1(&base.encoder_bipartite_a(), &alg.name);
            assert!(ra.holds, "{}: {}", alg.name, ra.detail);
            assert_eq!(ra.instances, 127); // all nonempty subsets of 7
            let rb = check_lemma_3_1(&base.encoder_bipartite_b(), &alg.name);
            assert!(rb.holds, "{}: {}", alg.name, rb.detail);
        }
    }

    #[test]
    fn lemma_3_1_fails_for_degenerate_encoder() {
        // An encoder where two products share a single input violates the
        // matching bound at |Y'| = 3.
        let mut g = Bipartite::new(4, 7);
        for y in 0..7 {
            g.add_edge(0, y); // every product reads only A11
        }
        let r = check_lemma_3_1(&g, "degenerate");
        assert!(!r.holds);
    }

    #[test]
    fn lemma_3_2_holds_for_catalog_fast() {
        for alg in catalog::all_fast() {
            let base = alg.to_base();
            for enc in [base.encoder_bipartite_a(), base.encoder_bipartite_b()] {
                let r = check_lemma_3_2(&enc, &alg.name);
                assert!(r.holds, "{}: {}", alg.name, r.detail);
            }
        }
    }

    #[test]
    fn lemma_3_2_rejects_low_degree() {
        let mut g = Bipartite::new(4, 7);
        g.add_edge(0, 0);
        for x in 1..4 {
            for y in 0..7 {
                g.add_edge(x, y);
            }
        }
        assert!(!check_lemma_3_2(&g, "lowdeg").holds);
    }

    #[test]
    fn lemma_3_3_holds_for_catalog_fast() {
        for alg in catalog::all_fast() {
            let base = alg.to_base();
            let r = check_lemma_3_3(&base.encoder_bipartite_a(), &alg.name);
            assert!(r.holds, "{}: {}", alg.name, r.detail);
            assert_eq!(r.instances, 21); // C(7,2) pairs
        }
    }

    #[test]
    fn lemma_3_3_detects_duplicates() {
        // Classical algorithm HAS duplicate supports (A11 appears alone in
        // M1 and M3) — the lemma is specific to 7-multiplication encoders.
        let c = catalog::classical().to_base();
        assert!(!check_lemma_3_3(&c.encoder_bipartite_a(), "classical").holds);
    }

    #[test]
    fn hopcroft_kerr_families_hold() {
        for alg in catalog::all_fast() {
            let r = check_hopcroft_kerr_families(&alg);
            assert!(r.holds, "{}: {}", alg.name, r.detail);
        }
    }

    #[test]
    fn each_fast_algorithm_uses_each_family_at_most_once() {
        // Stronger diagnostic: with t = 7 the check above is k ≤ 1.
        for alg in catalog::all_fast() {
            let supports: Vec<u8> = alg
                .u
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .filter(|(_, &c)| c != 0)
                        .map(|(i, _)| 1u8 << i)
                        .sum()
                })
                .collect();
            for fam in hopcroft_kerr_families() {
                let k = supports.iter().filter(|s| fam.contains(s)).count();
                assert!(k <= 1, "{}: family {fam:?} used {k} times", alg.name);
            }
        }
    }

    #[test]
    fn lemma_2_2_on_generated_cdags() {
        for alg in catalog::all_fast() {
            for n in [2usize, 4] {
                let h = RecursiveCdag::build(&alg.to_base(), n);
                let r = check_lemma_2_2(&h, alg.t(), &alg.name);
                assert!(r.holds, "{} n={n}: {}", alg.name, r.detail);
            }
        }
    }

    #[test]
    fn lemma_3_7_sampled_h4() {
        let mut rng = StdRng::seed_from_u64(37);
        for alg in catalog::all_fast() {
            let h = RecursiveCdag::build(&alg.to_base(), 4);
            let r = check_lemma_3_7_sampled(&h, 1, 8, &mut rng, &alg.name);
            assert!(r.holds, "{}: {}", alg.name, r.detail);
        }
    }

    #[test]
    fn lemma_3_11_sampled_h4() {
        let mut rng = StdRng::seed_from_u64(311);
        let alg = catalog::strassen();
        let h = RecursiveCdag::build(&alg.to_base(), 4);
        // r = 2, |Z| = 4, |Γ| = 0 and 1.
        for gamma in [0usize, 1] {
            let r = check_lemma_3_11_sampled(&h, 1, 4, gamma, 5, &mut rng, "strassen");
            assert!(r.holds, "γ={gamma}: {}", r.detail);
        }
    }

    #[test]
    fn lemma_3_10_sampled_disjoint_copies() {
        let mut rng = StdRng::seed_from_u64(310);
        let alg = catalog::strassen();
        // q = 3 copies of H^{2×2}: 12 outputs, 24 inputs total.
        for (o, g) in [(4usize, 0usize), (4, 1), (6, 2)] {
            let r = check_lemma_3_10_sampled(&alg, 2, 3, o, g, 6, &mut rng);
            assert!(r.holds, "o={o} γ={g}: {}", r.detail);
        }
    }

    #[test]
    fn full_battery_green() {
        let mut rng = StdRng::seed_from_u64(99);
        for alg in catalog::all_fast() {
            for report in full_battery(&alg, 4, &mut rng) {
                assert!(
                    report.holds,
                    "{} lemma {}: {}",
                    report.algorithm, report.lemma, report.detail
                );
            }
        }
    }
}
