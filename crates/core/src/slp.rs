//! Straight-line programs (SLPs) for the linear phases of bilinear
//! algorithms.
//!
//! An encoder like Winograd's computes `S1 = A21 + A22`, `S2 = S1 − A11`, …
//! reusing intermediate sums; a plain coefficient matrix cannot express that
//! reuse, and executing rows independently would over-count additions (22
//! instead of Winograd's published 15 per recursion step). An [`Slp`] is the
//! faithful operational form: a sequence of binary linear operations over
//! registers, with designated output registers.
//!
//! SLPs are validated *symbolically*: evaluating the program over coefficient
//! vectors must reproduce exactly the rows of the coefficient matrix the
//! program claims to implement ([`Slp::symbolic_rows`]).
//!
//! SLPs are executed by [`Slp::eval`], the one evaluator for every block
//! recursion in the workspace: `fmm_core::exec`'s counted step (and through
//! it `fmm-kernel`'s Strassen) and `fmm-memsim`'s traced fast recursion. It
//! owns its register file, so blocks move through it instead of being
//! copied.

/// A register: either one of the `inputs` or the result of an earlier op.
pub(crate) type Reg = usize;

/// One binary linear operation `result = c1·reg[r1] + c2·reg[r2]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinOp {
    /// Coefficient of the first operand.
    pub c1: i64,
    /// First operand register.
    pub r1: Reg,
    /// Coefficient of the second operand.
    pub c2: i64,
    /// Second operand register.
    pub r2: Reg,
}

/// A straight-line program over `n_inputs` input registers.
///
/// Register numbering: `0..n_inputs` are the inputs; op `k` defines register
/// `n_inputs + k`. `outputs[i]` names the register holding output `i` — it
/// may be an input register directly (a copy-free pass-through, e.g.
/// Strassen's `M3` left operand being `A11` itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slp {
    /// Number of input registers.
    pub n_inputs: usize,
    /// The operations, in order.
    pub ops: Vec<LinOp>,
    /// Output registers.
    pub outputs: Vec<Reg>,
}

impl Slp {
    /// Validate register indices (each op only reads earlier registers).
    ///
    /// # Panics
    /// Panics with a description of the first malformed op.
    pub(crate) fn assert_well_formed(&self) {
        for (k, op) in self.ops.iter().enumerate() {
            let limit = self.n_inputs + k;
            assert!(op.r1 < limit, "op {k} reads future register {}", op.r1);
            assert!(op.r2 < limit, "op {k} reads future register {}", op.r2);
        }
        let total = self.n_inputs + self.ops.len();
        for (i, &o) in self.outputs.iter().enumerate() {
            assert!(o < total, "output {i} names unknown register {o}");
        }
    }

    /// Number of binary additions the program performs (every op is one).
    pub fn additions(&self) -> usize {
        self.ops.len()
    }

    /// Symbolic evaluation: each register as a coefficient vector over the
    /// inputs; returns the output rows. This is what the program "computes"
    /// as a linear map, and must equal the intended coefficient matrix.
    pub(crate) fn symbolic_rows(&self) -> Vec<Vec<i64>> {
        let mut regs: Vec<Vec<i64>> = Vec::with_capacity(self.n_inputs + self.ops.len());
        for i in 0..self.n_inputs {
            let mut row = vec![0i64; self.n_inputs];
            row[i] = 1;
            regs.push(row);
        }
        for op in &self.ops {
            let row: Vec<i64> = (0..self.n_inputs)
                .map(|j| op.c1 * regs[op.r1][j] + op.c2 * regs[op.r2][j])
                .collect();
            regs.push(row);
        }
        self.outputs.iter().map(|&o| regs[o].clone()).collect()
    }

    /// `true` iff the program computes exactly the linear map given by
    /// `rows` (one row of coefficients per output).
    pub fn implements(&self, rows: &[Vec<i64>]) -> bool {
        self.symbolic_rows() == rows
    }

    /// Build the generic (no common-subexpression reuse) SLP for a
    /// coefficient matrix: each output row becomes a left-deep chain of
    /// binary ops; singleton rows with coefficient 1 pass the input through.
    ///
    /// # Panics
    /// Panics on an all-zero row (such an encoder row would be a vacuous
    /// product).
    pub fn from_rows(n_inputs: usize, rows: &[Vec<i64>]) -> Slp {
        let mut slp = Slp {
            n_inputs,
            ops: Vec::new(),
            outputs: Vec::new(),
        };
        for row in rows {
            assert_eq!(row.len(), n_inputs, "row length mismatch");
            let terms: Vec<(usize, i64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(j, &c)| (j, c))
                .collect();
            assert!(!terms.is_empty(), "all-zero row in linear map");
            if terms.len() == 1 && terms[0].1 == 1 {
                slp.outputs.push(terms[0].0);
                continue;
            }
            // Left-deep chain: acc = c0·x0 + c1·x1; acc = 1·acc + ck·xk …
            let mut acc = {
                let (j0, c0) = terms[0];
                if terms.len() == 1 {
                    // single term with coefficient ≠ 1: encode as c·x + 0·x
                    slp.ops.push(LinOp {
                        c1: c0,
                        r1: j0,
                        c2: 0,
                        r2: j0,
                    });
                    n_inputs + slp.ops.len() - 1
                } else {
                    let (j1, c1) = terms[1];
                    slp.ops.push(LinOp {
                        c1: c0,
                        r1: j0,
                        c2: c1,
                        r2: j1,
                    });
                    n_inputs + slp.ops.len() - 1
                }
            };
            for &(jk, ck) in terms.iter().skip(2) {
                slp.ops.push(LinOp {
                    c1: 1,
                    r1: acc,
                    c2: ck,
                    r2: jk,
                });
                acc = n_inputs + slp.ops.len() - 1;
            }
            slp.outputs.push(acc);
        }
        slp.assert_well_formed();
        slp
    }

    /// Evaluate the program over any additive structure by supplying a
    /// combiner: `combine(c1, v1, c2, v2)` computes `c1·v1 + c2·v2`
    /// (`c2 == 0` is the unary `c1·v1`).
    ///
    /// This is the one evaluator every block recursion uses. It owns its
    /// register file: the inputs are taken by value, each register is
    /// dropped after its last read, and the outputs are moved out in order.
    /// Only a register that several outputs name (the classical encoders'
    /// pass-throughs) is cloned, once per extra use.
    pub fn eval<V: Clone>(
        &self,
        inputs: Vec<V>,
        mut combine: impl FnMut(i64, &V, i64, &V) -> V,
    ) -> Vec<V> {
        assert_eq!(inputs.len(), self.n_inputs, "input count mismatch");
        // Reads still ahead of each register: one per op operand, one per
        // output naming it.
        let mut reads = vec![0usize; self.n_inputs + self.ops.len()];
        for op in &self.ops {
            reads[op.r1] += 1;
            reads[op.r2] += 1;
        }
        for &o in &self.outputs {
            reads[o] += 1;
        }
        let mut regs: Vec<Option<V>> = inputs.into_iter().map(Some).collect();
        let live = "register read after its last use";
        for op in &self.ops {
            let x = regs[op.r1].as_ref().expect(live);
            let y = regs[op.r2].as_ref().expect(live);
            let v = combine(op.c1, x, op.c2, y);
            regs.push(Some(v));
            for r in [op.r1, op.r2] {
                reads[r] -= 1;
                if reads[r] == 0 {
                    regs[r] = None;
                }
            }
        }
        self.outputs
            .iter()
            .map(|&o| {
                reads[o] -= 1;
                if reads[o] == 0 {
                    regs[o].take()
                } else {
                    regs[o].clone()
                }
                .expect(live)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Winograd-style A-encoder with reuse:
    /// S1 = A21+A22, S2 = S1−A11, S3 = A11−A21, S4 = A12−S2.
    /// Outputs: A11, A12, S4, A22, S1, S2, S3.
    fn winograd_a_encoder() -> Slp {
        Slp {
            n_inputs: 4,
            ops: vec![
                LinOp {
                    c1: 1,
                    r1: 2,
                    c2: 1,
                    r2: 3,
                }, // r4 = S1
                LinOp {
                    c1: 1,
                    r1: 4,
                    c2: -1,
                    r2: 0,
                }, // r5 = S2
                LinOp {
                    c1: 1,
                    r1: 0,
                    c2: -1,
                    r2: 2,
                }, // r6 = S3
                LinOp {
                    c1: 1,
                    r1: 1,
                    c2: -1,
                    r2: 5,
                }, // r7 = S4
            ],
            outputs: vec![0, 1, 7, 3, 4, 5, 6],
        }
    }

    #[test]
    fn winograd_encoder_symbolic_rows() {
        let slp = winograd_a_encoder();
        slp.assert_well_formed();
        assert_eq!(slp.additions(), 4); // the published count
        let rows = slp.symbolic_rows();
        assert_eq!(rows[0], vec![1, 0, 0, 0]); // A11
        assert_eq!(rows[2], vec![1, 1, -1, -1]); // S4 = A11+A12−A21−A22
        assert_eq!(rows[4], vec![0, 0, 1, 1]); // S1
        assert_eq!(rows[5], vec![-1, 0, 1, 1]); // S2
        assert_eq!(rows[6], vec![1, 0, -1, 0]); // S3
    }

    #[test]
    fn implements_checks_matrix() {
        let slp = winograd_a_encoder();
        let rows = vec![
            vec![1, 0, 0, 0],
            vec![0, 1, 0, 0],
            vec![1, 1, -1, -1],
            vec![0, 0, 0, 1],
            vec![0, 0, 1, 1],
            vec![-1, 0, 1, 1],
            vec![1, 0, -1, 0],
        ];
        assert!(slp.implements(&rows));
        let mut wrong = rows;
        wrong[0][1] = 1;
        assert!(!slp.implements(&wrong));
    }

    #[test]
    fn from_rows_generic_chain() {
        let rows = vec![vec![1, 0, 0, 1], vec![1, 0, 0, 0], vec![1, 1, -1, -1]];
        let slp = Slp::from_rows(4, &rows);
        assert!(slp.implements(&rows));
        // Additions: row0 needs 1, row1 passes through, row2 needs 3.
        assert_eq!(slp.additions(), 4);
    }

    #[test]
    fn from_rows_negated_singleton() {
        let rows = vec![vec![0, -1, 0, 0]];
        let slp = Slp::from_rows(4, &rows);
        assert!(slp.implements(&rows));
    }

    #[test]
    fn from_rows_scaled_singleton() {
        let rows = vec![vec![0, 0, 2, 0]];
        let slp = Slp::from_rows(4, &rows);
        assert!(slp.implements(&rows));
    }

    #[test]
    #[should_panic(expected = "all-zero row")]
    fn from_rows_zero_row_panics() {
        let _ = Slp::from_rows(4, &[vec![0, 0, 0, 0]]);
    }

    #[test]
    fn eval_numeric_matches_symbolic() {
        let slp = winograd_a_encoder();
        let inputs = vec![3.0f64, -1.0, 4.0, 2.0];
        let outs = slp.eval(inputs.clone(), |c1, &v1, c2, &v2| {
            c1 as f64 * v1 + c2 as f64 * v2
        });
        let rows = slp.symbolic_rows();
        assert_eq!(outs.len(), rows.len());
        for (o, row) in outs.iter().zip(&rows) {
            let expect: f64 = row.iter().zip(&inputs).map(|(&c, &x)| c as f64 * x).sum();
            assert_eq!(*o, expect);
        }
    }

    /// A value that records which input (or op) produced it, so the tests
    /// can see outputs moved out of the register file in order.
    fn tagged_eval(slp: &Slp) -> Vec<String> {
        let inputs = (0..slp.n_inputs).map(|i| format!("x{i}")).collect();
        slp.eval(inputs, |c1, x, c2, y| format!("({c1}{x}{c2:+}{y})"))
    }

    #[test]
    fn eval_returns_outputs_in_order() {
        // Outputs: A11, A12, S4, A22, S1, S2, S3 — two pass-throughs
        // moved out of their input registers, five op results.
        let outs = tagged_eval(&winograd_a_encoder());
        let s1 = "(1x2+1x3)";
        let s2 = format!("(1{s1}-1x0)");
        assert_eq!(
            outs,
            vec![
                "x0".to_string(),
                "x1".to_string(),
                format!("(1x1-1{s2})"),
                "x3".to_string(),
                s1.to_string(),
                s2,
                "(1x0-1x2)".to_string(),
            ]
        );
    }

    #[test]
    fn eval_clones_a_register_named_by_two_outputs() {
        // The classical encoder for A names each input register twice
        // (A11 feeds both A11·B11 and A11·B12); both copies come back.
        let enc_a = Slp::from_rows(
            4,
            &[
                vec![1, 0, 0, 0],
                vec![0, 1, 0, 0],
                vec![1, 0, 0, 0],
                vec![0, 1, 0, 0],
            ],
        );
        assert_eq!(enc_a.outputs, vec![0, 1, 0, 1]);
        let outs = enc_a.eval(
            vec![vec![1i64, 2], vec![3, 4], vec![5], vec![6]],
            |_, _, _, _| unreachable!("pass-through encoder has no ops"),
        );
        assert_eq!(outs, vec![vec![1, 2], vec![3, 4], vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn eval_reuses_an_op_result_read_by_two_later_ops() {
        // r2 = x0 + x1 is read by both later ops and by no output.
        let slp = Slp {
            n_inputs: 2,
            ops: vec![
                LinOp {
                    c1: 1,
                    r1: 0,
                    c2: 1,
                    r2: 1,
                },
                LinOp {
                    c1: 1,
                    r1: 2,
                    c2: -1,
                    r2: 0,
                },
                LinOp {
                    c1: 2,
                    r1: 2,
                    c2: 0,
                    r2: 2,
                },
            ],
            outputs: vec![3, 4],
        };
        let outs = slp.eval(vec![5i64, 7], |c1, &x, c2, &y| c1 * x + c2 * y);
        assert_eq!(outs, vec![7, 24]);
    }

    #[test]
    #[should_panic(expected = "future register")]
    fn forward_reference_rejected() {
        let slp = Slp {
            n_inputs: 1,
            ops: vec![LinOp {
                c1: 1,
                r1: 0,
                c2: 1,
                r2: 2,
            }],
            outputs: vec![1],
        };
        slp.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "unknown register")]
    fn unknown_output_rejected() {
        let slp = Slp {
            n_inputs: 1,
            ops: vec![],
            outputs: vec![3],
        };
        slp.assert_well_formed();
    }
}
