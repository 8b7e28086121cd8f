//! Property-based tests of the LP toolkit on randomly generated programs.

use arrow_lp::model::{LinExpr, Model, Objective, Sense};
use arrow_lp::sparse::CsrMatrix;
use arrow_lp::{ColStatus, Solution, SolverConfig, Status, WarmStart};
use proptest::prelude::*;

/// A random box-constrained LP with `m` dense `<=` rows built so that the
/// origin-ish corner is always feasible (nonnegative rhs).
fn random_lp(
    n: usize,
    coeffs: &[f64],
    rhs: &[f64],
    costs: &[f64],
) -> (Model, Vec<arrow_lp::VarId>) {
    let mut model = Model::new();
    let vars: Vec<_> = (0..n).map(|j| model.add_var(0.0, 10.0, format!("x{j}"))).collect();
    let m = rhs.len();
    for i in 0..m {
        let mut e = LinExpr::new();
        for (j, &v) in vars.iter().enumerate() {
            e.add_term(v, coeffs[i * n + j]);
        }
        model.add_con(e, Sense::Le, rhs[i].abs() + 1.0, format!("c{i}"));
    }
    let obj = LinExpr::sum(vars.iter().copied().zip(costs.iter().copied()));
    model.set_objective(obj, Objective::Maximize);
    (model, vars)
}

/// A feasible, bounded LP with mixed row senses: every row is anchored at
/// the point `x0` inside the `[0, 10]` box (`=` rows hold there exactly,
/// `>=` and `<=` rows with `slack` to spare), so phase 1 has real work —
/// the `>=` and `=` rows start on artificial columns.
fn anchored_lp(n: usize, coeffs: &[f64], x0: &[f64], slack: &[f64], costs: &[f64]) -> Model {
    let mut model = Model::new();
    let vars: Vec<_> = (0..n).map(|j| model.add_var(0.0, 10.0, format!("x{j}"))).collect();
    for (i, &s) in slack.iter().enumerate() {
        let row = &coeffs[i * n..(i + 1) * n];
        let at_x0: f64 = row.iter().zip(x0).map(|(a, x)| a * x).sum();
        let e = LinExpr::sum(vars.iter().copied().zip(row.iter().copied()));
        match i % 3 {
            0 => model.add_con(e, Sense::Le, at_x0 + s, format!("l{i}")),
            1 => model.add_con(e, Sense::Ge, at_x0 - s, format!("g{i}")),
            _ => model.add_con(e, Sense::Eq, at_x0, format!("e{i}")),
        };
    }
    model.set_objective(
        LinExpr::sum(vars.iter().copied().zip(costs.iter().copied())),
        Objective::Maximize,
    );
    model
}

/// `‖B·x_B − (rhs − N·x_N)‖∞` of a returned basis. Nonbasic structurals
/// must sit exactly on the bound the snapshot names and a nonbasic slack is
/// always zero; a basic slack takes up its row's residual, so what is
/// measured is every row whose slack is nonbasic. Also checks the
/// snapshot's shape: `n + m` columns, `m` of them basic.
fn basis_residual(model: &Model, sol: &Solution) -> Result<f64, String> {
    let lp = model.to_standard();
    let (n, m) = (lp.num_vars(), lp.num_cons());
    let basis = sol.basis.as_ref().ok_or("optimal simplex solve returned no basis")?;
    if basis.cols.len() != n + m || basis.num_basic() != m {
        return Err(format!(
            "{} columns, {} basic for {n}+{m}",
            basis.cols.len(),
            basis.num_basic()
        ));
    }
    for (j, &xj) in sol.x.iter().enumerate() {
        let on_bound = match basis.cols[j] {
            ColStatus::Basic => continue,
            ColStatus::AtLower => lp.lb[j],
            ColStatus::AtUpper => lp.ub[j],
            ColStatus::Free => 0.0,
        };
        if xj != on_bound {
            return Err(format!("nonbasic x[{j}] = {xj} is off its bound {on_bound}"));
        }
    }
    let mut ax = vec![0.0; m];
    lp.a.mul_vec(&sol.x, &mut ax);
    Ok((0..m)
        .filter(|&i| basis.cols[n + i] != ColStatus::Basic)
        .map(|i| (ax[i] - lp.rhs[i]).abs())
        .fold(0.0, f64::max))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Both ends of the active set against each other: the default config
    /// (the set grows from empty, one refactorization at the end), a
    /// refactorization before every pivot (the set is rebuilt each time)
    /// and a restart from the returned basis (the set starts near full)
    /// must agree, and every basis they return must solve its own system.
    #[test]
    fn active_set_ends_agree_and_bases_are_consistent(
        n in 2usize..7,
        m in 1usize..7,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 42),
        seed_x0 in proptest::collection::vec(0.5f64..9.5, 7),
        seed_slack in proptest::collection::vec(0.0f64..3.0, 7),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 7),
    ) {
        let model = anchored_lp(n, &seed_coeffs[..n * m], &seed_x0[..n], &seed_slack[..m], &seed_costs[..n]);
        let sparse = arrow_lp::solve(&model, &SolverConfig::exact());
        prop_assert_eq!(sparse.status, Status::Optimal);
        let mut every_pivot = SolverConfig::exact();
        every_pivot.simplex.refactor_every = 1;
        let dense = arrow_lp::solve(&model, &every_pivot);
        let basis = sparse.basis.clone().expect("optimal solve records a basis");
        let warm = arrow_lp::solve_with(&model, &SolverConfig::exact(), Some(&WarmStart::from_basis(basis)));
        prop_assert_eq!(warm.stats.warm, arrow_lp::WarmEvent::Hit);
        for (what, sol) in [("default", &sparse), ("refactor_every = 1", &dense), ("warm", &warm)] {
            prop_assert_eq!(sol.status, Status::Optimal, "{}", what);
            prop_assert!(
                (sol.objective - sparse.objective).abs() <= 1e-9 * (1.0 + sparse.objective.abs()),
                "{}: objective {} vs {}", what, sol.objective, sparse.objective
            );
            prop_assert!(sol.violation(&model) < 1e-6, "{}: infeasible point", what);
            let residual = basis_residual(&model, sol);
            prop_assert!(matches!(residual, Ok(r) if r <= 1e-9), "{}: basis {:?}", what, residual);
        }
    }

    /// A chain `x_j <= w_j · x_{j+1}` pins every variable but the last to
    /// zero at the starting vertex, and `x_0` carries the largest cost, so
    /// Dantzig opens with a degenerate pivot (`copies` rescaled duplicates
    /// of each row tie the ratio test); the other costs rise with the
    /// index, so Bland's lowest-index choice is not Dantzig's. Whatever the
    /// pivot rule — Dantzig throughout, Bland after the first degenerate
    /// pivot, or Bland from the start — it must end at the same optimum
    /// with a consistent basis.
    #[test]
    fn degenerate_family_reaches_the_optimum_through_the_bland_fallback(
        n in 3usize..8,
        copies in 1usize..4,
        seed_weights in proptest::collection::vec(0.25f64..2.0, 7),
        seed_scales in proptest::collection::vec(0.5f64..4.0, 21),
    ) {
        let mut model = Model::new();
        let vars: Vec<_> = (0..n).map(|j| model.add_var(0.0, 10.0, format!("x{j}"))).collect();
        for j in 0..n - 1 {
            for c in 0..copies {
                let s = seed_scales[j * 3 + c];
                let e = LinExpr::new().add(vars[j], s).add(vars[j + 1], -s * seed_weights[j]);
                model.add_con(e, Sense::Le, 0.0, format!("chain{j}_{c}"));
            }
        }
        let cost = |j: usize| if j == 0 { (n + 1) as f64 } else { j as f64 };
        let obj = LinExpr::sum(vars.iter().enumerate().map(|(j, &v)| (v, cost(j))));
        model.set_objective(obj, Objective::Maximize);
        let dantzig = arrow_lp::solve(&model, &SolverConfig::exact());
        prop_assert_eq!(dantzig.status, Status::Optimal);
        for before_bland in [1usize, 0] {
            let mut cfg = SolverConfig::exact();
            cfg.simplex.degenerate_before_bland = before_bland;
            let bland = arrow_lp::solve(&model, &cfg);
            prop_assert_eq!(bland.status, Status::Optimal);
            prop_assert!(bland.stats.iterations > 0);
            prop_assert!(
                (bland.objective - dantzig.objective).abs() <= 1e-9 * (1.0 + dantzig.objective.abs()),
                "Bland after {} degenerate pivots: {} vs {}", before_bland, bland.objective, dantzig.objective
            );
            let residual = basis_residual(&model, &bland);
            prop_assert!(matches!(residual, Ok(r) if r <= 1e-9), "basis {:?}", residual);
        }
    }

    /// The simplex always terminates with an optimal, feasible point on
    /// feasible bounded LPs, and PDHG agrees with it.
    #[test]
    fn backends_agree_on_random_lps(
        n in 2usize..6,
        m in 1usize..5,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 30),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 5),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 6),
    ) {
        let (model, _) = random_lp(n, &seed_coeffs[..n * m.min(seed_rhs.len())], &seed_rhs[..m], &seed_costs[..n]);
        let exact = arrow_lp::solve(&model, &SolverConfig::exact());
        prop_assert_eq!(exact.status, Status::Optimal);
        prop_assert!(exact.violation(&model) < 1e-6, "simplex infeasible point");
        let fo = arrow_lp::solve(&model, &SolverConfig::first_order(1e-7));
        prop_assert!(fo.status.is_usable());
        if fo.status == Status::Optimal {
            let scale = 1.0 + exact.objective.abs();
            prop_assert!(
                (exact.objective - fo.objective).abs() / scale < 2e-3,
                "simplex {} vs pdhg {}", exact.objective, fo.objective
            );
        }
    }

    /// Weak duality spot-check: the simplex duals price the optimum
    /// (strong duality holds at optimality: c'x* = y'b + bound terms).
    #[test]
    fn duals_price_binding_rows(
        cap1 in 1.0f64..20.0,
        cap2 in 1.0f64..20.0,
    ) {
        // max x + y s.t. x <= cap1, y <= cap2 with x,y in [0, 10].
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, cap1, "c1");
        m.add_con(LinExpr::term(y, 1.0), Sense::Le, cap2, "c2");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let sol = arrow_lp::solve(&m, &SolverConfig::exact());
        prop_assert_eq!(sol.status, Status::Optimal);
        // Row binding iff cap < 10; its dual must be 1 there, else 0.
        for (i, cap) in [cap1, cap2].into_iter().enumerate() {
            if cap < 10.0 - 1e-6 {
                prop_assert!((sol.duals[i] - 1.0).abs() < 1e-6, "dual {i_} = {v}", i_ = i, v = sol.duals[i]);
            } else if cap > 10.0 + 1e-6 {
                prop_assert!(sol.duals[i].abs() < 1e-6);
            }
        }
    }

    /// Warm-started simplex re-solves reach the same objective as cold
    /// ones — both on the unchanged LP (where the start is the optimum)
    /// and after a rhs/bound perturbation (where it is merely a good
    /// guess, or rejected as infeasible and re-solved cold).
    #[test]
    fn simplex_warm_equals_cold_on_random_lps(
        n in 2usize..6,
        m in 1usize..5,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 30),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 5),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 6),
        bump in -0.5f64..2.0,
    ) {
        let (model, vars) = random_lp(n, &seed_coeffs[..n * m], &seed_rhs[..m], &seed_costs[..n]);
        let cfg = SolverConfig::exact();
        let first = arrow_lp::solve(&model, &cfg);
        prop_assert_eq!(first.status, Status::Optimal);
        let warm_start = first.warm_start().expect("optimal solve yields warm start");
        prop_assert!(warm_start.basis.is_some());

        // Same LP: warm must hit and reproduce the optimum.
        let rewarm = arrow_lp::solve_with(&model, &cfg, Some(&warm_start));
        prop_assert_eq!(rewarm.status, Status::Optimal);
        prop_assert_eq!(rewarm.stats.warm, arrow_lp::WarmEvent::Hit);
        let scale = 1.0 + first.objective.abs();
        prop_assert!(
            (first.objective - rewarm.objective).abs() / scale < 1e-9,
            "warm {} vs cold {}", rewarm.objective, first.objective
        );

        // Perturbed LP (diurnal-demand analogue: bounds shift, pattern
        // fixed): warm and cold must agree wherever they land.
        let mut shifted = model.clone();
        shifted.set_bounds(vars[0], 0.0, (10.0 + bump).max(0.0));
        let cold = arrow_lp::solve(&shifted, &cfg);
        let warm = arrow_lp::solve_with(&shifted, &cfg, Some(&warm_start));
        prop_assert_eq!(cold.status, Status::Optimal);
        prop_assert_eq!(warm.status, Status::Optimal);
        let scale = 1.0 + cold.objective.abs();
        prop_assert!(
            (cold.objective - warm.objective).abs() / scale < 1e-9,
            "perturbed warm {} vs cold {}", warm.objective, cold.objective
        );
        prop_assert!(warm.violation(&shifted) < 1e-6);
    }

    /// PDHG warm starts (primal–dual point) agree with cold PDHG solves.
    #[test]
    fn pdhg_warm_equals_cold_on_random_lps(
        n in 2usize..6,
        m in 1usize..5,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 30),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 5),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 6),
    ) {
        let (model, _) = random_lp(n, &seed_coeffs[..n * m], &seed_rhs[..m], &seed_costs[..n]);
        let cfg = SolverConfig::first_order(1e-8);
        let cold = arrow_lp::solve(&model, &cfg);
        prop_assert!(cold.status.is_usable());
        if cold.status != Status::Optimal {
            return Ok(()); // tolerance-limited run: nothing to compare
        }
        let warm_start = cold.warm_start().expect("usable solve yields warm start");
        let warm = arrow_lp::solve_with(&model, &cfg, Some(&warm_start));
        prop_assert_eq!(warm.status, Status::Optimal);
        prop_assert_eq!(warm.stats.warm, arrow_lp::WarmEvent::Hit);
        prop_assert!(warm.stats.iterations <= cold.stats.iterations);
        let scale = 1.0 + cold.objective.abs();
        prop_assert!(
            (cold.objective - warm.objective).abs() / scale < 1e-4,
            "pdhg warm {} vs cold {}", warm.objective, cold.objective
        );
    }

    /// The MPS writer always produces a parseable section skeleton with one
    /// column entry per objective/constraint coefficient.
    #[test]
    fn mps_structure_is_complete(
        n in 1usize..5,
        m in 1usize..4,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 20),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 4),
        seed_costs in proptest::collection::vec(0.5f64..3.0, 5),
    ) {
        let (model, _) = random_lp(n, &seed_coeffs[..n * m], &seed_rhs[..m], &seed_costs[..n]);
        let mps = arrow_lp::mps::to_mps(&model, "prop");
        prop_assert!(mps.starts_with("* Generated by arrow-lp"));
        prop_assert!(mps.trim_end().ends_with("ENDATA"));
        for i in 0..m {
            let row = format!(" L  c{i}");
            prop_assert!(mps.contains(&row));
        }
        // Every variable has an objective entry (costs are nonzero).
        for j in 0..n {
            let col = format!("x{j}  OBJ");
            prop_assert!(mps.contains(&col));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The sliced `K·x` PDHG iterates with equals `CsrMatrix::mul_vec` bit
    /// for bit (NaN for NaN). Row counts run over 0, fewer than a slice of
    /// eight and non-multiples of eight; the scattered triplets repeat
    /// coordinates, leave rows empty and stay in the first eight columns, so
    /// the optional full row is at least three times as long as any other
    /// and most of it is a tail; `x` carries `-0.0`, `±inf` and NaN.
    #[test]
    fn sliced_mul_vec_matches_csr_bit_for_bit(
        rows in 0usize..27,
        scattered in proptest::collection::vec((0usize..27, 0usize..8, -3.0f64..3.0), 0..120),
        full_row in proptest::collection::vec(-3.0f64..3.0, 24),
        with_full_row in any::<bool>(),
        seed_x in proptest::collection::vec(-5.0f64..5.0, 24),
        specials in proptest::collection::vec((0usize..24, 0usize..5), 0..6),
    ) {
        let mut triplets: Vec<_> =
            scattered.into_iter().filter(|t| t.0 < rows).collect();
        if with_full_row && rows > 0 {
            triplets.extend(full_row.iter().enumerate().map(|(c, &v)| (rows / 2, c, v)));
        }
        let k = CsrMatrix::from_triplets(rows, 24, &triplets);
        let mut x = seed_x;
        for (at, which) in specials {
            x[at] = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][which];
        }
        let (mut want, mut got) = (vec![1.0; rows], vec![2.0; rows]);
        k.mul_vec(&x, &mut want);
        k.to_sliced().mul_vec(&x, &mut got);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            prop_assert!(
                w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
                "row {} of {}: csr {:?} vs sliced {:?}", i, rows, w, g
            );
        }
    }
}
