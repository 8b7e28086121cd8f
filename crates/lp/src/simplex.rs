//! Bounded-variable two-phase revised simplex.
//!
//! This is the exact solver backend: it handles general bounds `l ≤ x ≤ u`
//! natively (no bound rows are added), runs a phase-1 with artificial
//! variables to find a basic feasible solution, and then optimizes the real
//! objective. The basis inverse is kept explicitly and updated with
//! product-form pivots, which keeps the implementation simple and robust
//! (the design priority here, per the networking guides).
//!
//! **Packed inverse.** The solve starts from a diagonal basis (slacks and
//! artificials), and a pivot at basis position `p` can only put
//! off-diagonal entries of `B⁻¹` into column `p`. So most columns of `B⁻¹`
//! are *lone*: their diagonal entry is their only nonzero, and one
//! `m`-vector holds those entries. The others are *active*, each stored
//! whole in a slot of a row-major `m × cap` matrix (`cap ≤ m` grows with
//! the active count `a`). The duals and the product-form update run over a
//! row's `a` contiguous slots, so an iteration costs `O(m · a)`, and no
//! solve or refactorization writes or scans `m²` entries. Refactorization
//! (Gauss–Jordan with partial pivoting) builds the packed form directly:
//! a basis column that is a lone untouched entry never gets a slot unless
//! an elimination fills it in, and undoing the row exchanges relabels
//! slots. Each elimination visits only the rows that a per-slot bit set
//! marks as possibly nonzero in its pivot slot, not all `m`. After a warm
//! start from a recorded basis nearly every column is active, and the same
//! loops run dense.
//!
//! **Row-wise pricing.** Reduced costs need `Aᵀy`, and `y` is mostly zero,
//! so it is scattered from the CSR rows with `yᵢ ≠ 0` in ascending row
//! order: per column, the same products added in the same order as a
//! column dot. Skipped work is multiplication by exact zero only, so
//! pivots, iterates and duals are those of a dense kernel bit for bit (up
//! to the sign of zero). It is intended for problems up to a few thousand
//! rows; larger instances should use [`crate::pdhg`].
//!
//! **Branch-free pricing.** Every column has a one-byte class for the
//! running phase: may not move (basic, or boxed too tightly to improve
//! anything), at its lower bound, at its upper bound, or free. It is set
//! when a phase loads and updated at each enter, leave and bound flip, and
//! it is all the scan reads of a column's state. Dantzig's rule reads the
//! class, cost and price (`Aᵀy`, or `y` for a slack) arrays front to back
//! in four lanes, each keeping its first strict maximum (`FirstMax`); the
//! lowest column among the lanes at the overall maximum is the one a
//! single strict-`>` scan keeps, and its reduced cost is recomputed, so the
//! entering column and its bits are the one-pass scan's (a test-only copy
//! of that scan checks every pivot of the unit tests). Bland's rule takes
//! the first eligible column. The ratio test runs the same lanes over
//! basis-position arrays (the value and bounds of the basic column at each
//! position) for the first strict minimum step, and the step updates those
//! values in place; `x` holds basic values only where it is read, after a
//! phase. Every value compared or stored equals a one-pass scalar scan's,
//! bit for bit.
//!
//! Implemented: Dantzig pricing with a Bland anti-cycling fallback, bound
//! flips, periodic basis refactorization, infeasibility/unboundedness
//! detection, and dual values. Deliberately omitted: steepest-edge pricing,
//! sparse LU basis updates and presolve.

use crate::model::{Sense, StandardLp};
use crate::solution::{Solution, SolveStats, Status};
use crate::sparse::CscMatrix;
use crate::warm::{BackendKind, Basis, ColStatus, WarmEvent};
use std::array::from_fn;

/// Reduced-cost optimality tolerance.
const OPT_TOL: f64 = 1e-7;
/// Bound/feasibility tolerance.
const FEAS_TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted during a basis change.
const PIVOT_TOL: f64 = 1e-9;

/// Tunable knobs for the simplex solver.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Hard iteration limit (both phases combined). `0` means automatic
    /// (`200 + 20 * (rows + cols)`).
    pub(crate) max_iters: usize,
    /// Refactorize the basis inverse from scratch every this many pivots.
    pub refactor_every: usize,
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    pub degenerate_before_bland: usize,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig { max_iters: 0, refactor_every: 2000, degenerate_before_bland: 400 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(usize), // position in basis
    AtLower,
    AtUpper,
    /// Free variable currently parked at zero.
    FreeAtZero,
}

/// Pricing class of a column for the running phase, as two bits: which
/// way it may move. Basic columns and columns boxed too tightly to ever
/// improve the objective may not move at all.
const NEVER: u8 = 0;
/// Nonbasic at its lower bound: it may rise, so it prices `-d`.
const AT_LOWER: u8 = 1;
/// Nonbasic at its upper bound: it may fall, so it prices `d`.
const AT_UPPER: u8 = 2;
/// Free and parked at zero: it may move either way, so it prices `|d|`.
const FREE: u8 = AT_LOWER | AT_UPPER;

/// The pricing class of a column in state `st` with bounds `l ≤ x ≤ u`.
fn class_of(st: VarState, l: f64, u: f64) -> u8 {
    match st {
        VarState::Basic(_) => NEVER,
        _ if u - l <= FEAS_TOL && u.is_finite() => NEVER,
        VarState::AtLower => AT_LOWER,
        VarState::AtUpper => AT_UPPER,
        VarState::FreeAtZero => FREE,
    }
}

/// What a unit step of a column of class `class` at reduced cost `d` gains:
/// `-d` if it may rise, `d` if it may fall, the larger if both, and `0` for
/// [`NEVER`]. A column is eligible to enter when this exceeds `OPT_TOL`, and
/// a NaN `d` never is. Branch-free, so the scan over all columns is too.
#[inline(always)]
fn score(class: u8, d: f64) -> f64 {
    // All ones where the class has `bit`: masks `±d` to `+0.0` otherwise.
    let mask = |bit: u8| 0u64.wrapping_sub(u64::from(class & bit != 0));
    let rise = f64::from_bits((-d).to_bits() & mask(AT_LOWER));
    let fall = f64::from_bits(d.to_bits() & mask(AT_UPPER));
    if rise > fall {
        rise
    } else {
        fall
    }
}

/// The negated step at which a basic column with value `x`, bounds
/// `l ≤ x ≤ u` and direction entry `w` (the entering column's sign folded
/// in) reaches the bound it moves toward: `-(x - l) / w` falling, `-(u - x)
/// / -w` rising. An infinite bound gives `-∞`, and a `|w|` not above
/// `PIVOT_TOL` gives NaN; [`FirstMax`] keeps neither. Branch-free, like
/// [`score`].
#[inline(always)]
fn neg_step(w: f64, x: f64, l: f64, u: f64) -> f64 {
    // `(b - x) / w` is `-(x - l) / w` or `-(u - x) / -w` bit for bit: IEEE
    // subtraction and division are exactly antisymmetric. A NaN divisor
    // makes a NaN step, which no comparison keeps; dividing every entry
    // keeps the loop free of branches.
    let b = if w > 0.0 { l } else { u };
    let divisor = if w.abs() > PIVOT_TOL { w } else { f64::NAN };
    (b - x) / divisor
}

/// Lanes of [`FirstMax`].
const LANES: usize = 4;

/// The first strict maximum of a sequence of scores, found in `LANES`
/// independent lanes so a scan carries no dependence from one column to
/// the next. Each lane keeps the first index at which its own maximum
/// appears (a strict `>` replaces it); the lowest of those indices among
/// the lanes that reach the overall maximum is exactly the index a single
/// strict-`>` scan in ascending order would keep. That holds for any
/// assignment of indices to lanes as long as each lane sees its indices in
/// ascending order. Only scores above `floor` count.
#[derive(Clone, Copy)]
struct FirstMax {
    best: [f64; LANES],
    index: [usize; LANES],
}

impl FirstMax {
    fn new(floor: f64) -> Self {
        FirstMax { best: [floor; LANES], index: [NONE; LANES] }
    }

    /// Offers `score[l]` as index `first + l` to lane `l`; every lane at
    /// once, so the compiler keeps the lanes in one vector register.
    #[inline(always)]
    fn offer_chunk(&mut self, first: usize, score: [f64; LANES]) {
        let better: [bool; LANES] = from_fn(|l| score[l] > self.best[l]);
        self.best = from_fn(|l| if better[l] { score[l] } else { self.best[l] });
        self.index = from_fn(|l| if better[l] { first + l } else { self.index[l] });
    }

    #[inline(always)]
    fn offer(&mut self, lane: usize, index: usize, score: f64) {
        let better = score > self.best[lane];
        self.best[lane] = if better { score } else { self.best[lane] };
        self.index[lane] = if better { index } else { self.index[lane] };
    }

    /// Offers the columns `first..first + class.len()`, whose reduced costs
    /// are `cost - price` entry by entry.
    fn scan(&mut self, first: usize, class: &[u8], cost: &[f64], price: &[f64]) {
        let len = class.len();
        let (cost, price) = (&cost[..len], &price[..len]);
        let mut lanes = *self;
        let chunks = class.chunks_exact(LANES).zip(cost.chunks_exact(LANES));
        for (k, ((cl, c), p)) in chunks.zip(price.chunks_exact(LANES)).enumerate() {
            lanes.offer_chunk(first + k * LANES, from_fn(|l| score(cl[l], c[l] - p[l])));
        }
        *self = lanes;
        let body = len - len % LANES;
        for k in body..len {
            self.offer(k - body, first + k, score(class[k], cost[k] - price[k]));
        }
    }

    /// The winning index and its score, or `None` if no score beat `floor`.
    fn winner(&self) -> Option<(usize, f64)> {
        let top = self.best.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        (0..LANES)
            .filter(|&l| self.best[l] == top && self.index[l] != NONE)
            .min_by_key(|&l| self.index[l])
            .map(|l| (self.index[l], self.best[l]))
    }
}

/// Column classes: structurals come from the model, slacks encode row
/// senses, artificials exist only to build the phase-1 starting basis.
#[derive(Debug, Default)]
struct Columns {
    a: CscMatrix,
    n: usize,
    m: usize,
    /// Row index for each artificial column, parallel to indices `n + m ..`.
    art_rows: Vec<usize>,
    /// Sign of each artificial column's single entry.
    art_signs: Vec<f64>,
}

impl Columns {
    fn total(&self) -> usize {
        self.n + self.m + self.art_rows.len()
    }

    /// Iterates the sparse entries of column `j` as `(row, value)`.
    fn for_each_entry(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            for (i, v) in self.a.col(j) {
                f(i, v);
            }
        } else if j < self.n + self.m {
            f(j - self.n, 1.0);
        } else {
            let k = j - self.n - self.m;
            f(self.art_rows[k], self.art_signs[k]);
        }
    }
}

/// Marks "no row" / "no column" / "no slot" in the bookkeeping.
const NONE: usize = usize::MAX;

/// Slots the packed inverse opens with; it doubles from there, up to `m`.
const MIN_SLOTS: usize = 16;

/// The basis inverse `B⁻¹`, packed to its active columns (module docs).
/// Column `k` is either lone, with its diagonal entry in `lone[k]` and
/// zeros elsewhere, or active, with all `m` entries in slot `slot_of[k]`:
/// column `slot_of[k]` of the row-major `m × cap` matrix `slots`, of which
/// each row's first `slot_col.len()` entries are in use. Slots are numbered
/// in the order their columns became active; nothing outside the slots in
/// use and the lone entries of lone columns is ever read.
#[derive(Debug, Default)]
struct Inverse {
    m: usize,
    cap: usize,
    lone: Vec<f64>,
    slots: Vec<f64>,
    /// The column each slot holds, and the slot of each column (or `NONE`).
    slot_col: Vec<usize>,
    slot_of: Vec<usize>,
}

impl Inverse {
    /// The `m × m` identity: every column lone, no slot. `O(m)`.
    fn reset(&mut self, m: usize) {
        self.m = m;
        self.cap = 0;
        self.slots.clear();
        self.slot_col.clear();
        self.lone.clear();
        self.lone.resize(m, 1.0);
        self.slot_of.clear();
        self.slot_of.resize(m, NONE);
    }

    /// Number of active columns.
    fn width(&self) -> usize {
        self.slot_col.len()
    }

    /// Row `r`'s entries in the active columns, in slot order.
    fn row(&self, r: usize) -> &[f64] {
        &self.slots[r * self.cap..r * self.cap + self.width()]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let width = self.width();
        &mut self.slots[r * self.cap..r * self.cap + width]
    }

    /// Entry `(r, slot s)`.
    fn at(&mut self, r: usize, s: usize) -> &mut f64 {
        &mut self.slots[r * self.cap + s]
    }

    /// Column `s` of the slots, one entry per row.
    fn slot(&self, s: usize) -> impl Iterator<Item = &f64> {
        self.slots[s..].iter().step_by(self.cap)
    }

    /// Makes column `col` active with all-zero entries; returns its slot.
    fn add_slot(&mut self, col: usize) -> usize {
        let s = self.width();
        if s == self.cap {
            // `s < m`: at most `m` columns exist, and `col` is not yet active.
            let (m, old) = (self.m, self.cap);
            let cap = (2 * old).max(MIN_SLOTS).min(m);
            self.slots.resize(m * cap, 0.0);
            for r in (1..m).rev() {
                self.slots.copy_within(r * old..r * old + old, r * cap);
            }
            self.cap = cap;
        }
        for r in 0..self.m {
            *self.at(r, s) = 0.0;
        }
        self.slot_col.push(col);
        self.slot_of[col] = s;
        s
    }

    /// Exchanges rows `a < b` of the slots (lone entries stay with their
    /// columns; the caller tracks which row each lives in).
    fn swap_rows(&mut self, a: usize, b: usize) {
        let (cap, width) = (self.cap, self.width());
        let (upper, lower) = self.slots.split_at_mut(b * cap);
        upper[a * cap..a * cap + width].swap_with_slice(&mut lower[..width]);
    }
}

/// For each slot of the packed inverse during a refactorization, a bit set
/// of rows that holds every row with a nonzero in that slot (and perhaps
/// some rows without one: an entry may cancel, and fill-in is recorded for
/// every row a step visits).
#[derive(Debug, Default)]
struct RowSets {
    /// 64-row words per slot.
    words: usize,
    bits: Vec<u64>,
}

impl RowSets {
    /// No slot yet, for `m` rows.
    fn reset(&mut self, m: usize) {
        self.words = m.div_ceil(64);
        self.bits.clear();
    }

    /// Empties slot `s`'s set, growing the table to hold it.
    fn open(&mut self, s: usize) {
        let (start, end) = (s * self.words, (s + 1) * self.words);
        if self.bits.len() < end {
            self.bits.resize(end, 0);
        }
        self.bits[start..end].fill(0);
    }

    fn insert(&mut self, s: usize, r: usize) {
        self.bits[s * self.words + r / 64] |= 1 << (r % 64);
    }

    fn contains(&self, s: usize, r: usize) -> bool {
        self.bits[s * self.words + r / 64] & (1 << (r % 64)) != 0
    }

    /// Adds every row of slot `from` to slot `to`.
    fn union(&mut self, to: usize, from: usize) {
        for k in 0..self.words {
            self.bits[to * self.words + k] |= self.bits[from * self.words + k];
        }
    }

    /// Exchanges rows `a` and `b` in slots `..width`.
    fn swap_rows(&mut self, width: usize, a: usize, b: usize) {
        for s in 0..width {
            let (in_a, in_b) = (self.contains(s, a), self.contains(s, b));
            if in_a != in_b {
                self.bits[s * self.words + a / 64] ^= 1 << (a % 64);
                self.bits[s * self.words + b / 64] ^= 1 << (b % 64);
            }
        }
    }

    /// The rows of slot `s` from row `first` on, ascending.
    fn rows_from(&self, s: usize, first: usize) -> impl Iterator<Item = usize> + '_ {
        let set = &self.bits[s * self.words..(s + 1) * self.words];
        (first / 64..self.words).flat_map(move |k| {
            let below = if k == first / 64 { first % 64 } else { 0 };
            let mut word = set[k] & (u64::MAX << below);
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let r = k * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    r
                })
            })
        })
    }
}

/// Every buffer of a solve whose size follows the problem, kept between
/// solves so [`crate::solve_batch`]'s lanes allocate them once.
/// Each solve overwrites all of it; nothing is read across solves.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    cols: Columns,
    inv: Inverse,
    /// Dual prices, the entering column's direction, and `Aᵀy` over the
    /// structural columns.
    y: Vec<f64>,
    w: Vec<f64>,
    aty: Vec<f64>,
    /// A row of the slots: the pivot row of an update, or the duals of the
    /// active columns while they accumulate.
    packed: Vec<f64>,
    /// Cost and pricing class of every column for the running phase
    /// (bounds are fixed while a phase runs).
    cost: Vec<f64>,
    class: Vec<u8>,
    /// The value of the basic column at each basis position (the value of
    /// record: `x` holds it only after [`Simplex::sync_x`]), and that
    /// column's bounds for the running phase.
    basic_x: Vec<f64>,
    basic_lb: Vec<f64>,
    basic_ub: Vec<f64>,
    /// The `(slot, value)` nonzeros of the pivot row an elimination step
    /// subtracts from the other rows.
    pivot_row: Vec<(usize, f64)>,
    /// Refactorization scratch: for a column with a single nonzero that no
    /// elimination touched yet, the row it sits in (`row_of`) and the
    /// inverse map (`home`); and the row exchanges made so far. Undoing
    /// the exchanges reuses all three.
    row_of: Vec<usize>,
    home: Vec<usize>,
    swaps: Vec<(usize, usize)>,
    /// Refactorization scratch: the rows of each slot that may hold a
    /// nonzero.
    nonzero: RowSets,
    /// The active columns ascending, each with its slot: the order of the
    /// basic-value sums.
    ordered: Vec<(usize, usize)>,
}

/// Solver state for one solve call.
struct Simplex<'a> {
    cfg: &'a SimplexConfig,
    lp: &'a StandardLp,
    ws: &'a mut Workspace,
    /// Lower/upper bounds for every column (structural, slack, artificial).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Value of every column: current for nonbasic columns, and for basic
    /// ones as of the last [`Simplex::sync_x`].
    x: Vec<f64>,
    state: Vec<VarState>,
    /// Basis: column index occupying each of the `m` basis positions.
    basis: Vec<usize>,
    m: usize,
    iterations: usize,
    refactors: usize,
    pivots_since_refactor: usize,
    degenerate_streak: usize,
}

/// Outcome of one inner simplex phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
    IterLimit,
    /// Numerical trouble that a refactorization did not fix.
    Stalled,
}

/// Appends the slack-column bounds encoding each row's sense (`Ax + s =
/// rhs`) to structural bounds already in `lb`/`ub`.
fn push_slack_bounds(lp: &StandardLp, lb: &mut Vec<f64>, ub: &mut Vec<f64>) {
    for s in &lp.senses {
        match s {
            Sense::Le => {
                lb.push(0.0);
                ub.push(f64::INFINITY);
            }
            Sense::Ge => {
                lb.push(f64::NEG_INFINITY);
                ub.push(0.0);
            }
            Sense::Eq => {
                lb.push(0.0);
                ub.push(0.0);
            }
        }
    }
}

impl<'a> Simplex<'a> {
    /// Loads `lp`'s columns into the workspace and sizes its `m`- and
    /// `n`-length buffers; the inverse is left to the caller.
    fn load(lp: &StandardLp, ws: &mut Workspace) {
        let (n, m) = (lp.num_vars(), lp.num_cons());
        lp.a.to_csc_into(&mut ws.cols.a);
        ws.cols.n = n;
        ws.cols.m = m;
        ws.cols.art_rows.clear();
        ws.cols.art_signs.clear();
        for (v, len) in [(&mut ws.y, m), (&mut ws.w, m), (&mut ws.basic_x, m), (&mut ws.aty, n)] {
            v.clear();
            v.resize(len, 0.0);
        }
    }

    fn new(lp: &'a StandardLp, cfg: &'a SimplexConfig, ws: &'a mut Workspace) -> Self {
        let n = lp.num_vars();
        let m = lp.num_cons();
        Self::load(lp, ws);
        // Slack bounds encode the row sense: Ax + s = rhs.
        let mut lb = lp.lb.clone();
        let mut ub = lp.ub.clone();
        push_slack_bounds(lp, &mut lb, &mut ub);
        // Nonbasic starting point: every structural at its bound nearest zero
        // (free variables park at zero).
        let mut x = vec![0.0; n + m];
        let mut state = vec![VarState::FreeAtZero; n + m];
        for j in 0..n {
            let (l, u) = (lb[j], ub[j]);
            if l.is_finite() && (l.abs() <= u.abs() || !u.is_finite()) {
                x[j] = l;
                state[j] = VarState::AtLower;
            } else if u.is_finite() {
                x[j] = u;
                state[j] = VarState::AtUpper;
            } else {
                x[j] = 0.0;
                state[j] = VarState::FreeAtZero;
            }
        }
        // Required slack value per row given the nonbasic point.
        let mut resid = lp.rhs.clone();
        for (i, r) in resid.iter_mut().enumerate() {
            for (j, v) in lp.a.row(i) {
                *r -= v * x[j];
            }
        }
        // Basis: the row's slack where its bounds admit the residual value,
        // otherwise park the slack at the violated (finite) bound and cover
        // the remaining gap with a fresh artificial column.
        let mut basis = vec![usize::MAX; m];
        let mut gaps = Vec::new(); // (row, gap) for rows needing artificials
        for i in 0..m {
            let sj = n + i;
            let clamped = resid[i].clamp(lb[sj], ub[sj]);
            if (clamped - resid[i]).abs() <= FEAS_TOL {
                x[sj] = resid[i];
                ws.basic_x[i] = resid[i];
                state[sj] = VarState::Basic(i);
                basis[i] = sj;
            } else {
                x[sj] = clamped;
                state[sj] = if clamped == lb[sj] { VarState::AtLower } else { VarState::AtUpper };
                gaps.push((i, resid[i] - clamped));
            }
        }
        let total = n + m + gaps.len();
        lb.resize(total, 0.0);
        ub.resize(total, f64::INFINITY);
        x.resize(total, 0.0);
        state.resize(total, VarState::AtLower);
        // Initial basis matrix is diagonal (±1), so its inverse is too, and
        // no column is active yet.
        ws.inv.reset(m);
        for (k, &(i, gap)) in gaps.iter().enumerate() {
            let j = n + m + k;
            ws.cols.art_rows.push(i);
            ws.cols.art_signs.push(gap.signum());
            x[j] = gap.abs();
            ws.basic_x[i] = x[j];
            state[j] = VarState::Basic(i);
            basis[i] = j;
            ws.inv.lone[i] = 1.0 / gap.signum();
        }
        Simplex {
            cfg,
            lp,
            ws,
            lb,
            ub,
            x,
            state,
            basis,
            m,
            iterations: 0,
            refactors: 0,
            pivots_since_refactor: 0,
            degenerate_streak: 0,
        }
    }

    /// Rebuilds solver state from a recorded basis snapshot against
    /// (possibly mutated) problem data: nonbasic columns land on their
    /// *current* bounds, basic values are recomputed through a fresh
    /// factorization. Returns `None` when the snapshot does not fit the
    /// problem (wrong size, wrong basic count, singular basis) — the caller
    /// then falls back to a cold start.
    fn from_basis(
        lp: &'a StandardLp,
        cfg: &'a SimplexConfig,
        basis: &Basis,
        ws: &'a mut Workspace,
    ) -> Option<Self> {
        let n = lp.num_vars();
        let m = lp.num_cons();
        if basis.cols.len() != n + m {
            return None;
        }
        let mut lb = lp.lb.clone();
        let mut ub = lp.ub.clone();
        push_slack_bounds(lp, &mut lb, &mut ub);
        let mut x = vec![0.0; n + m];
        let mut state = vec![VarState::FreeAtZero; n + m];
        let mut basis_vec = Vec::with_capacity(m);
        for j in 0..n + m {
            match basis.cols[j] {
                ColStatus::Basic => {
                    // Position assigned below; value set by refactorize().
                    state[j] = VarState::Basic(basis_vec.len());
                    basis_vec.push(j);
                }
                status => {
                    // Park nonbasic columns on a finite bound, honouring the
                    // recorded side when it still exists under the new data.
                    let prefer_upper = matches!(status, ColStatus::AtUpper);
                    if prefer_upper && ub[j].is_finite() {
                        x[j] = ub[j];
                        state[j] = VarState::AtUpper;
                    } else if lb[j].is_finite() {
                        x[j] = lb[j];
                        state[j] = VarState::AtLower;
                    } else if ub[j].is_finite() {
                        x[j] = ub[j];
                        state[j] = VarState::AtUpper;
                    } else {
                        x[j] = 0.0;
                        state[j] = VarState::FreeAtZero;
                    }
                }
            }
        }
        if basis_vec.len() != m {
            return None;
        }
        Self::load(lp, ws);
        let mut s = Simplex {
            cfg,
            lp,
            ws,
            lb,
            ub,
            x,
            state,
            basis: basis_vec,
            m,
            iterations: 0,
            refactors: 0,
            pivots_since_refactor: 0,
            degenerate_streak: 0,
        };
        if !s.refactorize() {
            return None;
        }
        Some(s)
    }

    /// Records the current basis as a reusable snapshot. Basic artificials
    /// (possible after a degenerate phase 1: they sit at value zero) are
    /// recorded as their row's slack — the slack column spans the same
    /// single row, so the recorded basis stays nonsingular.
    fn snapshot_basis(&self) -> Basis {
        let cols = &self.ws.cols;
        let nm = cols.n + cols.m;
        let mut status: Vec<ColStatus> = self.state[..nm]
            .iter()
            .map(|st| match st {
                VarState::Basic(_) => ColStatus::Basic,
                VarState::AtLower => ColStatus::AtLower,
                VarState::AtUpper => ColStatus::AtUpper,
                VarState::FreeAtZero => ColStatus::Free,
            })
            .collect();
        for &j in &self.basis {
            if j >= nm {
                let row = cols.art_rows[j - nm];
                status[cols.n + row] = ColStatus::Basic;
            }
        }
        Basis { cols: status }
    }

    /// Fixes the column costs and pricing classes for the phase about to
    /// run, and the bounds of the basic column at each position.
    fn load_phase(&mut self, cost: impl Fn(usize) -> f64) {
        let total = self.ws.cols.total();
        let Workspace { cost: c, class, basic_lb, basic_ub, .. } = &mut *self.ws;
        c.clear();
        c.extend((0..total).map(cost));
        class.clear();
        class.extend((0..total).map(|j| class_of(self.state[j], self.lb[j], self.ub[j])));
        for (at, bound) in [(basic_lb, &self.lb), (basic_ub, &self.ub)] {
            at.clear();
            at.extend(self.basis.iter().map(|&j| bound[j]));
        }
    }

    /// Writes the basic values into `x`, for the readers outside a phase.
    fn sync_x(&mut self) {
        for (&j, &v) in self.basis.iter().zip(&self.ws.basic_x) {
            self.x[j] = v;
        }
    }

    /// `y = Binv' c_B` — dual prices for the running phase's basic costs.
    /// An active column's price sums over the rows in ascending order, a
    /// lone column's is its own row's term alone.
    fn compute_duals(&mut self) {
        let Workspace { inv, y, cost, packed, .. } = &mut *self.ws;
        packed.clear();
        packed.resize(inv.width(), 0.0);
        for (i, &j) in self.basis.iter().enumerate() {
            let cb = cost[j];
            if cb == 0.0 {
                continue;
            }
            packed.iter_mut().zip(inv.row(i)).for_each(|(yk, b)| *yk += cb * b);
        }
        for (k, yk) in y.iter_mut().enumerate() {
            let cb = cost[self.basis[k]];
            *yk = match inv.slot_of[k] {
                NONE if cb == 0.0 => 0.0,
                NONE => 0.0 + cb * inv.lone[k],
                s => packed[s],
            };
        }
    }

    /// `w = Binv a_j` for the entering column. A lone column of the inverse
    /// is its diagonal entry alone.
    fn compute_direction(&mut self, j: usize) {
        let Workspace { inv, w, cols, .. } = &mut *self.ws;
        w.fill(0.0);
        cols.for_each_entry(j, |i, v| match inv.slot_of[i] {
            NONE => w[i] += v * inv.lone[i],
            s => w.iter_mut().zip(inv.slot(s)).for_each(|(wk, b)| *wk += v * b),
        });
    }

    /// Recomputes the inverse by Gauss–Jordan elimination of the current
    /// basis and refreshes the basic variable values. Returns `false` if the
    /// basis is numerically singular; the inverse is then unusable.
    ///
    /// The elimination runs in place on the packed form: before step `c`,
    /// columns `c..` hold what is left of the basis matrix and columns `..c`
    /// the inverse built so far (the other halves are identity columns).
    /// Rows are exchanged for partial pivoting as they would be on the
    /// two-matrix form `[B | I]`, and undoing the exchanges on the columns
    /// at the end yields `B⁻¹`; every stored entry goes through the same
    /// divisions and subtractions in the same order either way.
    ///
    /// Work is skipped only where an operand is exactly zero. A step reads
    /// only the rows in `nonzero`'s set for its pivot slot, in row order,
    /// not all `m` (the others hold exact zeros there); that set then joins
    /// the sets of the pivot row's nonzero slots, where fill-in may appear.
    /// A column whose single nonzero no elimination has touched (`row_of`)
    /// stays lone: it gets no slot and needs no column scan, and no
    /// elimination at all when its turn comes; most columns of a basis grown
    /// from the slack start stay that way. A lone column moved off the
    /// diagonal by the final exchanges is the one that needs a slot after
    /// all.
    fn refactorize(&mut self) -> bool {
        self.refactors += 1;
        let m = self.m;
        let Workspace { inv, cols, pivot_row, row_of, home, swaps, nonzero, .. } = &mut *self.ws;
        inv.reset(m);
        row_of.clear();
        row_of.resize(m, NONE);
        home.clear();
        home.resize(m, NONE);
        swaps.clear();
        nonzero.reset(m);
        for (pos, &j) in self.basis.iter().enumerate() {
            let (mut entries, mut row, mut value) = (0, NONE, 0.0);
            cols.for_each_entry(j, |i, v| {
                entries += 1;
                row = i;
                value = v;
            });
            if entries == 1 && home[row] == NONE {
                home[row] = pos;
                row_of[pos] = row;
                inv.lone[pos] = value;
            } else {
                let s = inv.add_slot(pos);
                nonzero.open(s);
                cols.for_each_entry(j, |i, v| {
                    *inv.at(i, s) = v;
                    nonzero.insert(s, i);
                });
            }
        }
        for c in 0..m {
            // Partial pivoting: the first row at or below `c` holding the
            // largest magnitude of column `c`.
            let sc = inv.slot_of[c];
            let mut best = row_of[c];
            if best == NONE {
                best = c;
                let mut best_val = inv.at(c, sc).abs();
                for r in nonzero.rows_from(sc, c + 1) {
                    let v = inv.at(r, sc).abs();
                    if v > best_val {
                        best = r;
                        best_val = v;
                    }
                }
            }
            debug_assert!(best >= c, "a lone entry above the diagonal was never eliminated");
            let piv = if sc == NONE { inv.lone[c] } else { *inv.at(best, sc) };
            if piv.abs() < 1e-12 {
                return false;
            }
            if best != c {
                inv.swap_rows(c, best);
                nonzero.swap_rows(inv.width(), c, best);
                home.swap(c, best);
                for r in [c, best] {
                    if home[r] != NONE {
                        row_of[home[r]] = r;
                    }
                }
                swaps.push((c, best));
            }
            if sc == NONE {
                // No other row holds anything in column `c`.
                inv.lone[c] = 1.0 / piv;
                if piv != 1.0 {
                    inv.row_mut(c).iter_mut().for_each(|v| *v /= piv);
                }
                continue;
            }
            if home[c] != NONE {
                // The lone column whose entry sits in the pivot row: this
                // elimination fills it in.
                let k = std::mem::replace(&mut home[c], NONE);
                row_of[k] = NONE;
                let s = inv.add_slot(k);
                *inv.at(c, s) = inv.lone[k];
                nonzero.open(s);
                nonzero.insert(s, c);
            }
            *inv.at(c, sc) = 1.0;
            pivot_row.clear();
            for (s, v) in inv.row_mut(c).iter_mut().enumerate() {
                if *v != 0.0 {
                    *v /= piv;
                    pivot_row.push((s, *v));
                }
            }
            for r in nonzero.rows_from(sc, 0).filter(|&r| r != c) {
                let row = inv.row_mut(r);
                let f = row[sc];
                if f == 0.0 {
                    continue;
                }
                row[sc] = 0.0;
                for &(s, p) in pivot_row.iter() {
                    row[s] -= f * p;
                }
            }
            for &(s, _) in pivot_row.iter() {
                nonzero.union(s, sc);
            }
        }
        // Undo the exchanges: column `k` of `B⁻¹` is the elimination's
        // column `home[k]`, and `row_of` maps the other way.
        home.clear();
        home.extend(0..m);
        for &(c, p) in swaps.iter().rev() {
            home.swap(c, p);
        }
        swaps.clear();
        for (k, &c) in home.iter().enumerate() {
            row_of[c] = k;
            if c != k && inv.slot_of[c] == NONE {
                swaps.push((k, c));
            }
        }
        for s in 0..inv.width() {
            inv.slot_col[s] = row_of[inv.slot_col[s]];
        }
        inv.slot_of.fill(NONE);
        for (s, &k) in inv.slot_col.iter().enumerate() {
            inv.slot_of[k] = s;
        }
        // A lone column moved to column `k` keeps its entry in row `c`.
        for &(k, c) in swaps.iter() {
            let s = inv.add_slot(k);
            *inv.at(c, s) = inv.lone[c];
        }
        self.refresh_basic_values();
        self.pivots_since_refactor = 0;
        true
    }

    /// Recomputes basic values `x_B = Binv (rhs - N x_N)` from scratch; each
    /// row's sum runs over its nonzero columns in ascending order.
    fn refresh_basic_values(&mut self) {
        let Workspace { inv, cols, ordered, basic_x, .. } = &mut *self.ws;
        let mut resid = self.lp.rhs.clone();
        for j in 0..cols.total() {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            cols.for_each_entry(j, |i, v| resid[i] -= v * xj);
        }
        ordered.clear();
        ordered.extend(inv.slot_col.iter().enumerate().map(|(s, &k)| (k, s)));
        ordered.sort_unstable();
        for pos in 0..self.m {
            let row = inv.row(pos);
            let lone = inv.slot_of[pos] == NONE;
            let split = if lone { ordered.partition_point(|&(k, _)| k < pos) } else { 0 };
            let dot = |acc, terms: &[(usize, usize)]| {
                terms.iter().fold(acc, |acc, &(k, s)| acc + row[s] * resid[k])
            };
            let mut acc = dot(0.0, &ordered[..split]);
            if lone {
                acc += inv.lone[pos] * resid[pos];
            }
            basic_x[pos] = dot(acc, &ordered[split..]);
        }
    }

    /// Total bound violation of basic variables (phase-1 objective).
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (&j, &v) in self.basis.iter().zip(&self.ws.basic_x) {
            if v < self.lb[j] {
                total += self.lb[j] - v;
            } else if v > self.ub[j] {
                total += v - self.ub[j];
            }
        }
        total
    }

    /// Runs one simplex phase to optimality under the costs
    /// [`Simplex::load_phase`] fixed, and leaves `x` in sync.
    fn run_phase(&mut self, max_iters: usize) -> PhaseEnd {
        let end = self.iterate(max_iters);
        self.sync_x();
        end
    }

    fn iterate(&mut self, max_iters: usize) -> PhaseEnd {
        loop {
            if self.iterations >= max_iters {
                return PhaseEnd::IterLimit;
            }
            self.iterations += 1;
            if self.pivots_since_refactor >= self.cfg.refactor_every && !self.refactorize() {
                return PhaseEnd::Stalled;
            }
            self.compute_duals();
            let use_bland = self.degenerate_streak >= self.cfg.degenerate_before_bland;
            self.lp.a.mul_transpose_vec(&self.ws.y, &mut self.ws.aty);
            let enter = self.price(use_bland);
            #[cfg(test)]
            tests::check_pricing(self, use_bland, enter);
            let Some((j_enter, d_enter)) = enter else {
                return PhaseEnd::Optimal;
            };
            // Direction: increasing if at lower bound (or free with d<0).
            let sigma = match self.state[j_enter] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::FreeAtZero => {
                    if d_enter < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                // Basic columns are skipped during pricing; seeing one here
                // means the state bookkeeping is corrupt. Surface it as a
                // recorded solver failure instead of tearing the process down.
                VarState::Basic(_) => return PhaseEnd::Stalled,
            };
            self.compute_direction(j_enter);
            // --- Ratio test. ---
            // Entering variable's own range allows a bound flip.
            let own_range = self.ub[j_enter] - self.lb[j_enter];
            let t_own = if own_range.is_finite() { own_range } else { f64::INFINITY };
            let (leave, t_max) = self.ratio_test(sigma, t_own);
            if t_max.is_infinite() {
                return PhaseEnd::Unbounded;
            }
            let t = t_max.max(0.0);
            self.degenerate_streak = if t <= FEAS_TOL { self.degenerate_streak + 1 } else { 0 };
            // --- Apply the step. ---
            let Workspace { w, basic_x, class, basic_lb, basic_ub, .. } = &mut *self.ws;
            for (xb, wk) in basic_x.iter_mut().zip(w.iter()) {
                *xb -= sigma * t * wk;
            }
            match leave {
                None => {
                    // Bound flip: entering variable crosses to its other bound.
                    self.x[j_enter] += sigma * t;
                    self.state[j_enter] = match self.state[j_enter] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        other => other,
                    };
                    class[j_enter] =
                        class_of(self.state[j_enter], self.lb[j_enter], self.ub[j_enter]);
                }
                Some((pos, hits_upper)) => {
                    let piv = w[pos];
                    if piv.abs() < PIVOT_TOL {
                        // Numerically unusable pivot: refactorize and retry.
                        if !self.refactorize() {
                            return PhaseEnd::Stalled;
                        }
                        continue;
                    }
                    let j_leave = self.basis[pos];
                    // Entering becomes basic at its new value.
                    self.x[j_enter] += sigma * t;
                    self.state[j_enter] = VarState::Basic(pos);
                    class[j_enter] = NEVER;
                    basic_x[pos] = self.x[j_enter];
                    basic_lb[pos] = self.lb[j_enter];
                    basic_ub[pos] = self.ub[j_enter];
                    // Leaving variable lands exactly on a bound.
                    self.x[j_leave] = if hits_upper { self.ub[j_leave] } else { self.lb[j_leave] };
                    self.state[j_leave] =
                        if hits_upper { VarState::AtUpper } else { VarState::AtLower };
                    class[j_leave] =
                        class_of(self.state[j_leave], self.lb[j_leave], self.ub[j_leave]);
                    self.basis[pos] = j_enter;
                    self.update_inverse(pos, piv);
                    self.pivots_since_refactor += 1;
                }
            }
        }
    }

    /// Column `j`'s reduced cost `c_j - a_jᵀy` under the running phase's
    /// costs, from the `Aᵀy` of the structurals and `y` itself otherwise.
    fn reduced_cost(&self, j: usize) -> f64 {
        let Workspace { cols, y, aty, cost, .. } = &*self.ws;
        let (n, nm) = (cols.n, cols.n + cols.m);
        cost[j]
            - if j < n {
                aty[j]
            } else if j < nm {
                y[j - n]
            } else {
                cols.art_signs[j - nm] * y[cols.art_rows[j - nm]]
            }
    }

    /// Pricing: the entering column and its reduced cost, or `None` at
    /// optimality. Dantzig's rule takes the largest [`score`], the first
    /// column of a tie; Bland's takes the first eligible column. Either way
    /// the scan reads the class, cost and price arrays front to back, the
    /// structurals' price being `Aᵀy` and the slacks' `y`.
    fn price(&self, use_bland: bool) -> Option<(usize, f64)> {
        let Workspace { cols, y, aty, cost, class, .. } = &*self.ws;
        let (n, nm, total) = (cols.n, cols.n + cols.m, cols.total());
        let j = if use_bland {
            (0..total).find(|&j| score(class[j], self.reduced_cost(j)) > OPT_TOL)?
        } else {
            let mut first = FirstMax::new(OPT_TOL);
            first.scan(0, &class[..n], cost, aty);
            first.scan(n, &class[n..nm], &cost[n..], y);
            for (j, &class) in class.iter().enumerate().skip(nm) {
                first.offer(j % LANES, j, score(class, self.reduced_cost(j)));
            }
            first.winner()?.0
        };
        Some((j, self.reduced_cost(j)))
    }

    /// Ratio test for a step along `-sigma w` with the entering column's own
    /// range `t_own`: the basis position that leaves first and whether it
    /// hits its upper bound (`None`: the entering column flips bounds), and
    /// the step length. A position whose `|sigma wₖ|` exceeds `PIVOT_TOL`
    /// offers `(xₖ - lₖ) / wₖ` as it falls or `(uₖ - xₖ) / -wₖ` as it rises
    /// (an infinite bound offers `∞`); the first strict minimum below
    /// `t_own` leaves. [`FirstMax`] finds it as the maximum of the negated
    /// steps, over the basis-position arrays.
    #[inline(never)]
    fn ratio_test(&self, sigma: f64, t_own: f64) -> (Option<(usize, bool)>, f64) {
        let Workspace { w, basic_x, basic_lb, basic_ub, .. } = &*self.ws;
        let m = w.len();
        let (x, l, u) = (&basic_x[..m], &basic_lb[..m], &basic_ub[..m]);
        let mut first = FirstMax::new(-t_own);
        let ((w4, _), (x4, _)) = (w.as_chunks::<LANES>(), x.as_chunks::<LANES>());
        let ((l4, _), (u4, _)) = (l.as_chunks::<LANES>(), u.as_chunks::<LANES>());
        for (k, ((w, x), (l, u))) in w4.iter().zip(x4).zip(l4.iter().zip(u4)).enumerate() {
            let mut steps = [0.0; LANES];
            for i in 0..LANES {
                steps[i] = neg_step(sigma * w[i], x[i], l[i], u[i]);
            }
            first.offer_chunk(k * LANES, steps);
        }
        let body = m - m % LANES;
        for k in body..m {
            first.offer(k - body, k, neg_step(sigma * w[k], x[k], l[k], u[k]));
        }
        match first.winner() {
            Some((pos, neg)) => (Some((pos, sigma * w[pos] < 0.0)), -neg),
            None => (None, t_own),
        }
    }

    /// Product-form update of the inverse for a pivot at `pos`. Row `pos`
    /// is zero outside the active columns and its own diagonal, so once
    /// column `pos` is active the update writes active slots only.
    fn update_inverse(&mut self, pos: usize, piv: f64) {
        let Workspace { inv, w, packed, .. } = &mut *self.ws;
        if inv.slot_of[pos] == NONE {
            let s = inv.add_slot(pos);
            *inv.at(pos, s) = inv.lone[pos];
        }
        inv.row_mut(pos).iter_mut().for_each(|v| *v /= piv);
        packed.clear();
        packed.extend_from_slice(inv.row(pos));
        for (r, &f) in w.iter().enumerate() {
            if r == pos || f == 0.0 {
                continue;
            }
            inv.row_mut(r).iter_mut().zip(packed.iter()).for_each(|(b, p)| *b -= f * p);
        }
    }
}

/// Solves a standard-form LP with the two-phase simplex method.
///
/// Rows are equilibrated (scaled by their infinity norm) before solving so
/// that formulations mixing very large and very small coefficients (e.g.
/// CVaR rows with `1/(1-β)` weights) stay numerically stable; duals are
/// mapped back to the caller's row scaling.
pub fn solve(lp: &StandardLp, cfg: &SimplexConfig) -> Solution {
    solve_warm(lp, cfg, None)
}

/// [`solve`] with an optional starting basis from a previous solve of a
/// structurally identical LP (bounds and right-hand sides may differ).
///
/// A fitting, feasible basis skips phase 1 entirely and typically finishes
/// in a handful of phase-2 pivots; anything else (wrong dimensions,
/// singular after the data change, primal infeasible under the new
/// bounds) is reported as [`WarmEvent::Miss`] and solved cold.
pub(crate) fn solve_warm(lp: &StandardLp, cfg: &SimplexConfig, warm: Option<&Basis>) -> Solution {
    solve_warm_in(lp, cfg, warm, &mut Workspace::default())
}

/// [`solve_warm`] on the caller's [`Workspace`]; the result does not
/// depend on what the workspace held before.
pub(crate) fn solve_warm_in(
    lp: &StandardLp,
    cfg: &SimplexConfig,
    warm: Option<&Basis>,
    ws: &mut Workspace,
) -> Solution {
    // Row equilibration. Scaling rows does not change which columns form a
    // nonsingular basis, so the warm basis passes through unchanged.
    let row_norms = lp.a.row_inf_norms();
    let needs_scaling = row_norms.iter().any(|&v| v > 0.0 && !(1e-3..=1e3).contains(&v));
    if needs_scaling {
        let scale: Vec<f64> =
            row_norms.iter().map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 }).collect();
        let mut scaled = lp.clone();
        let ones = vec![1.0; lp.num_vars()];
        scaled.a.scale(&scale, &ones);
        for (r, s) in scaled.rhs.iter_mut().zip(&scale) {
            *r *= s;
        }
        let mut sol = solve_unscaled(&scaled, cfg, warm, ws);
        for (d, s) in sol.duals.iter_mut().zip(&scale) {
            *d *= s;
        }
        return sol;
    }
    solve_unscaled(lp, cfg, warm, ws)
}

fn solve_unscaled(
    lp: &StandardLp,
    cfg: &SimplexConfig,
    warm: Option<&Basis>,
    ws: &mut Workspace,
) -> Solution {
    let n = lp.num_vars();
    let m = lp.num_cons();
    let max_iters = if cfg.max_iters == 0 { 200 + 20 * (n + m) } else { cfg.max_iters };

    // Trivial case: no constraints — each variable sits at its best bound.
    if m == 0 {
        let mut x = vec![0.0; n];
        for (j, xj) in x.iter_mut().enumerate().take(n) {
            let c = lp.obj[j];
            *xj = if c > 0.0 {
                lp.lb[j]
            } else if c < 0.0 {
                lp.ub[j]
            } else if lp.lb[j].is_finite() {
                lp.lb[j]
            } else {
                lp.ub[j].min(0.0).max(lp.lb[j])
            };
            if !xj.is_finite() {
                return Solution::failed(Status::Unbounded, n);
            }
        }
        let obj: f64 = x.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
        return Solution {
            status: Status::Optimal,
            x,
            objective: lp.user_objective(obj),
            duals: vec![],
            basis: None,
            stats: base_stats(lp),
        };
    }

    // Warm path: reinstall the basis against the new data; accept it only
    // when it comes up primal feasible (phase 1 cannot repair an
    // artificial-free start, so feasibility is the admission ticket).
    if let Some(basis) = warm {
        if let Some(s) = Simplex::from_basis(lp, cfg, basis, ws) {
            let rhs_max = lp.rhs.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            if s.infeasibility() <= FEAS_TOL * (1.0 + rhs_max) {
                let mut sol = solve_prepared(s, max_iters);
                // Numerical trouble from a warm basis is recoverable: retry
                // cold rather than surfacing the failure.
                if sol.status != Status::NumericalTrouble {
                    sol.stats.warm = WarmEvent::Hit;
                    return sol;
                }
            }
        }
        let mut sol = solve_prepared(Simplex::new(lp, cfg, ws), max_iters);
        sol.stats.warm = WarmEvent::Miss;
        return sol;
    }
    solve_prepared(Simplex::new(lp, cfg, ws), max_iters)
}

/// Baseline stats describing the problem; counters are filled by the solve.
fn base_stats(lp: &StandardLp) -> SolveStats {
    SolveStats {
        rows: lp.num_cons(),
        cols: lp.num_vars(),
        nnz: lp.a.nnz(),
        backend: BackendKind::Simplex,
        ..SolveStats::default()
    }
}

/// Runs both phases on an already-constructed solver state and extracts the
/// solution. Phase 1 runs only when the starting point is infeasible or
/// carries artificial columns (a feasible warm basis skips it entirely).
fn solve_prepared(mut s: Simplex<'_>, max_iters: usize) -> Solution {
    let lp = s.lp;
    let n = lp.num_vars();
    let m = lp.num_cons();
    // Phase 1: minimize total infeasibility via artificial costs plus
    // penalties on any basic variable that starts outside its bounds.
    let nm = n + m;
    let arts = nm..nm + s.ws.cols.art_rows.len();
    if s.infeasibility() > FEAS_TOL || !arts.is_empty() {
        s.load_phase(|j| if j >= nm { 1.0 } else { 0.0 });
        match s.run_phase(max_iters) {
            PhaseEnd::Optimal => {}
            PhaseEnd::Unbounded => {
                // Phase-1 objective is bounded below by zero; an "unbounded"
                // report here is numerical noise. Treat as stalled.
                return Solution::failed(Status::NumericalTrouble, n);
            }
            PhaseEnd::IterLimit => return Solution::failed(Status::IterationLimit, n),
            PhaseEnd::Stalled => return Solution::failed(Status::NumericalTrouble, n),
        }
        let art_total: f64 = s.x[arts.clone()].iter().sum();
        if art_total > FEAS_TOL * 10.0 * (1.0 + lp.rhs.iter().map(|r| r.abs()).fold(0.0, f64::max))
        {
            return Solution::failed(Status::Infeasible, n);
        }
        // Pin artificials to zero for phase 2.
        for j in arts {
            s.lb[j] = 0.0;
            s.ub[j] = 0.0;
            if !matches!(s.state[j], VarState::Basic(_)) {
                s.x[j] = 0.0;
                s.state[j] = VarState::AtLower;
            }
        }
    }

    // Phase 2: the real objective (structural columns only).
    s.load_phase(|j| if j < n { lp.obj[j] } else { 0.0 });
    let end = s.run_phase(max_iters);
    let status = match end {
        PhaseEnd::Optimal => Status::Optimal,
        PhaseEnd::Unbounded => Status::Unbounded,
        PhaseEnd::IterLimit => Status::IterationLimit,
        PhaseEnd::Stalled => Status::NumericalTrouble,
    };
    let stats = |s: &Simplex<'_>| SolveStats {
        iterations: s.iterations,
        refactors: s.refactors,
        ..base_stats(lp)
    };
    if !matches!(status, Status::Optimal) {
        // On an iteration limit the current (feasible) iterate is still a
        // meaningful answer; other failures return no point.
        let mut sol = if matches!(status, Status::IterationLimit) {
            let x: Vec<f64> = s.x[..n].to_vec();
            let min_obj: f64 = x.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
            Solution {
                status,
                objective: lp.user_objective(min_obj),
                x,
                duals: Vec::new(),
                basis: None,
                stats: base_stats(lp),
            }
        } else {
            Solution::failed(status, n)
        };
        sol.stats = stats(&s);
        return sol;
    }
    // Final cleanup: refresh values through one refactorization for
    // accuracy. The in-place elimination leaves no inverse behind when it
    // meets a singular pivot, so there is nothing to price the duals with.
    if !s.refactorize() {
        let mut sol = Solution::failed(Status::NumericalTrouble, n);
        sol.stats = stats(&s);
        return sol;
    }
    s.sync_x();
    s.compute_duals();
    let x: Vec<f64> = s.x[..n].to_vec();
    let min_obj: f64 = x.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
    Solution {
        status: Status::Optimal,
        objective: lp.user_objective(min_obj),
        duals: s.ws.y.iter().map(|&v| lp.obj_sign * v).collect(),
        basis: Some(s.snapshot_basis()),
        x,
        stats: stats(&s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense, INF};
    use std::cell::Cell;

    thread_local! {
        /// Pivots [`check_pricing`] compared on this thread: Dantzig with one
        /// column at the top score, Dantzig with a tie at the top, Bland.
        static PRICED: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
    }

    /// The one-pass scan [`Simplex::price`] replaced, kept as its
    /// reference: every nonbasic column that is not fixed, matched on its
    /// state; the first strict maximum (Dantzig) or the first eligible
    /// column (Bland). Also counts the columns at the top score.
    fn price_reference(s: &Simplex<'_>, use_bland: bool) -> (Option<(usize, f64)>, usize) {
        let Workspace { cols, y, aty, cost, .. } = &*s.ws;
        let (n, nm) = (cols.n, cols.n + cols.m);
        let mut enter: Option<(usize, f64, f64)> = None; // (col, reduced cost, score)
        let mut scores = Vec::new();
        for j in 0..cols.total() {
            let st = s.state[j];
            let fixed = s.ub[j] - s.lb[j] <= FEAS_TOL && s.ub[j].is_finite();
            if matches!(st, VarState::Basic(_)) || fixed {
                continue;
            }
            let d = cost[j]
                - if j < n {
                    aty[j]
                } else if j < nm {
                    y[j - n]
                } else {
                    cols.art_signs[j - nm] * y[cols.art_rows[j - nm]]
                };
            let score = match st {
                VarState::AtLower if d < -OPT_TOL => -d,
                VarState::AtUpper if d > OPT_TOL => d,
                VarState::FreeAtZero if d.abs() > OPT_TOL => d.abs(),
                _ => continue,
            };
            scores.push(score);
            if use_bland {
                enter = Some((j, d, score));
                break;
            }
            if enter.is_none_or(|(_, _, s)| score > s) {
                enter = Some((j, d, score));
            }
        }
        let ties = enter.map_or(0, |(_, _, top)| scores.iter().filter(|&&s| s == top).count());
        (enter.map(|(j, d, _)| (j, d)), ties)
    }

    /// Run by [`Simplex::iterate`] at every pivot of every solve in these
    /// tests: the pricing it took must be the reference scan's, column and
    /// reduced-cost bits.
    pub(super) fn check_pricing(s: &Simplex<'_>, use_bland: bool, got: Option<(usize, f64)>) {
        let (want, ties) = price_reference(s, use_bland);
        let bits = |e: Option<(usize, f64)>| e.map(|(j, d)| (j, d.to_bits()));
        assert_eq!(bits(got), bits(want), "pricing (Bland: {use_bland}) left the reference scan");
        let kind = if use_bland { 2 } else { usize::from(ties > 1) };
        PRICED.with(|c| {
            let mut counts = c.get();
            counts[kind] += 1;
            c.set(counts);
        });
    }

    /// A seeded LP where pricing ties are the rule: every column repeats
    /// one of a few templates (same entries, same cost), and the copies
    /// cycle through nonnegative, boxed, free and fixed bounds. Rows mix
    /// senses, so phase 1 has artificials to price too.
    fn tie_heavy_lp(seed: u64) -> Model {
        let mut state = seed;
        let mut draw = move |k: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % k
        };
        let mut m = Model::new();
        let rows = 3 + draw(6) as usize;
        let mut row_exprs = vec![LinExpr::new(); rows];
        let mut obj = LinExpr::new();
        for t in 0..3 + draw(4) {
            let mut entries = Vec::new();
            for r in 0..rows {
                if draw(3) != 0 {
                    entries.push((r, if draw(4) == 0 { -1.0 } else { 1.0 + draw(2) as f64 }));
                }
            }
            let cost = draw(5) as f64 - 3.0;
            for copy in 0..2 + draw(3) {
                let (lb, ub) = match (t + copy) % 4 {
                    0 => (0.0, INF),
                    1 => (0.0, 1.0 + draw(2) as f64),
                    2 => (-INF, INF),
                    _ => (1.0, 1.0),
                };
                let v = m.add_var(lb, ub);
                for &(r, a) in &entries {
                    row_exprs[r].add_term(v, a);
                }
                obj.add_term(v, cost);
            }
        }
        for (r, expr) in row_exprs.into_iter().enumerate() {
            let sense = [Sense::Le, Sense::Le, Sense::Ge, Sense::Eq][r % 4];
            m.add_con(expr, sense, 2.0 + draw(6) as f64);
        }
        m.set_objective(obj, Objective::Minimize);
        m
    }

    #[test]
    fn lane_pricing_matches_the_one_pass_scan_at_every_pivot() {
        let (dantzig, bland) = (
            SimplexConfig::default(),
            SimplexConfig { degenerate_before_bland: 0, ..Default::default() },
        );
        // Ten unit boxes under one loose row, all at the same cost: every
        // pivot is a tie, and every entering column flips to its upper
        // bound, after which it may not price again.
        let mut flips = Model::new();
        let boxes: Vec<_> = (0..10).map(|_| flips.add_var(0.0, 1.0)).collect();
        flips.add_con(LinExpr::sum_vars(boxes.iter().copied()), Sense::Le, 100.0);
        flips.set_objective(LinExpr::sum_vars(boxes), Objective::Maximize);
        PRICED.with(|c| c.set([0; 3]));
        for cfg in [&dantzig, &bland] {
            let s = solve(&flips.to_standard(), cfg);
            assert_eq!(s.status, Status::Optimal);
            assert_eq!(s.objective, 10.0);
            assert_eq!(s.stats.iterations, 11, "ten flips and the optimality check");
            for seed in 0..40 {
                solve(&tie_heavy_lp(seed).to_standard(), cfg);
            }
        }
        let [single, tied, bland] = PRICED.with(Cell::get);
        assert!(single >= 100 && tied >= 100 && bland >= 100, "{single} / {tied} / {bland}");
    }

    fn solve_model(m: &Model) -> Solution {
        solve(&m.to_standard(), &SimplexConfig::default())
    }

    #[test]
    fn textbook_max_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => obj 36 at (2,6)
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0);
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0);
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 2 => x=6, y=4, obj 10
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, 10.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(y, -1.0), Sense::Eq, 2.0);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[0] - 6.0).abs() < 1e-6);
        assert!((s.x[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 => obj 20 at (10, 0)
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Ge, 10.0);
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 2.0);
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 3.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 5.0);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        assert_eq!(solve_model(&m).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        m.add_con(LinExpr::term(x, -1.0), Sense::Le, 0.0);
        assert_eq!(solve_model(&m).status, Status::Unbounded);
    }

    #[test]
    fn upper_bounded_variables_flip() {
        // max x + y, x <= 3 (bound), y <= 2 (bound), x + y <= 4
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0);
        let y = m.add_var(0.0, 2.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 4.0);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn free_variables() {
        // min x s.t. x >= -5 (via constraint, variable itself free)
        let mut m = Model::new();
        let x = m.add_var(-INF, INF);
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, -5.0);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_equalities() {
        // x + y = -3 with free vars; min x^2-ish proxy: min x - y
        let mut m = Model::new();
        let x = m.add_var(-10.0, 10.0);
        let y = m.add_var(-10.0, 10.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, -3.0);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, -1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        // Optimal pushes x to -10, y to 7.
        assert!((s.x[0] + 10.0).abs() < 1e-6);
        assert!((s.x[1] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn duals_satisfy_complementary_slackness() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 10.0);
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 100.0);
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6);
        // Loose constraint must have zero dual.
        assert!(s.duals[1].abs() < 1e-6, "duals {:?}", s.duals);
        // Tight constraint dual equals marginal value 2.
        assert!((s.duals[0] - 2.0).abs() < 1e-6, "duals {:?}", s.duals);
    }

    #[test]
    fn warm_restart_on_same_lp_hits_and_matches() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0);
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0);
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        let lp = m.to_standard();
        let cold = solve(&lp, &SimplexConfig::default());
        assert_eq!(cold.status, Status::Optimal);
        let basis = cold.basis.clone().expect("optimal solve records a basis");
        assert_eq!(basis.num_basic(), lp.num_cons());
        let warm = solve_warm(&lp, &SimplexConfig::default(), Some(&basis));
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(warm.stats.warm, crate::warm::WarmEvent::Hit);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        // An optimal starting basis needs no pivots beyond the optimality
        // check, so warm iterations must not exceed the cold count.
        assert!(warm.stats.iterations <= cold.stats.iterations);
    }

    #[test]
    fn warm_survives_bound_and_rhs_changes() {
        // Perturb demand-like bounds and rhs between solves: the basis
        // snapshot is data-independent, so it should still warm-start.
        let build = |x_ub: f64, cap: f64| {
            let mut m = Model::new();
            let x = m.add_var(0.0, x_ub);
            let y = m.add_var(0.0, 7.0);
            m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, cap);
            m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
            m.to_standard()
        };
        let basis = solve(&build(5.0, 9.0), &SimplexConfig::default()).basis.expect("basis");
        let lp = build(6.0, 10.0);
        let warm = solve_warm(&lp, &SimplexConfig::default(), Some(&basis));
        let cold = solve(&lp, &SimplexConfig::default());
        assert_eq!(warm.status, Status::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn mismatched_warm_basis_is_a_miss_not_a_failure() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 3.0);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let bogus = crate::warm::Basis { cols: vec![crate::warm::ColStatus::Basic; 7] };
        let s = solve_warm(&m.to_standard(), &SimplexConfig::default(), Some(&bogus));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_warm_basis_falls_back_cold() {
        // Shrink a bound so the recorded BASIC variable's recomputed value
        // lands outside its box: the warm install must reject and re-solve
        // cold (phase 1 cannot repair an artificial-free infeasible start).
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, 8.0);
        m.set_objective(LinExpr::term(y, 1.0), Objective::Maximize);
        let cold = solve(&m.to_standard(), &SimplexConfig::default());
        assert!((cold.x[1] - 8.0).abs() < 1e-9); // y basic at 8
        let basis = cold.basis.expect("basis");
        let mut m2 = m.clone();
        m2.set_bounds(y, 0.0, 5.0); // basic y recomputes to 8 > ub 5
        let s = solve_warm(&m2.to_standard(), &SimplexConfig::default(), Some(&basis));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn stats_report_problem_shape() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 5.0);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.stats.rows, 1);
        assert_eq!(s.stats.cols, 2);
        assert_eq!(s.stats.nnz, 2);
        assert_eq!(s.stats.backend, crate::warm::BackendKind::Simplex);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Cold);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints intersecting at the same vertex.
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        for i in 0..20 {
            m.add_con(LinExpr::new().add(x, 1.0 + (i as f64) * 1e-9).add(y, 1.0), Sense::Le, 1.0);
        }
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-5);
    }
}
