package lp

import "slices"

// DualBounder produces a nonincreasing sequence of valid upper bounds on a
// packing LP's optimum, mirroring how a dual LP solver approaches the optimum
// from above (Section 9, "early stop"). Any y ≥ 0 certifies the Lagrangian
// bound  UB(y) = Σ_i y_i b_i + Σ_k max(0, c_k − Σ_i y_i A_ik)·u_k ≥ OPT,
// so every bound returned is safe for pruning races; exact values still come
// from the simplex.
//
// Only the rows live at the bounder's capacity carry a multiplier: a row with
// Σ coef·u ≤ b is slack at every point of the box, so its y_i is fixed at 0
// and it is left out entirely. The bounder works over the variables of the
// live rows in a compact local numbering; every other variable with c_k > 0
// sits at its upper bound at every y and contributes the constant base.
//
// The first Tighten call minimizes UB over uniform multipliers y ≡ λ exactly
// (a 1-D convex piecewise-linear problem solved over its breakpoints); later
// calls run projected subgradient steps from there, each a Polyak step toward
// the target set by SetTarget. Steps reuse the bounder's own scratch, so after
// the first call Tighten allocates nothing.
type DualBounder struct {
	rows []Row     // live rows; Idx local, Coef shared with the grid
	c, u []float64 // objective and upper bounds of the local variables
	colA []float64 // Σ_i A_ik over the live rows, per local variable
	base float64   // Σ c·u over positive-c variables in no live row
	y    []float64 // one multiplier per live row
	best float64
	w    float64 // target level of the subgradient steps
	init bool

	// per-step scratch
	red    []float64 // reduced costs c − yᵀA
	active []bool    // red > 0
	g      []float64 // subgradient, per live row
}

// NewDualBounder prepares a bounder for p, or returns nil if p is not a valid
// packing LP (Validate). It is the grid bounder of a grid with no τ-rows, so
// it shares one construction path with GridSolver.Bounder: the bound sequence
// of NewDualBounder on a problem materialized at τ equals that of the grid's
// Bounder(τ) bit for bit. The initial bound is the trivial y = 0 bound
// Σ_k max(c_k,0)·u_k.
func NewDualBounder(p *Problem) *DualBounder {
	g, err := NewGridSolver(p, nil)
	if err != nil {
		return nil
	}
	return g.Bounder(0)
}

// Bounder returns a DualBounder for the grid's problem at capacity τ. It
// bounds only the rows live at τ — eligible rows, minus τ-rows whose
// Σ coef·u ≤ τ (the redundancy rule SolveTau applies) — over the grid's
// merged rows, whose index/coefficient slices it shares.
func (g *GridSolver) Bounder(tau float64) *DualBounder {
	p := g.p
	isLive := func(i int) bool { return g.rowLive[i] && !(g.tauRow[i] && g.rowSum[i] <= tau) }
	m, nnz := 0, 0
	for i := range g.rowIdx {
		if isLive(i) {
			m++
			nnz += len(g.rowIdx[i])
		}
	}

	// Number the live rows' variables by first appearance. local holds
	// id+1, so 0 marks a variable in no live row.
	local := make([]int32, p.NumVars)
	idxBack := make([]int, nnz)
	nv := min(nnz, p.NumVars)
	d := &DualBounder{
		rows: make([]Row, 0, m), y: make([]float64, m), g: make([]float64, m),
		c: make([]float64, 0, nv), u: make([]float64, 0, nv), colA: make([]float64, 0, nv),
	}
	for i := range g.rowIdx {
		if !isLive(i) {
			continue
		}
		idx := idxBack[:len(g.rowIdx[i]):len(g.rowIdx[i])]
		idxBack = idxBack[len(idx):]
		for j, k := range g.rowIdx[i] {
			if local[k] == 0 {
				d.c = append(d.c, p.C[k])
				d.u = append(d.u, p.UB[k])
				d.colA = append(d.colA, 0)
				local[k] = int32(len(d.c))
			}
			idx[j] = int(local[k] - 1)
			d.colA[idx[j]] += g.rowCf[i][j]
		}
		b := p.Rows[i].B
		if g.tauRow[i] {
			b = tau
		}
		d.rows = append(d.rows, Row{Idx: idx, Coef: g.rowCf[i], B: b})
	}
	for k := 0; k < p.NumVars; k++ {
		if c := p.C[k]; c > 0 {
			d.best += c * p.UB[k]
			if local[k] == 0 {
				d.base += c * p.UB[k]
			}
		}
	}
	d.red = make([]float64, len(d.c))
	d.active = make([]bool, len(d.c))
	return d
}

// Bound returns the best (smallest) upper bound proven so far.
func (d *DualBounder) Bound() float64 { return d.best }

// SetTarget sets the level w the subgradient steps aim for. Each step moves
// y by the Polyak step polyakTheta·(UB(y) − w)/‖g‖² along the subgradient g,
// so a reachable w (one at or above the optimum) is approached directly.
// core.Run aims at the bound that would prune the race. The default, 0, is a
// lower bound on every packing LP's optimum. The target only steers the
// search: every returned bound is valid whatever w is.
func (d *DualBounder) SetTarget(w float64) { d.w = w }

// polyakTheta is the Polyak step's relaxation factor, inside the (0, 2)
// range where the method converges to the target level.
const polyakTheta = 1.5

// Tighten improves the bound with up to iters refinement steps and returns
// the new best bound. The sequence of returned values is nonincreasing.
func (d *DualBounder) Tighten(iters int) float64 {
	if !d.init {
		d.init = true
		d.uniform()
		iters--
	}
	for ; iters > 0; iters-- {
		d.subgradientStep()
	}
	return d.best
}

// breakpoint is where a variable's reduced cost c_k − λ·a_k crosses zero:
// at λ < lam the variable is active.
type breakpoint struct{ lam, cu, au float64 }

// uniform minimizes UB(λ·1) exactly over λ ≥ 0.
func (d *DualBounder) uniform() {
	sumB := 0.0
	for _, r := range d.rows {
		sumB += r.B
	}
	bps := make([]breakpoint, 0, len(d.c))
	base := d.base // plus local variables never deactivated (a_k = 0)
	for k, c := range d.c {
		if d.u[k] <= 0 {
			continue
		}
		if d.colA[k] == 0 {
			base += c * d.u[k]
			continue
		}
		bps = append(bps, breakpoint{lam: c / d.colA[k], cu: c * d.u[k], au: d.colA[k] * d.u[k]})
	}
	slices.SortFunc(bps, func(a, b breakpoint) int {
		switch {
		case a.lam < b.lam:
			return -1
		case a.lam > b.lam:
			return 1
		}
		return 0
	})

	// Sweep λ over candidate breakpoints from low to high, maintaining the
	// active set {k : c_k/a_k > λ}.
	evalAt := func(lam, activeCU, activeAU float64) float64 {
		return lam*sumB + base + activeCU - lam*activeAU
	}
	var cu, au float64
	for _, b := range bps {
		cu += b.cu
		au += b.au
	}
	bestUB := evalAt(0, cu, au) // λ=0: everything active
	bestLam := 0.0
	// Candidates: each breakpoint value; active set = vars with lam > candidate.
	for i := 0; i < len(bps); {
		lam := bps[i].lam
		// Deactivate all vars with breakpoint ≤ lam.
		for i < len(bps) && bps[i].lam <= lam {
			cu -= bps[i].cu
			au -= bps[i].au
			i++
		}
		if ub := evalAt(lam, cu, au); ub < bestUB {
			bestUB = ub
			bestLam = lam
		}
	}
	for j := range d.y {
		d.y[j] = bestLam
	}
	if bestUB < d.best {
		d.best = bestUB
	}
}

// subgradientStep performs one projected subgradient step on UB(y) and
// records the bound if it improved.
func (d *DualBounder) subgradientStep() {
	// Reduced costs under current y.
	red := d.red
	copy(red, d.c)
	for i, r := range d.rows {
		if d.y[i] == 0 {
			continue
		}
		for j, k := range r.Idx {
			red[k] -= d.y[i] * r.Coef[j]
		}
	}
	// Current bound and subgradient g_i = b_i − Σ_{k active} A_ik u_k.
	ub := d.base
	for k, rk := range red {
		d.active[k] = rk > 0
		if rk > 0 {
			ub += rk * d.u[k]
		}
	}
	gnorm := 0.0
	for i, r := range d.rows {
		ub += d.y[i] * r.B
		gi := r.B
		for j, k := range r.Idx {
			if d.active[k] {
				gi -= r.Coef[j] * d.u[k]
			}
		}
		d.g[i] = gi
		gnorm += gi * gi
	}
	if ub < d.best {
		d.best = ub
	}
	if gnorm == 0 || ub <= d.w {
		return
	}
	step := polyakTheta * (ub - d.w) / gnorm
	for i := range d.y {
		d.y[i] -= step * d.g[i]
		if d.y[i] < 0 {
			d.y[i] = 0
		}
	}
}
