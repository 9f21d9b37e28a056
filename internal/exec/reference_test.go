package exec

import (
	"r2t/internal/plan"
	"r2t/internal/storage"
	"r2t/internal/value"
)

// runReference evaluates a plan by brute-force nested-loop enumeration with
// no indexes, no join ordering, and no pushdown. It exists purely as a
// correctness oracle for the hash-join executor in tests; it is exponential
// in the number of atoms and must only be used on tiny instances.
func runReference(p *plan.Plan, inst *storage.Instance) (*Result, error) {
	filters := make([]boolFn, len(p.Filters))
	for i, f := range p.Filters {
		fn, err := compileBool(f.Expr, p)
		if err != nil {
			return nil, err
		}
		filters[i] = fn
	}
	var sumFn scalarFn
	if p.SumExpr != nil {
		fn, err := compileScalar(p.SumExpr, p)
		if err != nil {
			return nil, err
		}
		sumFn = fn
	}

	res := &Result{Plan: p}
	isProj := len(p.ProjVars) > 0
	res.IsProjection = isProj
	projKeys := make(map[string]int)
	intern := newRefInterner()

	asg := make([]value.V, p.NumVars)
	bound := make([]bool, p.NumVars)
	var recurse func(atom int) error
	recurse = func(atom int) error {
		if atom == len(p.Atoms) {
			for _, f := range filters {
				if !f(asg) {
					return nil
				}
			}
			psi := 1.0
			if sumFn != nil {
				v := sumFn(asg)
				psi = v.AsFloat()
				if psi < 0 {
					psi = 0
				}
			}
			row := JoinRow{Psi: psi}
			for i, pk := range p.PrivPK {
				if pk < 0 {
					continue
				}
				id := intern.id(TupleRef{Rel: p.Atoms[i].Rel.Name, Key: asg[pk].Key()})
				dup := false
				for _, ex := range row.RefIDs {
					if ex == id {
						dup = true
					}
				}
				if !dup {
					row.RefIDs = append(row.RefIDs, id)
				}
			}
			k := len(res.Rows)
			res.Rows = append(res.Rows, row)
			if isProj {
				var buf []byte
				for _, v := range p.ProjVars {
					buf = appendValueKey(buf, asg[v])
				}
				ks := string(buf)
				l, ok := projKeys[ks]
				if !ok {
					l = len(res.Groups)
					projKeys[ks] = l
					res.Groups = append(res.Groups, nil)
					res.GroupPsi = append(res.GroupPsi, 1)
				}
				res.Groups[l] = append(res.Groups[l], k)
			}
			return nil
		}
		a := p.Atoms[atom]
		table := inst.Table(a.Rel.Name)
		for _, trow := range table.Rows {
			ok := true
			var newly []int
			for col, v := range a.Vars {
				if bound[v] {
					if !value.Equal(asg[v], trow[col]) {
						ok = false
						break
					}
					continue
				}
				asg[v] = trow[col]
				bound[v] = true
				newly = append(newly, v)
			}
			if ok {
				if err := recurse(atom + 1); err != nil {
					return err
				}
			}
			for _, v := range newly {
				bound[v] = false
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	res.Universe = intern.order
	return res, nil
}
