package engine

import "strings"

// Statistics-free join planning. The engine keeps no cardinality stats, so
// the planner orders multi-way joins greedily from what the query text
// already reveals (ROADMAP item 1, after the "When Greedy Beats Optimal"
// result): a relation narrowed by an equality filter joins before one
// narrowed by a range filter, which joins before an unfiltered one; ties
// break toward the smaller declared schema, then written order. Correctness
// does not rest on the heuristic: reordered execution tags every input row
// with a hidden rowid and restores the written-order output ordering with a
// final sort, so results are bit-identical to written-order execution.
//
// The same pass pushes single-table WHERE conjuncts below the joins (which
// both feeds the heuristic and shrinks join inputs). Pushing a conjunct
// onto the right side of a LEFT JOIN would turn filtered rows into
// NULL-extended survivors, so those conjuncts stay in the residual filter.
// Last, every relation is narrowed to the columns the statement reads.

// plannedRel is one relation of the FROM/JOIN list at plan time.
type plannedRel struct {
	name  string
	alias string
	table *Table
	jc    *JoinClause // nil for the base relation
	// pushed is the AND of the WHERE conjuncts that reference only this
	// relation (in their written order); nil when none apply.
	pushed Expr
	// filterClass scores pushed for the greedy order: 2 equality/IN,
	// 1 any other filter (ranges and the rest), 0 unfiltered.
	filterClass int
}

// joinPlan is the planner's output for one SELECT's FROM/JOIN clauses.
type joinPlan struct {
	rels      []*plannedRel // written order: rels[0] is the base table
	order     []int         // execution order, indices into st.Joins
	reordered bool
	residual  Expr // WHERE conjuncts the post-join filter still applies
}

// planJoins resolves the statement's relations and decides the join order
// and filter placement. Reordering happens only when it is provably safe:
// two or more joins, all INNER, distinct aliases, and every ON clause
// resolvable at plan time; anything unclear keeps the written order (with
// filter pushdown still applied where sound).
func (c *catalog) planJoins(st *SelectStmt, reorder bool) (*joinPlan, error) {
	plan := &joinPlan{}
	base, err := c.table(st.From)
	if err != nil {
		return nil, err
	}
	alias := st.FromAlias
	if alias == "" {
		alias = st.From
	}
	plan.rels = append(plan.rels, &plannedRel{name: st.From, alias: alias, table: base})
	for i := range st.Joins {
		jc := &st.Joins[i]
		right, err := c.table(jc.Table)
		if err != nil {
			return nil, err
		}
		ra := jc.Alias
		if ra == "" {
			ra = jc.Table
		}
		plan.rels = append(plan.rels, &plannedRel{name: jc.Table, alias: ra, table: right, jc: jc})
	}
	plan.order = make([]int, len(st.Joins))
	for i := range plan.order {
		plan.order[i] = i
	}
	if len(st.Joins) == 0 {
		plan.residual = st.Where
		plan.narrow(st)
		return plan, nil
	}

	// Distribute WHERE conjuncts: single-relation conjuncts move below the
	// joins unless the relation is the right side of a LEFT JOIN.
	for _, c := range splitConjuncts(st.Where) {
		ri := plan.ownerOf(c)
		if ri < 0 || (ri > 0 && plan.rels[ri].jc.Left) {
			plan.residual = andExpr(plan.residual, c)
			continue
		}
		r := plan.rels[ri]
		r.pushed = andExpr(r.pushed, c)
		if cl := filterClassOf(c); cl > r.filterClass {
			r.filterClass = cl
		}
	}

	if reorder && len(st.Joins) >= 2 {
		plan.greedyOrder()
	}
	plan.narrow(st)
	return plan, nil
}

// narrow cuts every relation to the columns st reads, after the order's
// tie-break has read declared widths. SELECT *, a repeated alias or a name
// no single relation resolves keeps them whole: the statement runs as written.
func (p *joinPlan) narrow(st *SelectStmt) {
	if st.Star {
		return
	}
	keep := make([][]bool, len(p.rels))
	for i, r := range p.rels {
		for _, o := range p.rels[:i] {
			if strings.EqualFold(o.alias, r.alias) {
				return
			}
		}
		keep[i] = make([]bool, r.table.NumCols())
	}
	for _, name := range readColumns(st) {
		ri := p.resolveRel(name)
		if ri < 0 {
			return
		}
		if i := strings.IndexByte(name, '.'); i > 0 {
			name = name[i+1:]
		}
		keep[ri][p.rels[ri].table.Schema().ColIndex(name)] = true
	}
	for i, r := range p.rels {
		r.table = r.table.narrow(keep[i])
	}
}

// narrowed is t, the one relation of a join-free statement st, narrowed
// to the columns st reads as a join's relations are.
func narrowed(st *SelectStmt, t *Table) *Table {
	p := &joinPlan{rels: []*plannedRel{{alias: st.From, table: t}}}
	p.narrow(st)
	return p.rels[0].table
}

// greedyOrder picks the execution order: starting from the base relation,
// repeatedly append the eligible join clause whose relation has the best
// filter class, breaking ties toward the narrower declared schema and then
// written order. A clause is eligible once its ON condition is fully
// resolvable against the already-placed relations plus its own. Any
// analysis gap (LEFT joins, duplicate aliases, unresolvable ON references,
// ON equalities missing) leaves the written order untouched.
func (p *joinPlan) greedyOrder() {
	seen := map[string]bool{}
	for _, r := range p.rels {
		if r.jc != nil && r.jc.Left {
			return
		}
		a := strings.ToLower(r.alias)
		if seen[a] {
			return
		}
		seen[a] = true
	}
	// Written-order validation: clause i may reference only relations
	// 0..i+1. A query that errors in written order must keep erroring.
	for i, r := range p.rels[1:] {
		if !p.onResolvable(r.jc, i+2) {
			return
		}
	}
	placed := make([]bool, len(p.rels))
	placed[0] = true
	var order []int
	remaining := len(p.rels) - 1
	for remaining > 0 {
		best := -1
		for ji := 1; ji < len(p.rels); ji++ {
			if placed[ji] || !p.eligible(ji, placed) {
				continue
			}
			if best < 0 || p.better(ji, best) {
				best = ji
			}
		}
		if best < 0 {
			return // no connected clause: keep written order
		}
		placed[best] = true
		order = append(order, best-1)
		remaining--
	}
	for i, ji := range order {
		if ji != i {
			p.reordered = true
		}
	}
	p.order = order
}

// better reports whether relation a should join before relation b.
func (p *joinPlan) better(a, b int) bool {
	ra, rb := p.rels[a], p.rels[b]
	if ra.filterClass != rb.filterClass {
		return ra.filterClass > rb.filterClass
	}
	if la, lb := len(ra.table.Schema()), len(rb.table.Schema()); la != lb {
		return la < lb
	}
	return a < b
}

// eligible reports whether relation ji can join next: its ON must contain
// at least one equality between an already-placed relation and ji, and
// every column it references must belong to a placed relation or ji.
func (p *joinPlan) eligible(ji int, placed []bool) bool {
	hasEq := false
	ok := true
	walkConjuncts(p.rels[ji].jc.On, func(c Expr) {
		if b, isEq := c.(*Binary); isEq && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				li, ri := p.resolveRel(lc.Name), p.resolveRel(rc.Name)
				if li >= 0 && ri >= 0 &&
					((placed[li] && ri == ji) || (placed[ri] && li == ji)) {
					hasEq = true
				}
			}
		}
		walkColRefs(c, func(name string) {
			r := p.resolveRel(name)
			if r < 0 || (!placed[r] && r != ji) {
				ok = false
			}
		})
	})
	return hasEq && ok
}

// onResolvable reports whether every column the clause's ON references
// resolves to one of the first n relations.
func (p *joinPlan) onResolvable(jc *JoinClause, n int) bool {
	ok := true
	walkColRefs(jc.On, func(name string) {
		r := p.resolveRel(name)
		if r < 0 || r >= n {
			ok = false
		}
	})
	return ok
}

// ownerOf resolves a conjunct to the single relation it references, or -1
// when it references zero relations, several, or anything unresolvable.
func (p *joinPlan) ownerOf(c Expr) int {
	owner := -1
	ok := true
	walkColRefs(c, func(name string) {
		r := p.resolveRel(name)
		if r < 0 || (owner >= 0 && owner != r) {
			ok = false
			return
		}
		owner = r
	})
	if !ok || owner < 0 {
		return -1
	}
	return owner
}

// resolveRel maps a column reference to its relation index: a qualified
// alias.col by alias, a bare name by unique schema membership. -1 when
// unknown or ambiguous (callers treat that as "don't touch").
func (p *joinPlan) resolveRel(name string) int {
	if i := strings.IndexByte(name, '.'); i > 0 {
		alias, col := name[:i], name[i+1:]
		for ri, r := range p.rels {
			if strings.EqualFold(r.alias, alias) {
				if r.table.Schema().ColIndex(col) >= 0 {
					return ri
				}
				return -1
			}
		}
		return -1
	}
	found := -1
	for ri, r := range p.rels {
		if r.table.Schema().ColIndex(name) >= 0 {
			if found >= 0 {
				return -1
			}
			found = ri
		}
	}
	return found
}

// filterClassOf scores one pushed conjunct: equality and IN pin the most
// selective tier, everything else that filters at all (ranges, IS NULL,
// inequality) shares the next, mirroring "equality > range > none".
func filterClassOf(c Expr) int {
	switch t := c.(type) {
	case *Binary:
		if t.Op == "=" {
			return 2
		}
	case *InExpr:
		if !t.Not {
			return 2
		}
	}
	return 1
}

// splitConjuncts flattens the AND spine of e into its conjuncts, in written
// order. A nil e yields nil.
func splitConjuncts(e Expr) []Expr {
	var out []Expr
	walkConjuncts(e, func(c Expr) { out = append(out, c) })
	return out
}

func walkConjuncts(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		walkConjuncts(b.L, fn)
		walkConjuncts(b.R, fn)
		return
	}
	fn(e)
}

// andExpr folds conjuncts left-deep, preserving written evaluation order.
func andExpr(acc, c Expr) Expr {
	if acc == nil {
		return c
	}
	return &Binary{Op: "AND", L: acc, R: c}
}

// readColumns lists the column names st reads, in first-reference order:
// its select items, WHERE, GROUP BY, HAVING, ORDER BY (less names matching
// a select-item alias, which resolve to the projected column) and every
// JOIN's ON. Nil for SELECT * (the full width) or when none is named.
func readColumns(st *SelectStmt) []string {
	if st.Star {
		return nil
	}
	aliases := map[string]bool{}
	for _, it := range st.Items {
		if it.Alias != "" {
			aliases[strings.ToLower(it.Alias)] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if k := strings.ToLower(name); !seen[k] {
			seen[k] = true
			out = append(out, name)
		}
	}
	for _, it := range st.Items {
		walkColRefs(it.Expr, add)
	}
	walkColRefs(st.Where, add)
	for _, g := range st.GroupBy {
		walkColRefs(g, add)
	}
	walkColRefs(st.Having, add)
	for _, o := range st.OrderBy {
		walkColRefs(o.Expr, func(n string) {
			if !aliases[strings.ToLower(n)] {
				add(n)
			}
		})
	}
	for _, jc := range st.Joins {
		walkColRefs(jc.On, add)
	}
	return out
}

// walkColRefs visits every column reference inside e.
func walkColRefs(e Expr, fn func(string)) {
	walkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			fn(c.Name)
		}
		return true
	})
}
