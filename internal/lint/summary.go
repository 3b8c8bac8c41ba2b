package lint

import "go/types"

// Interprocedural plumbing for the dataflow analyzers: call-graph
// closures (epochcontract's "is on the rebuild path", ctxflow's "is
// reachable from a context-carrying entry point").

// closureFrom returns every function reachable from roots through the
// package call graph (including the roots themselves and the implicit
// enclosing-function -> literal edges).
func closureFrom(roots []*funcInfo) map[*funcInfo]bool {
	seen := map[*funcInfo]bool{}
	var stack []*funcInfo
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		fi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cs := range fi.calls {
			if cs.callee != nil && !seen[cs.callee] {
				seen[cs.callee] = true
				stack = append(stack, cs.callee)
			}
		}
	}
	return seen
}

// callsTransitively reports, for every function in g, whether it can
// reach a call satisfying pred (checked on each call site's callee name
// resolution happening at the AST level is the caller's business — pred
// sees the raw call expression) through intra-package edges. Direct hits
// are established by scanning each function body shallowly; the closure
// then propagates hits backward through the call graph.
func callsTransitively(g *packageGraph, direct func(fi *funcInfo) bool) map[*funcInfo]bool {
	hits := map[*funcInfo]bool{}
	for _, fi := range g.funcs {
		if direct(fi) {
			hits[fi] = true
		}
	}
	// Propagate: a caller of a hit is a hit. Iterate to fixpoint (the
	// graph is small; worst case O(n^2) edges visits).
	for changed := true; changed; {
		changed = false
		for _, fi := range g.funcs {
			if hits[fi] {
				continue
			}
			for _, cs := range fi.calls {
				if cs.callee != nil && hits[cs.callee] {
					hits[fi] = true
					changed = true
					break
				}
			}
		}
	}
	return hits
}

// hasMethodNamed reports whether named (or *named) has a method with the
// given name, declared directly or promoted.
func hasMethodNamed(t types.Type, name string) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}
