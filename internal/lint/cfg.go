package lint

import (
	"go/ast"
	"go/token"
)

// Control-flow graph and dataflow solver for the flow-sensitive analyzers
// (replfence). The CFG is block-level over go/ast: each
// basic block holds the statements (and branch-condition expressions)
// that execute straight-line, and edges follow if/for/range/switch/
// select/return/break/continue/goto/panic structure. Function literals
// are not entered — the funcgraph gives each literal its own node, and
// the flow analyzers run a separate CFG per function body.
//
// Facts are small bitmasks keyed by a syntactic expression rendering
// (exprString): "n" for a local node variable, "shard.mu" for a mutex
// field. The solver splits each analyzer's bits into may bits (joined by
// union — "this could have happened on some path") and must bits (joined
// by intersection — "this certainly happened on every path"), runs a
// worklist to fixpoint, then replays every reachable block once more
// with reporting enabled so diagnostics see converged input facts.

// cfgBlock is one basic block: straight-line nodes plus successor edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body. exit is a
// synthetic empty block joining every return path (and the fall-off end
// of the body).
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
}

type loopFrame struct {
	brk   *cfgBlock // break target
	cont  *cfgBlock // continue target, nil for switch/select frames
	label string
}

type cfgBuilder struct {
	cfg          *funcCFG
	cur          *cfgBlock
	frames       []loopFrame
	pendingLabel string
}

// buildCFG constructs the block-level CFG of body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{cfg: &funcCFG{}}
	b.cfg.entry = b.newBlock()
	b.cfg.exit = b.newBlock()
	b.cur = b.cfg.entry
	b.stmtList(body.List)
	b.link(b.cur, b.cfg.exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.cfg.blocks)}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// startBlock begins a new block with an edge from `from`.
func (b *cfgBuilder) startBlock(from *cfgBlock) *cfgBlock {
	blk := b.newBlock()
	b.link(from, blk)
	return blk
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

// terminate ends the current path (return, panic, goto): control moved
// elsewhere, so subsequent statements start in a fresh, unreached block.
func (b *cfgBuilder) terminate(to *cfgBlock) {
	b.link(b.cur, to)
	b.cur = b.newBlock() // no predecessors: dead until something links it
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// frame pushes a break/continue frame, runs body, and pops it.
func (b *cfgBuilder) frame(brk, cont *cfgBlock, label string, body func()) {
	b.frames = append(b.frames, loopFrame{brk: brk, cont: cont, label: label})
	body()
	b.frames = b.frames[:len(b.frames)-1]
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) branchTarget(label string, cont bool) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if cont {
			if f.cont != nil {
				return f.cont
			}
			if label != "" {
				return nil // labeled a non-loop; malformed, bail out
			}
			continue // break frame of a switch: keep looking for the loop
		}
		return f.brk
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()
		b.cur = b.startBlock(cond)
		b.stmt(s.Body)
		b.link(b.cur, join)
		if s.Else != nil {
			b.cur = b.startBlock(cond)
			b.stmt(s.Else)
			b.link(b.cur, join)
		} else {
			b.link(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		b.add(s.Init)
		head := b.startBlock(b.cur)
		b.cur = head
		b.add(s.Cond)
		exit := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.link(head, exit)
		}
		b.cur = b.startBlock(head)
		b.frame(exit, post, label, func() { b.stmt(s.Body) })
		b.link(b.cur, post)
		b.cur = post
		b.add(s.Post)
		b.link(b.cur, head)
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.startBlock(b.cur)
		b.cur = head
		// The per-iteration key/value bindings. Not the whole RangeStmt:
		// its Body belongs to the body block, and a transfer function
		// inspecting the head node must not see body statements twice.
		b.add(s.Key)
		b.add(s.Value)
		exit := b.newBlock()
		b.link(head, exit) // empty ranges skip the body
		body := b.startBlock(head)
		b.cur = body
		b.frame(exit, head, label, func() { b.stmt(s.Body) })
		b.link(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		label := b.takeLabel()
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			b.add(sw.Init)
			b.add(sw.Tag)
			bodyList = sw.Body.List
		case *ast.TypeSwitchStmt:
			b.add(sw.Init)
			b.add(sw.Assign)
			bodyList = sw.Body.List
		}
		cond := b.cur
		join := b.newBlock()
		// Declare every clause block first so fallthrough can link ahead.
		clauseBlocks := make([]*cfgBlock, len(bodyList))
		hasDefault := false
		for i, cs := range bodyList {
			clauseBlocks[i] = b.startBlock(cond)
			if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			b.link(cond, join)
		}
		for i, cs := range bodyList {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			b.cur = clauseBlocks[i]
			for _, e := range cc.List {
				b.add(e)
			}
			fellThrough := false
			b.frame(join, nil, label, func() {
				for _, st := range cc.Body {
					if br, isBr := st.(*ast.BranchStmt); isBr && br.Tok == token.FALLTHROUGH {
						if i+1 < len(clauseBlocks) {
							b.link(b.cur, clauseBlocks[i+1])
						}
						fellThrough = true
						b.cur = b.newBlock()
						continue
					}
					b.stmt(st)
				}
			})
			if !fellThrough || len(cc.Body) == 0 {
				b.link(b.cur, join)
			} else {
				b.link(b.cur, join) // dead tail block; harmless
			}
		}
		b.cur = join

	case *ast.SelectStmt:
		label := b.takeLabel()
		cond := b.cur
		join := b.newBlock()
		if len(s.Body.List) == 0 {
			// select {} blocks forever.
			b.terminate(b.cfg.exit)
			return
		}
		for _, cs := range s.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			b.cur = b.startBlock(cond)
			b.add(cc.Comm)
			b.frame(join, nil, label, func() { b.stmtList(cc.Body) })
			b.link(b.cur, join)
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.cfg.exit)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.branchTarget(label, false); t != nil {
				b.terminate(t)
			} else {
				b.terminate(b.cfg.exit)
			}
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.branchTarget(label, true); t != nil {
				b.terminate(t)
			} else {
				b.terminate(b.cfg.exit)
			}
		case token.GOTO:
			// Rare in this codebase; conservatively end the path.
			b.terminate(b.cfg.exit)
		}
		// FALLTHROUGH is handled inside switch clause bodies.

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.terminate(b.cfg.exit)
			}
		}

	default:
		// Assignments, declarations, defer, go, send, incdec, empty.
		b.add(s)
	}
}

// factMap carries the analyzer's per-key fact bits at one program point.
type factMap map[string]uint8

func (f factMap) clone() factMap {
	c := make(factMap, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

// joinInto merges src into dst: bits in mustMask survive only when set on
// both sides (intersection), the rest accumulate (union). Reports whether
// dst changed.
func joinInto(dst, src factMap, mustMask uint8) bool {
	changed := false
	for k, sv := range src {
		dv := dst[k]
		nv := ((dv | sv) &^ mustMask) | ((dv & sv) & mustMask)
		if nv != dv {
			if nv == 0 {
				delete(dst, k)
			} else {
				dst[k] = nv
			}
			changed = true
		}
	}
	for k, dv := range dst {
		if _, ok := src[k]; ok {
			continue
		}
		nv := dv &^ mustMask // must bits absent in src drop out
		if nv != dv {
			if nv == 0 {
				delete(dst, k)
			} else {
				dst[k] = nv
			}
			changed = true
		}
	}
	return changed
}

// solve runs transfer over the CFG to fixpoint (report=false), then
// replays every reachable block once with report=true so the transfer
// function can emit diagnostics against converged facts. It returns the
// join of the facts flowing into the exit block (nil when no path
// reaches it, e.g. a body ending in panic).
func (c *funcCFG) solve(init factMap, mustMask uint8, transfer func(n ast.Node, f factMap, report bool)) factMap {
	ins := make([]factMap, len(c.blocks))
	if init == nil {
		init = factMap{}
	}
	ins[c.entry.index] = init.clone()

	work := []*cfgBlock{c.entry}
	queued := make([]bool, len(c.blocks))
	queued[c.entry.index] = true
	// The lattice is finite (8 bits per key, finitely many keys), so the
	// fixpoint terminates; the step cap is a defensive bound only.
	for steps := 0; len(work) > 0 && steps < 64*len(c.blocks)*len(c.blocks)+4096; steps++ {
		b := work[0]
		work = work[1:]
		queued[b.index] = false
		out := ins[b.index].clone()
		for _, n := range b.nodes {
			transfer(n, out, false)
		}
		for _, s := range b.succs {
			if ins[s.index] == nil {
				ins[s.index] = out.clone()
			} else if !joinInto(ins[s.index], out, mustMask) {
				continue
			}
			if s != c.exit && !queued[s.index] {
				work = append(work, s)
				queued[s.index] = true
			}
		}
	}

	for _, b := range c.blocks {
		if b == c.exit || ins[b.index] == nil {
			continue
		}
		f := ins[b.index].clone()
		for _, n := range b.nodes {
			transfer(n, f, true)
		}
	}
	return ins[c.exit.index]
}

// inspectShallow walks n's subtree, calling f for every node but never
// descending into nested function literals — those are separate functions
// with their own CFGs.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		if x == nil {
			return true
		}
		return f(x)
	})
}
