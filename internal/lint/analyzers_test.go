package lint_test

import (
	"testing"

	"sgtree/internal/lint"
	"sgtree/internal/lint/linttest"
)

// Each analyzer is exercised against a compiling fixture package under
// testdata/src; the fixtures carry their expected findings as `want`
// comments (see linttest). Every fixture includes at least one case
// reproducing a real violation class the analyzer was written against.

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, lint.LockDiscipline, "lockdiscipline")
}

func TestPageLife(t *testing.T) {
	linttest.Run(t, lint.PageLife, "pagelife")
}

func TestUpdateScope(t *testing.T) {
	linttest.Run(t, lint.UpdateScope, "updatescope")
}

func TestSnapshotLife(t *testing.T) {
	linttest.Run(t, lint.SnapshotLife, "snapshotlife")
}

func TestAtomicCounter(t *testing.T) {
	linttest.Run(t, lint.AtomicCounter, "atomiccounter")
}

func TestBannedAPI(t *testing.T) {
	// The default rules are scoped to internal/core and internal/storage;
	// the fixture gets an equivalent rule set scoped to its own path.
	prefixes := []string{"sgtree/internal/lint/testdata/src/bannedapi"}
	rules := []lint.BannedRule{
		{
			Prefixes: prefixes,
			Import:   "container/heap",
			Why:      "the hot paths use hand-rolled slice heaps",
		},
		{
			Prefixes: prefixes,
			Pkg:      "time",
			Funcs:    []string{"Now"},
			Why:      "deterministic packages take timestamps at the edges",
		},
		{
			Prefixes: prefixes,
			Pkg:      "math/rand",
			Funcs:    []string{"Intn", "Shuffle"},
			Why:      "thread a seeded *rand.Rand from the caller",
		},
	}
	linttest.Run(t, lint.NewBannedAPI(rules), "bannedapi")
}

func TestEpochContract(t *testing.T) {
	linttest.Run(t, lint.EpochContract, "epochcontract")
}

func TestReplFence(t *testing.T) {
	linttest.Run(t, lint.ReplFence, "replfence")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "ctxflow")
}

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "hotpathalloc")
}

// TestRepoIsClean is the acceptance gate in test form: the full suite
// over the whole module must report nothing. This is the same run `make
// lint` performs; having it in the test suite means `go test ./...`
// alone catches a reintroduced violation.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load(".", "sgtree/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding in checked-in code: %v", d)
	}
}
