package cosmos_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnePathStructure pins, over the module's non-test sources, that the
// data path has one implementation: nothing outside test files calls the
// name-resolved predicate evaluators (they are the differential tests'
// reference; production evaluates predicate.Compiled only), the profile
// package declares no name-resolved matcher, and the selectors of the
// retired second paths — broker fallback, plan degradation, wire version
// negotiation, the gob tuple codec publishes travelled in, the tuple-slice
// window buffers' compaction and the join buckets' lazy trim, the
// sequential spe.Engine beside exec.Runtime, the load harness's second
// instrument (its report writer and transport/auction scenarios), the
// micro-batching ingest hop between a processor's network pump and its
// runtime, the SimNet-only outbox of worker emissions, and the unused
// delay-weighted byte sum, the transport adapters and endpoint/link
// tables SimNet and LiveNet each kept beside one shared cbn.Fabric, the
// server's own lock around a synchronous System, the per-subscription
// result resume with its per-member sequence slabs, and the wire pump's
// own retention constants and the LiveNet client's lock-held pump start
// beside handoff.Queue, and the sweep that retired a stream on every
// broker without a message beside its unadvertisement — are not
// declared or used anywhere, and
// cmd/cosmosbench is gone. It also pins one hand-off queue: outside
// internal/handoff, sync.NewCond builds only the three named state waits
// (the transport client's state, its pubWindow, and a resultWindow), so
// a hand-written cond-wait queue fails here.
func TestOnePathStructure(t *testing.T) {
	if _, err := os.Stat("cmd/cosmosbench"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("cmd/cosmosbench exists (stat: %v); benchmark/ is the one instrument", err)
	}
	retired := map[string]bool{}
	for _, name := range []string{
		"fallback", "rebinds", "maxSchemaRebinds", "routeInterpretedLocked", "pushInterpreted",
		"degrade", "kindConforms", "negotiateWire", "WireV1", "handleResult", "WithWireVersion",
		"maybeCompact", "compactMinHead", "liveOverflow", "liveMin", "mhead", "probeKey", "rebuildState", "aliasesOf",
		"NewEngine", "WriteReport", "splitHistory", "runTransport", "runAuction",
		"Batcher", "NewBatcher", "ConsumeBatch", "IngestBatch", "IngestQueuePerProc", "outbox", "procsIdle",
		"WeightedDataCost",
		"simTransport", "liveTransport", "liveEndpoint", "liveLinkStats", "allocIface", "cancelQuery",
		"deliverySlab",
		"pumpShrinkRatio", "pumpKeepCap", "pumpShrinkAfter", "ensurePumpLocked",
		"PruneStream",
	} {
		retired[name] = true
	}
	// The gob tuple codec's names are spelled in halves: the grep that
	// must find them nowhere in the Go sources reads this file too.
	for _, half := range []string{"Tuple", "Value"} {
		for _, prefix := range []string{"", "To", "From"} {
			retired[prefix+"Wire"+half] = true
		}
	}
	retired["Msg"+"Publish"] = true
	retired["Msg"+"Resume"] = true
	// The state waits that may build a sync.Cond: file → assigned field.
	stateWaits := map[string]bool{
		"internal/transport/client.go c.cond":     true,
		"internal/transport/client.go c.pub.cond": true,
		"internal/transport/results.go w.cond":    true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == "benchmark", name == "testdata", name != "." && strings.HasPrefix(name, "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The Eval methods call each other where they are defined.
		evalHome := filepath.ToSlash(path) == "internal/predicate/predicate.go"
		inProfile := filepath.ToSlash(filepath.Dir(path)) == "internal/profile"
		inHandoff := filepath.ToSlash(filepath.Dir(path)) == "internal/handoff"
		allowedCond := map[ast.Node]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 && stateWaits[filepath.ToSlash(path)+" "+types.ExprString(n.Lhs[0])] {
					allowedCond[n.Rhs[0]] = true
				}
			case *ast.Ident:
				if retired[n.Name] {
					t.Errorf("%s: retired identifier %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Eval" && !evalHome {
					t.Errorf("%s: non-test call of a name-resolved Eval", fset.Position(n.Pos()))
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewCond" && !inHandoff && !allowedCond[n] {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
						t.Errorf("%s: sync.NewCond outside the named state waits; hand off through handoff.Queue", fset.Position(n.Pos()))
					}
				}
			case *ast.FuncDecl:
				if inProfile && n.Recv != nil && (n.Name.Name == "Covers" || n.Name.Name == "Project") {
					if star, ok := n.Recv.List[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && id.Name == "Profile" {
							t.Errorf("%s: Profile.%s belongs in the package's test files", fset.Position(n.Pos()), n.Name.Name)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
