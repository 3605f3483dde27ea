package cosmos_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
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
// server's own lock around a synchronous System, and the per-subscription
// result resume with its per-member sequence slabs —
// are not declared or used anywhere, and cmd/cosmosbench is gone.
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
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if retired[n.Name] {
					t.Errorf("%s: retired identifier %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Eval" && !evalHome {
					t.Errorf("%s: non-test call of a name-resolved Eval", fset.Position(n.Pos()))
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
