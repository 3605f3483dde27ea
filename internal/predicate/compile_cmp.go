package predicate

import (
	"fmt"

	"cosmos/internal/stream"
)

// This file extends the compiled-predicate layer to attribute-vs-attribute
// comparisons — the form join predicates take. Like Compile for
// constant-side filters, CompileAttrCmps resolves both attribute
// references to column indices against one schema (for joins, the plan's
// joined namespace) at control-plane time and picks a comparison
// specialisation from the declared kinds, so data-plane evaluation is a
// pure index walk with no name lookups and no runtime errors.
// Compilation fails whenever the reference AttrCmp.Eval could error at
// runtime (missing attribute, incomparable kinds); callers then refuse
// the query.

// ccMode selects the column-vs-column comparison specialisation. Each
// mode reproduces exactly the branch Value.Compare takes for the operand
// kinds the schema guarantees.
type ccMode uint8

const (
	// ccInt: both columns are declared non-float numerics, so both
	// runtime payloads are exact integers.
	ccInt ccMode = iota
	// ccNum: at least one column is declared float. A float field may
	// hold a widened int at runtime, so the runtime kinds pick the
	// exact-int vs float branch, exactly as Value.Compare does.
	ccNum
	// ccString / ccBool: same-kind ordered comparisons.
	ccString
	ccBool
)

// compiledAttrCmp is one AttrCmp with both sides pre-resolved to column
// indices of the schema the set was compiled against.
type compiledAttrCmp struct {
	colL, colR int
	mode       ccMode
	op         Op
}

//cosmos:hotpath
func (cc *compiledAttrCmp) eval(vals []stream.Value) bool {
	a, b := vals[cc.colL], vals[cc.colR]
	var cmp int
	switch cc.mode {
	case ccInt:
		cmp = cmp3i(a.AsInt(), b.AsInt())
	case ccNum:
		if a.Kind() == stream.KindFloat || b.Kind() == stream.KindFloat {
			cmp = cmp3f(a.AsFloat(), b.AsFloat())
		} else {
			cmp = cmp3i(a.AsInt(), b.AsInt())
		}
	case ccString:
		cmp = cmp3s(a.AsString(), b.AsString())
	default: // ccBool
		var x, y int64
		if a.AsBool() {
			x = 1
		}
		if b.AsBool() {
			y = 1
		}
		cmp = cmp3i(x, y)
	}
	return cc.op.Holds(cmp)
}

// CompiledCmps is a conjunction of AttrCmp comparisons compiled against
// one schema. It is immutable after compilation and safe for concurrent
// evaluation. The empty set is TRUE.
type CompiledCmps struct {
	cmps []compiledAttrCmp
}

// CompileAttrCmps resolves every comparison of the conjunction against
// the schema and type-checks both sides. It errors whenever AttrCmp.Eval
// could error at runtime for a tuple of this schema.
func CompileAttrCmps(cmps []AttrCmp, s *stream.Schema) (*CompiledCmps, error) {
	if s == nil {
		return nil, fmt.Errorf("predicate: compile against nil schema")
	}
	out := &CompiledCmps{cmps: make([]compiledAttrCmp, len(cmps))}
	for i, c := range cmps {
		cc, err := compileAttrCmp(c, s)
		if err != nil {
			return nil, err
		}
		out.cmps[i] = cc
	}
	return out, nil
}

func compileAttrCmp(c AttrCmp, s *stream.Schema) (compiledAttrCmp, error) {
	// AttrCmp.Eval resolves strictly through Tuple.Get (no intrinsic
	// timestamp), so only schema columns are valid here.
	colL := s.ColIndex(c.Left)
	if colL < 0 {
		return compiledAttrCmp{}, fmt.Errorf("predicate: tuple lacks attribute %s", c.Left)
	}
	colR := s.ColIndex(c.Right)
	if colR < 0 {
		return compiledAttrCmp{}, fmt.Errorf("predicate: tuple lacks attribute %s", c.Right)
	}
	kindL, kindR := s.Fields[colL].Kind, s.Fields[colR].Kind
	cc := compiledAttrCmp{colL: colL, colR: colR, op: c.Op}
	switch {
	case numericKind(kindL) && numericKind(kindR):
		if kindL == stream.KindFloat || kindR == stream.KindFloat {
			cc.mode = ccNum
		} else {
			cc.mode = ccInt
		}
	case kindL == stream.KindString && kindR == stream.KindString:
		cc.mode = ccString
	case kindL == stream.KindBool && kindR == stream.KindBool:
		cc.mode = ccBool
	default:
		return compiledAttrCmp{}, fmt.Errorf(
			"predicate: cannot compare %s (%s) with %s (%s)", c.Left, kindL, c.Right, kindR)
	}
	return cc, nil
}

// EvalValues evaluates the compiled conjunction against a tuple's value
// slice. It never touches attribute names and never allocates. The
// values must conform to the schema the set was compiled against.
//
//cosmos:hotpath
func (c *CompiledCmps) EvalValues(vals []stream.Value) bool {
	for i := range c.cmps {
		if !c.cmps[i].eval(vals) {
			return false
		}
	}
	return true
}
