package predicate

import (
	"fmt"

	"cosmos/internal/stream"
)

// This file implements the compiled form of a DNF filter: every attribute
// reference is resolved to a column index against one schema at compile
// time (control plane), so evaluation (data plane) is a pure index walk
// over a tuple's value slice — no name lookups, no map accesses, no
// allocations, and no runtime errors. Compilation fails, instead of
// deferring an error to evaluation, whenever the name-resolved reference
// evaluator (DNF.Eval) could error at runtime (missing attribute,
// incomparable kinds); callers refuse the predicate in that case — at
// query analysis, at subscribe time — so the data plane has one
// evaluator and the reference's error cases never reach it.

// tsCol is the sentinel column index resolving to the tuple's intrinsic
// timestamp rather than a value column.
const tsCol = -1

// cmpMode selects the comparison specialisation picked at compile time.
// Each mode reproduces exactly the branch Value.Compare would take for
// the operand kinds the schema guarantees, including the exact-integer
// path for non-float numerics (ints widened into float fields keep their
// exact comparison, hence cmpDyn).
type cmpMode uint8

const (
	// cmpInt: both sides are guaranteed non-float numerics at runtime —
	// exact int64 comparison on the payloads.
	cmpInt cmpMode = iota
	// cmpFloat: the constant is a float, so Value.Compare always takes
	// the float path regardless of the left side's runtime kind.
	cmpFloat
	// cmpDyn: non-float constant but the left side may hold a float at
	// runtime (float field, possibly populated by a widened int) — the
	// runtime kind picks exact-int vs float, as Value.Compare does.
	cmpDyn
	// cmpString / cmpBool: same-kind ordered comparisons.
	cmpString
	cmpBool
)

// compiledConstraint is one constraint with its term pre-resolved: colA
// (and colB for difference terms) index the tuple's value slice, or are
// tsCol for the intrinsic timestamp. The constant is pre-decoded into
// the payload the chosen cmpMode needs.
type compiledConstraint struct {
	colA, colB int
	diff       bool
	mode       cmpMode
	op         Op
	constN     int64
	constF     float64
	constS     string
}

// eval evaluates the constraint against a value slice. Compile has already
// proven the operand kinds comparable, so the error path of Value.Sub is
// unreachable here and every mode's comparison is total.
//
//cosmos:hotpath
func (cc *compiledConstraint) eval(vals []stream.Value, ts stream.Timestamp) bool {
	a := resolveCol(vals, ts, cc.colA)
	if cc.diff {
		b := resolveCol(vals, ts, cc.colB)
		a, _ = a.Sub(b)
	}
	var cmp int
	switch cc.mode {
	case cmpInt:
		cmp = cmp3i(a.AsInt(), cc.constN)
	case cmpFloat:
		cmp = cmp3f(a.AsFloat(), cc.constF)
	case cmpDyn:
		if a.Kind() == stream.KindFloat {
			cmp = cmp3f(a.AsFloat(), cc.constF)
		} else {
			cmp = cmp3i(a.AsInt(), cc.constN)
		}
	case cmpString:
		s := a.AsString()
		cmp = cmp3s(s, cc.constS)
	default: // cmpBool
		var n int64
		if a.AsBool() {
			n = 1
		}
		cmp = cmp3i(n, cc.constN)
	}
	return cc.op.Holds(cmp)
}

//cosmos:hotpath
func cmp3i(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

//cosmos:hotpath
func cmp3f(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

//cosmos:hotpath
func cmp3s(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

//cosmos:hotpath
func resolveCol(vals []stream.Value, ts stream.Timestamp, col int) stream.Value {
	if col == tsCol {
		return stream.Time(ts)
	}
	return vals[col]
}

// Compiled is a DNF filter compiled against one schema. It is immutable
// after Compile and safe for concurrent evaluation.
type Compiled struct {
	isTrue    bool
	disjuncts [][]compiledConstraint
}

// Compile resolves every attribute reference of the DNF against the schema
// and type-checks every comparison. It returns an error whenever
// DNF.Eval could raise one at runtime for a tuple of this schema; the
// predicate is then refused, not evaluated some other way.
func Compile(d DNF, s *stream.Schema) (*Compiled, error) {
	if s == nil {
		return nil, fmt.Errorf("predicate: compile against nil schema")
	}
	c := &Compiled{isTrue: d.IsTrue()}
	if c.isTrue {
		return c, nil
	}
	c.disjuncts = make([][]compiledConstraint, len(d))
	for i, cj := range d {
		compiled := make([]compiledConstraint, len(cj))
		for j, con := range cj {
			cc, err := compileConstraint(con, s)
			if err != nil {
				return nil, err
			}
			compiled[j] = cc
		}
		c.disjuncts[i] = compiled
	}
	return c, nil
}

func compileConstraint(con Constraint, s *stream.Schema) (compiledConstraint, error) {
	colA, kindA, err := resolveRef(con.Term.A, s)
	if err != nil {
		return compiledConstraint{}, err
	}
	cc := compiledConstraint{colA: colA, op: con.Op}
	lhsKind := kindA
	// mayFloat: whether the left side can hold a float at runtime. A
	// float field may also hold a widened int, so "declared float" means
	// "runtime kind unknown", not "runtime float".
	mayFloat := kindA == stream.KindFloat
	if con.Term.IsDiff() {
		colB, kindB, err := resolveRef(con.Term.B, s)
		if err != nil {
			return compiledConstraint{}, err
		}
		if !numericKind(kindA) || !numericKind(kindB) {
			return compiledConstraint{}, fmt.Errorf(
				"predicate: cannot subtract %s from %s in %s", kindB, kindA, con.Term)
		}
		cc.colB, cc.diff = colB, true
		lhsKind = stream.KindInt // difference of numerics is numeric
		mayFloat = mayFloat || kindB == stream.KindFloat
	}
	constKind := con.Const.Kind()
	if !comparableKinds(lhsKind, constKind) {
		return compiledConstraint{}, fmt.Errorf(
			"predicate: cannot compare %s (%s) with %s", con.Term, lhsKind, constKind)
	}
	switch {
	case lhsKind == stream.KindString:
		cc.mode, cc.constS = cmpString, con.Const.AsString()
	case lhsKind == stream.KindBool:
		cc.mode = cmpBool
		if con.Const.AsBool() {
			cc.constN = 1
		}
	case constKind == stream.KindFloat:
		cc.mode, cc.constF = cmpFloat, con.Const.AsFloat()
	case !mayFloat:
		cc.mode, cc.constN = cmpInt, con.Const.AsInt()
	default:
		cc.mode = cmpDyn
		cc.constN, cc.constF = con.Const.AsInt(), con.Const.AsFloat()
	}
	return cc, nil
}

// resolveRef mirrors the reference resolveAttr: a schema column wins
// over the intrinsic timestamp name.
func resolveRef(name string, s *stream.Schema) (int, stream.Kind, error) {
	if i := s.ColIndex(name); i >= 0 {
		return i, s.Fields[i].Kind, nil
	}
	if name == IntrinsicTs {
		return tsCol, stream.KindTime, nil
	}
	return 0, stream.KindInvalid, fmt.Errorf(
		"predicate: tuple of %s lacks attribute %s", s.Stream, name)
}

func numericKind(k stream.Kind) bool {
	return k == stream.KindInt || k == stream.KindFloat || k == stream.KindTime
}

// comparableKinds reports whether values of the two kinds always compare
// without error under Value.Compare. Field kinds may be populated by
// widening int values, but every widening stays within the numeric kinds,
// so checking declared kinds is sound.
func comparableKinds(a, b stream.Kind) bool {
	if numericKind(a) && numericKind(b) {
		return true
	}
	return a == b && (a == stream.KindString || a == stream.KindBool)
}

// IsTrue reports whether the compiled filter accepts everything.
//
//cosmos:hotpath
func (c *Compiled) IsTrue() bool { return c.isTrue }

// EvalValues evaluates the compiled filter against a tuple's value slice
// and timestamp. It never touches attribute names and never allocates.
// The values must conform to the schema the filter was compiled against.
//
//cosmos:hotpath
func (c *Compiled) EvalValues(vals []stream.Value, ts stream.Timestamp) bool {
	if c.isTrue {
		return true
	}
	for i := range c.disjuncts {
		cj := c.disjuncts[i]
		match := true
		for j := range cj {
			if !cj[j].eval(vals, ts) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
