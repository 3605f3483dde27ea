package cql

import (
	"fmt"
	"strconv"
	"strings"

	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// Clone returns a deep copy of the bound query. Schemas and Infos are
// shared (they are immutable catalog records); predicate structures and
// slices are copied.
func (b *Bound) Clone() *Bound {
	out := &Bound{
		Raw:     b.Raw,
		From:    append([]StreamRef(nil), b.From...),
		Schemas: map[string]*stream.Schema{},
		Infos:   map[string]*stream.Info{},
		Sel:     map[string]predicate.DNF{},
		Windows: map[string]stream.Duration{},
	}
	for k, v := range b.Schemas {
		out.Schemas[k] = v
	}
	for k, v := range b.Infos {
		out.Infos[k] = v
	}
	for k, v := range b.Sel {
		out.Sel[k] = v.Clone()
	}
	for k, v := range b.Windows {
		out.Windows[k] = v
	}
	out.SelectCols = append([]ColRef(nil), b.SelectCols...)
	out.OutNames = append([]string(nil), b.OutNames...)
	out.Aggs = append([]AggSpec(nil), b.Aggs...)
	out.GroupBy = append([]ColRef(nil), b.GroupBy...)
	out.Residual = b.Residual.Clone()
	out.Joins = append([]predicate.AttrCmp(nil), b.Joins...)
	out.OutSchema = b.OutSchema
	out.IncludeInputTs = b.IncludeInputTs
	out.sig, out.need = b.sig, b.need // read-only, shared
	return out
}

// Rebuild recomputes what analysis derives from the clauses — the output
// schema, the group signature and the needed attributes — after the
// merge package rewrote a clone's clauses to compose a representative.
func (b *Bound) Rebuild() error { return b.derive() }

// SynthesizeCQL renders the bound query back into CQL text. The output is
// parseable by this package for the supported subset and is what a query
// wrapper would hand to an underlying SPE (paper §2: per-SPE query
// wrappers translate COSMOS queries).
func (b *Bound) SynthesizeCQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	first := true
	writeItem := func(s string) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(s)
	}
	for i, c := range b.SelectCols {
		item := c.String()
		if b.OutNames != nil && b.OutNames[i] != item {
			item += " AS " + b.OutNames[i]
		}
		writeItem(item)
	}
	for _, a := range b.Aggs {
		item := a.String()
		if a.OutName != item {
			item += " AS " + a.OutName
		}
		writeItem(item)
	}
	sb.WriteString(" FROM ")
	for i, ref := range b.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(ref.Stream)
		sb.WriteString(" [")
		sb.WriteString(windowString(ref.Window))
		sb.WriteString("]")
		if ref.Alias != ref.Stream {
			sb.WriteString(" " + ref.Alias)
		}
	}

	var conds []string
	for _, j := range b.Joins {
		conds = append(conds, j.String())
	}
	for _, ref := range b.From {
		if sel, ok := b.Sel[ref.Alias]; ok && !sel.IsTrue() && len(sel) > 0 {
			conds = append(conds, sqlDNF(sel, ref.Alias))
		}
	}
	if len(b.Residual) > 0 && !b.Residual.IsTrue() {
		conds = append(conds, sqlDNF(b.Residual, ""))
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(conds, " AND "))
	}
	if len(b.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range b.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	return sb.String()
}

// sqlDNF renders a DNF as a parenthesised SQL boolean expression. When
// alias is non-empty the constraints use bare attribute names from that
// stream's namespace and are re-qualified.
func sqlDNF(d predicate.DNF, alias string) string {
	disjuncts := make([]string, 0, len(d))
	for _, cj := range d {
		parts := make([]string, 0, len(cj))
		for _, c := range cj {
			parts = append(parts, sqlConstraint(c, alias))
		}
		if len(parts) == 0 {
			parts = append(parts, "1 = 1")
		}
		disjuncts = append(disjuncts, "("+strings.Join(parts, " AND ")+")")
	}
	if len(disjuncts) == 1 {
		return disjuncts[0]
	}
	return "(" + strings.Join(disjuncts, " OR ") + ")"
}

func sqlConstraint(c predicate.Constraint, alias string) string {
	qual := func(a string) string {
		if alias == "" {
			return a
		}
		return alias + "." + a
	}
	term := qual(c.Term.A)
	if c.Term.IsDiff() {
		term += " - " + qual(c.Term.B)
	}
	return fmt.Sprintf("%s %s %s", term, c.Op, sqlLiteral(c.Const))
}

// sqlLiteral renders a value as a CQL literal.
func sqlLiteral(v stream.Value) string {
	switch v.Kind() {
	case stream.KindString:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	case stream.KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case stream.KindFloat:
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return fmt.Sprintf("%d", v.AsInt())
	}
}
