package cql

import (
	"fmt"
	"sort"
	"strings"

	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// Catalog resolves stream names to their registry records. *stream.Registry
// satisfies it.
type Catalog interface {
	Lookup(name string) (*stream.Info, bool)
}

// AggSpec is one bound aggregate output.
type AggSpec struct {
	Func    AggFunc
	Arg     ColRef // qualified; zero when Star
	Star    bool
	OutName string
}

// String renders the spec canonically.
func (a AggSpec) String() string {
	arg := "*"
	if !a.Star {
		arg = a.Arg.String()
	}
	return string(a.Func) + "(" + arg + ")"
}

// Bound is the analyzed, normalised form of a continuous query. All column
// references are alias-qualified; when the FROM clause has no repeated
// streams, aliases are canonicalised to the stream names so that
// equivalent queries written with different aliases normalise identically
// (a prerequisite for the grouping optimiser).
type Bound struct {
	// Raw is the original CQL text.
	Raw string
	// From lists the stream references with resolved windows, in FROM
	// order. Aliases are unique.
	From []StreamRef
	// Schemas and Infos map alias → catalog records.
	Schemas map[string]*stream.Schema
	Infos   map[string]*stream.Info
	// SelectCols is the expanded SPJ select list (empty for aggregates).
	SelectCols []ColRef
	// OutNames holds the output field name for each SelectCols entry.
	OutNames []string
	// Aggs lists aggregate outputs (empty for SPJ queries).
	Aggs []AggSpec
	// GroupBy lists grouping columns, qualified.
	GroupBy []ColRef
	// Sel maps alias → pushable selection DNF over *bare* attribute names;
	// this becomes the F of the source-retrieval profile for that stream.
	Sel map[string]predicate.DNF
	// Residual is the post-join predicate (qualified names, possibly
	// attribute-difference terms) not pushable into per-stream filters.
	Residual predicate.DNF
	// Joins are the cross-stream attribute comparisons, qualified.
	Joins []predicate.AttrCmp
	// Windows maps alias → window duration.
	Windows map[string]stream.Duration
	// OutSchema describes the result stream; its Stream name is a
	// placeholder until the processor assigns a unique result stream name.
	OutSchema *stream.Schema
	// IncludeInputTs asks the engine to append one hidden attribute
	// "<alias>.__ts" (the contributing input tuple's timestamp) per FROM
	// stream to join results. Representative queries set it so that
	// result-splitting profiles can re-tighten member windows with
	// Lemma 1 constraints such as −3h ≤ O.__ts − C.__ts ≤ 0.
	IncludeInputTs bool

	// sig and need are GroupSignature's and NeededAttrs' answers,
	// derived once from the clauses above (derive).
	sig  string
	need map[string][]string
}

// InputTsAttr is the hidden result attribute carrying the contributing
// input tuple's timestamp for one FROM alias.
func InputTsAttr(alias string) string { return alias + ".__ts" }

// Analyze binds a parsed query against the catalog.
func Analyze(q *Query, cat Catalog) (*Bound, error) {
	b := &Bound{
		Raw:     q.Raw,
		Schemas: map[string]*stream.Schema{},
		Infos:   map[string]*stream.Info{},
		Sel:     map[string]predicate.DNF{},
		Windows: map[string]stream.Duration{},
	}
	if len(q.From) == 0 {
		return nil, fmt.Errorf("cql: query has no FROM clause")
	}

	// Resolve FROM, detecting duplicate aliases and repeated streams.
	streamCount := map[string]int{}
	for _, ref := range q.From {
		streamCount[ref.Stream]++
	}
	selfJoin := false
	for _, n := range streamCount {
		if n > 1 {
			selfJoin = true
		}
	}
	aliasSeen := map[string]bool{}
	userAliasSeen := map[string]bool{}
	aliasMap := map[string]string{} // original alias → canonical alias
	for _, ref := range q.From {
		info, ok := cat.Lookup(ref.Stream)
		if !ok {
			return nil, fmt.Errorf("cql: unknown stream %q", ref.Stream)
		}
		if userAliasSeen[ref.Alias] {
			return nil, fmt.Errorf("cql: duplicate alias %q", ref.Alias)
		}
		userAliasSeen[ref.Alias] = true
		canon := ref.Alias
		if !selfJoin {
			canon = ref.Stream
		}
		if aliasSeen[canon] {
			return nil, fmt.Errorf("cql: duplicate alias %q", canon)
		}
		aliasSeen[canon] = true
		aliasMap[ref.Alias] = canon
		b.From = append(b.From, StreamRef{Stream: ref.Stream, Window: ref.Window, Alias: canon})
		b.Schemas[canon] = info.Schema
		b.Infos[canon] = info
		b.Windows[canon] = ref.Window
	}

	resolve := func(c ColRef) (ColRef, error) { return b.resolveCol(c, aliasMap) }

	// Resolve GROUP BY first: grouped plain SELECT columns are validated
	// against it.
	for _, g := range q.GroupBy {
		c, err := resolve(g)
		if err != nil {
			return nil, err
		}
		b.GroupBy = append(b.GroupBy, c)
	}
	inGroupBy := func(c ColRef) bool {
		for _, g := range b.GroupBy {
			if g == c {
				return true
			}
		}
		return false
	}

	// Expand and validate the SELECT list.
	hasAgg := q.HasAggregates()
	for _, item := range q.Select {
		switch {
		case item.Star && hasAgg:
			return nil, fmt.Errorf("cql: * cannot be mixed with aggregates")
		case item.Star && item.Qualifier == "":
			for _, ref := range b.From {
				sch := b.Schemas[ref.Alias]
				for _, f := range sch.Fields {
					c := ColRef{Qualifier: ref.Alias, Name: f.Name}
					b.SelectCols = append(b.SelectCols, c)
					b.OutNames = append(b.OutNames, c.String())
				}
			}
		case item.Star:
			alias, ok := aliasMap[item.Qualifier]
			if !ok {
				return nil, fmt.Errorf("cql: unknown alias %q in %s.*", item.Qualifier, item.Qualifier)
			}
			for _, f := range b.Schemas[alias].Fields {
				c := ColRef{Qualifier: alias, Name: f.Name}
				b.SelectCols = append(b.SelectCols, c)
				b.OutNames = append(b.OutNames, c.String())
			}
		case item.Agg != "":
			spec := AggSpec{Func: item.Agg, Star: item.AggStar}
			if !item.AggStar {
				c, err := resolve(item.AggArg)
				if err != nil {
					return nil, err
				}
				if item.Agg != AggCount {
					f, _ := b.Schemas[c.Qualifier].FieldByName(c.Name)
					if f.Kind == stream.KindString && (item.Agg == AggSum || item.Agg == AggAvg) {
						return nil, fmt.Errorf("cql: %s over string attribute %s", item.Agg, c)
					}
				}
				spec.Arg = c
			} else if item.Agg != AggCount {
				return nil, fmt.Errorf("cql: %s(*) is not allowed; only COUNT(*)", item.Agg)
			}
			spec.OutName = item.As
			if spec.OutName == "" {
				spec.OutName = spec.String()
			}
			b.Aggs = append(b.Aggs, spec)
		default:
			c, err := resolve(item.Col)
			if err != nil {
				return nil, err
			}
			if hasAgg && !inGroupBy(c) {
				return nil, fmt.Errorf("cql: plain column %s must appear in GROUP BY when aggregating", c)
			}
			b.SelectCols = append(b.SelectCols, c)
			name := item.As
			if name == "" {
				name = c.String()
			}
			b.OutNames = append(b.OutNames, name)
		}
	}

	if len(b.GroupBy) > 0 && len(b.Aggs) == 0 {
		return nil, fmt.Errorf("cql: GROUP BY without aggregates is not supported")
	}

	// WHERE → DNF → classification.
	if q.Where != nil {
		if err := b.classifyWhere(q.Where, aliasMap); err != nil {
			return nil, err
		}
	}
	// Default every stream's selection to TRUE so profile composition can
	// rely on the map being total.
	for _, ref := range b.From {
		if _, ok := b.Sel[ref.Alias]; !ok {
			b.Sel[ref.Alias] = predicate.True()
		}
	}

	if err := b.derive(); err != nil {
		return nil, err
	}
	if err := b.checkExecutable(); err != nil {
		return nil, err
	}
	return b, nil
}

// checkExecutable makes analysis the one place a query is refused: what
// the layers below would refuse — a predicate the compiler cannot prove
// error-free for the catalog's kinds (spe.Compile, Profile.CompileFor),
// an aggregate over a join — fails here, before a plan installs or a
// profile subscribes, and nothing below needs a second evaluator for
// predicates that might error per tuple.
func (b *Bound) checkExecutable() error {
	if b.IsAggregate() && len(b.From) != 1 {
		return fmt.Errorf("cql: aggregates over joins are not supported")
	}
	if err := b.compileWhere(); err != nil {
		return fmt.Errorf("cql: WHERE cannot be evaluated: %w", err)
	}
	return nil
}

// compileWhere compiles every predicate the WHERE clause was split into
// against the schemas it will be evaluated over: per-alias selections on
// the source schema, joins and the residual on the joined namespace.
func (b *Bound) compileWhere() error {
	schemas := make([]*stream.Schema, len(b.From))
	for i, ref := range b.From {
		schemas[i] = b.Schemas[ref.Alias]
		if _, err := predicate.Compile(b.Sel[ref.Alias], schemas[i]); err != nil {
			return err
		}
	}
	if len(b.Joins) == 0 && len(b.Residual) == 0 {
		return nil
	}
	joined, err := stream.JoinSchema("joined", b.Aliases(), schemas)
	if err != nil {
		return err
	}
	if _, err := predicate.CompileAttrCmps(b.Joins, joined); err != nil {
		return err
	}
	if len(b.Residual) > 0 {
		_, err = predicate.Compile(b.Residual, joined)
	}
	return err
}

// AnalyzeString parses and binds in one step.
func AnalyzeString(src string, cat Catalog) (*Bound, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(q, cat)
}

// resolveCol qualifies a column reference and validates it.
func (b *Bound) resolveCol(c ColRef, aliasMap map[string]string) (ColRef, error) {
	if c.Qualifier != "" {
		alias, ok := aliasMap[c.Qualifier]
		if !ok {
			// The user may already use the canonical (stream) name.
			if _, ok := b.Schemas[c.Qualifier]; ok {
				alias = c.Qualifier
			} else {
				return ColRef{}, fmt.Errorf("cql: unknown alias %q", c.Qualifier)
			}
		}
		if !b.Schemas[alias].Has(c.Name) {
			return ColRef{}, fmt.Errorf("cql: stream %s has no attribute %s",
				b.Schemas[alias].Stream, c.Name)
		}
		return ColRef{Qualifier: alias, Name: c.Name}, nil
	}
	var found []string
	for alias, sch := range b.Schemas {
		if sch.Has(c.Name) {
			found = append(found, alias)
		}
	}
	switch len(found) {
	case 0:
		return ColRef{}, fmt.Errorf("cql: no stream has attribute %s", c.Name)
	case 1:
		return ColRef{Qualifier: found[0], Name: c.Name}, nil
	default:
		sort.Strings(found)
		return ColRef{}, fmt.Errorf("cql: attribute %s is ambiguous (%s)",
			c.Name, strings.Join(found, ", "))
	}
}

// atom is one classified WHERE comparison.
type atom struct {
	isJoin bool
	join   predicate.AttrCmp    // cross-alias column comparison
	alias  string               // owning alias for pushable constraints; "" for cross-alias diff
	con    predicate.Constraint // term-vs-const constraint (qualified names)
}

// classifyWhere converts the WHERE tree into DNF and splits it into join
// predicates, per-stream selections, and a residual.
func (b *Bound) classifyWhere(e Expr, aliasMap map[string]string) error {
	dnf, err := b.toDNF(e, aliasMap)
	if err != nil {
		return err
	}
	if len(dnf) == 0 {
		return fmt.Errorf("cql: WHERE clause is unsatisfiable")
	}

	// Join predicates must appear in every disjunct; collect the canonical
	// intersection and reject disjunctive join structure otherwise.
	joinSets := make([]map[string]predicate.AttrCmp, len(dnf))
	for i, disj := range dnf {
		joinSets[i] = map[string]predicate.AttrCmp{}
		for _, a := range disj {
			if a.isJoin {
				c := a.join.Canonical()
				joinSets[i][c.String()] = c
			}
		}
	}
	for key, cmp := range joinSets[0] {
		inAll := true
		for _, s := range joinSets[1:] {
			if _, ok := s[key]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			b.Joins = append(b.Joins, cmp)
		}
	}
	sort.Slice(b.Joins, func(i, j int) bool { return b.Joins[i].String() < b.Joins[j].String() })
	for i, s := range joinSets {
		if len(s) != len(b.Joins) {
			return fmt.Errorf("cql: disjunct %d has join predicates not shared by all disjuncts (unsupported)", i+1)
		}
	}

	// Strip joins; examine what remains.
	rest := make([][]atom, len(dnf))
	aliasesTouched := map[string]bool{}
	crossDiff := false
	for i, disj := range dnf {
		for _, a := range disj {
			if a.isJoin {
				continue
			}
			rest[i] = append(rest[i], a)
			if a.alias == "" {
				crossDiff = true
			} else {
				aliasesTouched[a.alias] = true
			}
		}
	}

	if len(dnf) == 1 {
		// Pure conjunction: split cleanly.
		perAlias := map[string]predicate.Conj{}
		var residual predicate.Conj
		for _, a := range rest[0] {
			if a.alias == "" {
				residual = append(residual, a.con)
				continue
			}
			perAlias[a.alias] = append(perAlias[a.alias], stripQualifier(a.con, a.alias))
		}
		for alias, cj := range perAlias {
			b.Sel[alias] = predicate.DNF{cj}
		}
		if len(residual) > 0 {
			b.Residual = predicate.DNF{residual}
		}
		return nil
	}

	// Multiple disjuncts: pushable only if every constraint concerns the
	// same single alias and there are no cross-alias terms.
	if !crossDiff && len(aliasesTouched) == 1 {
		var alias string
		for a := range aliasesTouched {
			alias = a
		}
		out := make(predicate.DNF, len(rest))
		for i, disj := range rest {
			cj := make(predicate.Conj, 0, len(disj))
			for _, a := range disj {
				cj = append(cj, stripQualifier(a.con, alias))
			}
			out[i] = cj
		}
		b.Sel[alias] = out.Simplify()
		return nil
	}

	// Otherwise the whole disjunction is evaluated post-join.
	out := make(predicate.DNF, len(rest))
	for i, disj := range rest {
		cj := make(predicate.Conj, 0, len(disj))
		for _, a := range disj {
			cj = append(cj, a.con)
		}
		out[i] = cj
	}
	b.Residual = out.Simplify()
	return nil
}

// stripQualifier rewrites a qualified constraint into the bare attribute
// namespace of one stream, the namespace CBN filters use.
func stripQualifier(c predicate.Constraint, alias string) predicate.Constraint {
	prefix := alias + "."
	out := c
	out.Term.A = strings.TrimPrefix(c.Term.A, prefix)
	if c.Term.B != "" {
		out.Term.B = strings.TrimPrefix(c.Term.B, prefix)
	}
	return out
}

// toDNF lowers the WHERE tree into disjunctive normal form over atoms.
func (b *Bound) toDNF(e Expr, aliasMap map[string]string) ([][]atom, error) {
	switch ex := e.(type) {
	case *BinExpr:
		l, err := b.toDNF(ex.L, aliasMap)
		if err != nil {
			return nil, err
		}
		r, err := b.toDNF(ex.R, aliasMap)
		if err != nil {
			return nil, err
		}
		if ex.Op == OpOr {
			return append(l, r...), nil
		}
		// AND: cross product.
		out := make([][]atom, 0, len(l)*len(r))
		for _, dl := range l {
			for _, dr := range r {
				d := make([]atom, 0, len(dl)+len(dr))
				d = append(d, dl...)
				d = append(d, dr...)
				out = append(out, d)
			}
		}
		return out, nil
	case *CmpExpr:
		a, err := b.classifyCmp(ex, aliasMap)
		if err != nil {
			return nil, err
		}
		return [][]atom{{a}}, nil
	default:
		return nil, fmt.Errorf("cql: unsupported WHERE expression %T", e)
	}
}

// classifyCmp normalises one comparison into an atom.
func (b *Bound) classifyCmp(c *CmpExpr, aliasMap map[string]string) (atom, error) {
	left, right, op := c.Left, c.Right, c.Op
	// Normalise literals to the right.
	if !left.IsCol && right.IsCol {
		left, right, op = right, left, op.Flip()
	}
	switch {
	case left.IsCol && !right.IsCol && !left.IsDiff:
		col, err := b.resolveCol(left.Col, aliasMap)
		if err != nil {
			return atom{}, err
		}
		return atom{
			alias: col.Qualifier,
			con:   predicate.Constraint{Term: predicate.Attr(col.String()), Op: op, Const: right.Lit},
		}, nil
	case left.IsCol && !right.IsCol && left.IsDiff:
		colA, err := b.resolveCol(left.Col, aliasMap)
		if err != nil {
			return atom{}, err
		}
		colB, err := b.resolveCol(left.Col2, aliasMap)
		if err != nil {
			return atom{}, err
		}
		alias := ""
		if colA.Qualifier == colB.Qualifier {
			alias = colA.Qualifier
		}
		return atom{
			alias: alias,
			con: predicate.Constraint{
				Term:  predicate.Diff(colA.String(), colB.String()),
				Op:    op,
				Const: right.Lit,
			},
		}, nil
	case left.IsCol && right.IsCol && !left.IsDiff && !right.IsDiff:
		colA, err := b.resolveCol(left.Col, aliasMap)
		if err != nil {
			return atom{}, err
		}
		colB, err := b.resolveCol(right.Col, aliasMap)
		if err != nil {
			return atom{}, err
		}
		if colA.Qualifier == colB.Qualifier {
			// Same-stream attribute comparison: expressible as a
			// difference term against zero, hence pushable.
			return atom{
				alias: colA.Qualifier,
				con: predicate.Constraint{
					Term:  predicate.Diff(colA.String(), colB.String()),
					Op:    op,
					Const: stream.Int(0),
				},
			}, nil
		}
		return atom{isJoin: true, join: predicate.AttrCmp{Left: colA.String(), Op: op, Right: colB.String()}}, nil
	case !left.IsCol && !right.IsCol:
		return atom{}, fmt.Errorf("cql: constant comparison %s is not supported", c)
	default:
		return atom{}, fmt.Errorf("cql: unsupported comparison form %s", c)
	}
}

// buildOutSchema derives the result stream schema. The stream name is a
// placeholder ("result"); processors rename it when registering the
// result stream.
func (b *Bound) buildOutSchema() error {
	var fields []stream.Field
	if len(b.Aggs) > 0 {
		// Selected plain columns (all validated to be grouping columns)
		// come first, then the aggregates, mirroring SQL output shape.
		for i, c := range b.SelectCols {
			f, _ := b.Schemas[c.Qualifier].FieldByName(c.Name)
			fields = append(fields, stream.Field{Name: b.OutNames[i], Kind: f.Kind, AvgLen: f.AvgLen})
		}
		for _, a := range b.Aggs {
			kind := stream.KindFloat
			switch a.Func {
			case AggCount:
				kind = stream.KindInt
			case AggMin, AggMax:
				if !a.Star {
					f, _ := b.Schemas[a.Arg.Qualifier].FieldByName(a.Arg.Name)
					kind = f.Kind
				}
			}
			fields = append(fields, stream.Field{Name: a.OutName, Kind: kind})
		}
	} else {
		for i, c := range b.SelectCols {
			f, _ := b.Schemas[c.Qualifier].FieldByName(c.Name)
			fields = append(fields, stream.Field{Name: b.OutNames[i], Kind: f.Kind, AvgLen: f.AvgLen})
		}
		if b.IncludeInputTs && len(b.From) > 1 {
			for _, ref := range b.From {
				// A [Now]-windowed input's timestamp always equals the
				// result timestamp (Lemma 1 with T = 0), so no hidden
				// column is needed for it; splitting filters use the
				// intrinsic timestamp instead.
				if ref.Window == stream.Now {
					continue
				}
				fields = append(fields, stream.Field{Name: InputTsAttr(ref.Alias), Kind: stream.KindTime})
			}
		}
	}
	sch, err := stream.NewSchema("result", fields...)
	if err != nil {
		return fmt.Errorf("cql: building output schema: %w", err)
	}
	b.OutSchema = sch
	return nil
}

// derive computes what the query's clauses determine and every reader
// asks for again: the output schema, the group signature and the needed
// attributes. Analyze calls it once the clauses are bound, Rebuild once
// the merge package has rewritten a clone's.
func (b *Bound) derive() error {
	if err := b.buildOutSchema(); err != nil {
		return err
	}
	b.sig, b.need = b.groupSignature(), b.neededAttrs()
	return nil
}

// NeededAttrs returns, per alias, the sorted set of bare attribute names
// the query touches — the projection set P of its source-retrieval profile
// (paper §4: "a projection predicate is composed by using all the
// attributes in the query"). The map and its slices are the Bound's own,
// computed once: read them, never write them.
func (b *Bound) NeededAttrs() map[string][]string { return b.need }

func (b *Bound) neededAttrs() map[string][]string {
	need := map[string]map[string]bool{}
	for _, ref := range b.From {
		need[ref.Alias] = map[string]bool{}
	}
	addQualified := func(qname string) {
		for alias := range need {
			prefix := alias + "."
			if strings.HasPrefix(qname, prefix) {
				need[alias][strings.TrimPrefix(qname, prefix)] = true
				return
			}
		}
	}
	for _, c := range b.SelectCols {
		need[c.Qualifier][c.Name] = true
	}
	for _, g := range b.GroupBy {
		need[g.Qualifier][g.Name] = true
	}
	for _, a := range b.Aggs {
		if !a.Star {
			need[a.Arg.Qualifier][a.Arg.Name] = true
		}
	}
	for _, j := range b.Joins {
		addQualified(j.Left)
		addQualified(j.Right)
	}
	for alias, dnf := range b.Sel {
		for _, attr := range dnf.Attrs() {
			need[alias][attr] = true
		}
	}
	for _, attr := range b.Residual.Attrs() {
		addQualified(attr)
	}
	out := map[string][]string{}
	for alias, set := range need {
		attrs := make([]string, 0, len(set))
		for a := range set {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		out[alias] = attrs
	}
	return out
}

// IsAggregate reports whether the query computes aggregates.
func (b *Bound) IsAggregate() bool { return len(b.Aggs) > 0 }

// GroupSignature returns the canonical signature used by the grouping
// optimiser: queries may share a group only when they involve the same
// set of streams, the same join predicates, and — for aggregates — the
// same aggregation functions and grouping columns (paper §4). It is
// computed once, with the Bound.
func (b *Bound) GroupSignature() string { return b.sig }

func (b *Bound) groupSignature() string {
	streams := make([]string, len(b.From))
	for i, ref := range b.From {
		streams[i] = ref.Stream + "/" + ref.Alias
	}
	sort.Strings(streams)
	var parts []string
	parts = append(parts, "from:"+strings.Join(streams, ","))
	parts = append(parts, "join:"+predicate.CanonicalAttrCmps(b.Joins))
	if len(b.Aggs) > 0 {
		aggs := make([]string, len(b.Aggs))
		for i, a := range b.Aggs {
			aggs[i] = a.String()
		}
		sort.Strings(aggs)
		groups := make([]string, len(b.GroupBy))
		for i, g := range b.GroupBy {
			groups[i] = g.String()
		}
		sort.Strings(groups)
		parts = append(parts, "agg:"+strings.Join(aggs, ","), "by:"+strings.Join(groups, ","))
	}
	return strings.Join(parts, ";")
}

// Aliases returns the canonical aliases in FROM order.
func (b *Bound) Aliases() []string {
	out := make([]string, len(b.From))
	for i, ref := range b.From {
		out[i] = ref.Alias
	}
	return out
}
