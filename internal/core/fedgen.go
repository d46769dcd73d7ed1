package core

// The seeded federation generator behind the randomized differential
// harnesses (equiv_test.go, chaos_test.go, and internal/server's
// concurrent-client and sharded-topology suites): one rand.Rand source
// fully determines a small federation — random schemas, random rows,
// random engine placement — plus a batch of cross-island SCOPE/CAST
// queries over it, so every harness compares execution configurations
// on the same query shapes. Only tests call it; it stays a non-test
// file because internal/server's tests import it from this package.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/stream"
)

// FedObject is one generated catalog object: its logical relation plus
// the engine it calls home.
type FedObject struct {
	Name  string
	Eng   EngineKind
	Rel   *engine.Relation
	Dense bool
}

// Load places the object into its home engine and registers it.
func (o *FedObject) Load(p *Polystore) error {
	if o.Eng != EngineSStore {
		return p.Load(o.Eng, o.Name, o.Rel, CastOptions{Dense: o.Dense})
	}
	// Stream objects: column 0 is the timestamp, the rest the record.
	schema := engine.Schema{Columns: append([]engine.Column{}, o.Rel.Schema.Columns[1:]...)}
	if err := p.Streams.CreateStream(o.Name, schema, o.Rel.Len()+1); err != nil {
		return err
	}
	for _, row := range o.Rel.Tuples {
		rec := stream.Record{TS: row[0].AsInt(), Values: row[1:]}
		if err := p.Streams.Append(o.Name, rec); err != nil {
			return err
		}
	}
	return p.Register(o.Name, EngineSStore, o.Name)
}

// IslandSchema predicts the relation schema the object exposes once
// CAST into an island — what Polystore.Dump of the object produces.
func (o *FedObject) IslandSchema() engine.Schema {
	switch o.Eng {
	case EngineSciDB:
		if o.Rel.Schema.Columns[0].Type != engine.TypeInt {
			cols := append([]engine.Column{engine.Col("i", engine.TypeInt)}, o.Rel.Schema.Columns...)
			return engine.Schema{Columns: cols}
		}
		return o.Rel.Schema
	case EngineAccumulo:
		return kvResultRelation().Schema
	default:
		return o.Rel.Schema
	}
}

// FedGen drives all randomness from one seeded source so a seed fully
// determines catalog and queries.
type FedGen struct {
	rng *rand.Rand
}

// NewFedGen builds a generator for the given seed.
func NewFedGen(seed int64) *FedGen {
	return &FedGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *FedGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

var fedVocab = []string{"ash", "birch", "cedar", "oak", "pine", "x1", "y2", ""}

// randRelation builds a relation with ncols+1 columns (c0 always
// present, used as row key / array dimension about half the time).
func (g *FedGen) randRelation(rows int) *engine.Relation {
	types := []engine.Type{engine.TypeInt, engine.TypeFloat, engine.TypeString}
	cols := []engine.Column{}
	// c0: INT half the time (array-dim friendly), else FLOAT or STRING.
	t0 := engine.TypeInt
	if g.rng.Intn(2) == 0 {
		t0 = types[g.rng.Intn(len(types))]
	}
	cols = append(cols, engine.Col("c0", t0))
	ncols := 2 + g.rng.Intn(3)
	for i := 1; i <= ncols; i++ {
		cols = append(cols, engine.Col(fmt.Sprintf("c%d", i), types[g.rng.Intn(len(types))]))
	}
	rel := engine.NewRelation(engine.Schema{Columns: cols})
	for r := 0; r < rows; r++ {
		row := make(engine.Tuple, len(cols))
		for j, c := range cols {
			// c0 never NULL (it keys kv rows and array dims); elsewhere ~8%.
			if j > 0 && g.rng.Intn(12) == 0 {
				row[j] = engine.Null
				continue
			}
			switch c.Type {
			case engine.TypeInt:
				if j == 0 {
					row[j] = engine.NewInt(int64(r)) // distinct dim/key values
				} else {
					row[j] = engine.NewInt(int64(g.rng.Intn(26) - 5))
				}
			case engine.TypeFloat:
				row[j] = engine.NewFloat(float64(g.rng.Intn(41)-10) / 2)
			default:
				row[j] = engine.NewString(g.pick(fedVocab))
			}
		}
		_ = rel.Append(row)
	}
	return rel
}

// Catalog places 3-5 generated objects across the four source engines.
func (g *FedGen) Catalog() []*FedObject {
	engines := []EngineKind{EnginePostgres, EngineSciDB, EngineAccumulo, EnginePostgres}
	n := 3 + g.rng.Intn(2)
	objs := make([]*FedObject, 0, n+1)
	for i := 0; i < n; i++ {
		eng := engines[g.rng.Intn(len(engines))]
		if i == 0 {
			eng = EnginePostgres // always at least one relational-resident table
		}
		objs = append(objs, &FedObject{
			Name:  fmt.Sprintf("o%d", i),
			Eng:   eng,
			Rel:   g.randRelation(8 + g.rng.Intn(40)),
			Dense: eng == EngineSciDB && g.rng.Intn(3) == 0,
		})
	}
	if g.rng.Intn(3) == 0 {
		// A stream source: ts INT plus two value columns.
		rel := engine.NewRelation(engine.NewSchema(
			engine.Col("ts", engine.TypeInt),
			engine.Col("v", engine.TypeFloat), engine.Col("tag", engine.TypeString)))
		for r := 0; r < 6+g.rng.Intn(10); r++ {
			_ = rel.Append(engine.Tuple{
				engine.NewInt(int64(r)),
				engine.NewFloat(float64(g.rng.Intn(21)) / 2),
				engine.NewString(g.pick(fedVocab)),
			})
		}
		objs = append(objs, &FedObject{Name: fmt.Sprintf("o%d", n), Eng: EngineSStore, Rel: rel})
	}
	return objs
}

// Queries generates n cross-island queries over the catalog.
func (g *FedGen) Queries(objs []*FedObject, n int) []string {
	qs := make([]string, 0, n)
	for len(qs) < n {
		o := objs[g.rng.Intn(len(objs))]
		switch g.rng.Intn(4) {
		case 0:
			qs = append(qs, g.relationalQuery(o, objs))
		case 1:
			qs = append(qs, g.arrayQuery(o))
		case 2:
			qs = append(qs, g.textQuery(o))
		default:
			qs = append(qs, g.nestedQuery(o))
		}
	}
	return qs
}

// relationalQuery: SELECT over CAST(o, relation), sometimes joined with
// a second (cast or catalog-resident) object.
func (g *FedGen) relationalQuery(o *FedObject, objs []*FedObject) string {
	schema := o.IslandSchema()
	var sb strings.Builder
	sb.WriteString("RELATIONAL(SELECT ")
	switch g.rng.Intn(4) {
	case 0:
		sb.WriteString("*")
	case 1:
		sb.WriteString("COUNT(*) AS n")
	default:
		picked := g.someColumns(schema)
		sb.WriteString(strings.Join(picked, ", "))
	}
	fmt.Fprintf(&sb, " FROM CAST(%s, relation)", o.Name)
	join := g.rng.Intn(4) == 0
	var other *FedObject
	if join {
		other = objs[g.rng.Intn(len(objs))]
		if other == o || other.Eng == EngineSStore {
			join = false
		}
	}
	if join {
		os := other.IslandSchema()
		kind := ""
		if g.rng.Intn(3) == 0 {
			kind = "LEFT "
		}
		lc := schema.Columns[g.rng.Intn(len(schema.Columns))].Name
		rc := os.Columns[g.rng.Intn(len(os.Columns))].Name
		fmt.Fprintf(&sb, " a %sJOIN CAST(%s, relation) b ON a.%s = b.%s", kind, other.Name, lc, rc)
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " WHERE %s", g.predicate(qualifySchema(schema, "a"), 1))
		}
	} else if g.rng.Intn(5) > 0 {
		fmt.Fprintf(&sb, " WHERE %s", g.predicate(schema, 2))
	}
	sb.WriteString(")")
	return sb.String()
}

// someColumns picks a non-empty random subset of the schema's columns,
// in schema order.
func (g *FedGen) someColumns(schema engine.Schema) []string {
	var picked []string
	for _, c := range schema.Columns {
		if g.rng.Intn(2) == 0 {
			picked = append(picked, c.Name)
		}
	}
	if len(picked) == 0 {
		picked = []string{schema.Columns[0].Name}
	}
	return picked
}

// qualifySchema prefixes every column name with an alias qualifier so
// the predicate generator emits qualified references.
func qualifySchema(s engine.Schema, alias string) engine.Schema {
	cols := make([]engine.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = engine.Column{Name: alias + "." + c.Name, Type: c.Type}
	}
	return engine.Schema{Columns: cols}
}

// arrayQuery: scan/filter/aggregate over CAST(o, array). Aggregates
// occasionally use the domain-sensitive 3-arg (group-by-dim) form and
// calls occasionally put whitespace before the parenthesis — both must
// disable pushdown, not change answers.
func (g *FedGen) arrayQuery(o *FedObject) string {
	schema := o.IslandSchema()
	term := fmt.Sprintf("CAST(%s, array)", o.Name)
	if g.rng.Intn(3) > 0 {
		filter := "filter"
		if g.rng.Intn(8) == 0 {
			filter = "filter " // splitCall tolerates the space
		}
		term = fmt.Sprintf("%s(%s, %s)", filter, term, g.predicate(schema, 1))
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("ARRAY(scan(%s))", term)
	default:
		agg := g.pick([]string{"min", "max", "sum", "count", "avg"})
		// Aggregate over an attribute column (a non-leading-INT column when
		// one exists; the last column is always an attribute).
		attr := schema.Columns[len(schema.Columns)-1].Name
		aggregate := "aggregate"
		if g.rng.Intn(8) == 0 {
			aggregate = "aggregate "
		}
		if g.rng.Intn(4) == 0 && schema.Columns[0].Type == engine.TypeInt {
			// 3-arg form: grouped per domain position of the first dim.
			return fmt.Sprintf("ARRAY(%s(%s, %s(%s), %s))",
				aggregate, term, agg, attr, schema.Columns[0].Name)
		}
		return fmt.Sprintf("ARRAY(%s(%s, %s(%s)))", aggregate, term, agg, attr)
	}
}

// textQuery: scan/get/count over CAST(o, text).
func (g *FedGen) textQuery(o *FedObject) string {
	term := fmt.Sprintf("CAST(%s, text)", o.Name)
	// Row keys come from the object's first column, stringified.
	key := func() string {
		if o.Rel.Len() == 0 {
			return "0"
		}
		v := o.Rel.Tuples[g.rng.Intn(o.Rel.Len())][0]
		return strings.ReplaceAll(v.String(), "'", "''")
	}
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("TEXT(get(%s, '%s'))", term, key())
	case 1:
		return fmt.Sprintf("TEXT(count(%s))", term)
	case 2:
		return fmt.Sprintf("TEXT(scan(%s, '%s'))", term, key())
	default:
		lo, hi := key(), key()
		if lo > hi {
			lo, hi = hi, lo
		}
		return fmt.Sprintf("TEXT(scan(%s, '%s', '%s'))", term, lo, hi)
	}
}

// nestedQuery: an inner island query feeding an outer scope through
// CAST — the multi-scope pipeline of §2.1.
func (g *FedGen) nestedQuery(o *FedObject) string {
	schema := o.IslandSchema()
	inner := fmt.Sprintf("ARRAY(filter(%s, %s))", o.Name, g.predicate(schema, 1))
	// The ARRAY island shims o in; the filtered result keeps o's island
	// schema (plus a synthesized dim when o lacks a leading INT column —
	// computing that exactly mirrors IslandSchema for SciDB residents).
	outSchema := schema
	if schema.Columns[0].Type != engine.TypeInt {
		outSchema = engine.Schema{Columns: append(
			[]engine.Column{engine.Col("i", engine.TypeInt)}, schema.Columns...)}
	}
	if g.rng.Intn(2) == 0 {
		return fmt.Sprintf("RELATIONAL(SELECT COUNT(*) AS n FROM CAST(%s, relation))", inner)
	}
	return fmt.Sprintf("RELATIONAL(SELECT * FROM CAST(%s, relation) WHERE %s)",
		inner, g.predicate(outSchema, 1))
}

// predicate builds a random boolean expression over the schema. depth
// bounds AND/OR/NOT nesting. Division is generated occasionally — its
// row-dependent errors (division by zero) are part of the behavior the
// differential configurations must agree on, and the planner must
// refuse to push any conjunct of a statement that contains one.
func (g *FedGen) predicate(schema engine.Schema, depth int) string {
	if depth > 0 && g.rng.Intn(3) == 0 {
		op := g.pick([]string{"AND", "OR"})
		l := g.predicate(schema, depth-1)
		r := g.predicate(schema, depth-1)
		if g.rng.Intn(6) == 0 {
			return fmt.Sprintf("NOT (%s %s %s)", l, op, r)
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r)
	}
	c := schema.Columns[g.rng.Intn(len(schema.Columns))]
	if g.rng.Intn(12) == 0 {
		// Error-prone arithmetic: divisor may be zero on some rows.
		return fmt.Sprintf("%d / %s %s %s",
			10+g.rng.Intn(20), c.Name, g.pick([]string{">", "<"}), g.literal(engine.TypeInt))
	}
	switch g.rng.Intn(8) {
	case 0:
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("%s IS NULL", c.Name)
		}
		return fmt.Sprintf("%s IS NOT NULL", c.Name)
	case 1:
		lo, hi := g.literal(c.Type), g.literal(c.Type)
		return fmt.Sprintf("%s BETWEEN %s AND %s", c.Name, lo, hi)
	case 2:
		items := []string{g.literal(c.Type), g.literal(c.Type), g.literal(c.Type)}
		return fmt.Sprintf("%s IN (%s)", c.Name, strings.Join(items, ", "))
	default:
		op := g.pick([]string{"<", "<=", ">", ">=", "=", "<>"})
		return fmt.Sprintf("%s %s %s", c.Name, op, g.literal(c.Type))
	}
}

// literal renders a random constant of (usually) the column's type;
// ~10% of the time the type is deliberately mismatched to exercise
// mixed-type comparison parity across the execution paths.
func (g *FedGen) literal(t engine.Type) string {
	if g.rng.Intn(10) == 0 {
		all := []engine.Type{engine.TypeInt, engine.TypeFloat, engine.TypeString}
		t = all[g.rng.Intn(len(all))]
	}
	switch t {
	case engine.TypeInt:
		return fmt.Sprintf("%d", g.rng.Intn(31)-6)
	case engine.TypeFloat:
		return fmt.Sprintf("%.1f", float64(g.rng.Intn(45)-12)/2)
	default:
		return "'" + g.pick(fedVocab) + "'"
	}
}
