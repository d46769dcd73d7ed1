package core

// Fuzz and property tests for the SCOPE/CAST surface syntax —
// parseScope, findCall, splitTopArgs and the Query entry point. The
// parsers are hand-rolled scanners, so the risks are classic: quote
// handling (a 'CAST(' inside a string literal must be invisible),
// unbalanced parentheses (error, never a silent truncation), and deep
// nesting (must stay iterative — no stack-overflow panics).
//
// Run the fuzzers properly with e.g.:
//
//	go test ./internal/core -fuzz FuzzFindCall -fuzztime 30s

import (
	"context"
	"strings"
	"testing"
)

func FuzzParseScope(f *testing.F) {
	for _, s := range []string{
		"RELATIONAL(SELECT 1)",
		"ARRAY(filter(CAST(wf, array), v > 1))",
		"TEXT(scan(CAST(x, text), 'a(', 'b)'))",
		"RELATIONAL(SELECT 'CAST(x, y)' FROM t)",
		"RELATIONAL(a(b)",
		"NOPE(x)",
		"(x)",
		"RELATIONAL(((((((((()))))))))))",
		"relational(SELECT ')' FROM t)",
		"RELATIONAL(SELECT * FROM t) -- trailing",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		sq, err := parseScope(q) // must never panic
		if err != nil {
			return
		}
		// A successful parse promises a known island and a body whose
		// parens balance outside string literals — the contract every
		// downstream scanner (findCall, splitTopArgs) assumes.
		known := false
		for _, is := range Islands() {
			if sq.island == is {
				known = true
			}
		}
		if !known {
			t.Fatalf("parseScope(%q) accepted unknown island %q", q, sq.island)
		}
		if !balanced(sq.body) {
			t.Fatalf("parseScope(%q) accepted unbalanced body %q", q, sq.body)
		}
	})
}

func FuzzFindCall(f *testing.F) {
	for _, s := range []string{
		"CAST(a, b)",
		"SELECT 'CAST(x, y)' FROM CAST(wf, relation)",
		"cast(CAST(a, b), c)",
		"BROADCAST(a)",
		"CAST(a, b",
		"CAST('unterminated",
		strings.Repeat("CAST(", 2000) + "x" + strings.Repeat(")", 2000),
		"filter(CAST(x, array), v > '(' )",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		start, end, ok := findCall(s, "CAST", 0) // must never panic
		if !ok {
			return
		}
		if start < 0 || end > len(s) || start >= end {
			t.Fatalf("findCall(%q) returned bad span [%d, %d)", s, start, end)
		}
		span := s[start:end]
		if !strings.HasPrefix(strings.ToUpper(span), "CAST(") || !strings.HasSuffix(span, ")") {
			t.Fatalf("findCall(%q) span %q is not a CAST call", s, span)
		}
		if start > 0 && isWordChar(s[start-1]) {
			t.Fatalf("findCall(%q) matched mid-word at %d", s, start)
		}
		// The span's interior must itself split without panicking.
		_ = splitTopArgs(span[len("CAST(") : len(span)-1])
	})
}

func FuzzSplitTopArgs(f *testing.F) {
	for _, s := range []string{
		"a, b",
		"f(a, b), c",
		"'a, b', c",
		"', ', ', '",
		"(a, (b, c)), d",
		"unbalanced (a, b",
		"",
		",",
		strings.Repeat("(", 5000) + strings.Repeat(")", 5000),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		args := splitTopArgs(body) // must never panic
		// Dropping separators never invents characters: the args must
		// all be substrings, in order, of the original body.
		from := 0
		for _, a := range args {
			i := strings.Index(body[from:], a)
			if i < 0 {
				t.Fatalf("splitTopArgs(%q) invented arg %q", body, a)
			}
			from += i + len(a)
		}
	})
}

// FuzzQueryNoPanic drives the full Query pipeline — scope parse, CAST
// planning/resolution, island dispatch — over a live federation.
// Whatever the input, Query must return a result or an error, never
// panic, and must leave no temp objects behind.
func FuzzQueryNoPanic(f *testing.F) {
	for _, s := range []string{
		`RELATIONAL(SELECT * FROM CAST(wf, relation) WHERE v > 1.5)`,
		`ARRAY(aggregate(filter(CAST(patients, array), age > 60), avg(age)))`,
		`TEXT(scan(CAST(patients, text), '1', '3'))`,
		`RELATIONAL(SELECT COUNT(*) FROM CAST(ARRAY(filter(wf, v > 1.5)), relation))`,
		`RELATIONAL(SELECT 'CAST(wf, relation)' FROM patients)`,
		`RELATIONAL(SELECT * FROM CAST(wf))`,
		`RELATIONAL(SELECT * FROM CAST(wf, hologram))`,
		`RELATIONAL(` + strings.Repeat("CAST(", 64) + "wf" + strings.Repeat(", relation)", 64) + `)`,
		`TEXT(get(CAST(notes, text), 'p1'')'))`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 4096 {
			return // keep individual executions bounded
		}
		p := demoStore(t)
		before := len(p.Objects())
		_, _ = p.Query(q) // must never panic
		if after := len(p.Objects()); after != before {
			t.Fatalf("Query(%q) leaked %d temp objects", q, after-before)
		}
	})
}

// Deterministic regressions for the scanner edge cases the fuzzers
// seed: quoted CAST terms, unbalanced input, deep nesting.
func TestFindCallEdgeCases(t *testing.T) {
	if _, _, ok := findCall(`SELECT 'CAST(x, y)' FROM t`, "CAST", 0); ok {
		t.Error("findCall matched a CAST inside a string literal")
	}
	if _, _, ok := findCall(`BROADCAST(x)`, "CAST", 0); ok {
		t.Error("findCall matched a word-suffix CAST")
	}
	if _, _, ok := findCall(`CAST(a, b`, "CAST", 0); ok {
		t.Error("findCall accepted an unterminated call")
	}
	if _, _, ok := findCall(`CAST('a)b', c)`, "CAST", 0); !ok {
		t.Error("findCall must see through quoted close parens")
	}
	start, end, ok := findCall(`x CAST(f(a), g(b, h(c)))`, "CAST", 0)
	if !ok || start != 2 || end != 24 {
		t.Errorf("nested-call span: [%d, %d) ok=%v", start, end, ok)
	}
	deep := strings.Repeat("f(", 100_000) + "x" + strings.Repeat(")", 100_000)
	if _, _, ok := findCall("CAST("+deep+", relation)", "CAST", 0); !ok {
		t.Error("findCall must handle deep nesting iteratively")
	}
}

func TestSplitTopArgsEdgeCases(t *testing.T) {
	got := splitTopArgs(`f(a, b), 'x, y', c`)
	if len(got) != 3 || got[0] != "f(a, b)" || got[1] != "'x, y'" || got[2] != "c" {
		t.Errorf("splitTopArgs: %q", got)
	}
	if got := splitTopArgs(""); got != nil {
		t.Errorf("empty body: %q", got)
	}
	if got := splitTopArgs(","); len(got) != 2 {
		t.Errorf("bare comma must produce two (empty) args, got %q", got)
	}
}

func TestParseScopeRejectsMalformed(t *testing.T) {
	bad := []string{
		"RELATIONAL(SELECT 1",        // unterminated
		"RELATIONAL(SELECT 1) extra", // trailing junk
		"RELATIONAL(a))",             // body over-closes
		"RELATIONAL(')",              // unterminated string hides the close
		"RELATIONAL" + strings.Repeat("(", 50_000) + strings.Repeat(")", 49_999),
	}
	for _, q := range bad {
		if _, err := parseScope(q); err == nil {
			t.Errorf("parseScope(%q) should fail", trunc(q))
		}
	}
	// Deeply nested but balanced bodies parse fine (and iteratively).
	deep := "ARRAY" + strings.Repeat("(", 50_000) + "x" + strings.Repeat(")", 50_000)
	if _, err := parseScope(deep); err != nil {
		t.Errorf("balanced deep nesting should parse: %v", err)
	}
}

func trunc(s string) string {
	if len(s) > 60 {
		return s[:60] + "…"
	}
	return s
}

// TestCastCountGuardBoundary pins the CAST-count guard on both
// resolver paths: a body with exactly maxCastsPerQuery CAST terms
// resolves on planner-on and planner-off alike, one more errors on
// both — the planner-off guard used to trip one cast early, making
// SetPushdown(false) a non-equivalent baseline at the boundary.
func TestCastCountGuardBoundary(t *testing.T) {
	body := func(n int) string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = "CAST(wf, relation)"
		}
		return "f(" + strings.Join(terms, ", ") + ")"
	}
	p := demoStore(t)
	for _, tc := range []struct {
		n  int
		ok bool
	}{{maxCastsPerQuery, true}, {maxCastsPerQuery + 1, false}} {
		_, temps, err := p.resolveCasts(context.Background(), body(tc.n))
		//lint:ignore templeak per-iteration cleanup in a bounded table-driven loop; a defer would pile temps up until the test returns
		p.dropTempObjects(temps)
		if (err == nil) != tc.ok {
			t.Errorf("resolveCasts with %d CAST terms: err=%v, want ok=%v", tc.n, err, tc.ok)
		}
		_, pend, err := p.extractCasts(context.Background(), body(tc.n), maxCastsPerQuery)
		for _, pc := range pend {
			//lint:ignore templeak per-iteration cleanup in a bounded table-driven loop; a defer would pile temps up until the test returns
			p.dropTempObjects([]string{pc.placeholder})
		}
		if (err == nil) != tc.ok {
			t.Errorf("extractCasts with %d CAST terms: err=%v, want ok=%v", tc.n, err, tc.ok)
		}
		// The array planner executes pushable filter-casts itself; they
		// must draw from the same budget, not get a second allowance.
		arrTerms := make([]string, tc.n)
		for i := range arrTerms {
			arrTerms[i] = "filter(CAST(wf, array), v > 1.5)"
		}
		_, temps, err = p.planArray(context.Background(), "f("+strings.Join(arrTerms, ", ")+")")
		//lint:ignore templeak per-iteration cleanup in a bounded table-driven loop; a defer would pile temps up until the test returns
		p.dropTempObjects(temps)
		if (err == nil) != tc.ok {
			t.Errorf("planArray with %d pushable CAST terms: err=%v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}
