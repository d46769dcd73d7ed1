// Command bigdawg is an interactive shell over the polystore: it loads
// the MIMIC II demo federation and accepts SCOPE/CAST queries on
// stdin, one per line — the conference-goer experience of §4.
//
// Usage:
//
//	bigdawg [-patients 200] [-monitor :6060] [-slow 50ms]
//	bigdawg -serve :4250 [-max-concurrent 16] [-max-queue 32] [-drain-timeout 15s]
//	bigdawg -serve :4251 -shard 0/2                      — shard server 0 of 2
//	bigdawg -serve :4250 -join 127.0.0.1:4251,127.0.0.1:4252 — scatter-gather coordinator
//	> POSTGRES(SELECT COUNT(*) FROM patients)
//	> RELATIONAL(SELECT * FROM CAST(waveforms, relation) WHERE v > 1.5 LIMIT 5)
//	> TEXT(search(notes, 'very sick', 3))
//	> EXPLAIN ANALYZE RELATIONAL(SELECT * FROM CAST(waveforms, relation) WHERE v > 1.5)
//	> .objects          — list catalog entries
//	> .islands          — list islands
//	> .cast wf postgres — migrate an object
//	> .metrics          — dump the metrics registry
//	> .advise wf        — the monitor's placement advice (§2.1)
//	> .quit
//
// -monitor serves expvar (/debug/vars, including the "bigdawg" metrics
// registry with query/cast latency quantiles) and net/http/pprof
// (/debug/pprof/) on the given address. -slow logs any query slower
// than the threshold to stderr together with its EXPLAIN ANALYZE span
// tree, so a slow cross-island cast shows which stage ate the time.
//
// -serve swaps the shell for the TCP server (serve.go): the same
// federation, the same -monitor endpoint, but queries arrive over the
// BDWQ wire protocol. -shard/-join (shard.go) turn a set of such
// servers into a sharded federation: N shard servers each holding one
// hash partition of every relational table, and a coordinator that
// scatters queries across them and merges. Load and scaling numbers
// come from the polystore benchmark (bash benchmark/run.sh), which
// drives these same server and shard topologies.
package main

import (
	"bufio"
	"context"
	_ "expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/mimic"
)

func main() {
	patients := flag.Int("patients", 200, "demo dataset size")
	monitorAddr := flag.String("monitor", "", "serve expvar and pprof on this address (e.g. :6060)")
	slow := flag.Duration("slow", 0, "log queries slower than this with their span tree (0 disables)")
	flag.Parse()

	cfg := mimic.DefaultConfig()
	cfg.Patients = *patients
	fmt.Printf("loading MIMIC II demo federation (%d patients)...\n", *patients)
	sys, err := demo.Load(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := sys.Poly
	if err := applyTopology(p); err != nil {
		log.Fatal(err)
	}

	if *monitorAddr != "" {
		if err := p.Metrics.PublishExpvar("bigdawg"); err != nil {
			log.Fatal(err)
		}
		go func() {
			// The expvar import mounts /debug/vars and the pprof import
			// mounts /debug/pprof on the default mux.
			log.Fatal(http.ListenAndServe(*monitorAddr, nil))
		}()
		fmt.Printf("monitor: http://%s/debug/vars and /debug/pprof/\n", *monitorAddr)
	}

	if *serveAddr != "" {
		if err := runServe(p); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("ready: %d objects across 4 engines, %d islands\n",
		len(p.Objects()), len(core.Islands()))
	fmt.Println(`type a SCOPE query like POSTGRES(SELECT COUNT(*) FROM patients), or .help`)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("bigdawg> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Println(`queries:  ISLAND(body) with ISLAND ∈ RELATIONAL ARRAY TEXT STREAM D4M POSTGRES SCIDB ACCUMULO SSTORE
explain:  EXPLAIN ANALYZE ISLAND(body) — span tree with durations, wire bytes, pushdown
commands: .objects .islands .cast <obj> <engine> .metrics .advise <obj> .quit`)
		case line == ".objects":
			for _, o := range p.Objects() {
				fmt.Printf("  %-20s %-10s (physical: %s)\n", o.Name, o.Engine, o.Physical)
			}
		case line == ".islands":
			for _, i := range core.Islands() {
				fmt.Println("  " + i)
			}
		case line == ".metrics":
			fmt.Println(indentMetrics(p.Metrics.String()))
		case strings.HasPrefix(line, ".advise "):
			advise(p, strings.TrimSpace(strings.TrimPrefix(line, ".advise ")))
		case strings.HasPrefix(line, ".cast "):
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println("usage: .cast <object> <engine>")
				break
			}
			res, err := p.Migrate(parts[1], core.EngineKind(parts[2]), core.CastOptions{})
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("migrated %s: %s → %s (%d rows, %s)\n",
				res.Object, res.From, res.To, res.Rows, res.Elapsed.Round(time.Microsecond))
		case hasExplainPrefix(line):
			report, rel, err := p.ExplainAnalyze(context.Background(), trimExplainPrefix(line))
			fmt.Print(report)
			if err != nil {
				break
			}
			fmt.Printf("(%d rows)\n", rel.Len())
		default:
			runQuery(p, line, *slow)
		}
		fmt.Print("bigdawg> ")
	}
}

// runQuery executes one interactive query. With -slow set, the query
// runs under EXPLAIN ANALYZE so a threshold breach can print the span
// tree that explains where the time went.
func runQuery(p *core.Polystore, q string, slow time.Duration) {
	start := time.Now()
	if slow > 0 {
		report, rel, err := p.ExplainAnalyze(context.Background(), q)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if elapsed >= slow {
			log.Printf("slow query (%s >= %s): %s\n%s",
				elapsed.Round(time.Microsecond), slow, q, report)
		}
		fmt.Print(rel)
		fmt.Printf("(%d rows, %s)\n", rel.Len(), elapsed.Round(time.Microsecond))
		return
	}
	rel, err := p.Query(q)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(rel)
	fmt.Printf("(%d rows, %s)\n", rel.Len(), time.Since(start).Round(time.Microsecond))
}

// advise prints the monitor's placement recommendation for one object —
// the §2.1 loop surfaced interactively. The monitor learns from every
// query the shell runs.
func advise(p *core.Polystore, object string) {
	var eng core.EngineKind
	found := false
	for _, o := range p.Objects() {
		if o.Name == object {
			eng, found = o.Engine, true
			break
		}
	}
	if !found {
		fmt.Printf("unknown object %q (try .objects)\n", object)
		return
	}
	adv := p.Monitor.Advise(object, string(eng))
	if adv.ShouldMigrate {
		fmt.Printf("migrate %s: %s → %s (%s)\n", object, adv.From, adv.To, adv.Reason)
		fmt.Printf("  try: .cast %s %s\n", object, adv.To)
	} else {
		fmt.Printf("keep %s on %s (%s)\n", object, eng, adv.Reason)
	}
}

func hasExplainPrefix(line string) bool {
	u := strings.ToUpper(line)
	return strings.HasPrefix(u, "EXPLAIN ANALYZE ") || strings.HasPrefix(u, "EXPLAIN ")
}

func trimExplainPrefix(line string) string {
	for _, p := range []string{"EXPLAIN ANALYZE ", "EXPLAIN "} {
		if len(line) >= len(p) && strings.EqualFold(line[:len(p)], p) {
			return strings.TrimSpace(line[len(p):])
		}
	}
	return line
}

// indentMetrics reflows the registry's single-line JSON to one metric
// per line for the terminal.
func indentMetrics(s string) string {
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	var sb strings.Builder
	for i, part := range strings.Split(s, ", \"") {
		if i > 0 {
			part = "\"" + part
		}
		sb.WriteString("  " + part + "\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}
