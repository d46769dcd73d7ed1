// Command benchmark is the polystore benchmark: four workloads against
// a real server.Serve over loopback TCP, every answer verified against
// an in-process oracle, end-to-end metrics from untraced closed and
// open loops, and a per-layer latency budget from a traced pass. See
// README.md.
//
//	benchmark -seed 1                      all four workloads, benchmark/out/result.json
//	benchmark -repeat 5 -trace 0           the untraced runs of the suite on seeds 1..5
//	benchmark -quick                       tiny tables, a few seconds
//	benchmark compare A.json B.json        two result files, metric by metric
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	                                       one workload; last line is one JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Seeds: the default every committed number uses, and the one held out
// to show the oracle and the claims do not depend on it.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// runSeconds is how long one run measures; BENCHMARK.json repeats it.
const runSeconds = 25

// environment is the block every result file carries.
type environment struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
	Repeat     int    `json:"repeat"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
}

func readEnvironment() environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Clients: clientCount()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// suiteRun is one pass over all four workloads on one seed.
type suiteRun struct {
	Seed      int64     `json:"seed"`
	Workloads []*result `json:"workloads"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []suiteRun  `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		workloadName = flag.String("workload", "", "run only this workload, in this process, and print one JSON result as the last line")
		seed         = flag.Int64("seed", defaultSeed, "seed for the generated data and query parameters")
		seconds      = flag.Int("seconds", runSeconds, "seconds of measurement per run")
		traceMode    = flag.Int("trace", -1, "0: untraced loops, end-to-end metrics; 1: shorter loops plus the traced pass, per-layer metrics; default 0 with -workload, both without")
		quick        = flag.Bool("quick", false, "tiny tables and sub-second phases: a correctness smoke test, not a measurement")
		repeat       = flag.Int("repeat", 1, "run the suite this many times, on seeds seed, seed+1, ...")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json and the span files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds < 1 || *repeat < 1 || *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat are at least 1, -trace is 0 or 1")
		os.Exit(2)
	}
	if *workloadName != "" {
		os.Exit(driverMain(*workloadName, *seed, *seconds, *traceMode == 1, *quick, *outDir))
	}
	os.Exit(suiteMain(*seed, *seconds, *repeat, *traceMode, *quick, *outDir))
}

// runOne runs one workload in this process. Untraced, the closed loop
// takes three fifths of the seconds and the open loop the rest, and
// set-up is repeated for its median; traced, the two loops share half
// of the seconds and the traced pass gets the other half.
func runOne(w workload, seed int64, seconds int, traced, quick bool, outDir string) (*result, error) {
	total := time.Duration(seconds) * time.Second
	cfg := runConfig{seed: seed, sz: fullSizes, setups: 3, outDir: outDir, log: os.Stdout,
		closed: total * 3 / 5, open: total * 2 / 5}
	if traced {
		cfg.setups = 1
		cfg.closed, cfg.open, cfg.traced = total*3/10, total*2/10, total/2
	}
	if quick {
		cfg.sz, cfg.setups = quickSizes, 1
		cfg.closed, cfg.open = 600*time.Millisecond, 400*time.Millisecond
		if traced {
			cfg.traced = 300 * time.Millisecond
		}
	}
	return runWorkload(w, cfg)
}

// resultLine is the last line of a one-workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain is the one-workload mode of the benchmark contract: the
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func driverMain(name string, seed int64, seconds int, traced, quick bool, outDir string) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, err := runOne(w, seed, seconds, traced, quick, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, res)
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		defs, vals = perLayer, res.PerLayer
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// suiteMain runs all four workloads, repeat times, and writes
// result.json. Every run is a process of its own — this program again
// with -workload — because a Go process that has held one workload's
// half-gigabyte heap runs the next one measurably slower: the suite's
// numbers are the same runs the benchmark contract's driver makes. It
// exits non-zero if any answer was wrong or missing.
func suiteMain(seed int64, seconds, repeat, traceMode int, quick bool, outDir string) int {
	correct, err := suite(seed, seconds, repeat, traceMode, quick, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "benchmark: at least one workload had wrong, failed or missing answers")
		return 1
	}
	return 0
}

func suite(seed int64, seconds, repeat, traceMode int, quick bool, outDir string) (correct bool, err error) {
	env := readEnvironment()
	env.Seed, env.Repeat, env.Seconds, env.Quick = seed, repeat, seconds, quick
	fmt.Printf("commit %s (modified=%v)  %s  nproc %d  GOMAXPROCS %d  clients %d  seed %d  repeat %d\n",
		env.Commit, env.Modified, env.GoVersion, env.NumCPU, env.GoMaxProcs, env.Clients, seed, repeat)
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Env: env}
	correct = true
	for r := 0; r < repeat; r++ {
		run := suiteRun{Seed: seed + int64(r)}
		for _, w := range workloads {
			res := &result{Workload: w.name, Seed: run.Seed, Correct: true}
			for _, traced := range []int{0, 1} {
				if traceMode >= 0 && traceMode != traced {
					continue
				}
				args := []string{"-workload", w.name, "-seed", fmt.Sprint(run.Seed), "-seconds", fmt.Sprint(seconds),
					"-trace", fmt.Sprint(traced), "-out", outDir}
				if quick {
					args = append(args, "-quick")
				}
				line, err := runChild(self, args)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, run.Seed, err)
				}
				vals := map[string]float64{}
				for name, v := range line.Metrics {
					vals[name] = v.Value
				}
				if traced == 1 {
					res.PerLayer = vals
				} else {
					res.EndToEnd = vals
				}
				res.Correct = res.Correct && line.Correct
				res.Attempted += line.Attempted
				res.Failed += line.Failed
			}
			correct = correct && res.Correct
			run.Workloads = append(run.Workloads, res)
		}
		file.Runs = append(file.Runs, run)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\nwrote %s\n", path)
	return correct, nil
}

// runChild runs this program with args, passes its output through, and
// decodes the result on its last line. The child has exited when it
// returns.
func runChild(self string, args []string) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	if jerr := json.Unmarshal([]byte(last), &line); jerr != nil {
		if err != nil {
			return line, err
		}
		return line, fmt.Errorf("no result on the last line: %w", jerr)
	}
	// A child that printed a result and exited 1 had wrong answers; the
	// result says so.
	return line, nil
}
