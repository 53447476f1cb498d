// Command perfbench is the repository benchmark: it runs one closed-loop
// workload in-process against the real serving stack (HTTP front end,
// batching pool, encoder, scorer, recovery loop, fault substrate,
// replica fleet, journal), checks every answer, and prints one JSON
// result line.
//
//	perfbench --workload heal_dram --seed 1 --seconds 8 --trace 0
//
// It runs from the repository root. With --trace 0 the result carries
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics listed under per_layer in BENCHMARK.json, and the spans are
// written to .bench_build/trace-<workload>-<seed>.json.
// The process exits nonzero when an answer is malformed, a request
// fails, or served accuracy falls below the workload's floor.
// --recovery 0 turns the recovery loop off: on heal_dram that run falls
// below the floor.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bitvec"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for the request schedule and fault placement")
	seconds := flag.Float64("seconds", 8, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	recovery := flag.Int("recovery", 1, "0 turns the recovery loop off, to check that the accuracy floor catches a build that heals less")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || (*recovery != 0 && *recovery != 1) {
		fail(errors.New("--seconds must be positive and --trace and --recovery 0 or 1"))
	}
	opts := options{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		warmup:  warmupRequests,
		setups:  setupRepeats,
		trace:   *trace == 1,
		recover: *recovery == 1,
	}
	if opts.trace {
		var err error
		if opts.layers, err = readPerLayer("BENCHMARK.json"); err != nil {
			fail(err)
		}
	}
	ctx := runContext(*name, *seed)
	ctxLine, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(ctxLine))

	res, err := run(w, opts)
	if err != nil {
		fail(err)
	}
	if opts.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := res.tracer.write(path, ctx, res.out.Metrics); err != nil {
			fail(err)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", res.accuracy)
	if res.problem != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", res.problem)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.out.Correct {
		os.Exit(1)
	}
}

// runContext records what a result must be read against: the SIMD
// kernel tier, the core count and the toolchain. Runs on another tier
// or core count are not comparable.
func runContext(workload string, seed uint64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"kernel":     bitvec.KernelName(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
