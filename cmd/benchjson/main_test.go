package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU
BenchmarkRetrain-8   	     100	  11053049 ns/op
BenchmarkRetrainParallel/w4-8 	     120	   3021456 ns/op	     128 B/op	       3 allocs/op
BenchmarkTable4-8    	       1	911814744 ns/op	         0.3264 meanLoss10%:with
some unrelated log line
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Context["goos"] != "linux" || rep.Context["cpu"] != "Intel(R) Xeon(R) CPU" {
		t.Fatalf("context: %v", rep.Context)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkRetrainParallel/w4-8" || b.Runs != 120 {
		t.Fatalf("bench line: %+v", b)
	}
	if b.Metrics["ns/op"] != 3021456 || b.Metrics["allocs/op"] != 3 {
		t.Fatalf("metrics: %v", b.Metrics)
	}
	if got := rep.Benchmarks[2].Metrics["meanLoss10%:with"]; got != 0.3264 {
		t.Fatalf("custom metric: %v", got)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFoo-8",                 // no iteration count
		"BenchmarkFoo-8 abc 12 ns/op",    // bad count
		"BenchmarkFoo-8 10 twelve ns/op", // bad value
		"NotABenchmark 10 12 ns/op",      // wrong prefix
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parsed malformed line %q", line)
		}
	}
}
