package main

import (
	"testing"
)

// seededCounters are the program counters a run's seed must fix: faults,
// scrubs, sweeps, repairs and the journal.
var seededCounters = []string{
	"substrate.bits_flipped",
	"substrate.scrubs",
	"fleet.sweeps",
	"fleet.repaired_chunks",
	"fleet.journal_events",
	"fleet.journal_seals",
}

// tinyRun runs a count-bounded slice of a workload with recovery off:
// recovery's pseudo-label order follows goroutine scheduling, while
// faults and sweeps follow the request index alone. Without recovery
// heal_dram may fall below its accuracy floor, so only failed requests
// count against the run.
func tinyRun(t *testing.T, name string, seed uint64) *outcome {
	t.Helper()
	oc, err := run(workloads[name], options{seed: seed, requests: 150, setups: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if oc.out.Failed != 0 || oc.out.Attempted != 150 {
		t.Fatalf("%s seed %d: %+v", name, seed, oc.out)
	}
	return oc
}

func TestSeedFixesScheduleAndCounters(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b, c := tinyRun(t, name, 7), tinyRun(t, name, 7), tinyRun(t, name, 8)
			if a.schedule != b.schedule {
				t.Errorf("same seed, schedules %x and %x", a.schedule, b.schedule)
			}
			if a.schedule == c.schedule {
				t.Errorf("seeds 7 and 8 give the same schedule %x", a.schedule)
			}
			moved := false
			for _, k := range seededCounters {
				if a.counters[k] != b.counters[k] {
					t.Errorf("same seed, %s = %v and %v", k, a.counters[k], b.counters[k])
				}
				moved = moved || a.counters[k] != c.counters[k]
			}
			// The tenants' memory is clean: only their schedule is seeded.
			faulty := a.counters["substrate.bits_flipped"] > 0
			if faulty && !moved {
				t.Errorf("seeds 7 and 8 give the same counters %v", pick(a.counters))
			}
			if name != "http_tenants" && !faulty {
				t.Errorf("no faults landed: %v", pick(a.counters))
			}
			t.Logf("seed 7: %v; seed 8: %v", pick(a.counters), pick(c.counters))
		})
	}
}

func pick(c counters) map[string]float64 {
	out := map[string]float64{}
	for _, k := range seededCounters {
		out[k] = c[k]
	}
	return out
}
