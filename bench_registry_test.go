// Multi-tenant registry benchmarks: the dispatch tax of routing a
// request through the model registry (tenant lookup, drain guard)
// versus a bare serve.Server, and the
// serving-time cost of the LogHD compressed backend next to dense.
// CI's bench job runs them into its BENCH.json artifact.
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/serve"
)

// benchRegistry builds a registry with n tenants forked from one
// trained system, compressed to the LogHD backend when loghd is set.
func benchRegistry(b *testing.B, base *core.System, n int, loghd bool) (*registry.Registry, []string) {
	b.Helper()
	reg := registry.New(registry.Config{Serve: serve.Config{
		Shards:          4,
		BatchSize:       64,
		DisableRecovery: true,
	}})
	b.Cleanup(reg.Close)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
		sys := base.Fork()
		if loghd {
			c, err := sys.CompressLogHD(2)
			if err != nil {
				b.Fatal(err)
			}
			sys = c
		}
		if err := reg.Create(ids[i], sys); err != nil {
			b.Fatal(err)
		}
	}
	return reg, ids
}

// BenchmarkRegistryPredict drives parallel clients through the
// registry dispatch path with traffic round-robined across every
// tenant. tenants=1 against BenchmarkServePredictParallel/idle is the
// pure dispatch overhead; tenants=8 is the acceptance shape — eight
// isolated serving stacks in one process.
func BenchmarkRegistryPredict(b *testing.B) {
	sys, ds := benchSystem(b)
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			reg, ids := benchRegistry(b, sys, tenants, false)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					id := ids[i%len(ids)]
					if _, err := reg.PredictMany(id, [][]float64{ds.TestX[i%len(ds.TestX)]}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLogHDPredict is the backend comparison on the same dispatch
// path: eight dense tenants versus eight LogHD tenants. The compressed
// backend trades per-class memory for the log-plane decode on every
// score; class-bytes-per-tenant pins the memory side of that trade
// next to the latency numbers. ISOLET (k=26) is the operating point —
// LogHD only pays off when the class count clears the plane count, and
// at PAMAP's k=5 the planes would cost as much as the classes.
func BenchmarkLogHDPredict(b *testing.B) {
	spec := dataset.ISOLET()
	spec.TrainSize, spec.TestSize = 300, 100
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		loghd bool
	}{
		{"dense", false},
		{"loghd", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			reg, ids := benchRegistry(b, sys, 8, tc.loghd)
			srv, err := reg.Server(ids[0])
			if err != nil {
				b.Fatal(err)
			}
			classBytes := srv.MetricsSnapshot().Model.StorageBits / 8
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					id := ids[i%len(ids)]
					if _, err := reg.PredictMany(id, [][]float64{ds.TestX[i%len(ds.TestX)]}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(classBytes), "class-bytes/tenant")
		})
	}
}
