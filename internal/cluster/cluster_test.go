package cluster_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// clusterProblem trains a small shared seed system once.
var clusterProblem struct {
	once sync.Once
	ds   *dataset.Dataset
	sys  *core.System
	err  error
}

func problem(t testing.TB) (*dataset.Dataset, *core.System) {
	t.Helper()
	p := &clusterProblem
	p.once.Do(func() {
		spec, ok := dataset.ByName("PAMAP")
		if !ok {
			p.err = errors.New("cluster: no PAMAP spec")
			return
		}
		spec.TrainSize, spec.TestSize = 300, 150
		ds, err := dataset.Generate(spec)
		if err != nil {
			p.err = err
			return
		}
		sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 4096, Seed: 7})
		if err != nil {
			p.err = err
			return
		}
		p.ds, p.sys = ds, sys
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.ds, p.sys
}

// snapshotOf serializes sys the way an operator's checkpoint file
// would carry it.
func snapshotOf(t testing.TB, sys *core.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startNode boots one in-process node server over sys — the httptest
// analogue of a `servehd -node` process — and returns it with its URL.
func startNode(t testing.TB, sys *core.System) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.New(sys, serve.Config{NodeAPI: true, DisableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs.URL
}

// startNodes boots n node servers, each loading its own copy of the
// snapshot — n `servehd -node` processes started from the same
// checkpoint file.
func startNodes(t testing.TB, snap []byte, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		nodeSys, err := core.Load(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		_, urls[i] = startNode(t, nodeSys)
	}
	return urls
}

func newCoordinator(t testing.TB, cfg cluster.Config) *cluster.Coordinator {
	t.Helper()
	co, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}
