// Command servehd runs the RobustHD online inference server: an
// HTTP/JSON service whose deployed class hypervectors self-heal from
// bit-flip faults while it serves traffic.
//
// Start it from a saved checkpoint:
//
//	robusthd -dataset PAMAP -save model.rhd
//	servehd -addr :8080 -load model.rhd
//
// or let it train at startup on a built-in benchmark dataset (the
// test split is installed as the held-out accuracy probe):
//
//	servehd -addr :8080 -dataset PAMAP -dims 8000 -probe 5s
//
// Then classify, drill, and watch it recover:
//
//	curl -s localhost:8080/predict -d '{"x":[...]}'
//	curl -s localhost:8080/attack  -d '{"kind":"targeted","rate":0.10}'
//	curl -s localhost:8080/metrics
//
// Or mount the deployed model on a continuously faulting substrate and
// let the watchdog checkpoint, escalate, and roll back on its own:
//
//	servehd -dataset PAMAP -probe 2s -substrate dram -timescale 100 \
//	        -cluster 400 -watchdog 5s
//
// Or run a replica fleet: every prediction is answered by a read
// quorum of independent model copies, and a background anti-entropy
// sweep repairs divergent chunks back to the cross-replica majority:
//
//	servehd -dataset PAMAP -replicas 3 -antientropy 2s \
//	        -substrate adversarial -campaign-rate 0.02
//
// Or distribute the fleet across processes: start each replica as a
// node (its own substrate, recovery loop, and journal), then point a
// coordinator at the set — predictions quorum-vote over HTTP, and
// anti-entropy compares chunk hashes across nodes, pushing majority
// chunks back and re-seeding any node too far gone:
//
// Or serve many models from one process: each -models tenant gets its
// own isolated serving stack (batcher, recovery loop, substrate,
// watchdog) behind a registry that routes /predict by the request's
// "model" field, with /models CRUD and per-tenant /metrics sections:
//
//	servehd -models "har:UCIHAR,iso:ISOLET,iso-lg:ISOLET:loghd" -probe 5s
//	curl -s localhost:8080/predict -d '{"model":"iso","x":[...]}'
//	curl -s localhost:8080/models
//
//	servehd -node -addr 127.0.0.1:7001 -load model.rhd &
//	servehd -node -addr 127.0.0.1:7002 -load model.rhd &
//	servehd -node -addr 127.0.0.1:7003 -load model.rhd &
//	servehd -coordinator -addr :8080 -antientropy 2s \
//	        -peers http://127.0.0.1:7001,http://127.0.0.1:7002,http://127.0.0.1:7003
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight predictions are
// answered and the recovery backlog is applied before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/recovery"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/substrate"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	loadFile := flag.String("load", "", "start from a saved system (robusthd -save / GET /snapshot format)")
	dsName := flag.String("dataset", "", "train at startup on this built-in dataset (MNIST, UCIHAR, ISOLET, FACE, PAMAP, PECAN)")
	dims := flag.Int("dims", 10000, "hypervector dimensionality (with -dataset)")
	seed := flag.Uint64("seed", 1, "training seed (with -dataset)")
	shards := flag.Int("shards", 0, "batching shards; the pool starts exactly this many batchers, whatever GOMAXPROCS is (0 = default 4)")
	batch := flag.Int("batch", 0, "max batch size (0 = default)")
	window := flag.Duration("window", 0, "batch fill window (0 = default)")
	probe := flag.Duration("probe", 0, "held-out accuracy probe interval (0 disables)")
	tc := flag.Float64("tc", 0, "recovery confidence threshold T_C (0 = default)")
	chunks := flag.Int("chunks", 0, "recovery fault-detection chunks m (0 = default)")
	sub := flag.Float64("sub", 0, "recovery substitution rate S (0 = default)")
	noRecover := flag.Bool("norecover", false, "disable the background recovery loop")
	subKind := flag.String("substrate", "", "mount a live fault process: dram, endurance, or adversarial ('' disables)")
	subSeed := flag.Uint64("substrate-seed", 1, "fault-process seed (weak cells, victim selection)")
	scrub := flag.Duration("scrub", 0, "substrate scrub tick (0 = default 100ms; with -substrate)")
	timeScale := flag.Float64("timescale", 0, "dram: wall-clock to simulated-time multiplier (0 = 1x)")
	refreshMs := flag.Float64("refresh", 0, "dram: simulated refresh interval in ms (0 = default 1000)")
	clusterRun := flag.Int("cluster", 0, "dram: weak cells per wordline-correlated run (0 = independent)")
	campaignRate := flag.Float64("campaign-rate", 0, "adversarial: image fraction flipped per step (0 = default)")
	campaignEvery := flag.Duration("campaign-every", 0, "adversarial: period between campaign steps (0 = default 1s)")
	campaignTargeted := flag.Bool("campaign-targeted", false, "adversarial: pick worst-case victim bits")
	watchdog := flag.Duration("watchdog", 0, "degradation watchdog window interval (0 disables)")
	accDrop := flag.Float64("watchdog-drop", 0, "watchdog: tolerated probe-accuracy drop below the checkpoint stamp (0 = default 0.02)")
	cpFloor := flag.Float64("checkpoint-floor", 0, "minimum stamped accuracy for checkpoints and /restore uploads (0 = default 0.5)")
	replicas := flag.Int("replicas", 0, "run a replica fleet of this size instead of a single model (0 disables; excludes -watchdog)")
	quorum := flag.Int("quorum", 0, "fleet read-quorum size (0 = majority; with -replicas)")
	antiEntropy := flag.Duration("antientropy", 0, "fleet anti-entropy sweep interval (0 disables; with -replicas)")
	journalFile := flag.String("journal", "", "append fleet/watchdog events as hash-chained JSONL to this file ('' disables); reopening resumes and verifies the chain")
	journalSync := flag.Bool("journal-sync", false, "fsync the journal after every event (crash-safe, slower; with -journal)")
	journalSeal := flag.Int("journal-seal", fleet.DefaultSealBatch, "Merkle-seal the journal every N events; sealed roots anchor snapshots and serve /journal/proof (0 disables sealing; with -journal)")
	nodeMode := flag.Bool("node", false, "run as a cluster node: mount the /node/* API for a coordinator (excludes -replicas)")
	coordMode := flag.Bool("coordinator", false, "run as a cluster coordinator over -peers instead of serving a model")
	peers := flag.String("peers", "", "comma-separated node base URLs (with -coordinator)")
	nodeTimeout := flag.Duration("node-timeout", 0, "coordinator per-node request deadline (0 = default 2s)")
	models := flag.String("models", "", `multi-tenant registry mode: comma-separated "id:DATASET[:loghd]" tenants, each trained at startup with its own serving stack (excludes -load, -dataset, -replicas, -node, -coordinator)`)
	flag.Parse()

	if *coordMode && (*nodeMode || *loadFile != "" || *dsName != "" || *replicas > 0) {
		fail(errors.New("-coordinator runs no model of its own: drop -node, -load, -dataset, and -replicas"))
	}
	if *models != "" && (*coordMode || *nodeMode || *loadFile != "" || *dsName != "" || *replicas > 0) {
		fail(errors.New("-models is the whole topology: drop -load, -dataset, -replicas, -node, and -coordinator"))
	}

	var journal *fleet.Journal
	if *journalFile != "" {
		// OpenJournalFile verifies any existing content before appending
		// (a tampered journal refuses to open) and resumes the hash chain
		// across restarts, truncating at most one crash-torn final line.
		j, resumed, err := fleet.OpenJournalFile(*journalFile)
		if err != nil {
			fail(err)
		}
		journal = j
		journal.SetSyncOnAppend(*journalSync)
		journal.SetSealBatch(*journalSeal)
		if resumed > 0 {
			fmt.Printf("journal %s: chain verified, resuming at seq %d\n", *journalFile, resumed)
		}
	}

	if *coordMode {
		runCoordinator(*addr, *peers, *quorum, *antiEntropy, *nodeTimeout, journal)
		return
	}

	recCfg := recovery.DefaultConfig()
	if *tc > 0 {
		recCfg.ConfidenceThreshold = *tc
	}
	if *chunks > 0 {
		recCfg.Chunks = *chunks
	}
	if *sub > 0 {
		recCfg.SubstitutionRate = *sub
	}

	var subCfg *substrate.Config
	if *subKind != "" {
		subCfg = &substrate.Config{
			Kind:              *subKind,
			Seed:              *subSeed,
			TimeScale:         *timeScale,
			RefreshIntervalMs: *refreshMs,
			ClusterRun:        *clusterRun,
			RatePerStep:       *campaignRate,
			StepEvery:         *campaignEvery,
			Targeted:          *campaignTargeted,
		}
	}

	baseCfg := serve.Config{
		Shards:          *shards,
		BatchSize:       *batch,
		BatchWindow:     *window,
		Recovery:        recCfg,
		RecoverySeed:    *seed + 2,
		DisableRecovery: *noRecover,
		ProbeInterval:   *probe,
		Substrate:       subCfg,
		ScrubTick:       *scrub,
		Journal:         journal,
		Watchdog: serve.WatchdogConfig{
			Interval:              *watchdog,
			AccuracyDrop:          *accDrop,
			MinCheckpointAccuracy: *cpFloor,
		},
	}

	if *models != "" {
		runRegistry(*addr, *models, *dims, *seed, baseCfg)
		return
	}

	var sys *core.System
	var probeX [][]float64
	var probeY []int
	switch {
	case *loadFile != "":
		f, err := os.Open(*loadFile)
		if err != nil {
			fail(err)
		}
		sys, err = core.Load(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded system from %s (D=%d, %d classes, %d features)\n",
			*loadFile, sys.Dimensions(), sys.Classes(), sys.Features())
	case *dsName != "":
		spec, ok := dataset.ByName(strings.ToUpper(*dsName))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dsName)
			os.Exit(2)
		}
		ds, trained, err := trainDataset(spec, *dims, *seed)
		if err != nil {
			fail(err)
		}
		sys = trained
		probeX, probeY = ds.TestX, ds.TestY
		fmt.Printf("trained on %s: D=%d, %d classes, clean accuracy %.4f\n",
			spec.Name, sys.Dimensions(), sys.Classes(), sys.Accuracy(ds.TestX, ds.TestY))
	default:
		fmt.Println("no -load or -dataset: serving starts once POST /train or POST /restore installs a model")
	}

	var fltCfg *fleet.Config
	if *replicas > 0 {
		fltCfg = &fleet.Config{
			Replicas: *replicas,
			Quorum:   *quorum,
			AntiEntropy: fleet.AntiEntropyConfig{
				Interval: *antiEntropy,
			},
		}
		fmt.Printf("fleet mode: %d replicas, anti-entropy %v\n", *replicas, *antiEntropy)
	}
	if *nodeMode {
		fmt.Println("node mode: /node/* API mounted for a cluster coordinator")
	}

	baseCfg.Fleet = fltCfg
	baseCfg.NodeAPI = *nodeMode
	srv, err := serve.New(sys, baseCfg)
	if err != nil {
		fail(err)
	}
	if probeX != nil {
		if err := srv.SetProbe(probeX, probeY); err != nil {
			fail(err)
		}
	}

	serveUntilSignal(*addr, srv.Handler(), journal, srv.Close, func(addr net.Addr) {
		fmt.Printf("bitvec kernels: %s\n", bitvec.KernelName())
		fmt.Printf("servehd listening on %s\n", addr)
	})
}

// trainDataset generates a built-in dataset and trains a system on its
// training split: the -dataset model and every -models tenant.
func trainDataset(spec dataset.Spec, dims int, seed uint64) (*dataset.Dataset, *core.System, error) {
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: dims, Seed: seed})
	return ds, sys, err
}

// runRegistry is the -models entrypoint: one process, many tenants.
// Each "id:DATASET[:loghd]" entry trains its own model at startup
// (seeded per tenant, so same-dataset tenants are still distinct
// models), gets the dataset's test split as its accuracy probe, and is
// installed in a model registry whose serving stacks — batcher,
// recovery loop, optional substrate, watchdog — are fully isolated per
// tenant. The ":loghd" suffix compresses that tenant's deployment to
// the log-plane backend before install.
func runRegistry(addr, spec string, dims int, seed uint64, cfg serve.Config) {
	reg := registry.New(registry.Config{Serve: cfg})
	n := 0
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			fail(fmt.Errorf("-models entry %q: want id:DATASET or id:DATASET:loghd", part))
		}
		id, dsName := strings.TrimSpace(fields[0]), strings.ToUpper(strings.TrimSpace(fields[1]))
		backend := "dense"
		if len(fields) == 3 {
			backend = strings.TrimSpace(fields[2])
			if backend != "dense" && backend != "loghd" {
				fail(fmt.Errorf("-models entry %q: unknown backend %q (want dense or loghd)", part, backend))
			}
		}
		dspec, ok := dataset.ByName(dsName)
		if !ok {
			fail(fmt.Errorf("-models entry %q: unknown dataset %q", part, dsName))
		}
		ds, sys, err := trainDataset(dspec, dims, seed+uint64(n))
		if err != nil {
			fail(err)
		}
		if backend == "loghd" {
			if sys, err = sys.CompressLogHD(2); err != nil {
				fail(fmt.Errorf("-models entry %q: %w", part, err))
			}
		}
		if err := reg.Create(id, sys); err != nil {
			fail(err)
		}
		srv, err := reg.Server(id)
		if err != nil {
			fail(err)
		}
		if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
			fail(err)
		}
		fmt.Printf("model %s: %s %s D=%d, %d classes, clean accuracy %.4f, class memory %d bits\n",
			id, dspec.Name, sys.Backend(), sys.Dimensions(), sys.Classes(),
			sys.Accuracy(ds.TestX, ds.TestY), sys.StorageBits())
		n++
	}
	if n == 0 {
		fail(errors.New("-models names no tenants"))
	}

	serveUntilSignal(addr, reg.Handler(), cfg.Journal, reg.Close, func(addr net.Addr) {
		fmt.Printf("bitvec kernels: %s\n", bitvec.KernelName())
		fmt.Printf("servehd registry: %d models (%s)\n", n, strings.Join(reg.Models(), ", "))
		fmt.Printf("servehd listening on %s\n", addr)
	})
}

// runCoordinator is the -coordinator entrypoint: no model of its own,
// just the cluster dispatcher over the peer nodes.
func runCoordinator(addr, peers string, quorum int, antiEntropy, nodeTimeout time.Duration, journal *fleet.Journal) {
	var nodes []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			nodes = append(nodes, p)
		}
	}
	if len(nodes) == 0 {
		fail(errors.New("-coordinator requires -peers (comma-separated node URLs)"))
	}
	co, err := cluster.New(cluster.Config{
		Nodes:       nodes,
		Quorum:      quorum,
		Timeout:     nodeTimeout,
		AntiEntropy: fleet.AntiEntropyConfig{Interval: antiEntropy},
		Journal:     journal,
	})
	if err != nil {
		fail(err)
	}
	serveUntilSignal(addr, co.Handler(), journal, co.Close, func(addr net.Addr) {
		fmt.Printf("servehd coordinator listening on %s (%d nodes, quorum %d, anti-entropy %v)\n",
			addr, co.Size(), co.Quorum(), antiEntropy)
	})
}

// serveUntilSignal binds addr, lets announce print the startup lines
// for the bound address, and serves h until SIGINT/SIGTERM or a
// listener error. It then drains: in-flight HTTP requests finish, stop
// shuts the serving stack down, and the journal is sealed and closed
// last, so a clean shutdown always ends the log on a seal boundary.
//
// Binding comes before announcing: -addr :0 is a real deployment
// option (and what the e2e chaos drill uses), and the listening line
// is a parsing contract, so it must carry the port the kernel actually
// assigned.
func serveUntilSignal(addr string, h http.Handler, journal *fleet.Journal, stop func(), announce func(net.Addr)) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	announce(ln.Addr())
	// ReadHeaderTimeout bounds slow-loris headers; IdleTimeout reaps
	// keep-alive connections an abandoned client left open. Keep-alives
	// themselves stay enabled — closed-loop clients (cmd/hdload, the
	// cluster coordinator) reuse connections and would pay a handshake
	// per request otherwise. No ReadTimeout/WriteTimeout: /train and
	// /restore legitimately stream multi-hundred-MB bodies.
	httpSrv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("\n%s: draining...\n", sig)
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	stop()
	if err := journal.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "servehd: journal close:", err)
	}
	fmt.Println("servehd: drained, bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "servehd:", err)
	os.Exit(1)
}
