package cluster

import (
	"time"

	"repro/internal/fleet"
	"repro/internal/recovery"
)

// Config parameterizes a coordinator.
type Config struct {
	// Nodes are the member base URLs (http://host:port), in id order.
	// Node ids are indices into this list, mirroring fleet replica ids.
	Nodes []string
	// Quorum is the read-quorum fanned to per prediction (default
	// majority, N/2+1; clamped to [1, len(Nodes)]).
	Quorum int
	// Timeout bounds each node exchange end to end (default 2s). A
	// slow node costs at most this per attempt, never an unbounded
	// stall.
	Timeout time.Duration
	// Retries is how many additional attempts follow a failed exchange
	// (default 2; negative disables retries entirely; 4xx responses
	// are never retried).
	Retries int
	// Backoff is the delay before the first retry, doubling per retry
	// (default 50ms).
	Backoff time.Duration
	// FailThreshold is how many consecutive failed exchanges take a
	// node out of rotation (default 3).
	FailThreshold int
	// RejoinProbes is how many consecutive successful health probes —
	// one per sweep — a Down node needs to rejoin (default 2). A
	// flapping node keeps resetting the streak and stays out, so the
	// rotation never thrashes.
	RejoinProbes int

	// AntiEntropy reuses the fleet's repair/quarantine knobs: Chunks,
	// QuarantineDivergence, MinReseedAgreement, and the sweep Interval.
	AntiEntropy fleet.AntiEntropyConfig

	// Journal receives lifecycle and repair events (nil drops them).
	// Event.Replica carries the node id.
	Journal *fleet.Journal
}

// Coordinator is the networked fleet: a fleet.Dispatcher whose members
// are servehd nodes in their own processes, each with its own
// substrate, recoverer, scrubber and journal. The replication
// algorithm is the in-process fleet's, so under identical event
// sequences its answers are bit-identical to the fleet's; what the
// network adds is survival of process death: a killed node trips the
// failure ladder, the survivors keep answering, and sweeps probe it
// back into rotation when it returns. The quorum, anti-entropy and
// journal settings are validated and defaulted by fleet.NewDispatcher,
// exactly as for an in-process fleet.
type Coordinator struct {
	*fleet.Dispatcher[[]float64]
	cfg   Config
	nodes []*nodeClient
}

// New builds a coordinator over the configured nodes. It performs no
// network traffic — nodes are assumed reachable until proven
// otherwise, and the fast path stays disarmed until a clean sweep
// proves them identical.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	co := &Coordinator{cfg: cfg}
	members := make([]fleet.Member[[]float64], len(cfg.Nodes))
	for i, addr := range cfg.Nodes {
		nc, err := newNodeClient(addr, cfg.Timeout, cfg.Retries, cfg.Backoff)
		if err != nil {
			return nil, err
		}
		co.nodes = append(co.nodes, nc)
		members[i] = nc
	}
	d, err := fleet.NewDispatcher(members,
		fleet.Config{Quorum: cfg.Quorum, AntiEntropy: cfg.AntiEntropy, Journal: cfg.Journal},
		fleet.Ladder{FailThreshold: cfg.FailThreshold, RejoinProbes: cfg.RejoinProbes})
	if err != nil {
		return nil, err
	}
	co.Dispatcher = d
	return co, nil
}

// Temperature returns the softmax temperature nodes score at: the
// recovery default, the temperature an in-process fleet scores at.
func (co *Coordinator) Temperature() float64 { return recovery.DefaultConfig().Temperature }

// Attack forwards a fault drill to one node's /attack endpoint. Like
// fleet.WithReplica, it disarms the fast path first.
func (co *Coordinator) Attack(nodeID int, body []byte) ([]byte, error) {
	var resp []byte
	err := co.Mutate(nodeID, func() (err error) {
		resp, err = co.nodes[nodeID].Attack(body)
		return err
	})
	return resp, err
}

// Status is the coordinator's externally visible state (/cluster): the
// fleet status document with the member rows under "nodes".
type Status struct {
	fleet.Status
	Nodes []fleet.ReplicaStatus `json:"nodes"`
}

// Status snapshots coordinator and per-node counters.
func (co *Coordinator) Status() Status {
	st := co.Dispatcher.Status()
	nodes := st.Replicas
	st.Replicas = nil
	return Status{Status: st, Nodes: nodes}
}
