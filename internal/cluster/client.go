package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/bitvec"
	"repro/internal/fleet"
)

// ErrNodeBad reports a node answering 4xx — the coordinator sent
// something the node rejected. These are never retried: a request the
// node refused once it will refuse identically on every attempt.
// Unreachable nodes (or persistently 5xx ones, or garbled answers)
// report fleet.ErrDown instead, which the failure ladder counts.
var ErrNodeBad = errors.New("cluster: node rejected request")

// nodeClient is the remote fleet.Member: the coordinator's HTTP client
// for one node. Every call is bounded by the per-request timeout and a
// small retry budget with doubling backoff; 4xx responses are terminal
// (no retry), network errors and 5xx are retried. The client carries
// no node state — the dispatcher's failure ladder interprets the
// errors.
type nodeClient struct {
	base    string // http://host:port, no trailing slash
	hc      *http.Client
	retries int           // additional attempts after the first
	backoff time.Duration // first retry delay; doubles per retry
}

func newNodeClient(base string, timeout time.Duration, retries int, backoff time.Duration) (*nodeClient, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: node address %q is not an absolute URL", base)
	}
	u.Path, u.RawQuery, u.Fragment = "", "", ""
	return &nodeClient{
		base: u.String(),
		// Timeout covers the whole exchange — dial, write, node-side
		// work, and body read — so one stuck node can never hold a
		// quorum fan-out past the deadline.
		hc:      &http.Client{Timeout: timeout},
		retries: retries,
		backoff: backoff,
	}, nil
}

// do runs one HTTP exchange with retries and returns the response
// body. body (nil for none) is re-sent verbatim on every attempt.
func (c *nodeClient) do(method, path string, contentType string, body []byte) ([]byte, error) {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNodeBad, err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		out, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300 && rerr == nil:
			return out, nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			// The node understood us and said no: retrying cannot help.
			return nil, fmt.Errorf("%w: %s %s: %d: %s", ErrNodeBad, method, path, resp.StatusCode, firstLine(out))
		default:
			if rerr != nil {
				lastErr = rerr
			} else {
				lastErr = fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, firstLine(out))
			}
		}
	}
	return nil, fmt.Errorf("%w: %s%s after %d attempts: %v", fleet.ErrDown, c.base, path, c.retries+1, lastErr)
}

// firstLine truncates an error body for diagnostics.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// exchange sends in as a JSON body (none when in is nil) and
// unmarshals the response into out (skipped when out is nil).
func (c *nodeClient) exchange(method, path string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("%w: %v", ErrNodeBad, err)
		}
		contentType = "application/json"
	}
	resp, err := c.do(method, path, contentType, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("%w: %s: %v", fleet.ErrDown, path, err)
	}
	return nil
}

// Score asks the node to encode and score a raw-feature batch, sent
// as one score frame (wire.go). A batch the frame cannot carry, rows of
// differing length, is refused here like a batch the node refuses.
func (c *nodeClient) Score(xs [][]float64) ([]int, []float64, error) {
	body, err := encodeScoreFrame(xs)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNodeBad, err)
	}
	resp, err := c.do(http.MethodPost, "/node/score", "application/octet-stream", body)
	if err != nil {
		return nil, nil, err
	}
	classes, confs, err := decodeScoreAnswers(resp, len(xs))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: /node/score: %v", fleet.ErrDown, err)
	}
	return classes, confs, nil
}

// Summary fetches the node's chunk-hash divergence digest.
func (c *nodeClient) Summary(chunks int) (fleet.Summary, error) {
	var doc summary
	if err := c.exchange(http.MethodGet, fmt.Sprintf("/node/summary?chunks=%d", chunks), nil, &doc); err != nil {
		return fleet.Summary{}, err
	}
	return doc.parse()
}

// Chunks fetches the bits of the named chunks.
func (c *nodeClient) Chunks(refs []fleet.ChunkRef) ([]*bitvec.Vector, error) {
	var out chunkList
	if err := c.exchange(http.MethodPost, "/node/chunks", chunksRequest{Chunks: refs}, &out); err != nil {
		return nil, err
	}
	if len(out.Chunks) != len(refs) {
		return nil, fmt.Errorf("%w: /node/chunks returned %d chunks for %d refs", fleet.ErrDown, len(out.Chunks), len(refs))
	}
	vs := make([]*bitvec.Vector, len(refs))
	for i, cd := range out.Chunks {
		vs[i] = new(bitvec.Vector)
		if err := vs[i].UnmarshalBinary(cd.Bits); err != nil || vs[i].Len() != refs[i].Hi-refs[i].Lo {
			return nil, fmt.Errorf("%w: bad chunk payload from %s", fleet.ErrDown, c.base)
		}
	}
	return vs, nil
}

// Repair pushes majority chunk images onto the node.
func (c *nodeClient) Repair(patches []fleet.Patch) error {
	push := make([]chunkData, len(patches))
	for i, p := range patches {
		b, err := p.Bits.MarshalBinary()
		if err != nil {
			return err
		}
		push[i] = chunkData{ChunkRef: fleet.ChunkRef{Class: p.Class, Lo: p.Lo, Hi: p.Lo + p.Bits.Len()}, Bits: b}
	}
	return c.exchange(http.MethodPost, "/node/repair", chunkList{Chunks: push}, nil)
}

// Snapshot streams the node's stamped model image (the reseed donor
// side).
func (c *nodeClient) Snapshot(stamp float64) ([]byte, error) {
	return c.do(http.MethodGet, fmt.Sprintf("/node/snapshot?stamp=%g", stamp), "", nil)
}

// Reseed re-images the node from a stamped snapshot stream.
func (c *nodeClient) Reseed(image []byte) error {
	_, err := c.do(http.MethodPost, "/node/reseed", "application/octet-stream", image)
	return err
}

// Probe checks node liveness without retries or side effects — the
// rejoin ladder wants the instantaneous answer, and a probe that has
// to retry is by definition a failed probe.
func (c *nodeClient) Probe() bool {
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// VerifyJournal asks the node to re-verify its own journal file
// against its live chain — the donor-trust gate. Nodes without a
// journal make no lineage claim and pass.
func (c *nodeClient) VerifyJournal() error {
	var jv JournalVerifyResponse
	if err := c.exchange(http.MethodGet, "/journal/verify", nil, &jv); err != nil {
		return err
	}
	if jv.Enabled && !jv.OK {
		return fmt.Errorf("%w: %s", fleet.ErrUnverified, jv.Error)
	}
	return nil
}

// Describe names the node in its status row.
func (c *nodeClient) Describe(st *fleet.ReplicaStatus) { st.Addr = c.base }

// Attack forwards a fault drill to the node's /attack endpoint (the
// node runs in single-model mode, so no replica field travels).
func (c *nodeClient) Attack(body []byte) ([]byte, error) {
	return c.do(http.MethodPost, "/attack", "application/json", body)
}
