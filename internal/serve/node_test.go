package serve

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
)

// TestAttackRejectsReplicaOnSingleModel pins the routing 400: a
// replica-targeted drill against a single-model server is a client
// error, not a silent whole-model attack.
func TestAttackRejectsReplicaOnSingleModel(t *testing.T) {
	_, ts, _ := freshServer(t, Config{DisableRecovery: true})
	replica := 0
	resp, body := postJSON(t, ts.URL+"/attack", map[string]any{
		"kind": "random", "rate": 0.01, "replica": replica,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single-model replica attack: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestNewRejectsNodeAPIWithFleet pins the config conflict: a node IS
// one replica, so stacking an in-process fleet inside it would nest
// quorums.
func TestNewRejectsNodeAPIWithFleet(t *testing.T) {
	_, _, sys := problem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(clone, Config{
		NodeAPI:         true,
		Fleet:           &fleet.Config{Replicas: 3},
		DisableRecovery: true,
	})
	if err == nil {
		t.Fatal("NodeAPI + Fleet accepted, want error")
	}
}
