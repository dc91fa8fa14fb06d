package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestResolveShards pins the flag resolver: plain names, sharded-* names
// with their default fan-out, -shards composition as an in-process router,
// and the error cases, -shards with the remote backend among them.
func TestResolveShards(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		workers []string
		want    string // "" = error expected
		width   int    // expected Capacity() when the result is a *cluster.Router
	}{
		{"sim", 1, nil, "*backend.Sim", 0},
		{"persistent", 1, nil, "*backend.Persistent", 0},
		{"sim", 4, nil, "*cluster.Router", 4},
		{"persistent", 2, nil, "*cluster.Router", 2},
		{"sharded-sim", 1, nil, "*cluster.Router", cluster.DefaultShards},
		{"sharded-persistent", 1, nil, "*cluster.Router", cluster.DefaultShards},
		{"sharded-sim", 8, nil, "*cluster.Router", 8},
		{"sim", 0, nil, "", 0},
		{"sim", -3, nil, "", 0},
		{"sharded-bogus", 1, nil, "", 0},
		{"bogus", 1, nil, "", 0},
		{"remote", 1, nil, "", 0},
		{"remote", 2, []string{"127.0.0.1:1"}, "", 0},
		{"sim", 1, []string{"127.0.0.1:1"}, "", 0},
	}
	for _, tc := range cases {
		be, err := cluster.Resolve(tc.name, tc.shards, tc.workers, cluster.Config{})
		if tc.want == "" {
			if err == nil {
				t.Errorf("Resolve(%q, %d, %v) succeeded, want error", tc.name, tc.shards, tc.workers)
				be.Close()
			}
			continue
		}
		if err != nil {
			t.Errorf("Resolve(%q, %d): %v", tc.name, tc.shards, err)
			continue
		}
		if got := fmt.Sprintf("%T", be); got != tc.want {
			t.Errorf("Resolve(%q, %d) = %s, want %s", tc.name, tc.shards, got, tc.want)
		}
		if r, ok := be.(*cluster.Router); ok {
			if r.Capacity() != tc.width {
				t.Errorf("Resolve(%q, %d) fan-out = %d, want %d", tc.name, tc.shards, r.Capacity(), tc.width)
			}
			if ws := r.Workers(); len(ws) != 1 || ws[0] != "local" {
				t.Errorf("Resolve(%q, %d) members = %v, want [local]", tc.name, tc.shards, ws)
			}
		}
		be.Close()
	}
	if _, err := cluster.Resolve("nope", 1, nil, cluster.Config{}); err == nil || !strings.Contains(err.Error(), "sharded-sim") {
		t.Errorf("Resolve error should list the sharded names, got: %v", err)
	}
}
