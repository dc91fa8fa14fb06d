package cluster

import (
	"fmt"
	"strings"

	"repro/internal/backend"
)

// Resolve is the backend resolver behind every -backend flag, so the tools
// and benches cannot drift apart: "sim" is the per-batch engine,
// "persistent" a backend.NewPersistent with the default engine budget, and
// "remote" a Router over the given worker addresses. shards > 1 puts a
// local backend behind NewLocal with Capacity shards — static sharding is
// the router over one in-process member — and the "sharded-*" names imply
// DefaultShards when shards is 1.
//
// shards composes only with local backends: the remote router picks its
// fan-out width per batch from group structure and live worker capacity,
// so a static shard count is rejected rather than silently ignored.
// shards < 1 is an error.
//
// cfg carries router tuning (hedge delay, a chaos HTTPClient, ...) for
// "remote"; its Workers field is overridden by the workers argument. The
// zero Config is the production default.
func Resolve(name string, shards int, workers []string, cfg Config) (backend.Backend, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shards must be >= 1, got %d", shards)
	}
	if name == "remote" {
		if len(workers) == 0 {
			return nil, fmt.Errorf("cluster: backend %q needs worker addresses: pass -cluster-workers host:port,...", name)
		}
		if shards > 1 {
			return nil, fmt.Errorf("cluster: -shards does not compose with backend %q: the router picks fan-out per batch from groups and live capacity", name)
		}
		cfg.Workers = workers
		return NewRouter(cfg)
	}
	if len(workers) > 0 {
		return nil, fmt.Errorf("cluster: -cluster-workers only composes with -backend remote, got %q", name)
	}
	base, sharded := strings.CutPrefix(name, "sharded-")
	if sharded && shards == 1 {
		shards = DefaultShards
	}
	var be backend.Backend
	switch base {
	case "sim":
		be = backend.NewSim()
	case "persistent":
		be = backend.NewPersistent(0)
	default:
		return nil, fmt.Errorf("cluster: unknown backend %q: want sim, persistent, sharded-sim, sharded-persistent, or remote", name)
	}
	if shards == 1 {
		return be, nil
	}
	return NewLocal(be, shards)
}
