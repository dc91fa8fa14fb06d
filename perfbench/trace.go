package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// traceLayers are the layers the traced run attributes self time to, in
// report order: the benchmark's own wrappers (client, sql_handler,
// bench_backend, roundtrip, batch_handler, worker_backend) interleaved with
// the runtime's span tree as /v1/sql returns it under options.trace.
var traceLayers = []string{
	"client", "sql_handler", "statement", "prepare", "admission", "stage",
	"batch-wait", "inflight-wait", "batch", "schedule", "backend",
	"bench_backend", "remote", "roundtrip", "batch_handler", "worker_backend", "other",
}

// node is one span of the merged trace: times in ns since the span log's
// base, Parent an index into the node list or -1.
type node struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Batch  int64  `json:"batch,omitempty"`
	Part   int64  `json:"part,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func layerOf(name string) string {
	if strings.HasPrefix(name, "stage:") {
		return "stage"
	}
	for _, l := range traceLayers {
		if l == name {
			return name
		}
	}
	return "other"
}

// mergeTrace joins the benchmark's spans with the runtime's span trees
// from the traced responses, resolving each span's parent from request,
// batch and part ids. Two joins have no shared id and go by enclosure: a
// benchmark backend span is parented to the runtime backend span that
// encloses it and started last (and adopts that span's other children —
// the router's per-part "remote" spans, which run inside it), and a wire
// round trip to the enclosing "remote" span of its batch.
func mergeTrace(ps *pass) ([]node, error) {
	base := ps.spanBase
	var nodes []node
	add := func(n node) int {
		n.ID = len(nodes)
		nodes = append(nodes, n)
		return n.ID
	}
	clients := map[int64]int{}
	handlers := map[int64]int{}
	for _, s := range ps.spans {
		if s.Name == "client" {
			clients[s.Req] = add(node{Parent: -1, Name: s.Name, Req: s.Req, Start: s.Start, End: s.End})
		}
	}
	for _, s := range ps.spans {
		if s.Name == "sql_handler" {
			parent, ok := clients[s.Req]
			if !ok {
				parent = -1
			}
			handlers[s.Req] = add(node{Parent: parent, Name: s.Name, Req: s.Req, Start: s.Start, End: s.End})
		}
	}
	// Runtime trees; a coalesced batch span is adopted into every member's
	// tree, so each distinct batch subtree is kept once.
	seenBatch := map[string]bool{}
	var backends []int
	// The runtime records a stage's batch-wait (park until the coalesced
	// run lands) and the run's shared batch span as siblings; the batch is
	// re-parented under the batch-wait it ran inside, so batch-wait's self
	// time is the window wait alone.
	var walk func(t *obs.SpanTree, start time.Time, parent int, req int64) int
	walk = func(t *obs.SpanTree, start time.Time, parent int, req int64) int {
		s := start.Add(time.Duration(t.StartMs * float64(time.Millisecond))).Sub(base).Nanoseconds()
		e := s + int64(t.DurationMs*float64(time.Millisecond))
		if t.Name == "batch" {
			key := fmt.Sprint(s, e)
			if seenBatch[key] {
				return -1
			}
			seenBatch[key] = true
		}
		id := add(node{Parent: parent, Name: t.Name, Req: req, Start: s, End: e})
		if t.Name == "backend" {
			backends = append(backends, id)
		}
		wait := -1
		for _, c := range t.Children {
			p := id
			if c.Name == "batch" && wait >= 0 {
				p = wait
			}
			if cid := walk(c, start, p, req); c.Name == "batch-wait" {
				wait = cid
			}
		}
		return id
	}
	for i := 0; i < ps.p.n; i++ {
		if ps.p.status[i] != http.StatusOK {
			continue
		}
		var resp struct {
			Trace *obs.Trace `json:"trace"`
		}
		if err := json.Unmarshal(ps.p.body[i], &resp); err != nil {
			return nil, fmt.Errorf("request %d: decode trace: %w", i, err)
		}
		if resp.Trace == nil || resp.Trace.Spans == nil {
			return nil, fmt.Errorf("request %d: traced response carries no span tree", i)
		}
		parent, ok := handlers[int64(i)]
		if !ok {
			parent = -1
		}
		walk(resp.Trace.Spans, resp.Trace.Start, parent, int64(i))
	}
	sort.Slice(backends, func(a, b int) bool { return nodes[backends[a]].Start < nodes[backends[b]].Start })
	benchBackend := map[int64]int{}
	wrapped := map[int]int{} // runtime backend span -> benchmark backend span inside it
	for _, s := range ps.spans {
		if s.Name != "bench_backend" {
			continue
		}
		parent := -1
		for _, b := range backends {
			if nodes[b].Start > s.Start {
				break
			}
			if nodes[b].End >= s.End {
				parent = b
			}
		}
		id := add(node{Parent: parent, Name: s.Name, Batch: s.Batch, Start: s.Start, End: s.End})
		benchBackend[s.Batch] = id
		if parent >= 0 {
			wrapped[parent] = id
		}
	}
	remotes := map[int][]int{} // benchmark backend span -> its remote spans
	for i := range nodes {
		if w, ok := wrapped[nodes[i].Parent]; ok && nodes[i].Name != "bench_backend" {
			nodes[i].Parent = w
			if nodes[i].Name == "remote" {
				remotes[w] = append(remotes[w], i)
			}
		}
	}
	parts := map[int64]int{}
	for _, s := range ps.spans {
		if s.Name != "roundtrip" {
			continue
		}
		parent, ok := benchBackend[s.Batch]
		if !ok {
			parent = -1
		}
		best := int64(-1)
		for _, rm := range remotes[parent] {
			if nodes[rm].Start <= s.Start && nodes[rm].End >= s.End && nodes[rm].Start > best {
				parent, best = rm, nodes[rm].Start
			}
		}
		parts[s.Part] = add(node{Parent: parent, Name: s.Name, Batch: s.Batch, Part: s.Part, Start: s.Start, End: s.End})
	}
	handled := map[int64]int{}
	for _, s := range ps.spans {
		if s.Name == "batch_handler" {
			parent, ok := parts[s.Part]
			if !ok {
				parent = -1
			}
			handled[s.Part] = add(node{Parent: parent, Name: s.Name, Batch: s.Batch, Part: s.Part, Start: s.Start, End: s.End})
		}
	}
	for _, s := range ps.spans {
		if s.Name == "worker_backend" {
			parent, ok := handled[s.Part]
			if !ok {
				parent = -1
			}
			add(node{Parent: parent, Name: s.Name, Batch: s.Batch, Part: s.Part, Start: s.Start, End: s.End})
		}
	}
	return nodes, nil
}

// selfTimes is each layer's total self time in ns: a span's duration minus
// the part of its interval its children cover.
func selfTimes(nodes []node) map[string]int64 {
	kids := make([][]int, len(nodes))
	for _, n := range nodes {
		if n.Parent >= 0 {
			kids[n.Parent] = append(kids[n.Parent], n.ID)
		}
	}
	out := map[string]int64{}
	for _, n := range nodes {
		type iv struct{ s, e int64 }
		var ivs []iv
		for _, k := range kids[n.ID] {
			s, e := max(nodes[k].Start, n.Start), min(nodes[k].End, n.End)
			if e > s {
				ivs = append(ivs, iv{s, e})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var covered, end int64
		end = n.Start
		for _, v := range ivs {
			if v.e <= end {
				continue
			}
			covered += v.e - max(v.s, end)
			end = v.e
		}
		out[layerOf(n.Name)] += max(0, n.End-n.Start-covered)
	}
	return out
}

// writeSpans writes the merged trace to dir and returns the file's path.
func writeSpans(dir, workload string, seed int64, nodes []node) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []node `json:"spans"`
	}{workload, seed, nodes})
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
