package backend_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/query"
	"repro/internal/table"
)

// captureBackend keeps the last batch it was handed and serves nothing.
type captureBackend struct{ spec backend.BatchSpec }

func (c *captureBackend) RunBatch(_ context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	c.spec = spec
	return backend.BatchResult{}, nil
}

func (c *captureBackend) Close() error { return nil }

// encodedStageBatch is the /v1/batch body a router sends for a real GGR
// stage: prompts tokenized by the query layer, groups from the schedule.
func encodedStageBatch(tb testing.TB) []byte {
	tb.Helper()
	tbl := table.New("id", "topic", "text")
	for i := 0; i < 9; i++ {
		tbl.MustAppendRow(fmt.Sprintf("t-%d", i), fmt.Sprintf("topic %d", i%3), fmt.Sprintf("body %d", i%4))
	}
	capture := &captureBackend{}
	spec := query.Spec{Name: "wire-fuzz", Dataset: "adhoc", Type: query.Projection, UserPrompt: "Summarize.", OutTokens: 4}
	if _, err := query.RunStage(spec, tbl, query.Config{Policy: query.CacheGGR, Backend: capture}); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(backend.EncodeWireBatch(capture.spec, backend.ClientInfo{Client: "dashboard-7", Class: "batch"}))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzWireBatch fuzzes the worker's /v1/batch decoder: a body is decoded as
// the worker decodes it, and WireBatch.Spec either rejects it or yields a
// batch whose groups the router's splitter accepts, every request landing
// in exactly one part. Nothing may panic.
func FuzzWireBatch(f *testing.F) {
	seeds := []string{
		// docs/API.md: the request body example.
		`{"stageKey": "<stage fingerprint — the router's affinity key>", "client": "dashboard-7", "class": "batch", "requests": [{"id": 0, "prompt": [1017, 3, 204], "outTokens": 8}], "groups": [0, 2], "engine": {"Cost": {"...": "llmsim.Config verbatim"}, "CacheEnabled": true}}`,
		`{"stageKey": "s", "requests": [{"id": 0, "prompt": [1], "outTokens": 1}, {"id": 1, "prompt": [1, 2], "outTokens": 2}], "groups": [0, 1], "engine": {}}`,
		`{"stageKey": "s", "requests": [], "engine": {}}`,
		`{"requests": [{"id": 0}, {"id": 1}], "groups": [1, 0]}`,
		``,
		`null`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(encodedStageBatch(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var wb backend.WireBatch
		if dec.Decode(&wb) != nil {
			return
		}
		spec, err := wb.Spec()
		if err != nil {
			return
		}
		for n := 2; n <= 4; n++ {
			parts, err := backend.SplitByGroups(spec, n)
			if err != nil {
				t.Fatalf("Spec accepted groups %v over %d requests that SplitByGroups(%d) rejects: %v",
					spec.Groups, len(spec.Requests), n, err)
			}
			rows := 0
			for _, p := range parts {
				rows += len(p.Requests)
			}
			if rows != len(spec.Requests) {
				t.Fatalf("SplitByGroups(%d) over groups %v: %d requests in parts, %d in the batch",
					n, spec.Groups, rows, len(spec.Requests))
			}
		}
	})
}
