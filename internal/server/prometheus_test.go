package server

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// TestPrometheusExposesEveryClusterCounter: every numeric field of
// cluster.Metrics and cluster.WorkerMetrics reaches the exposition, so a
// counter added to the router cannot be silently left unexported. Each
// field gets a distinct value, and each value must appear as a row.
func TestPrometheusExposesEveryClusterCounter(t *testing.T) {
	next := int64(7001)
	fill := func(v reflect.Value) map[string]int64 {
		want := map[string]int64{}
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); {
			case f.CanInt():
				f.SetInt(next)
			case f.CanFloat():
				f.SetFloat(float64(next))
			default:
				continue
			}
			want[v.Type().Field(i).Name] = next
			next++
		}
		return want
	}
	var wm cluster.WorkerMetrics
	wantWorker := fill(reflect.ValueOf(&wm).Elem())
	var cm cluster.Metrics
	wantFleet := fill(reflect.ValueOf(&cm).Elem())
	cm.Workers = map[string]cluster.WorkerMetrics{"w1:1": wm}
	if len(wantWorker) == 0 || len(wantFleet) == 0 {
		t.Fatal("reflection found no numeric fields")
	}

	out := renderPrometheus(runtime.Metrics{Cluster: &cm})
	exposed := func(v int64) bool {
		return strings.Contains(out, " "+strconv.FormatInt(v, 10)+"\n")
	}
	for name, v := range wantWorker {
		if !exposed(v) {
			t.Errorf("cluster.WorkerMetrics.%s (%d) missing from the exposition", name, v)
		}
	}
	for name, v := range wantFleet {
		if !exposed(v) {
			t.Errorf("cluster.Metrics.%s (%d) missing from the exposition", name, v)
		}
	}
}
