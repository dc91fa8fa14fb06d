package server

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// fillNumeric sets every numeric field of the struct v points into to a
// distinct value counting up from *next, and returns the values by field
// name.
func fillNumeric(v reflect.Value, next *int64) map[string]int64 {
	want := map[string]int64{}
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.CanInt():
			f.SetInt(*next)
		case f.CanFloat():
			f.SetFloat(float64(*next))
		default:
			continue
		}
		want[v.Type().Field(i).Name] = *next
		*next++
	}
	return want
}

// exposedValue reports whether the exposition has a row whose value is v.
func exposedValue(out string, v int64) bool {
	return strings.Contains(out, " "+strconv.FormatInt(v, 10)+"\n")
}

// TestPrometheusExposesEveryRuntimeCounter: every numeric field of
// runtime.Metrics and runtime.ClientMetrics reaches the exposition, so a
// counter added to the runtime cannot be silently left unexported. Each
// field gets a distinct value, and each value must appear as a row.
func TestPrometheusExposesEveryRuntimeCounter(t *testing.T) {
	next := int64(9001)
	var m runtime.Metrics
	wantRuntime := fillNumeric(reflect.ValueOf(&m).Elem(), &next)
	var cm runtime.ClientMetrics
	wantClient := fillNumeric(reflect.ValueOf(&cm).Elem(), &next)
	m.Clients = map[runtime.ClientID]runtime.ClientMetrics{"c1": cm}
	if len(wantRuntime) == 0 || len(wantClient) == 0 {
		t.Fatal("reflection found no numeric fields")
	}

	out := renderPrometheus(m)
	for name, v := range wantRuntime {
		if !exposedValue(out, v) {
			t.Errorf("runtime.Metrics.%s (%d) missing from the exposition", name, v)
		}
	}
	for name, v := range wantClient {
		if !exposedValue(out, v) {
			t.Errorf("runtime.ClientMetrics.%s (%d) missing from the exposition", name, v)
		}
	}
}

// TestPrometheusExposesEveryClusterCounter: every numeric field of
// cluster.Metrics and cluster.WorkerMetrics reaches the exposition, so a
// counter added to the router cannot be silently left unexported. Each
// field gets a distinct value, and each value must appear as a row.
func TestPrometheusExposesEveryClusterCounter(t *testing.T) {
	next := int64(7001)
	var wm cluster.WorkerMetrics
	wantWorker := fillNumeric(reflect.ValueOf(&wm).Elem(), &next)
	var cm cluster.Metrics
	wantFleet := fillNumeric(reflect.ValueOf(&cm).Elem(), &next)
	cm.Workers = map[string]cluster.WorkerMetrics{"w1:1": wm}
	if len(wantWorker) == 0 || len(wantFleet) == 0 {
		t.Fatal("reflection found no numeric fields")
	}

	out := renderPrometheus(runtime.Metrics{Cluster: &cm})
	for name, v := range wantWorker {
		if !exposedValue(out, v) {
			t.Errorf("cluster.WorkerMetrics.%s (%d) missing from the exposition", name, v)
		}
	}
	for name, v := range wantFleet {
		if !exposedValue(out, v) {
			t.Errorf("cluster.Metrics.%s (%d) missing from the exposition", name, v)
		}
	}
}
