package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// fleetWorkers is the number of in-process /v1/batch workers behind the
// cluster router on fleet-batch.
const fleetWorkers = 3

// stack is the program under test, assembled the way llmqserve assembles
// it: tables loaded into a sqlfront.DB, a serving runtime over a backend,
// and the /v1 mux on a loopback listener — plus, on fleet-batch, a cluster
// router over in-process workers. The benchmark's seams sit at the public
// boundaries between those parts.
type stack struct {
	url     string
	srv     *http.Server
	rt      *runtime.Runtime
	be      *meteredBackend
	sql     *sqlSeam
	wire    *wireSeam
	workers []*workerNode
}

type workerNode struct {
	srv  *http.Server
	be   *meteredBackend
	seam *batchSeam
}

// warmupTable is registered next to the workload's tables so set-up can
// send a statement per class through the front door without touching the
// workload's cache entries.
func warmupTable() *table.Table {
	t := table.New("w")
	for i := 0; i < 4; i++ {
		t.MustAppendRow("warm-up row " + strconv.Itoa(i))
	}
	return t
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

// setUp builds the program from the generated relations: the set-up time
// the benchmark reports is this function's wall time.
func setUp(ctx context.Context, in *inputs, fleet bool, c *client) (*stack, error) {
	db := sqlfront.NewDB()
	for _, d := range in.datasets {
		t, err := table.ReadJSON(bytes.NewReader(d.data))
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.name, err)
		}
		db.Register(d.name, t)
	}
	db.Register("warmup", warmupTable())
	st := &stack{}
	var inner backend.Backend = backend.NewSim()
	if fleet {
		addrs := make([]string, 0, fleetWorkers)
		for i := 0; i < fleetWorkers; i++ {
			wbe := newMeteredBackend(backend.NewPersistent(0), "worker_backend", false)
			seam := &batchSeam{next: server.NewWithConfig(server.Config{Worker: server.NewWorker(wbe, nil)})}
			srv, url, err := serve(seam)
			if err != nil {
				st.tearDown()
				return nil, err
			}
			st.workers = append(st.workers, &workerNode{srv: srv, be: wbe, seam: seam})
			addrs = append(addrs, url)
		}
		st.wire = &wireSeam{next: &http.Transport{MaxIdleConnsPerHost: 16}}
		router, err := cluster.NewRouter(cluster.Config{Workers: addrs, HTTPClient: &http.Client{Transport: st.wire}})
		if err != nil {
			st.tearDown()
			return nil, fmt.Errorf("router: %w", err)
		}
		inner = router
	}
	st.be = newMeteredBackend(inner, "bench_backend", true)
	st.rt = runtime.New(db, runtime.Config{Backend: st.be})
	st.sql = &sqlSeam{next: server.NewWithRuntime(st.rt)}
	srv, url, err := serve(st.sql)
	if err != nil {
		st.tearDown()
		return nil, err
	}
	st.srv, st.url = srv, url
	// Warm-up: one statement per service class opens the client's
	// connections and the fleet's worker connections.
	for _, class := range []string{"interactive", "batch"} {
		s, err := newStmt(`SELECT LLM('Warm up.', w) AS x FROM warmup`, "warmup", class, "warmup")
		if err != nil {
			st.tearDown()
			return nil, err
		}
		if _, status, err := c.post(ctx, st.url, -1, s.body); err != nil || status != http.StatusOK {
			st.tearDown()
			return nil, fmt.Errorf("warm-up statement: status %d: %v", status, err)
		}
	}
	return st, nil
}

// tearDown stops everything setUp started. It runs once the load is done
// and every handler has returned, so the servers close their connections
// outright: Shutdown would wait up to five seconds on connections a client
// dialed but never used.
func (st *stack) tearDown() {
	if st == nil {
		return // set-up failed; it tore down what it had built
	}
	if st.srv != nil {
		_ = st.srv.Close() // closing the listener and idle connections cannot fail in a way that matters here
	}
	if st.rt != nil {
		st.rt.Close()
	}
	if st.be != nil {
		_ = st.be.Close() // closes the router (and its remotes) or the sim
	}
	for _, w := range st.workers {
		_ = w.srv.Close()
		_ = w.be.Close()
	}
}

// arm resets every seam for the next measured pass.
func (st *stack) arm(n int, spans *spanLog) {
	st.be.arm(true, spans)
	st.sql.arm(n, spans)
	if st.wire != nil {
		st.wire.arm(spans)
	}
	for _, w := range st.workers {
		w.be.arm(false, spans)
		w.seam.arm(spans)
	}
}

// client is the load generator's HTTP client, capped at conns connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

// post sends one /v1/sql request tagged with the benchmark's request id and
// returns the response body.
func (c *client) post(ctx context.Context, url string, id int, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sql", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("read response: %w", err)
	}
	return data, resp.StatusCode, nil
}
