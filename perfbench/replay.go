package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sqlfront"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// Replays time public layer functions on the run's own inputs, after the
// run: sqlfront.DB.Prepare over the distinct statement texts, core.GGR on
// every LLM stage's input table, and tokenizer.Encode on every prompt. Each
// repeats until minReplay has elapsed so short inputs still give a steady
// figure.
const minReplay = 200 * time.Millisecond

type replays struct {
	prepareUs, prepareAllocs float64
	ggrMsPerKrow             float64
	phc                      int64
	encodeMBps               float64
}

func replayLayers(in *inputs, ref *reference) (replays, error) {
	var rp replays
	db := sqlfront.NewDB()
	for _, d := range in.datasets {
		t, err := table.ReadJSON(bytes.NewReader(d.data))
		if err != nil {
			return rp, fmt.Errorf("load %s: %w", d.name, err)
		}
		db.Register(d.name, t)
	}
	var texts []string
	for i := range in.stmts {
		if _, ok := ref.want[i]; ok {
			texts = append(texts, in.stmts[i].sql)
		}
	}
	var ms0, ms1 goruntime.MemStats
	n := 0
	goruntime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < minReplay || n == 0 {
		for _, s := range texts {
			if _, err := db.Prepare(s); err != nil {
				return rp, fmt.Errorf("prepare replay: %w", err)
			}
			n++
		}
	}
	el := time.Since(start)
	goruntime.ReadMemStats(&ms1)
	rp.prepareUs = float64(el.Microseconds()) / float64(n)
	rp.prepareAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	rows := 0
	start = time.Now()
	for loops := 0; time.Since(start) < minReplay || loops == 0; loops++ {
		for _, st := range ref.stages {
			res := core.GGR(st.tbl, core.DefaultGGROptions(tokenizer.Count))
			if loops == 0 {
				rp.phc += res.PHC
			}
			rows += st.tbl.NumRows()
		}
	}
	if rows > 0 {
		rp.ggrMsPerKrow = float64(time.Since(start).Microseconds()) / 1e3 / (float64(rows) / 1e3)
	}

	var prompts []string
	total := 0
	for _, st := range ref.stages {
		prefix := query.PromptPrefix(st.spec.UserPrompt)
		cols := st.tbl.Columns()
		cells := make([]core.Cell, len(cols))
		for r := 0; r < st.tbl.NumRows(); r++ {
			for c, name := range cols {
				cells[c] = core.Cell{Field: name, Value: st.tbl.Cell(r, c)}
			}
			p := prefix + query.RowJSON(cells)
			prompts = append(prompts, p)
			total += len(p)
		}
	}
	encoded := 0
	start = time.Now()
	for time.Since(start) < minReplay || encoded == 0 {
		tok := tokenizer.New()
		for _, p := range prompts {
			tok.Encode(p)
		}
		encoded += total
		if total == 0 {
			break
		}
	}
	if s := time.Since(start).Seconds(); s > 0 {
		rp.encodeMBps = float64(encoded) / 1e6 / s
	}
	return rp, nil
}
