package faults

import (
	"fmt"
	"testing"
)

// FuzzParseFaults drives Parse — the -faults flag is operator input at a
// trust boundary — with arbitrary specs. An accepted spec must yield rules
// inside the grammar's ranges, and two injectors parsed from it must replay
// identical decisions with conserved accounting.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		// The chaos conformance profiles.
		"seed=11;latency:delay=30ms:p=0.5",
		"seed=12;5xx:count=4",
		"seed=13;conn:p=0.4:count=6",
		"seed=14;corrupt:count=3",
		"seed=15;hang:delay=40ms:count=2",
		"seed=16;latency:delay=10ms:p=0.3;5xx:count=2;conn:count=2;corrupt:count=1",
		// The CI chaos-smoke specs.
		"seed=5;crash",
		"seed=9;5xx:count=2",
		// Selectors and a malformed entry.
		"conn:worker=18091;hang:stage=sql-where;corrupt:p=0.5:after=2",
		"5xx:status=599:p=",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := Parse(spec)
		if err != nil {
			return // rejected input: fine, as long as we got here
		}
		b := MustParse(spec)
		for _, r := range a.rules {
			if !(r.p >= 0 && r.p <= 1) || r.status < 500 || r.status > 599 {
				t.Fatalf("Parse(%q) accepted rule %+v outside the grammar's ranges", spec, *r)
			}
		}
		const events = 32
		for i := 0; i < events; i++ {
			kinds, stage, worker := wireKinds, "", fmt.Sprintf("127.0.0.1:1809%d", i%3)
			if i%2 == 1 {
				kinds, stage, worker = backendKinds, fmt.Sprintf("stage-%d#sql-where", i%5), ""
			}
			if da, db := a.decide(kinds, stage, worker), b.decide(kinds, stage, worker); da != db {
				t.Fatalf("Parse(%q): event %d decided %+v and %+v on replay", spec, i, da, db)
			}
		}
		st := a.Stats()
		if st.Events != events || st.Injected != st.Latency+st.Err5xx+st.Conn+st.Corrupt+st.Hang+st.Crash {
			t.Fatalf("Parse(%q): stats %+v not conserved over %d events", spec, st, events)
		}
	})
}
