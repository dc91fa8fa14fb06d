package runtime

import (
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// TestStageRowKeyGolden pins the bytes of the result-cache row key: the
// stage fingerprint, each visible cell length-prefixed, the hidden ground
// truth and the output budget. Cells that are empty or contain the key's
// own delimiters (';', ':', '|') must stay unambiguous.
func TestStageRowKeyGolden(t *testing.T) {
	tbl := table.New("title", "note", "tags")
	tbl.MustAppendRow("Up", "", "a;b:c")
	tbl.MustAppendRow("12:3;", "x|y", "")
	if err := tbl.SetHidden("label", []string{"pos", ""}); err != nil {
		t.Fatal(err)
	}
	spec := query.Spec{Name: "golden", TruthHidden: "label", OutTokens: 8}
	want := []string{
		"FP2:Up;0:;5:a;b:c;|3:pos|7",
		"FP5:12:3;;3:x|y;0:;|0:|8",
	}
	for row, w := range want {
		if got := stageRowKey("FP", tbl, spec, row); got != w {
			t.Errorf("row %d: key %q, want %q", row, got, w)
		}
	}
	// Without a truth column the truth segment is empty.
	if got, w := stageRowKey("", tbl, query.Spec{Name: "golden", OutTokens: 1}, 0), "2:Up;0:;5:a;b:c;|0:|1"; got != w {
		t.Errorf("no-truth key %q, want %q", got, w)
	}
}
