package remarks

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Applied, Missed, Analysis, Runtime} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded, want error")
	}
}

func TestReasonStringsUnique(t *testing.T) {
	seen := map[string]Reason{}
	for r := ReasonNone; r <= ReasonControlDependent; r++ {
		s := r.String()
		if s == "?" {
			t.Errorf("reason %d has no string", r)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("reasons %d and %d share string %q", prev, r, s)
		}
		seen[s] = r
	}
}

func TestRemarkString(t *testing.T) {
	r := Remark{
		Pass: "mappromo", Kind: Missed, Reason: ReasonAliasing,
		File: "stencil.c", Line: 12, Function: "main",
		Unit: "heap@main:4", Message: "cannot promote map out of loop",
	}
	want := "stencil.c:12: remark[mappromo]: missed(aliasing): cannot promote map out of loop [unit: heap@main:4]"
	if got := r.String(); got != want {
		t.Errorf("String() =\n  %s\nwant\n  %s", got, want)
	}
	// No reason, no unit, no line.
	r2 := Remark{Pass: "doall", Kind: Applied, File: "a.c", Message: "parallelized"}
	want2 := "a.c:?: remark[doall]: applied: parallelized"
	if got := r2.String(); got != want2 {
		t.Errorf("String() = %q, want %q", got, want2)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Emit(Remark{Pass: "x", Message: "m"}) // must not panic
	if rs := c.Remarks(); rs != nil {
		t.Errorf("nil collector returned %v", rs)
	}
}

func TestCollectorDedupAndSort(t *testing.T) {
	c := NewCollector("t.c")
	r1 := Remark{Pass: "mappromo", Kind: Missed, Reason: ReasonAliasing, Line: 9, Message: "b"}
	r2 := Remark{Pass: "doall", Kind: Applied, Line: 3, Message: "a"}
	c.Emit(r1)
	c.Emit(r1) // duplicate from a convergence re-run
	c.Emit(r2)
	rs := c.Remarks()
	if len(rs) != 2 {
		t.Fatalf("got %d remarks, want 2 (dedup failed)", len(rs))
	}
	if rs[0].Line != 3 || rs[1].Line != 9 {
		t.Errorf("not sorted by line: %v", rs)
	}
	for _, r := range rs {
		if r.File != "t.c" {
			t.Errorf("file not stamped: %q", r.File)
		}
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector("t.c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Emit(Remark{Pass: "p", Line: i*100 + j, Message: "m"})
			}
		}(i)
	}
	wg.Wait()
	if got := len(c.Remarks()); got != 800 {
		t.Errorf("got %d remarks, want 800", got)
	}
}

func TestFilter(t *testing.T) {
	rs := []Remark{
		{Pass: "doall", Kind: Applied, Unit: "global a", Message: "1"},
		{Pass: "mappromo", Kind: Missed, Reason: ReasonAliasing, Unit: "heap@main:4", Message: "2"},
		{Pass: "mappromo", Kind: Analysis, Unit: "heap@main:4", Message: "3"},
		{Pass: "runtime", Kind: Runtime, Reason: ReasonAliasing, Unit: "malloc:4", Message: "4"},
	}
	if got := (Filter{Pass: "mappromo"}).Apply(rs); len(got) != 2 {
		t.Errorf("Pass filter: %d, want 2", len(got))
	}
	if got := (Filter{Kind: "missed"}).Apply(rs); len(got) != 1 || got[0].Message != "2" {
		t.Errorf("Kind filter: %v", got)
	}
	if got := (Filter{Unit: "heap@main"}).Apply(rs); len(got) != 2 {
		t.Errorf("Unit filter: %d, want 2", len(got))
	}
	// MissedOnly keeps Missed and Runtime.
	if got := (Filter{MissedOnly: true}).Apply(rs); len(got) != 2 {
		t.Errorf("MissedOnly: %d, want 2", len(got))
	}
	if got := (Filter{}).Apply(rs); len(got) != 4 {
		t.Errorf("empty filter: %d, want 4", len(got))
	}
}

func TestWriteAndJSONRoundTrip(t *testing.T) {
	rs := []Remark{
		{Pass: "doall", Kind: Applied, File: "x.c", Line: 3, Function: "main", Message: "parallelized loop"},
		{Pass: "mappromo", Kind: Missed, Reason: ReasonEscaping, File: "x.c", Line: 7, Unit: "heap@main:2", Message: "pointer escapes"},
	}
	var txt bytes.Buffer
	if err := Write(&txt, rs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(txt.String(), "\n"); got != 2 {
		t.Errorf("text output has %d lines, want 2:\n%s", got, txt.String())
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, rs); err != nil {
		t.Fatal(err)
	}
	// Kinds and reasons export as strings, not ints.
	if !strings.Contains(js.String(), `"missed"`) || !strings.Contains(js.String(), `"escaping-pointer"`) {
		t.Errorf("JSON lacks string enums:\n%s", js.String())
	}
	back, err := ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Reason != ReasonEscaping || back[0].Kind != Applied {
		t.Errorf("round trip: %+v", back)
	}

	// Empty set still yields a valid document with an array.
	var empty bytes.Buffer
	if err := WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(empty.Bytes(), &doc); err != nil {
		t.Fatalf("empty doc invalid: %v", err)
	}
	if string(doc["remarks"]) != "[]" {
		t.Errorf("empty remarks = %s, want []", doc["remarks"])
	}
}

func TestMatchesUnit(t *testing.T) {
	tests := []struct {
		label string
		name  string
		line  int
		want  bool
	}{
		{"heap@main:12", "malloc:12", 12, true},
		{"heap@main:12", "malloc:13", 13, false},
		{"global a", "a", 0, true},
		{"global a", "b", 0, false},
		{"heap@main:4, global a", "a", 0, true},
		{"heap@main:4, global a", "malloc:4", 4, true},
		{"alloca@f:7", "alloca f", 7, true},
		{"", "a", 0, false},
	}
	for _, tt := range tests {
		if got := MatchesUnit(tt.label, tt.name, tt.line); got != tt.want {
			t.Errorf("MatchesUnit(%q, %q, %d) = %v, want %v",
				tt.label, tt.name, tt.line, got, tt.want)
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	mk := func() []Remark {
		return []Remark{
			{Pass: "b", Kind: Missed, Line: 5, Message: "y"},
			{Pass: "a", Kind: Applied, Line: 5, Message: "x"},
			{Pass: "a", Kind: Missed, Line: 2, Message: "z"},
			{Pass: "a", Kind: Applied, Line: 5, Message: "w"},
		}
	}
	a, b := mk(), mk()
	// Shuffle b deterministically by rotating.
	b = append(b[2:], b[:2]...)
	Sort(a)
	Sort(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("sort not canonical:\n%v\n%v", a, b)
	}
}
