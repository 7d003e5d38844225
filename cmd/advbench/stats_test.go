package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: the helper must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q      float64
		minN   int
		wantAt float64 // value at minN samples 1..minN
	}{
		{0.99, 1000, 990},
		{0.95, 200, 190},
		{0.90, 100, 90},
	} {
		if _, err := percentile(seq(tc.minN-1), tc.q); err == nil {
			t.Errorf("p%g of %d samples: want refusal", 100*tc.q, tc.minN-1)
		}
		got, err := percentile(seq(tc.minN), tc.q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", 100*tc.q, tc.minN, err)
		}
		if got != tc.wantAt {
			t.Errorf("p%g of 1..%d = %v, want %v", 100*tc.q, tc.minN, got, tc.wantAt)
		}
	}
	if got, err := percentile(seq(3), 0.5); err != nil || got != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", got, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples: want an error")
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{300, 100, 200}, 200},
		{[]float64{4, 1, 3, 2}, 2.5},
		// One round slowed by the host does not move the median.
		{[]float64{100, 101, 99, 20, 100}, 100},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("median reordered its input: %v", tc.in)
		}
	}
}

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: "frame", parent: -1, start: ms(0), end: ms(100)},
		{name: "render", parent: 0, start: ms(0), end: ms(10)},
		{name: "predict", parent: 0, start: ms(20), end: ms(60)},
		{name: "nn.conv0", parent: 2, start: ms(20), end: ms(50)},
		// Two cells on two workers overlap under one run span.
		{name: "run", parent: -1, start: ms(0), end: ms(100)},
		{name: "cell", parent: 4, start: ms(10), end: ms(50)},
		{name: "cell", parent: 4, start: ms(30), end: ms(70)},
		{name: "cell", parent: 4, start: ms(90), end: ms(120)}, // clipped to the parent
		{name: "open", parent: -1, start: ms(5), end: -1},      // never closed: ignored
	}
	lt := selfTimes(spans)
	for _, tc := range []struct {
		name        string
		calls       int
		total, self time.Duration
	}{
		{"frame", 1, ms(100), ms(50)},
		{"render", 1, ms(10), ms(10)},
		{"predict", 1, ms(40), ms(10)},
		{"nn.conv0", 1, ms(30), ms(30)},
		{"run", 1, ms(100), ms(30)}, // cells cover 10..70 and 90..100
		{"cell", 3, ms(110), ms(110)},
	} {
		l := lt[tc.name]
		if l == nil {
			t.Fatalf("no layer %q", tc.name)
		}
		if l.calls != tc.calls || l.total != tc.total || l.self != tc.self {
			t.Errorf("%s: calls %d total %v self %v; want %d %v %v", tc.name, l.calls, l.total, l.self, tc.calls, tc.total, tc.self)
		}
	}
	if _, ok := lt["open"]; ok {
		t.Error("an open span was folded in")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	f := tr.begin("frame", 1, -1)
	c := tr.begin("child", 1, f)
	time.Sleep(2 * time.Millisecond)
	tr.end(c)
	tr.end(f)
	lt := tr.layers()
	if lt["frame"].total < lt["child"].total || lt["frame"].self != lt["frame"].total-lt["child"].total {
		t.Fatalf("frame %+v child %+v", *lt["frame"], *lt["child"])
	}
}

func drawN(z *zipfStream, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

func TestSeededInputs(t *testing.T) {
	a := drawN(newZipfStream(1, 0, serveHot, zipfS), 500)
	if b := drawN(newZipfStream(1, 0, serveHot, zipfS), 500); !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds drew different request streams")
	}
	if b := drawN(newZipfStream(2, 0, serveHot, zipfS), 500); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds drew the same request stream")
	}
	if b := drawN(newZipfStream(1, 1, serveHot, zipfS), 500); reflect.DeepEqual(a, b) {
		t.Fatal("two clients drew the same request stream")
	}
	// The law is skewed: the most popular spec takes far more than 1/n.
	counts := map[int]int{}
	for _, i := range a {
		counts[i]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 3*len(a)/serveHot {
		t.Errorf("most drawn spec got %d of %d draws; not Zipf-skewed", top, len(a))
	}

	for _, plan := range []loopPlan{loopClassical, loopHeavy} {
		if !reflect.DeepEqual(plan(1, 3, 1), plan(1, 3, 1)) {
			t.Fatal("equal seeds planned different rounds")
		}
		if reflect.DeepEqual(plan(1, 3, 1), plan(2, 3, 1)) || reflect.DeepEqual(plan(1, 3, 1), plan(1, 4, 1)) {
			t.Fatal("different seeds or rounds planned the same round")
		}
	}
	if !reflect.DeepEqual(gridSpec(1, 0, 1), gridSpec(1, 0, 1)) || reflect.DeepEqual(gridSpec(1, 0, 1), gridSpec(2, 0, 1)) {
		t.Fatal("grid round seeds do not follow -seed")
	}
	hot, cold, err := requestMix(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	hot2, cold2, err := requestMix(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	other := append(hot2, cold2...)
	for i, s := range append(hot, cold...) {
		if other[i].key == s.key {
			t.Errorf("%s: seeds 1 and 2 give the same spec", s.name)
		}
		if seen[s.key] {
			t.Fatalf("%s duplicates an earlier spec", s.name)
		}
		seen[s.key] = true
	}
}

// TestRequestMix checks the serve-mixed request pattern: one request in
// coldEvery is a cold spec, each client owns its own cold specs and
// cycles through all of them, and the rest are hot.
func TestRequestMix(t *testing.T) {
	hot, cold, err := requestMix(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	for c := 0; c < serveClients; c++ {
		z := newZipfStream(1, c, len(hot), zipfS)
		var colds int
		for n := 0; n < 20*coldEvery; n++ {
			s, isCold := clientSpec(hot, cold, z, c, n)
			if isCold != strings.HasPrefix(s.name, "spec/cold/") {
				t.Fatalf("client %d request %d: %s marked cold=%v", c, n, s.name, isCold)
			}
			if !isCold {
				continue
			}
			colds++
			if o, ok := owner[s.key]; ok && o != c {
				t.Fatalf("%s requested by clients %d and %d", s.name, o, c)
			}
			owner[s.key] = c
		}
		if colds != 20 {
			t.Errorf("client %d: %d cold requests of %d, want 20", c, colds, 20*coldEvery)
		}
	}
	if len(owner) != len(cold) {
		t.Errorf("clients requested %d of %d cold specs", len(owner), len(cold))
	}
}
