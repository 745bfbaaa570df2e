package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// package must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			j := c.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, j, d)
			}
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the result line: every metric BENCHMARK.json names, with its unit, and no
// failed values.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	for _, wl := range workloadNames() {
		for _, c := range []struct {
			trace   string
			seconds string
			metrics []struct{ Name, Unit, Better string }
		}{{"0", "0.2", bj.EndToEnd}, {"1", "0.5", bj.PerLayer}} {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", wl, "--seed", "7", "--seconds", c.seconds, "--trace", c.trace, "--spans", spans}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", wl, c.trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", wl, c.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d", wl, c.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(c.metrics) {
				t.Errorf("%s trace %s: %d metrics, want %d", wl, c.trace, len(res.Metrics), len(c.metrics))
			}
			for _, m := range c.metrics {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", wl, c.trace, m.Name, got, m.Unit)
				}
			}
			if c.trace == "1" {
				checkSpans(t, spans)
			}
		}
	}
}

// checkSpans checks that every child span names a workload.op parent of
// the same trace that encloses it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type spanLine struct {
		TraceID uint64 `json:"trace_id"`
		SpanID  uint64 `json:"span_id"`
		Parent  uint64 `json:"parent"`
		Name    string `json:"name"`
		Start   int64  `json:"start_ns"`
		End     int64  `json:"end_ns"`
	}
	parents := map[uint64]spanLine{}
	children := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if s.Parent == 0 {
			if s.Name != "workload.op" {
				t.Fatalf("root span %+v is not workload.op", s)
			}
			parents[s.SpanID] = s
			continue
		}
		p, ok := parents[s.Parent]
		if !ok || p.TraceID != s.TraceID || s.Start < p.Start || s.End > p.End {
			t.Fatalf("child %+v has no enclosing parent (%+v)", s, p)
		}
		children++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if children == 0 || children != len(parents) {
		t.Fatalf("%d parents, %d children", len(parents), children)
	}
}

func TestSummarize(t *testing.T) {
	seq := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(n - i) // reversed, so summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n           int
		p50, tailQ  float64
		tail        float64
		description string
	}{
		{1000, 500, 0.99, 990, "p99.9 has 1 sample beyond it, p99 has 10"},
		{100, 50, 0.9, 90, "only p90 has 10 beyond"},
		{10000, 5000, 0.999, 9990, "p99.9 has 10 beyond"},
		{19, 10, 0, 0, "too few samples for any tail"},
		{0, 0, 0, 0, "empty"},
	} {
		d := summarize(seq(c.n))
		if d.N != c.n || d.P50 != c.p50 || d.TailQ != c.tailQ || d.Tail != c.tail {
			t.Errorf("n=%d (%s): got %+v, want p50 %g, p%g = %g", c.n, c.description, d, c.p50, c.tailQ*100, c.tail)
		}
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g", m)
	}
}

func TestCheckerCountsEachFault(t *testing.T) {
	c := newChecker(2)
	defer c.free()
	for seq := uint64(0); seq < 10; seq++ {
		c.willSend(0, seq)
	}
	c.prod[0].sent = 10
	v := c.view()
	// 6 is lost, 5 is duplicated, 3 arrives after 4, and an id naming a
	// producer that does not exist is corrupt.
	for _, seq := range []uint64{0, 1, 2, 4, 3, 5, 5, 7, 8, 9} {
		v.see(makeID(0, seq))
	}
	v.see(makeID(5, 0))
	got := c.finish([]*consumerView{v})
	want := tally{sent: 10, lost: 1, dup: 1, reordered: 1, corrupt: 1}
	if got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// faultyLayer is a mutex-guarded FIFO that drops, duplicates and reorders
// values on a fixed schedule, to show the benchmark's output check catches
// each.
type faultyLayer struct {
	mu    sync.Mutex
	q     []val
	held  map[uint64]*val // per producer: a value held back behind the next one
	enqs  int
	deqs  int
	again *val
}

func (l *faultyLayer) register() (port, error)     { return l, nil }
func (l *faultyLayer) counters() map[string]uint64 { return nil }
func (l *faultyLayer) flush()                      {}
func (l *faultyLayer) release()                    {}

func (l *faultyLayer) enqueue(v val) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enqs++
	p := v.id >> seqBits
	switch {
	case l.enqs%1000 == 0: // lost
	case l.enqs%333 == 0 && l.held[p] == nil:
		l.held[p] = &v
	default:
		l.q = append(l.q, v)
		if h := l.held[p]; h != nil {
			l.q = append(l.q, *h)
			l.held[p] = nil
		}
	}
	return true
}

func (l *faultyLayer) dequeue() (val, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.again != nil {
		v := *l.again
		l.again = nil
		return v, true
	}
	if len(l.q) == 0 {
		return val{}, false
	}
	v := l.q[0]
	l.q = l.q[1:]
	l.deqs++
	if l.deqs%700 == 0 {
		l.again = &v
	}
	return v, true
}

func TestHarnessCatchesFaultyQueue(t *testing.T) {
	l := &faultyLayer{held: map[uint64]*val{}}
	rg := rung{"faulty", true, func() (layer, error) { return l, nil }}
	r, err := runPhase(workloadByName("pairs"), rg, 0.2, false, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.tally.lost == 0 || r.tally.dup == 0 || r.tally.reordered == 0 {
		t.Fatalf("faults not all caught: %s", r.tally)
	}
}

// TestBoundedMeetsErrFull checks that bounded keeps the ring full, so its
// Enqueues meet ErrFull at about the rate its coin bias predicts (one in
// five), and that every refused value still arrives.
func TestBoundedMeetsErrFull(t *testing.T) {
	r, err := runPhase(workloadByName("bounded"), boundedFacade, 0.3, false, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.tally.failed() != 0 {
		t.Fatalf("check: %s", r.tally)
	}
	// Half the value-moving ops are accepted Enqueues: the ring stays full.
	enqs := r.done/2 + r.full
	if frac := float64(r.full) / float64(enqs); frac < 0.1 || frac > 0.3 {
		t.Fatalf("%d of about %d Enqueues met ErrFull (%.3f), want about 0.2", r.full, enqs, frac)
	}
}

// stallPort is a single-goroutine FIFO whose first enqueue stalls.
type stallPort struct {
	q     []val
	stall time.Duration
	sends int
}

func (p *stallPort) enqueue(v val) bool {
	if p.sends == 0 {
		time.Sleep(p.stall)
	}
	p.sends++
	p.q = append(p.q, v)
	return true
}

func (p *stallPort) dequeue() (val, bool) {
	if len(p.q) == 0 {
		return val{}, false
	}
	v := p.q[0]
	p.q = p.q[1:]
	return v, true
}

func (*stallPort) flush()   {}
func (*stallPort) release() {}

// TestOpenLoopLatencyFromDueTime stalls the first send of a burst: every
// later value goes out late, and its latency must count the stall (measured
// from when the value was due), not only its time in the queue.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 5 * time.Millisecond
	ph := &phase{wl: workloadByName("handoff"), chk: newChecker(workers), iv: int64(time.Second)}
	defer ph.chk.free()
	p := &stallPort{stall: stall}
	prod, cons := newWorker(0, 1, false), newWorker(1, 2, false)
	for _, w := range []*worker{prod, cons} {
		w.ph, w.p, w.view = ph, p, ph.chk.view()
	}
	start := now()
	prod.burst(start)
	for cons.deq() {
	}
	if len(p.q) != 0 || cons.done != burstLen {
		t.Fatalf("received %d of %d", cons.done, burstLen)
	}
	// The burst's due times span about burstLen*meanGapNS = 1 ms after start,
	// so every value was due at least stall-1ms before it was sent.
	floor := int64(stall) - 2*burstLen*meanGapNS
	soj := nsOf(cons.soj.samples())
	sortInts(soj)
	if len(soj) != burstLen || soj[0] < floor {
		t.Fatalf("%d latencies, smallest %d ns; want every one >= %d ns", len(soj), soj[0], floor)
	}
	late := nsOf(prod.late.samples())
	sortInts(late)
	if late[len(late)/2] < floor {
		t.Fatalf("median generator lateness %d ns, want >= %d ns", late[len(late)/2], floor)
	}
}
