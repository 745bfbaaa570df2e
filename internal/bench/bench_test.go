package bench

import (
	"runtime"
	"strings"
	"testing"

	_ "wfqueue/internal/registry" // register all queue implementations
)

func TestDetectPlatform(t *testing.T) {
	p := DetectPlatform()
	if p.Threads != runtime.NumCPU() {
		t.Errorf("threads = %d, want %d", p.Threads, runtime.NumCPU())
	}
	if p.GOARCH == "amd64" && !p.NativeFAA {
		t.Error("amd64 has native FAA")
	}
	row := p.Table1Row()
	if !strings.Contains(row, "|") {
		t.Errorf("Table1Row malformed: %q", row)
	}
}

func TestMeasureLatency(t *testing.T) {
	cfg := DefaultLatencyConfig("wf-10", 2)
	cfg.OpsPerSide = 5000
	cfg.Pin = false
	res, err := MeasureLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no latency samples collected")
	}
	for _, p := range []Percentiles{res.EnqueueP, res.DequeueP} {
		if p.P50 <= 0 || p.P50 > p.P99 || p.P99 > p.P999 || p.P999 > p.Max {
			t.Errorf("percentiles not monotone: %+v", p)
		}
	}
	if res.EnqueueP.String() == "" {
		t.Error("empty percentile string")
	}
}

func TestMeasureLatencyUnknownQueue(t *testing.T) {
	cfg := DefaultLatencyConfig("nope", 2)
	if _, err := MeasureLatency(cfg); err == nil {
		t.Fatal("unknown queue should error")
	}
}

func TestPercentilesEmpty(t *testing.T) {
	if p := percentiles(nil); p.Max != 0 {
		t.Error("empty percentiles should be zero")
	}
}
