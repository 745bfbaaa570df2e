package qtest

import (
	"runtime"
	"strings"
	"testing"
)

// QueueAllocs must count an allocation made under a frame of the gated
// packages, with its stack, and leave out the warm-up call's, one made by
// code outside the gated packages, and one made by a test file's own code.
func TestQueueAllocsAttribution(t *testing.T) {
	var sink []string
	repeat := func() { sink = append(sink[:0], strings.Repeat("ab", 32)) }
	a := QueueAllocs(10, repeat, "strings.")
	if a.Objects != 10 || a.Bytes == 0 {
		t.Errorf("10 strings.Repeat calls counted as %d objects, %d bytes; want 10 objects", a.Objects, a.Bytes)
	}
	if !strings.Contains(a.Sites(), "strings.Repeat") {
		t.Errorf("no stack names strings.Repeat:\n%s", a.Sites())
	}
	if a := QueueAllocs(10, repeat, "bytes."); a.Objects != 0 {
		t.Errorf("allocations outside the gated packages counted as %d objects at:\n%s", a.Objects, a.Sites())
	}
	// The prefix matches this test's own frames and nothing in alloc.go.
	var other [][]byte
	a = QueueAllocs(100, func() { other = append(other, make([]byte, 64)) }, "wfqueue/internal/qtest.TestQueueAllocs")
	if a.Objects != 0 {
		t.Errorf("a test file's own allocations counted as %d objects at:\n%s", a.Objects, a.Sites())
	}
	runtime.KeepAlive(sink)
	runtime.KeepAlive(other)
}
