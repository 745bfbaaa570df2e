package affinity

import (
	"runtime"
	"testing"
)

func TestCompactOrderPermutation(t *testing.T) {
	order := CompactOrder()
	n := runtime.NumCPU()
	if len(order) != n {
		t.Fatalf("order length = %d, want %d", len(order), n)
	}
	seen := make(map[int]bool, n)
	for _, c := range order {
		if c < 0 || c >= n {
			t.Errorf("cpu %d out of range [0,%d)", c, n)
		}
		if seen[c] {
			t.Errorf("cpu %d appears twice", c)
		}
		seen[c] = true
	}
}

func TestPinCurrentThread(t *testing.T) {
	if !Supported() {
		t.Skip("affinity not supported on this platform")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	order := CompactOrder()
	if err := PinCompact(order, 0); err != nil {
		t.Fatalf("PinCompact(0): %v", err)
	}
	// Re-pin to all CPUs is not possible via this API; pin to the last CPU
	// and to an oversubscribed index to exercise wrap-around.
	if err := PinCompact(order, len(order)-1); err != nil {
		t.Fatalf("PinCompact(last): %v", err)
	}
	if err := PinCompact(order, len(order)+3); err != nil {
		t.Fatalf("PinCompact wrap-around: %v", err)
	}
}

func TestPinBadCPU(t *testing.T) {
	if !Supported() {
		t.Skip("affinity not supported on this platform")
	}
	if err := Pin(-1); err == nil {
		t.Error("Pin(-1) should fail")
	}
	if err := Pin(1 << 20); err == nil {
		t.Error("Pin(huge) should fail")
	}
}

func TestPinCompactEmptyOrder(t *testing.T) {
	if err := PinCompact(nil, 3); err != nil {
		t.Errorf("empty order should be a no-op, got %v", err)
	}
}

// TestCurrentCPUStable exercises the cached-failure latch: repeated calls
// must agree on ok (the latch means a failure can never flip back to
// success) and never report a negative CPU.
func TestCurrentCPUStable(t *testing.T) {
	_, ok1 := CurrentCPU()
	for i := 0; i < 100; i++ {
		cpu, ok := CurrentCPU()
		if ok != ok1 {
			t.Fatalf("CurrentCPU ok flipped: first %v then %v", ok1, ok)
		}
		if ok && cpu < 0 {
			t.Fatalf("negative cpu %d", cpu)
		}
	}
}
