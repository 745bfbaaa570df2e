package main

// -topo fault injection: the stress run drives wf-sharded-topo over a fake
// 16-CPU machine whose CPU source disagrees with the topology snapshot for
// most of the run. The source cycles through phases — the honest machine,
// two shrunk machines (hot-unplugged CPUs), two grown machines reporting
// ids the snapshot has never heard of, and a phase where getcpu itself
// fails — while -churn re-homes handles through every phase. The audited
// property is the placement contract: homeLaneFor and the steal tables
// clamp every id, so a vanished (or never-existent) CPU must degrade to
// round-robin placement, never index a vanished lane or crash. The normal
// stress accounting (loss/duplication, per-producer FIFO when churn is off)
// rides on top.

import (
	"fmt"
	"sync/atomic"

	"wfqueue/internal/affinity"
	"wfqueue/internal/qiface"
	"wfqueue/internal/registry"
)

const (
	// topoFaultCPUs is the fake machine: 16 CPUs in SMT pairs, 4 LLC
	// domains of 4, 2 packages (= NUMA nodes).
	topoFaultCPUs = 16
	// topoFaultLanes deliberately does not divide the domain count evenly,
	// so domain→lane assignment exercises the modulo paths.
	topoFaultLanes = 6
	// topoFaultShift is how many source calls each phase lasts. The source
	// is consulted once per (re-)registration, so with -churn every phase
	// sees fresh placement decisions many times over a short run.
	topoFaultShift = 8
)

// topoFaultPhases are the CPU-id universes the source reports from:
// 16 matches the snapshot, 7 and 3 are shrunk machines, 64 and 48 are
// grown ones, and 0 marks a phase where the source reports failure.
var topoFaultPhases = []int{topoFaultCPUs, 7, 64, 3, 1, 0, 48}

// topoFault is the shrinking-topology adversary: a deterministic CPU
// source whose answers sweep every phase as registrations accumulate.
type topoFault struct {
	calls atomic.Uint64
}

func (f *topoFault) cpu() (int, bool) {
	n := f.calls.Add(1)
	phase := topoFaultPhases[(n/topoFaultShift)%uint64(len(topoFaultPhases))]
	if phase == 0 {
		return 0, false
	}
	return int(n % uint64(phase)), true
}

// newTopoFaultQueue builds the boxed wf-sharded-topo under the fault
// source. The snapshot is the honest 16-CPU machine; only the source lies.
func (f *topoFault) newQueue(capacity int) (qiface.Queue, error) {
	infos := make([]affinity.CPUInfo, topoFaultCPUs)
	for c := range infos {
		infos[c] = affinity.CPUInfo{CPU: c, Pkg: c / 8, Core: c / 2, LLC: c / 4, Node: c / 8}
	}
	return registry.NewShardedTopoChecked(capacity, affinity.Build(infos), f.cpu, topoFaultLanes)
}

// report prints the adversary's coverage after a run: how many placement
// decisions the source answered and whether every phase had a turn.
func (f *topoFault) report() {
	calls := f.calls.Load()
	phases := calls / topoFaultShift
	if phases > uint64(len(topoFaultPhases)) {
		phases = uint64(len(topoFaultPhases))
	}
	fmt.Printf("topo: fault source answered %d placement lookups across %d/%d phases (snapshot %d CPUs, %d lanes)\n",
		calls, phases, len(topoFaultPhases), topoFaultCPUs, topoFaultLanes)
}

// topoVariant maps a fixed queue name to the topology-aware sharded queue,
// mirroring coalesceVariant: -topo only exists for the sharded family.
func topoVariant(name string) string {
	switch name {
	case "wf-10", "wf-sharded", "wf-sharded-topo":
		return "wf-sharded-topo"
	}
	fatalf("%s has no topology-aware variant (have: wf-sharded)", name)
	return ""
}
