package affinity

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the topology layer: an immutable snapshot of how the host's
// logical CPUs group into SMT cores, last-level-cache (LLC) domains, physical
// packages and NUMA nodes, parsed once from /sys/devices/system/cpu. The
// sharded queue consumes it for two placement decisions (DESIGN.md §9):
// which lane a handle calls home (same-LLC placement) and in which order a
// dequeuer sweeps foreign lanes (cache distance, nearest first). Everything is
// resolved at construction; the hot paths only index precomputed tables.
//
// Three sources produce a Topology:
//
//   - System(): the real host, parsed from sysfs once and cached. Falls back
//     to Flat(runtime.NumCPU()) when sysfs is absent or unreadable (non-Linux,
//     sandboxes), so callers never branch on platform.
//   - ParseSysCPUDir(root): the same parser over any directory tree — unit
//     tests run it against committed fixture trees in testdata/.
//   - Flat(n) / Build(infos): synthetic topologies for portable fallbacks,
//     deterministic unit tests and fault injection (wfqstress -topo).

// CPUInfo is one logical CPU's position in the machine. All ids are dense
// per-snapshot indices (0..count-1), not raw sysfs values: two CPUInfos of
// the same Topology compare meaningfully field by field.
type CPUInfo struct {
	CPU  int // logical CPU id (sysfs cpuN)
	Pkg  int // physical package (socket)
	Core int // physical core; SMT siblings share it
	LLC  int // last-level-cache domain (cache/index3 sharing group)
	Node int // NUMA node
}

// Topology is an immutable snapshot of the CPU hierarchy. The zero value is
// not usable; obtain instances from System, ParseSysCPUDir, Flat or Build.
// All methods are safe for concurrent use (the snapshot is never mutated)
// and total: any int argument resolves to some online CPU, so callers can
// feed stale or out-of-range CPU ids (hotplug, fake-shrink fault injection)
// without ever indexing out of bounds.
type Topology struct {
	infos []CPUInfo // online CPUs, ascending CPU id
	index []int     // CPU id -> position in infos, -1 if offline/absent
	nLLC  int
	nPkg  int
	nNode int
	flat  bool
}

// Cache-distance tiers returned by Distance, nearest first.
const (
	DistSelf    = 0 // same logical CPU
	DistSMT     = 1 // SMT sibling: same physical core
	DistLLC     = 2 // same last-level-cache domain
	DistPackage = 3 // same package or NUMA node, different LLC
	DistRemote  = 4 // different package and node
)

// sysCPUDir is the real sysfs root the System snapshot parses.
const sysCPUDir = "/sys/devices/system/cpu"

var (
	sysOnce sync.Once
	sysTopo *Topology
)

// System returns the host topology, parsed from /sys/devices/system/cpu once
// and cached for the process lifetime (CPU hotplug after the first call is
// not tracked — accessors clamp, so a vanished CPU degrades placement, never
// safety). When sysfs is absent or malformed it returns the flat fallback
// over runtime.NumCPU().
func System() *Topology {
	sysOnce.Do(func() {
		t, err := ParseSysCPUDir(sysCPUDir)
		if err != nil {
			t = Flat(runtime.NumCPU())
		}
		sysTopo = t
	})
	return sysTopo
}

// Flat returns the portable no-information topology over n CPUs (clamped to
// at least 1): one package, one NUMA node, one LLC domain, every CPU its own
// core. Distance degenerates to self/LLC, so distance-ordered sweeps reduce
// to the plain index order.
func Flat(n int) *Topology {
	if n < 1 {
		n = 1
	}
	infos := make([]CPUInfo, n)
	for i := range infos {
		infos[i] = CPUInfo{CPU: i, Pkg: 0, Core: i, LLC: 0, Node: 0}
	}
	t := Build(infos)
	t.flat = true
	return t
}

// Build constructs a Topology from explicit per-CPU placements — the
// injectable fake source for tests and fault injection. Entries with
// negative CPU ids are dropped, duplicates keep the first occurrence, and
// Pkg/Core/LLC/Node ids are densified in first-seen order, so callers can
// use any labeling scheme. An empty (or fully dropped) input yields Flat(1).
func Build(infos []CPUInfo) *Topology {
	cleaned := make([]CPUInfo, 0, len(infos))
	seen := map[int]bool{}
	for _, ci := range infos {
		if ci.CPU < 0 || seen[ci.CPU] {
			continue
		}
		seen[ci.CPU] = true
		cleaned = append(cleaned, ci)
	}
	if len(cleaned) == 0 {
		return Flat(1)
	}
	sort.Slice(cleaned, func(i, j int) bool { return cleaned[i].CPU < cleaned[j].CPU })

	pkgs := map[int]int{}
	cores := map[[2]int]int{} // (raw pkg, raw core): core ids are per-package in sysfs
	llcs := map[int]int{}
	nodes := map[int]int{}
	for i, ci := range cleaned {
		p, ok := pkgs[ci.Pkg]
		if !ok {
			p = len(pkgs)
			pkgs[ci.Pkg] = p
		}
		ck := [2]int{ci.Pkg, ci.Core}
		c, ok := cores[ck]
		if !ok {
			c = len(cores)
			cores[ck] = c
		}
		l, ok := llcs[ci.LLC]
		if !ok {
			l = len(llcs)
			llcs[ci.LLC] = l
		}
		nd, ok := nodes[ci.Node]
		if !ok {
			nd = len(nodes)
			nodes[ci.Node] = nd
		}
		cleaned[i] = CPUInfo{CPU: ci.CPU, Pkg: p, Core: c, LLC: l, Node: nd}
	}

	maxID := cleaned[len(cleaned)-1].CPU
	index := make([]int, maxID+1)
	for i := range index {
		index[i] = -1
	}
	for i, ci := range cleaned {
		index[ci.CPU] = i
	}
	return &Topology{
		infos: cleaned,
		index: index,
		nLLC:  len(llcs),
		nPkg:  len(pkgs),
		nNode: len(nodes),
	}
}

// cpuDirRe matches the per-CPU directories of a sysfs cpu tree.
var cpuDirRe = regexp.MustCompile(`^cpu([0-9]+)$`)

// nodeLinkRe matches the NUMA node entry inside one cpuN directory (a
// symlink on real sysfs; fixture trees may use plain files or directories —
// only the name matters).
var nodeLinkRe = regexp.MustCompile(`^node([0-9]+)$`)

// ParseSysCPUDir parses a /sys/devices/system/cpu-shaped directory tree into
// a Topology. Online CPUs come from the `online` list file when present,
// otherwise from the cpuN directories that carry a topology/ subdirectory
// (offline CPUs expose no topology, so either way they are excluded — the
// accessors' clamping covers queries against them). Per CPU it reads
// topology/physical_package_id and topology/core_id (both required),
// cache/index3/shared_cpu_list for the LLC sharing group (missing index3 —
// e.g. VMs that hide the cache hierarchy — degrades the LLC domain to the
// whole package), and the nodeN entry for the NUMA node (defaults to the
// package). The returned Topology is fully resolved; the parse allocates,
// the accessors do not.
func ParseSysCPUDir(root string) (*Topology, error) {
	cpus, err := enumerateCPUs(root)
	if err != nil {
		return nil, err
	}
	// Raw LLC keys are the canonical shared_cpu_list strings; disjoint
	// negative ids encode the per-package fallback so they can never collide
	// with a real index3 group's dense id.
	llcKeys := map[string]int{}
	infos := make([]CPUInfo, 0, len(cpus))
	for _, cpu := range cpus {
		dir := fmt.Sprintf("%s/cpu%d", root, cpu)
		pkg, err := readIntFile(dir + "/topology/physical_package_id")
		if err != nil {
			return nil, fmt.Errorf("affinity: cpu%d: %w", cpu, err)
		}
		coreID, err := readIntFile(dir + "/topology/core_id")
		if err != nil {
			return nil, fmt.Errorf("affinity: cpu%d: %w", cpu, err)
		}
		llc := 0
		if b, err := os.ReadFile(dir + "/cache/index3/shared_cpu_list"); err == nil {
			key := "llc:" + strings.TrimSpace(string(b))
			id, ok := llcKeys[key]
			if !ok {
				id = len(llcKeys)
				llcKeys[key] = id
			}
			llc = id
		} else {
			// No LLC description: treat the package as one cache domain.
			key := fmt.Sprintf("pkg:%d", pkg)
			id, ok := llcKeys[key]
			if !ok {
				id = len(llcKeys)
				llcKeys[key] = id
			}
			llc = id
		}
		node := pkg
		if entries, err := os.ReadDir(dir); err == nil {
			for _, e := range entries {
				if m := nodeLinkRe.FindStringSubmatch(e.Name()); m != nil {
					node, _ = strconv.Atoi(m[1])
					break
				}
			}
		}
		infos = append(infos, CPUInfo{CPU: cpu, Pkg: pkg, Core: coreID, LLC: llc, Node: node})
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("affinity: %s: no parsable cpus", root)
	}
	return Build(infos), nil
}

// enumerateCPUs lists the online CPU ids of a sysfs cpu tree.
func enumerateCPUs(root string) ([]int, error) {
	if b, err := os.ReadFile(root + "/online"); err == nil {
		cpus, err := parseCPUList(strings.TrimSpace(string(b)))
		if err != nil {
			return nil, fmt.Errorf("affinity: %s/online: %w", root, err)
		}
		return cpus, nil
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("affinity: %w", err)
	}
	var cpus []int
	for _, e := range entries {
		m := cpuDirRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("%s/%s/topology", root, e.Name())); err != nil {
			continue // offline or stub CPU: no topology exported
		}
		n, _ := strconv.Atoi(m[1])
		cpus = append(cpus, n)
	}
	sort.Ints(cpus)
	if len(cpus) == 0 {
		return nil, fmt.Errorf("affinity: %s: no cpu directories", root)
	}
	return cpus, nil
}

// parseCPUList parses the kernel's CPU list format ("0-3,8,10-11") into the
// sorted slice of ids.
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty cpu list")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				return nil, fmt.Errorf("cpu list %q: %w", s, err)
			}
		}
		if b < a || b-a > 1<<20 {
			return nil, fmt.Errorf("cpu list %q: bad range %s", s, part)
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out, nil
}

func readIntFile(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

// resolve maps any CPU id to a position in infos: online CPUs map to
// themselves, everything else (offline, beyond the snapshot, from a stale or
// shrunken fake) wraps deterministically over the online set. This is the
// clamp that makes every accessor total.
func (t *Topology) resolve(cpu int) int {
	if cpu >= 0 && cpu < len(t.index) {
		if i := t.index[cpu]; i >= 0 {
			return i
		}
	}
	if cpu < 0 {
		cpu = -cpu
	}
	return cpu % len(t.infos)
}

// NumCPU returns the number of online CPUs in the snapshot.
func (t *Topology) NumCPU() int { return len(t.infos) }

// NumLLC returns the number of LLC domains.
func (t *Topology) NumLLC() int { return t.nLLC }

// NumPackages returns the number of physical packages.
func (t *Topology) NumPackages() int { return t.nPkg }

// NumNodes returns the number of NUMA nodes.
func (t *Topology) NumNodes() int { return t.nNode }

// IsFlat reports whether this is a no-information fallback topology.
func (t *Topology) IsFlat() bool { return t.flat }

// CPUs returns the online CPU ids in ascending order (a fresh slice).
func (t *Topology) CPUs() []int {
	out := make([]int, len(t.infos))
	for i, ci := range t.infos {
		out[i] = ci.CPU
	}
	return out
}

// Info returns the full placement of cpu (clamped, see resolve).
func (t *Topology) Info(cpu int) CPUInfo { return t.infos[t.resolve(cpu)] }

// LLC returns cpu's LLC domain id in [0, NumLLC).
func (t *Topology) LLC(cpu int) int { return t.infos[t.resolve(cpu)].LLC }

// Package returns cpu's physical package id in [0, NumPackages).
func (t *Topology) Package(cpu int) int { return t.infos[t.resolve(cpu)].Pkg }

// Node returns cpu's NUMA node id in [0, NumNodes).
func (t *Topology) Node(cpu int) int { return t.infos[t.resolve(cpu)].Node }

// Distance returns the cache-distance tier between two CPUs: DistSelf,
// DistSMT (same core), DistLLC (same cache domain), DistPackage (same socket
// or NUMA node) or DistRemote. Both arguments are clamped like every
// accessor.
func (t *Topology) Distance(a, b int) int {
	ia, ib := t.infos[t.resolve(a)], t.infos[t.resolve(b)]
	switch {
	case ia.CPU == ib.CPU:
		return DistSelf
	case ia.Core == ib.Core:
		return DistSMT
	case ia.LLC == ib.LLC:
		return DistLLC
	case ia.Pkg == ib.Pkg || ia.Node == ib.Node:
		return DistPackage
	default:
		return DistRemote
	}
}

// DistanceOrder returns every online CPU sorted by cache distance from cpu
// (nearest first; ties broken by CPU id, so the order is deterministic). The
// first element is the resolved cpu itself. Allocates a fresh slice — meant
// for construction-time precomputation, not per-operation calls.
func (t *Topology) DistanceOrder(cpu int) []int {
	self := t.infos[t.resolve(cpu)].CPU
	out := t.CPUs()
	sort.Slice(out, func(i, j int) bool {
		di, dj := t.Distance(self, out[i]), t.Distance(self, out[j])
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}

// LLCCPUs returns the online CPUs of LLC domain llc (ascending; a fresh
// slice; empty when llc is out of range).
func (t *Topology) LLCCPUs(llc int) []int {
	var out []int
	for _, ci := range t.infos {
		if ci.LLC == llc {
			out = append(out, ci.CPU)
		}
	}
	return out
}

// String summarizes the snapshot (for bench metadata and debug output).
func (t *Topology) String() string {
	kind := "sysfs"
	if t.flat {
		kind = "flat"
	}
	return fmt.Sprintf("topology{%s, cpus=%d, llc=%d, pkgs=%d, nodes=%d}",
		kind, len(t.infos), t.nLLC, t.nPkg, t.nNode)
}
