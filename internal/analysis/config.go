package analysis

import "sort"

// Config declares what wfqlint analyzes: the module, the tier of each
// package, the hot-path entry points the no-block pass explores, the
// functions the escape gate protects, and the cache-line layout rules the
// padding pass enforces. RepoConfig returns the canonical instance for this
// repository; tests build small configs over fixture modules.
type Config struct {
	// Root is the module root directory; Module its import path.
	Root   string
	Module string

	// Tiers maps import paths to their analysis tier. Only listed packages
	// are analyzed.
	Tiers map[string]Tier

	// Extra lists support packages loaded for context — their function
	// bodies feed the call-graph and atomic-parameter analyses (so a hot
	// path calling into them is still screened for blocking constructs and
	// plain dereferences) — but no per-package pass reports on them.
	Extra []string

	// HotPaths maps a wait-free package to the names of its hot-path entry
	// functions/methods. The no-block pass explores everything reachable
	// from these through static calls within analyzed packages.
	HotPaths map[string][]string

	// EscapeHot maps a package to the functions whose bodies must not
	// contain heap escapes ("moved to heap" / "escapes to heap" in the
	// compiler's -m output). Constructors and cold administrative paths are
	// deliberately absent: newSegment IS the sanctioned allocation point;
	// the gate protects the operations around it.
	EscapeHot map[string][]string

	// LayoutRules are the cache-line separation claims the padding pass
	// proves against go/types field offsets.
	LayoutRules []LayoutRule

	// Symbols is the table of names usable in //wfqlint:bounded(<cost>, ...)
	// expressions. Constant-backed symbols resolve against the named package
	// constant at type-check time; parameter symbols carry a documented
	// reference value and surface in each dependent operation's "assumes"
	// list in the certificate.
	Symbols []SymbolDef

	// CertOps maps a wait-free package to the public operations the cert
	// pass composes closed-form step bounds for. Empty means no certificate
	// is produced (fixture configs).
	CertOps map[string][]string
}

// SymbolDef declares one symbol of the bounded-cost grammar.
type SymbolDef struct {
	// Name is the symbol as written in annotations (e.g. PATIENCE).
	Name string
	// Pkg/Const name the backing package-level constant; empty Pkg marks a
	// model parameter whose Value below is the reference substitution.
	Pkg   string
	Const string
	// Value is the reference value of a parameter symbol (ignored when the
	// symbol is constant-backed).
	Value uint64
	// Param marks a model parameter: it appears in the "assumes" list of
	// every operation whose bound mentions it, and the baseline diff gates
	// the set of assumptions an operation may grow.
	Param bool
	// Doc is the one-line meaning of the symbol, embedded in the
	// certificate so the JSON is self-describing.
	Doc string
}

// Import paths of the analyzed packages.
const (
	PkgCore    = "wfqueue/internal/core"
	PkgSharded = "wfqueue/internal/sharded"
	PkgSCQ     = "wfqueue/internal/scq"
	PkgLCRQ    = "wfqueue/internal/lcrq"
	PkgOFQueue = "wfqueue/internal/ofqueue"
	PkgMSQueue = "wfqueue/internal/msqueue"
	PkgCCQueue = "wfqueue/internal/ccqueue"
	PkgCtr     = "wfqueue/internal/ctr"
)

// RepoConfig returns the canonical configuration for this repository,
// rooted at root (the directory containing go.mod).
func RepoConfig(root string) Config {
	hot := []string{"Enqueue", "Dequeue", "EnqueueBatch", "DequeueBatch"}
	return Config{
		Root:   root,
		Module: "wfqueue",
		Tiers: map[string]Tier{
			PkgCore:    TierWaitFree,
			PkgSharded: TierWaitFree,
			// The bounded SCQ ring gets the full wait-free pass set: every
			// loop on its paths must carry a bound (the registry flags the
			// public variant WaitFree=false because the blocking Enqueue
			// adapter spins on backpressure, but inside the package each
			// retry discharges a documented obligation — DESIGN.md §7).
			PkgSCQ:     TierWaitFree,
			PkgLCRQ:    TierLockFree,
			PkgOFQueue: TierLockFree,
			PkgMSQueue: TierLockFree,
			PkgCCQueue: TierLockFree,
		},
		// hazard: Protect/Retire receive atomic word addresses from the
		// lock-free queues. ctr: the counter helpers every wait-free tier
		// bumps on its operation paths.
		Extra: []string{"wfqueue/internal/hazard", PkgCtr},
		// The handle lifecycle (Register/Release over the
		// generation-tagged free lists, DESIGN.md §6) is screened alongside
		// the queue operations: it is documented lock-free, so nothing
		// reachable from it may park a goroutine either.
		HotPaths: map[string][]string{
			// CountFull is the bounded façade's rejection path: its one core
			// call, made instead of an enqueue.
			PkgCore:    append([]string{"Register", "Release", "CountFull"}, hot...),
			PkgSharded: append([]string{"Register", "RegisterOnLane", "Release"}, hot...),
			// The bounded ring's hot quartet plus its lock-free lifecycle:
			// nothing reachable from any of them may park a goroutine
			// (scqEnqueue's backpressure spin yields with Gosched, which the
			// pass sanctions).
			PkgSCQ: {"TryEnqueue", "Dequeue", "Register", "Release"},
		},
		EscapeHot: map[string][]string{
			// The paper's operations (Listings 2-4), the helping paths, the
			// cell search, and the reclamation/recycling machinery: after
			// PR 2 none of these may allocate. newSegment is the one
			// sanctioned allocator (spare-slot miss fallback) and is excluded.
			PkgCore: {
				"Enqueue", "Dequeue", "EnqueueBatch", "DequeueBatch",
				"enqFast", "enqSlow", "deqFast", "deqSlow",
				"helpEnq", "helpDeq", "findCell", "enqCommit",
				"tryToClaimReq", "advanceEndForLinearizability",
				"cleanup", "update", "verify", "freeSegments",
				"recycleSegment", "hazardID", "sid",
				// helpEnq's poll pause, and the exported clamped spin that
				// idle-polling consumers wait with between EMPTY dequeues.
				"pause", "Pause",
				// Counter snapshots: Stats and Counters.Add walk the counter
				// words in place. CountFull bumps the bounded façade's
				// rejection counter.
				"Stats", "Add", "CountFull",
				// Handle lifecycle: acquisition and release work over the
				// preallocated handle array through a tagged free list and
				// must not allocate either.
				"Register", "Release", "pushHandle", "Registered",
			},
			// The sharded layer's operations are thin dispatch over core
			// calls and must stay allocation-free themselves.
			PkgSharded: {
				"Enqueue", "Dequeue", "EnqueueBatch", "DequeueBatch",
				"stealFrom", "sweepLane",
				// Shell-pool lifecycle. RegisterOnLane is deliberately absent:
				// its error paths wrap with fmt.Errorf (cold, sanctioned);
				// the steady-state machinery it drives is what must stay
				// allocation-free.
				"Release", "popShell", "pushShell",
			},
			// The SCQ ring: TryEnqueue/Dequeue and everything they drive —
			// ring ticket claims, the helping layer, the value handoff, the
			// handle free list — must not allocate after New (the zero-alloc
			// half of the bounded-memory claim; New preallocates everything).
			PkgSCQ: {
				"TryEnqueue", "Dequeue", "takeVal", "helpPeers", "dequeueSlow",
				"Register", "Release",
				"enqueue", "dequeue", "catchup", "remap", "pack", "unpack",
				"size", "Size", "Capacity",
			},
			// The counter helpers inline into every operation path above.
			PkgCtr: {"Inc", "Add", "Load"},
		},
		LayoutRules: RepoLayoutRules(),
		Symbols:     RepoSymbols(),
		// The certified surface: every public operation of the wait-free
		// tiers. The cert pass walks the static call graph from each and
		// composes annotated loop costs into a closed-form step bound.
		CertOps: map[string][]string{
			PkgCore: {
				"Enqueue", "Dequeue", "EnqueueBatch", "DequeueBatch",
				"CoalescedEnqueue", "CoalescedDequeue", "Flush",
				"Register", "Release",
			},
			PkgSharded: {
				"Enqueue", "Dequeue", "EnqueueBatch", "DequeueBatch",
				"Register", "RegisterOnLane", "Release",
			},
			PkgSCQ: {
				"TryEnqueue", "Dequeue", "Register", "Release",
			},
		},
	}
}

// RepoSymbols is the symbol table of this repository's cost grammar: the
// caps on the paper's tuning knobs, the structural constants of the sharded
// and SCQ tiers, and the model parameters the paper's bounds are stated
// over.
func RepoSymbols() []SymbolDef {
	return []SymbolDef{
		// Constant-backed: resolved from package constants at type-check
		// time, so a knob change reprices every dependent bound.
		{Name: "PATIENCE", Pkg: PkgCore, Const: "PatienceCap",
			Doc: "fast-path attempt budget; WithPatience clamps to this cap"},
		{Name: "MAX_SPIN", Pkg: PkgCore, Const: "MaxSpinCap",
			Doc: "enqueue-helper spin budget; WithMaxSpin clamps to this cap"},
		{Name: "SPIN_POLL", Pkg: PkgCore, Const: "spinPollStride",
			Doc: "pause iterations between helpEnq polls of a cell"},
		{Name: "WINDOW", Pkg: PkgCore, Const: "CoalesceMaxWindow",
			Doc: "coalescing buffer cap: flush/refill width (DESIGN.md §8)"},
		{Name: "PARK", Pkg: PkgCore, Const: "ParkSpinMax",
			Doc: "exported spin cap: the longest bounded pause one core.Pause call spends"},
		{Name: "LANES", Pkg: PkgSharded, Const: "MaxLanes",
			Doc: "sharded lane count cap: dispatch sweeps visit at most LANES lanes"},
		{Name: "FAST_TICKETS", Pkg: PkgSCQ, Const: "fastTickets",
			Doc: "SCQ ring-ticket budget of a dequeue fast path (DESIGN.md §7)"},
		{Name: "HELP_TICKETS", Pkg: PkgSCQ, Const: "helpTickets",
			Doc: "SCQ ring-ticket budget a helper spends on a peer"},
		{Name: "SLOW_SPIN", Pkg: PkgSCQ, Const: "slowSpin",
			Doc: "request-word loads per slow-path round before reclaiming it"},

		// Model parameters: the quantities the paper's bounds are stated
		// over. Reference values give the certificate a concrete steps
		// column; the symbolic bound is the artifact.
		{Name: "THREADS", Param: true, Value: 64,
			Doc: "registered handles (New's maxThreads): helping-ring walks, peer scans, in-flight trailing"},
		{Name: "SEGS", Param: true, Value: 64,
			Doc: "segment-list hops one walk can take: live window plus maxGarbage, amortized by reclamation (§3.6)"},
		{Name: "K", Param: true, Value: 64,
			Doc: "caller-supplied batch length (len of the vs/dst argument)"},
		{Name: "HELP", Param: true, Value: 4,
			Doc: "helping rounds before some claim lands (§3.5; scq: DESIGN.md §7 model rounds)"},
		{Name: "RETRY", Param: true, Value: 4,
			Doc: "lock-free CAS/ticket retry rounds under the bounded-interference model (DESIGN.md §6, §7): lock-free, not wait-free"},
	}
}

// tierPackages returns the analyzed import paths, wait-free first, in a
// deterministic order.
func (c Config) tierPackages() []string {
	var wf, lf []string
	for p, t := range c.Tiers {
		switch t {
		case TierWaitFree:
			wf = append(wf, p)
		case TierLockFree:
			lf = append(lf, p)
		}
	}
	sort.Strings(wf)
	sort.Strings(lf)
	return append(wf, lf...)
}
