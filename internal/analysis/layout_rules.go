package analysis

// CacheLineSize mirrors pad.CacheLineSize. The analyzer cannot import the
// analyzed module (it must also check fixture modules), so the constant is
// duplicated here; the padding pass asserts the two agree when it analyzes
// the real repository.
const CacheLineSize = 64

// A Gap demands that two fields of a struct sit at least a cache line
// apart, so they can never share a line regardless of base address. The
// distance is measured from From's offset (or the end of From when FromEnd
// is set — used when From itself is hot right up to its last byte) to To's
// offset.
type Gap struct {
	From    string
	To      string
	FromEnd bool
}

// LayoutRule is one struct's cache-line separation contract, proved by the
// padding pass against go/types field offsets. These are the same claims
// the runtime padding tests used to assert with unsafe.Offsetof; expressing
// them as data lets wfqlint, the per-package test wrappers, and the fixture
// corpus share a single implementation.
type LayoutRule struct {
	// Pkg is the import path, Struct the (possibly unexported) type name.
	Pkg    string
	Struct string

	// Gaps are pairwise minimum-distance claims.
	Gaps []Gap

	// LeadingPad lists fields whose offset must be at least a cache line,
	// i.e. the struct's leading pad actually covers the header before them.
	LeadingPad []string

	// TrailingPadAfter names the last hot field: the struct must extend at
	// least a cache line past its end, keeping it off the next heap
	// object's line. Empty means no trailing claim.
	TrailingPadAfter string

	// MinSize is a minimum total struct size in bytes (0 = no claim); used
	// for array elements where adjacent elements must not share lines.
	MinSize int64
}

// RepoLayoutRules returns the layout contracts of this repository's queue
// structs. Each entry documents which writers the separation protects from
// each other.
func RepoLayoutRules() []LayoutRule {
	return []LayoutRule{
		{
			// The two global FAA counters, the segment-list head, and the
			// cold configuration each on their own line: a T/H shared line
			// would make every enqueue/dequeue pair a false-sharing conflict
			// and void the paper's "as fast as fetch-and-add" claim.
			Pkg: PkgCore, Struct: "Queue",
			Gaps: []Gap{
				{From: "T", To: "H"},
				{From: "H", To: "q"},
				{From: "q", To: "segShift"},
			},
			LeadingPad: []string{"T"},
		},
		{
			// Per-thread handle: owner-written segment hints, helper-CASed
			// request words, and owner-local helping/stats state each on
			// their own lines. The deqReq→next gap is the PR 3 false-sharing
			// fix: before it, helper CASes on the request words conflicted
			// with the owner's per-operation peer-index and stats stores.
			Pkg: PkgCore, Struct: "Handle",
			Gaps: []Gap{
				{From: "hzdp", To: "enqReq"},
				{From: "deqReq", To: "next", FromEnd: true},
			},
			LeadingPad:       []string{"tail"},
			TrailingPadAfter: "stats",
		},
		{
			// Lane descriptors live in a slice: adjacent elements must not
			// share the line holding the descriptor words (read by every
			// operation, written by stealers).
			Pkg: PkgSharded, Struct: "lane",
			LeadingPad:       []string{"q"},
			TrailingPadAfter: "stolenFrom",
			MinSize:          2 * CacheLineSize,
		},
		{
			// The registration words (the regSeq home-lane counter and the
			// shell free-list head, FAAed/CASed only on the cold
			// Register/Release path) sit a full line from the read-mostly
			// descriptor fields every operation loads.
			Pkg: PkgSharded, Struct: "Queue",
			Gaps: []Gap{
				{From: "shells", To: "regSeq", FromEnd: true},
			},
			TrailingPadAfter: "hfree",
		},
		{
			Pkg: PkgSharded, Struct: "Handle",
			LeadingPad:       []string{"q"},
			TrailingPadAfter: "stats",
		},
		{
			// The SCQ ring's three FAA/CAS words: head is hammered by
			// dequeuers, tail by enqueuers, threshold by both sides of the
			// livelock-avoidance protocol. Any two on one line would turn
			// SCQ's "one FAA per op" into a false-sharing ping-pong.
			Pkg: PkgSCQ, Struct: "ring",
			Gaps: []Gap{
				{From: "head", To: "tail"},
				{From: "tail", To: "threshold"},
			},
			LeadingPad:       []string{"head"},
			TrailingPadAfter: "threshold",
		},
		{
			// The queue's shared words: the handle free-list head (CASed on
			// the cold lifecycle path), the pending-request count (checked by
			// every dequeue, FAAed on the slow path), and the epoch counter
			// (FAAed per published request) each on their own line.
			Pkg: PkgSCQ, Struct: "Queue",
			Gaps: []Gap{
				{From: "hfree", To: "pendingDeqs"},
				{From: "pendingDeqs", To: "epoch"},
			},
			LeadingPad:       []string{"hfree"},
			TrailingPadAfter: "epoch",
		},
		{
			// Handles live in a preallocated slice; deqReq is the one word
			// helpers CAS while the owner runs, so it sits a full line past
			// the owner-local stats and a full line before the next array
			// element (the wCQ request-word separation, DESIGN.md §7).
			Pkg: PkgSCQ, Struct: "Handle",
			Gaps: []Gap{
				{From: "stats", To: "deqReq", FromEnd: true},
			},
			LeadingPad:       []string{"q"},
			TrailingPadAfter: "deqReq",
			MinSize:          3 * CacheLineSize,
		},
	}
}
