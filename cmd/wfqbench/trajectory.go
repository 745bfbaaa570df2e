package main

// The trajectory subcommand: merges the repository's committed per-PR
// baseline documents (BENCH_*.json, each written by its own emitter
// subcommand) into one schema-versioned BENCH_trajectory.json keyed by the
// PR that introduced each baseline. The merged document is the repo's
// performance history in one place: which queue shapes existed at each
// point, what they measured on the recorded platform, and which hot-path
// allocation gates each PR pinned. No benchmarks run here — the subcommand
// is a pure reader of committed artifacts, so it is deterministic and
// CI-cheap; absolute numbers remain per-platform trajectory, never
// cross-run gates.

import (
	"encoding/json"
	"fmt"
	"os"
)

const trajectorySchema = "wfqueue/bench-trajectory/v1"

// trajectoryManifest maps each committed baseline to the PR that
// introduced it. Order is PR order; missing files are reported and skipped
// so the merge works on partial checkouts.
var trajectoryManifest = []struct {
	PR    int
	Topic string
	File  string
}{
	{2, "core", "BENCH_core.json"},
	{3, "sharded", "BENCH_sharded.json"},
	{6, "handles", "BENCH_handles.json"},
	{7, "scq", "BENCH_scq.json"},
	{8, "coalesce", "BENCH_coalesce.json"},
	{10, "topo", "BENCH_topo.json"},
}

type trajectoryDoc struct {
	Schema  string            `json:"schema"`
	Entries []trajectoryEntry `json:"entries"`
}

type trajectoryEntry struct {
	PR           int          `json:"pr"`
	Topic        string       `json:"topic"`
	File         string       `json:"file"`
	SourceSchema string       `json:"source_schema"`
	Platform     jsonPlatform `json:"platform"`
	Params       jsonParams   `json:"params"`
	Queues       []trajRow    `json:"queues"`
}

// trajRow is the common shape of a measured queue row across the source
// schemas (jsonQueue for most emitters, coalesceRow for the coalesce
// baseline, whose window tag is carried through).
type trajRow struct {
	Name        string  `json:"name"`
	Window      int     `json:"window,omitempty"`
	Mops        float64 `json:"mops"`
	WallMops    float64 `json:"wall_mops"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func runTrajectory(o options) {
	doc := trajectoryDoc{Schema: trajectorySchema}
	for _, m := range trajectoryManifest {
		raw, err := os.ReadFile(m.File)
		if err != nil {
			fmt.Printf("trajectory: %s (PR %d) absent, skipping: %v\n", m.File, m.PR, err)
			continue
		}
		// The common envelope every emitter shares.
		var env struct {
			Schema   string       `json:"schema"`
			Platform jsonPlatform `json:"platform"`
			Params   jsonParams   `json:"params"`
			Queues   []jsonQueue  `json:"queues"`
			Windows  []struct {
				Window   int     `json:"window"`
				Queue    string  `json:"queue"`
				Mops     float64 `json:"mops"`
				WallMops float64 `json:"wall_mops"`
				Allocs   float64 `json:"allocs_per_op"`
			} `json:"windows"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			fatalf("trajectory: %s: %v", m.File, err)
		}
		entry := trajectoryEntry{
			PR:           m.PR,
			Topic:        m.Topic,
			File:         m.File,
			SourceSchema: env.Schema,
			Platform:     env.Platform,
			Params:       env.Params,
		}
		for _, q := range env.Queues {
			entry.Queues = append(entry.Queues, trajRow{
				Name:        q.Name,
				Mops:        q.Mops,
				WallMops:    q.WallMops,
				AllocsPerOp: q.AllocsPerOp,
			})
		}
		for _, w := range env.Windows {
			entry.Queues = append(entry.Queues, trajRow{
				Name:        w.Queue,
				Window:      w.Window,
				Mops:        w.Mops,
				WallMops:    w.WallMops,
				AllocsPerOp: w.Allocs,
			})
		}
		doc.Entries = append(doc.Entries, entry)
		fmt.Printf("trajectory: PR %d %-9s %-20s %d rows (%s)\n",
			m.PR, m.Topic, m.File, len(entry.Queues), env.Schema)
	}
	if len(doc.Entries) == 0 {
		fatalf("trajectory: no baseline documents found")
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("trajectory: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		fatalf("trajectory: %v", err)
	}
	fmt.Printf("trajectory: wrote %s (%d baselines merged)\n", o.outPath, len(doc.Entries))
}
