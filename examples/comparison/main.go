// Comparison: a ranked side-by-side of every queue implementation in this
// repository — the paper's wait-free queue (WF-10/WF-0), its baselines
// (LCRQ, MS-Queue, CC-Queue, Kogan–Petrank, P-Sim), the obstruction-free
// base algorithm, a buffered Go channel, and the raw fetch-and-add upper
// bound — on a short enqueue-dequeue-pairs burst.
//
// This is a demo of the implementation registry, not a rigorous benchmark:
// for the paper's workloads and thread sweeps, run the root package's
// benchmark families (`make experiments`, DESIGN.md §10).
package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"wfqueue/internal/qiface"
	_ "wfqueue/internal/registry"
)

const (
	workers = 4
	perWkr  = 150_000
)

func measure(name string) (mops float64, err error) {
	f, err := qiface.Lookup(name)
	if err != nil {
		return 0, err
	}
	q, err := f.New(workers)
	if err != nil {
		return 0, err
	}
	ops := make([]qiface.Ops, workers)
	for i := range ops {
		if ops[i], err = q.Register(); err != nil {
			return 0, err
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(o qiface.Ops) {
			defer wg.Done()
			for i := 0; i < perWkr; i++ {
				o.Enqueue(uint64(i) + 1)
				o.Dequeue()
			}
		}(ops[w])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(2*workers*perWkr) / elapsed / 1e6, nil
}

func main() {
	type row struct {
		name string
		doc  string
		wf   bool
		mops float64
	}
	var rows []row
	for _, name := range qiface.Names() {
		f, _ := qiface.Lookup(name)
		m, err := measure(name)
		if err != nil {
			fmt.Printf("%-14s error: %v\n", name, err)
			continue
		}
		rows = append(rows, row{name: name, doc: f.Doc, wf: f.WaitFree, mops: m})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mops > rows[j].mops })

	fmt.Printf("%d workers × %d enqueue-dequeue pairs each:\n\n", workers, perWkr)
	fmt.Printf("%-14s %9s  %-2s %s\n", "queue", "Mops/s", "WF", "description")
	for _, r := range rows {
		wf := ""
		if r.wf {
			wf = "✓"
		}
		fmt.Printf("%-14s %9.2f  %-2s %s\n", r.name, r.mops, wf, r.doc)
	}
	fmt.Println("\n(WF = wait-free progress guarantee; faa is not a real queue.)")
}
