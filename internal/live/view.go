package live

import (
	"pivote/internal/rdf"
)

// View is one consistent snapshot of the live store: an immutable
// generation plus the counts of the writes pending on top of it. Reads
// go to the generation (core.Engine pins View().Gen once per op batch);
// pending writes reach them at the next compaction swap. A View is
// obtained with Store.View and never changes: every ingest and swap
// publishes a fresh one with a single atomic store.
type View struct {
	// Gen is the generation this view is layered on.
	Gen *Generation
	// pending counts the distinct pending triples; triples is the graph
	// size once they are folded into Gen.
	pending, triples int
}

// Pending reports the number of distinct pending triples (adds plus
// tombstones, last writer wins).
func (v *View) Pending() int { return v.pending }

// Len reports the number of distinct triples once the pending writes
// are folded in: the generation's count plus pending adds new to it,
// minus tombstones that hit it.
func (v *View) Len() int { return v.triples }

// Dict returns the shared term dictionary.
func (v *View) Dict() *rdf.Dictionary { return v.Gen.Store().Dict() }
