package rdf

import (
	"slices"
	"sort"

	"pivote/internal/errs"
)

// Triple is a dictionary-encoded RDF statement.
type Triple struct {
	S, P, O TermID
}

// Edge is one half of a triple as seen from a subject or an object:
// (P, Node) where Node is the other endpoint.
type Edge struct {
	P    TermID
	Node TermID
}

// Store holds a set of triples with three access paths:
//
//   - Out(s)  = sorted edges (p, o) leaving s     → forward traversal
//   - In(o)   = sorted edges (p, s) entering o    → backward traversal
//   - extents = (p, o) → sorted subjects, (s, p) → sorted objects,
//     served as contiguous runs of the adjacency arrays
//
// While loading, triples accumulate in a flat append-only log. Freeze
// sorts the log globally, deduplicates it, and compacts both directions
// into CSR (compressed sparse row) form: one flat []Edge per direction
// plus a dense offset array indexed by TermID, so Out(s) is the slice
// outEdges[outOff[s]:outOff[s+1]] — an O(1) two-load access with no hash
// probe, cache-friendly to scan, and invisible to the garbage collector
// (pointerless arrays instead of a map with tens of thousands of slice
// headers). The build-time log is released at Freeze.
//
// Adjacency runs are sorted by (P, Node), so the objects of a fixed
// (s, p) — the extent of a forward semantic feature — and the subjects of
// a fixed (p, o) — the extent of a backward one — are contiguous runs
// located with binary search.
//
// A Store is built once and then read concurrently; mutation is not
// goroutine-safe and Freeze must be called before concurrent reads.
// After Freeze all read methods are safe for concurrent use.
type Store struct {
	dict *Dictionary

	// Build-time triple log; nil after Freeze.
	log []Triple

	// Frozen CSR adjacency. offsets have length maxID+2 so that the edges
	// of node id are edges[off[id]:off[id+1]] for any id ≤ maxID.
	outOff   []uint32
	inOff    []uint32
	outEdges []Edge
	inEdges  []Edge

	// subjects is the sorted list of nodes with ≥1 outgoing edge,
	// computed once at Freeze (NodesWithOut and ForEachTriple serve it).
	subjects []TermID
	// objects counts the nodes with ≥1 incoming edge (for stats).
	objects int

	triples int
	frozen  bool
}

// NewStore returns an empty store sharing (or creating) a dictionary.
// Passing nil creates a fresh dictionary.
func NewStore(dict *Dictionary) *Store {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Store{dict: dict}
}

// Dict exposes the store's dictionary.
func (st *Store) Dict() *Dictionary { return st.dict }

// Len reports the number of triples added (including duplicates removed at
// Freeze time, until Freeze runs).
func (st *Store) Len() int { return st.triples }

// Add inserts the triple (s, p, o). Duplicate triples are tolerated and
// removed when the store is frozen.
func (st *Store) Add(s, p, o TermID) {
	if st.frozen {
		panic("rdf: Add after Freeze")
	}
	st.log = append(st.log, Triple{S: s, P: p, O: o})
	st.triples++
}

// AddTerms interns the three terms and inserts the triple, returning it.
func (st *Store) AddTerms(s, p, o Term) Triple {
	t := Triple{st.dict.Intern(s), st.dict.Intern(p), st.dict.Intern(o)}
	st.Add(t.S, t.P, t.O)
	return t
}

// Freeze sorts and deduplicates all adjacency lists and compacts them
// into the CSR arrays. It must be called after loading and before any
// query; queries on an unfrozen store panic so that missing-Freeze bugs
// surface immediately.
func (st *Store) Freeze() {
	if st.frozen {
		return
	}
	log := st.log

	// The offset arrays cover every interned term plus any raw IDs used
	// directly (tests add triples without interning).
	maxID := TermID(st.dict.Len())
	for _, t := range log {
		if t.S > maxID {
			maxID = t.S
		}
		if t.O > maxID {
			maxID = t.O
		}
	}

	st.outOff, st.outEdges = buildCSR(log, maxID, true)
	st.inOff, st.inEdges = buildCSR(log, maxID, false)
	st.triples = len(st.outEdges)

	st.subjects = make([]TermID, 0, 1024)
	for id := TermID(0); id <= maxID; id++ {
		if st.outOff[id+1] > st.outOff[id] {
			st.subjects = append(st.subjects, id)
		}
		if st.inOff[id+1] > st.inOff[id] {
			st.objects++
		}
	}

	st.log = nil
	st.frozen = true
}

// buildCSR counting-sorts the triple log by node (S when forward, O when
// backward), sorts each node's run by (P, Node) and deduplicates it in
// place, returning the compacted offsets and edges. Counting sort keeps
// the node grouping O(n); the per-run sorts are tiny (mean degree), so
// the whole build is near-linear.
func buildCSR(log []Triple, maxID TermID, forward bool) ([]uint32, []Edge) {
	off := make([]uint32, int(maxID)+2)
	for _, t := range log {
		if forward {
			off[t.S+1]++
		} else {
			off[t.O+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	edges := make([]Edge, len(log))
	cursor := append([]uint32(nil), off[:len(off)-1]...)
	for _, t := range log {
		if forward {
			edges[cursor[t.S]] = Edge{P: t.P, Node: t.O}
			cursor[t.S]++
		} else {
			edges[cursor[t.O]] = Edge{P: t.P, Node: t.S}
			cursor[t.O]++
		}
	}
	w := uint32(0)
	for id := 0; id <= int(maxID); id++ {
		lo, hi := off[id], off[id+1]
		run := edges[lo:hi]
		slices.SortFunc(run, func(a, b Edge) int {
			if a.P != b.P {
				return int(a.P) - int(b.P)
			}
			return int(a.Node) - int(b.Node)
		})
		off[id] = w
		// Compact forward: w never exceeds the run start, so reads stay
		// ahead of writes.
		for i, e := range run {
			if i > 0 && e == run[i-1] {
				continue
			}
			edges[w] = e
			w++
		}
	}
	off[maxID+1] = w
	return off, edges[:w:w]
}

// Frozen reports whether Freeze has run.
func (st *Store) Frozen() bool { return st.frozen }

// CheckFrozen returns a typed error when the store has not been frozen
// yet. Paths that must not panic on a half-built store (the snapshot
// writers) gate on it instead of relying on mustFrozen's panic.
func (st *Store) CheckFrozen() error {
	if !st.frozen {
		return errs.Errf(errs.KindInternal, "rdf: query on unfrozen store (call Freeze first)")
	}
	return nil
}

func (st *Store) mustFrozen() {
	if !st.frozen {
		panic("rdf: query on unfrozen store (call Freeze first)")
	}
}

// MaxTermID returns the largest node ID addressable in the frozen
// adjacency arrays. Dense per-node scratch arrays (the expand scorer's
// accumulator) size themselves as MaxTermID()+1.
func (st *Store) MaxTermID() TermID {
	st.mustFrozen()
	return TermID(len(st.outOff) - 2)
}

// Out returns the sorted (p, o) edges leaving s. The returned slice is
// shared with the store and must not be modified.
func (st *Store) Out(s TermID) []Edge {
	st.mustFrozen()
	if int(s)+1 >= len(st.outOff) {
		return nil
	}
	return st.outEdges[st.outOff[s]:st.outOff[s+1]]
}

// In returns the sorted (p, s) edges entering o. The returned slice is
// shared with the store and must not be modified.
func (st *Store) In(o TermID) []Edge {
	st.mustFrozen()
	if int(o)+1 >= len(st.inOff) {
		return nil
	}
	return st.inEdges[st.inOff[o]:st.inOff[o+1]]
}

// predRun binary-searches the run of edges with predicate p inside a list
// sorted by (P, Node) — the contiguous extent of one semantic feature.
func predRun(edges []Edge, p TermID) []Edge {
	lo := sort.Search(len(edges), func(i int) bool { return edges[i].P >= p })
	hi := lo + sort.Search(len(edges)-lo, func(i int) bool { return edges[lo+i].P > p })
	return edges[lo:hi]
}

// Objects returns the sorted objects o of triples (s, p, o), materialized
// into a fresh slice.
func (st *Store) Objects(s, p TermID) []TermID {
	return nodes(predRun(st.Out(s), p), nil)
}

// Subjects returns the sorted subjects s of triples (s, p, o).
func (st *Store) Subjects(p, o TermID) []TermID {
	return nodes(predRun(st.In(o), p), nil)
}

// ObjectsAppend appends the objects of (s, p, *) to dst and returns it,
// avoiding an allocation when the caller reuses buffers.
func (st *Store) ObjectsAppend(dst []TermID, s, p TermID) []TermID {
	return nodes(predRun(st.Out(s), p), dst)
}

// SubjectsAppend appends the subjects of (*, p, o) to dst and returns it.
func (st *Store) SubjectsAppend(dst []TermID, p, o TermID) []TermID {
	return nodes(predRun(st.In(o), p), dst)
}

// CountObjects reports |{o : (s,p,o)}| without materializing the set.
func (st *Store) CountObjects(s, p TermID) int {
	return len(predRun(st.Out(s), p))
}

// CountSubjects reports |{s : (s,p,o)}| without materializing the set.
func (st *Store) CountSubjects(p, o TermID) int {
	return len(predRun(st.In(o), p))
}

// Has reports whether the triple (s, p, o) is present.
func (st *Store) Has(s, p, o TermID) bool {
	run := predRun(st.Out(s), p)
	i := sort.Search(len(run), func(i int) bool { return run[i].Node >= o })
	return i < len(run) && run[i].Node == o
}

// OutDegree reports the number of distinct outgoing edges of s.
func (st *Store) OutDegree(s TermID) int {
	return len(st.Out(s))
}

// InDegree reports the number of distinct incoming edges of o.
func (st *Store) InDegree(o TermID) int {
	return len(st.In(o))
}

// ForEachTriple visits every triple in subject order. The callback must
// not retain the triple beyond the call if it mutates it.
func (st *Store) ForEachTriple(fn func(Triple)) {
	st.mustFrozen()
	for _, s := range st.subjects {
		for _, e := range st.Out(s) {
			fn(Triple{S: s, P: e.P, O: e.Node})
		}
	}
}

// NodesWithOut returns all subjects that have at least one outgoing edge,
// ascending. The slice is shared with the store and must not be modified.
func (st *Store) NodesWithOut() []TermID {
	st.mustFrozen()
	return st.subjects
}

func nodes(run []Edge, dst []TermID) []TermID {
	if dst == nil {
		dst = make([]TermID, 0, len(run))
	}
	for _, e := range run {
		dst = append(dst, e.Node)
	}
	return dst
}

// IntersectSorted computes |a ∩ b| for two ascending TermID slices.
func IntersectSorted(a, b []TermID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// IntersectSortedInto writes a ∩ b into dst (which may be nil) and returns
// it. Both inputs must be ascending and duplicate-free.
func IntersectSortedInto(dst, a, b []TermID) []TermID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// ContainsSorted reports whether x occurs in the ascending slice a.
func ContainsSorted(a []TermID, x TermID) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= x })
	return i < len(a) && a[i] == x
}
