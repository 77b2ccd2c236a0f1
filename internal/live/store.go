package live

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pivote/internal/errs"
	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/search"
)

// Config tunes a live Store.
type Config struct {
	// SearchParams override the retrieval hyperparameters of every
	// generation's search index when non-nil.
	SearchParams *search.Params
	// CompactThreshold is the pending-triple count at which an ingest
	// kicks the background compactor (when started). <= 0 selects the
	// default of 2048.
	CompactThreshold int
	// SnapshotDir, when non-empty, makes every compaction swap persist
	// the new generation as a sectioned snapshot (gen-<id>.pvgen) in
	// this directory, written atomically. A later process restores it
	// with OpenGeneration + NewStoreFromGeneration. Snapshot write
	// failures never fail the compaction; LastSnapshot reports them.
	SnapshotDir string
	// SnapshotWrite, when non-nil, overrides how a compaction swap is
	// persisted into SnapshotDir: it returns the target path it wrote
	// (or tried to write). Shard nodes hook per-shard snapshot files
	// (gen-<id>-s<k>.pvgen, with the trailing ownership section) in
	// here; nil selects the plain WriteGenerationFile path.
	SnapshotWrite func(gen *Generation, dir string) (string, error)
	// Partition, when non-nil, restricts result emission of every
	// generation this store publishes to the entities it accepts — the
	// shard-node configuration. TermIDs are stable across compaction
	// swaps (all generations share one append-only dictionary), so a
	// deterministic predicate over TermIDs partitions identically in
	// every generation and sessions survive swaps under sharding.
	Partition func(rdf.TermID) bool
}

func (c Config) withDefaults() Config {
	if c.CompactThreshold <= 0 {
		c.CompactThreshold = 2048
	}
	return c
}

// Store is the generational graph: an atomic current View (generation
// plus pending counts) and the pending write log. Reads are wait-free —
// View is one atomic load, and everything reachable from a View is
// immutable. Writes serialize behind a mutex, append to the log and
// publish a fresh View; they never touch anything a reader holds. The
// compactor (a background goroutine when started, or CompactNow for
// synchronous control) folds the log into the next generation and
// publishes it with an RCU pointer swap.
type Store struct {
	cfg  Config
	view atomic.Pointer[View]

	mu sync.Mutex // guards log, final, net, closed, and view publication
	// log holds the writes since the current generation, in arrival
	// order; CompactNow folds an immutable prefix of it.
	log []logEntry
	// final is the last-writer-wins fold of log and net the triple count
	// it adds to the generation's store (+1 per add new to it, −1 per
	// tombstone that hits it). Both are kept per write, so an ingest
	// costs O(batch) under mu.
	final  map[rdf.Triple]bool
	net    int
	closed bool

	compactMu sync.Mutex // serializes compactions (background or forced)
	started   atomic.Bool
	kick      chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup

	swaps     atomic.Uint64
	adoptions atomic.Uint64

	snapMu   sync.Mutex // guards the last-snapshot record
	snapPath string
	snapErr  error
}

// NewStore builds a live store over a frozen seed graph as generation 0.
// No goroutine is spawned until StartCompactor; a Store that never
// ingests behaves exactly like the frozen-only stack.
func NewStore(g *kg.Graph, cfg Config) *Store {
	s := &Store{
		cfg:   cfg.withDefaults(),
		final: map[rdf.Triple]bool{},
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	s.publish(newGeneration(0, g, s.cfg.SearchParams, nil, nil, s.cfg.Partition))
	return s
}

// NewStoreFromGeneration builds a live store serving an already-opened
// generation — the snapshot restore path. The generation keeps its
// snapshot ID, so the next compaction publishes ID+1 and snapshot
// filenames stay monotone across restarts. Ingest and compaction work
// exactly as after NewStore; the shared dictionary grows past the
// mapped base region as new terms arrive.
func NewStoreFromGeneration(gen *Generation, cfg Config) *Store {
	s := &Store{
		cfg:   cfg.withDefaults(),
		final: map[rdf.Triple]bool{},
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	if cfg.Partition != nil && gen.Own == nil {
		gen.ApplyPartition(cfg.Partition)
	}
	s.publish(gen)
	return s
}

// View returns the current consistent read snapshot. The returned view
// (and its generation) remains valid and immutable forever; holding it
// is what "pinning a generation" means.
func (s *Store) View() *View { return s.view.Load() }

// Generation returns the current generation.
func (s *Store) Generation() *Generation { return s.View().Gen }

// Swaps reports how many compaction swaps have been published.
func (s *Store) Swaps() uint64 { return s.swaps.Load() }

// Pending reports the number of distinct pending triples.
func (s *Store) Pending() int { return s.View().Pending() }

// IngestResult reports what one ingest batch did.
type IngestResult struct {
	// Added and Removed count the triples of the batch (pre-dedup).
	Added, Removed int
	// Pending is the distinct pending triple count after the batch.
	Pending int
	// Generation is the generation the batch is layered on; the batch
	// becomes part of generation Generation+1 at the next swap.
	Generation uint64
}

// Ingest appends a batch of adds and tombstones to the write log and
// publishes a new View counting them. The batch is atomic: it is
// validated in full before anything is published, and a typed invalid
// error leaves the store unchanged. Readers never block — they keep the
// view they loaded; the batch reaches reads at the next swap.
func (s *Store) Ingest(adds, dels []rdf.Triple) (IngestResult, error) {
	t0 := liveStart()
	dictLen := s.View().Dict().Len()
	check := func(ts []rdf.Triple) error {
		for _, t := range ts {
			if t.S == rdf.NoTerm || t.P == rdf.NoTerm || t.O == rdf.NoTerm {
				return errs.Errf(errs.KindInvalid, "live: triple references the NoTerm sentinel")
			}
			if int(t.S) > dictLen || int(t.P) > dictLen || int(t.O) > dictLen {
				return errs.Errf(errs.KindInvalid, "live: triple references unknown term id")
			}
		}
		return nil
	}
	if err := check(adds); err != nil {
		return IngestResult{}, err
	}
	if err := check(dels); err != nil {
		return IngestResult{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return IngestResult{}, errs.Errf(errs.KindInvalid, "live: store is closed")
	}
	gen := s.view.Load().Gen
	base := gen.Store()
	for _, t := range adds {
		s.record(base, logEntry{t: t})
	}
	for _, t := range dels {
		s.record(base, logEntry{t: t, del: true})
	}
	s.publish(gen)
	pending := len(s.final)
	s.mu.Unlock()

	if s.started.Load() && pending >= s.cfg.CompactThreshold {
		select {
		case s.kick <- struct{}{}:
		default: // a kick is already queued
		}
	}
	if !t0.IsZero() {
		mIngestSeconds.Observe(time.Since(t0))
		mIngestBatches.Inc()
		mIngestTriples.Add(uint64(len(adds) + len(dels)))
		mIngestBatchSize.ObserveVal(uint64(len(adds) + len(dels)))
	}
	return IngestResult{Added: len(adds), Removed: len(dels), Pending: pending, Generation: gen.ID}, nil
}

// IngestNTriples decodes N-Triples batches (either reader may be nil)
// against the shared dictionary and ingests them. Both batches are
// parsed in full before any term is interned, so a parse error in
// either one is typed invalid and leaves both the dictionary and the
// store untouched.
func (s *Store) IngestNTriples(adds, dels io.Reader) (IngestResult, error) {
	var addP, delP []rdf.TermTriple
	var err error
	if adds != nil {
		if addP, err = rdf.ParseNTriples(adds); err != nil {
			return IngestResult{}, err
		}
	}
	if dels != nil {
		if delP, err = rdf.ParseNTriples(dels); err != nil {
			return IngestResult{}, err
		}
	}
	// Refuse before interning: a closed store must not grow the shared
	// dictionary (a close racing this check can still intern a batch's
	// terms, which is harmless — the batch itself is rejected).
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return IngestResult{}, errs.Errf(errs.KindInvalid, "live: store is closed")
	}
	dict := s.View().Dict()
	return s.Ingest(rdf.InternTriples(dict, addP), rdf.InternTriples(dict, delP))
}

// record appends one write to the log and folds it into final and net
// against base, the current generation's store. Callers hold mu.
func (s *Store) record(base *rdf.Store, e logEntry) {
	s.log = append(s.log, e)
	was, ok := s.final[e.t]
	if !ok {
		was = base.Has(e.t.S, e.t.P, e.t.O)
	}
	s.final[e.t] = !e.del
	switch {
	case !was && !e.del:
		s.net++
	case was && e.del:
		s.net--
	}
}

// publish stores a fresh View of gen carrying the current pending
// counts. Callers hold mu (or own the store exclusively).
func (s *Store) publish(gen *Generation) {
	s.view.Store(&View{Gen: gen, pending: len(s.final), triples: gen.Store().Len() + s.net})
}

// StartCompactor launches the background compactor: every kick (an
// ingest crossing the threshold, or TriggerCompact) folds the pending
// writes into a fresh generation off-thread. Idempotent.
func (s *Store) StartCompactor() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.stop:
				return
			case <-s.kick:
				_, _, _ = s.CompactNow()
			}
		}
	}()
}

// TriggerCompact kicks the background compactor without blocking. It is
// a no-op when the compactor is not running.
func (s *Store) TriggerCompact() {
	if !s.started.Load() {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// CompactNow synchronously folds the pending writes (as of call time)
// into a new generation and publishes it with an RCU swap. It returns
// the generation that is current afterwards and whether a swap happened
// (false when nothing was pending). Ingest continues concurrently:
// writes that arrive during the rebuild stay pending on top of the new
// generation.
func (s *Store) CompactNow() (*Generation, bool, error) {
	t0 := liveStart()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Snapshot the generation and the log prefix written on top of it.
	// Both change only under mu, so the pair is consistent, and appends
	// past n never touch the prefix.
	s.mu.Lock()
	gen := s.view.Load().Gen
	n := len(s.log)
	prefix := s.log[:n:n]
	s.mu.Unlock()
	if n == 0 {
		return gen, false, nil
	}

	// Rebuild off-thread: the base minus the prefix's tombstones, plus
	// its adds, into a fresh store sharing the append-only dictionary.
	// Freeze sorts and deduplicates, so adds already in the base
	// collapse. Readers keep serving from the current view throughout.
	final := foldLog(prefix)
	base := gen.Store()
	next := rdf.NewStore(base.Dict())
	base.ForEachTriple(func(t rdf.Triple) {
		if added, ok := final[t]; added || !ok {
			next.Add(t.S, t.P, t.O)
		}
	})
	for t, added := range final {
		if added {
			next.Add(t.S, t.P, t.O)
		}
	}
	next.Freeze()
	g2 := kg.NewGraph(next)
	touched := touchedSet(prefix, next, g2.Voc().Type)
	gen2 := newGeneration(gen.ID+1, g2, s.cfg.SearchParams, gen.Features, touched, s.cfg.Partition)

	// Publish: the compacted prefix leaves the log; whatever arrived
	// since is folded again, now against the new generation's store.
	s.mu.Lock()
	rest := s.log[n:]
	s.log = make([]logEntry, 0, len(rest))
	s.final, s.net = make(map[rdf.Triple]bool, len(rest)), 0
	for _, e := range rest {
		s.record(next, e)
	}
	s.publish(gen2)
	s.mu.Unlock()
	s.swaps.Add(1)

	// Persist the published generation while still holding compactMu, so
	// snapshots appear in ID order. Readers are already on gen2; a write
	// failure is recorded, never propagated — serving beats durability.
	if s.cfg.SnapshotDir != "" {
		var path string
		var err error
		if s.cfg.SnapshotWrite != nil {
			path, err = s.cfg.SnapshotWrite(gen2, s.cfg.SnapshotDir)
		} else {
			path = SnapshotPath(s.cfg.SnapshotDir, gen2.ID)
			err = WriteGenerationFile(gen2, path)
		}
		s.snapMu.Lock()
		s.snapPath, s.snapErr = path, err
		s.snapMu.Unlock()
	}
	if !t0.IsZero() {
		mCompactSeconds.Observe(time.Since(t0))
	}
	mSwapsTotal.Inc()
	mGeneration.Set(int64(gen2.ID))
	return gen2, true, nil
}

// Adoptions reports how many of the published swaps were adoptions of
// externally compacted generations (snapshot replication) rather than
// local compactions.
func (s *Store) Adoptions() uint64 { return s.adoptions.Load() }

// AdoptGeneration publishes an externally compacted generation — the
// snapshot-replication path: one replica of a shard compacts and writes
// the per-shard snapshot file, its peers open those bytes and adopt the
// result here through the same RCU swap a local compaction uses.
//
// Adoption asserts the snapshot SUPERSEDES local state: the pending
// write log is discarded wholesale, because the coordinator (the
// scatter-gather router) serializes ingest against swaps, so at adopt
// time every pending triple this store holds is already folded into the
// adopted generation. Calling this outside such a protocol loses writes.
//
// A generation older than the current one is refused as a no-op (never
// an error — adoption is idempotent); an equal ID is also a no-op
// unless force is set, which replaces the state wholesale — the repair
// path for a replica that diverged (missed a write while unreachable)
// and may hold a same-ID generation with different content. Reports
// whether a swap was published.
func (s *Store) AdoptGeneration(gen *Generation, force bool) (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errs.Errf(errs.KindInvalid, "live: store is closed")
	}
	cur := s.view.Load().Gen
	if gen.ID < cur.ID || (gen.ID == cur.ID && !force) {
		return false, nil
	}
	if s.cfg.Partition != nil && gen.Own == nil {
		gen.ApplyPartition(s.cfg.Partition)
	}
	s.log = nil
	s.final, s.net = map[rdf.Triple]bool{}, 0
	s.publish(gen)
	s.swaps.Add(1)
	s.adoptions.Add(1)
	mSwapsTotal.Inc()
	mAdoptionsTotal.Inc()
	mGeneration.Set(int64(gen.ID))
	return true, nil
}

// LastSnapshot reports the most recent snapshot publication attempt:
// the target path and its error (nil on success). Both are zero until
// the first compaction swap with SnapshotDir configured.
func (s *Store) LastSnapshot() (string, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapPath, s.snapErr
}

// Close stops accepting ingest and shuts the compactor down. Writes
// still pending stay counted in the final view but are never compacted.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.started.Load() {
		close(s.stop)
		s.wg.Wait()
	}
	return nil
}

// touchedSet builds the prefix's write set for cache invalidation: every
// S, P and O of the compacted prefix, expanded with the new-store
// neighbours of any node whose rdf:type set changed — gaining or losing
// entity status changes extents whose anchors are exactly those
// neighbours, so folding them in makes the anchor-only invalidation rule
// in semfeat.NewFeatureCacheFrom sound.
func touchedSet(prefix []logEntry, next *rdf.Store, typePred rdf.TermID) func(rdf.TermID) bool {
	set := make(map[rdf.TermID]struct{}, 3*len(prefix))
	mark := func(id rdf.TermID) { set[id] = struct{}{} }
	for _, e := range prefix {
		mark(e.t.S)
		mark(e.t.P)
		mark(e.t.O)
	}
	for _, e := range prefix {
		if e.t.P != typePred || typePred == rdf.NoTerm {
			continue
		}
		for _, edge := range next.Out(e.t.S) {
			mark(edge.Node)
		}
		for _, edge := range next.In(e.t.S) {
			mark(edge.Node)
		}
	}
	return func(id rdf.TermID) bool {
		_, ok := set[id]
		return ok
	}
}

// logEntry is one pending write: a triple plus whether it is a tombstone.
// The log preserves arrival order so that add/remove sequences on the
// same triple resolve to last-writer-wins.
type logEntry struct {
	t   rdf.Triple
	del bool
}

// foldLog collapses a log into final per-triple states: a triple added
// then removed (or vice versa) keeps its last state; duplicates collapse
// to one entry.
func foldLog(log []logEntry) map[rdf.Triple]bool {
	final := make(map[rdf.Triple]bool, len(log))
	for _, e := range log {
		final[e.t] = !e.del
	}
	return final
}
