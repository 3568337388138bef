package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/incmine"
)

// The dataset registry: databases are loaded or generated once and shared
// read-only across every request. core.Database is immutable by contract, so
// a query holds a consistent snapshot for its whole run while ingest swaps
// in a new snapshot under the dataset's lock and bumps the version — readers
// never block on miners and miners never observe a half-ingested database.

// RegisterOptions controls how a dataset is registered.
type RegisterOptions struct {
	// Window, when non-nil, bounds the dataset's retention: registration
	// and every ingest keep only the trailing Window.Size transactions, so
	// queries mine a sliding window (the streaming deployments of the
	// paper's §1).
	Window *WindowOptions
	// Source labels the dataset's origin in DatasetInfo (e.g.
	// "profile:gazelle@0.02"); Register* methods fill it when empty.
	Source string
	// Shards > 1 registers the dataset for scatter-gather mining: /mine
	// fans phase 1 of a SON two-phase mine out across this many
	// fixed-boundary sub-shards of the current snapshot and verifies the
	// gathered candidates against the full database — bit-identical to an
	// unsharded mine (so cached results remain interchangeable), with the
	// partition fan-out as the parallelism. Algorithms without partition
	// support (MCSampling) fall back to the unsharded path. 0 or 1 mines
	// unsharded. Shard boundaries are recomputed from (N, Shards) at every
	// snapshot, so ingest keeps the decomposition balanced, and the
	// effective shard count is clamped so every shard holds a minimum
	// number of transactions (tiny partitions would degenerate the
	// partition-relative phase-1 thresholds; see minShardTransactions).
	Shards int
}

// WindowOptions configures sliding-window retention for a dataset.
type WindowOptions struct {
	// Size is the window capacity in transactions. Required.
	Size int
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	NumTrans int    `json:"num_trans"`
	NumItems int    `json:"num_items"`
	// Ingested counts transactions appended after registration.
	Ingested int64  `json:"ingested"`
	Source   string `json:"source,omitempty"`
	// Windowed datasets retain at most WindowSize transactions.
	Windowed   bool `json:"windowed,omitempty"`
	WindowSize int  `json:"window_size,omitempty"`
	// Shards > 1 marks the dataset for scatter-gather mining across that
	// many sub-shards (see RegisterOptions.Shards).
	Shards int `json:"shards,omitempty"`
	// BytesResident is the snapshot's footprint (columns + offset table +
	// any built per-item indexes). A sharded mine's slices share the one
	// arena and are dropped with the mine, so a sharded dataset reports its
	// snapshot's storage, counted once, not a per-shard multiple.
	BytesResident int64  `json:"bytes_resident"`
	Registered    string `json:"registered"`
}

// dsEntry is one registered dataset: an immutable snapshot swapped under mu.
type dsEntry struct {
	mu         sync.RWMutex
	name       string
	version    uint64
	db         *core.Database
	windowSize int   // > 0: retain only the trailing windowSize transactions
	evicted    int64 // transactions the window has dropped since registration
	shards     int   // > 1: scatter-gather mining (immutable after Register)
	ingested   int64
	source     string
	registered time.Time
	held       heldPhase1 // shards' phase-1 answers, reused across appends
}

// ledgerSnapshot returns the current immutable database with its version
// and the window's eviction count, in one consistent read: a mine's
// stream positions and an incremental refresh's append-only test both need
// all three from the same snapshot.
func (d *dsEntry) ledgerSnapshot() incmine.Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return incmine.Snapshot{DB: d.db, Version: d.version, Evictions: d.evicted}
}

// info snapshots the dataset's metadata.
func (d *dsEntry) info() DatasetInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	info := DatasetInfo{
		Name:          d.name,
		Version:       d.version,
		NumTrans:      d.db.N(),
		NumItems:      d.db.NumItems,
		Ingested:      d.ingested,
		Source:        d.source,
		BytesResident: d.db.BytesResident(),
		Registered:    d.registered.UTC().Format(time.RFC3339),
	}
	if d.windowSize > 0 {
		info.Windowed = true
		info.WindowSize = d.windowSize
	}
	if d.shards > 1 {
		info.Shards = d.shards
	}
	return info
}

// IngestResult reports one Ingest call.
type IngestResult struct {
	Dataset string `json:"dataset"`
	Version uint64 `json:"version"`
	// N is the dataset's transaction count after the ingest (for windowed
	// datasets, at most the window size).
	N int `json:"n"`
	// Added is how many transactions the call appended.
	Added int `json:"added"`
	// Evicted reports whether the ingest pushed transactions out of a
	// sliding window — the signal that incremental result maintenance for
	// this dataset cannot treat the new snapshot as an append-only
	// extension.
	Evicted bool `json:"evicted,omitempty"`
}

// ingest appends the raw transactions and swaps in a new snapshot under the
// write lock, so concurrent queries see either the old snapshot or the new
// one, never an intermediate state. Validation happens up front: an invalid
// transaction fails the whole call with nothing applied.
func (d *dsEntry) ingest(raw [][]core.Unit) (IngestResult, error) {
	txs := make([]core.Transaction, len(raw))
	for i, units := range raw {
		t, err := core.NormalizeTransaction(units)
		if err != nil {
			return IngestResult{}, fmt.Errorf("server: ingest transaction %d: %w", i, err)
		}
		txs[i] = t
	}
	if len(txs) == 0 {
		// A no-op write must not bump the version (and so must not wipe
		// the dataset's cached results).
		d.mu.RLock()
		defer d.mu.RUnlock()
		return IngestResult{Dataset: d.name, Version: d.version, N: d.db.N()}, nil
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// A window keeps only the trailing windowSize transactions of old +
	// txs: drop the oldest, from old first and then from the batch.
	old := d.db
	drop := 0
	if d.windowSize > 0 {
		drop = max(0, old.N()+len(txs)-d.windowSize)
	}
	dropOld := min(drop, old.N())
	d.db = rebuild(d.name, old, dropOld, txs[drop-dropOld:])
	d.evicted += int64(drop)
	d.version++
	d.ingested += int64(len(txs))
	return IngestResult{
		Dataset: d.name,
		Version: d.version,
		N:       d.db.N(),
		Added:   len(txs),
		Evicted: drop > 0,
	}, nil
}

// rebuild copies old without its first skip transactions, then txs, into
// one fresh arena named name, so every snapshot is again one contiguous
// backing store shared by every reader. The item universe never shrinks
// below old's, even when the window has dropped every transaction that used
// the highest items. The copy is O(N) per ingest batch — fine for
// batch-append workloads; ROADMAP's "An append costs what it appends: one
// grow-only arena" item covers amortizing append-heavy streams.
func rebuild(name string, old *core.Database, skip int, txs []core.Transaction) *core.Database {
	base := old
	if skip > 0 {
		base = old.Slice(skip, old.N())
	}
	b := core.NewBuilder(name)
	units := base.NumUnits()
	for _, t := range txs {
		units += t.Len()
	}
	b.Grow(base.N()+len(txs), units)
	b.AddDatabase(base)
	for _, t := range txs {
		b.AddCanonical(t)
	}
	return b.Build()
}

// registry holds the datasets by name.
type registry struct {
	mu sync.RWMutex
	m  map[string]*dsEntry
}

func (r *registry) init() { r.m = map[string]*dsEntry{} }

func (r *registry) get(name string) (*dsEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.m[name]
	return d, ok
}

func (r *registry) add(d *dsEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[d.name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateDataset, d.name)
	}
	r.m[d.name] = d
	return nil
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

func (r *registry) list() []*dsEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*dsEntry, 0, len(r.m))
	for _, d := range r.m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// maxDatasetShards bounds RegisterOptions.Shards: far beyond any sensible
// scatter width, low enough that the O(Shards) per-mine bookkeeping stays
// negligible even when requested over HTTP.
const maxDatasetShards = 1024

// RegisterDatabase registers an already-built database under name. The
// database must not be mutated afterwards (core.Database's usual contract).
func (s *Server) RegisterDatabase(name string, db *core.Database, opts RegisterOptions) (DatasetInfo, error) {
	if name == "" {
		return DatasetInfo{}, fmt.Errorf("server: dataset name must be non-empty")
	}
	if opts.Shards < 0 {
		return DatasetInfo{}, fmt.Errorf("server: shard count %d must be non-negative", opts.Shards)
	}
	if opts.Shards > maxDatasetShards {
		// Shards is client-reachable (the HTTP register surface): an
		// unbounded value would make every /mine allocate O(Shards) slices
		// before any mining happens.
		return DatasetInfo{}, fmt.Errorf("server: shard count %d exceeds the maximum %d", opts.Shards, maxDatasetShards)
	}
	if opts.Source == "" {
		opts.Source = "database"
	}
	d := &dsEntry{name: name, db: db, shards: opts.Shards, source: opts.Source, registered: time.Now()}
	if opts.Window != nil {
		size := opts.Window.Size
		if size <= 0 {
			return DatasetInfo{}, fmt.Errorf("server: window size %d must be positive", size)
		}
		// Retention applies from the start: only the seed's trailing Size
		// transactions survive, copied so the dropped prefix is not pinned.
		drop := max(0, db.N()-size)
		d.windowSize = size
		d.evicted = int64(drop)
		d.db = rebuild(name, db, drop, nil)
	}
	if err := s.reg.add(d); err != nil {
		return DatasetInfo{}, err
	}
	return d.info(), nil
}

// RegisterProfile generates one of the paper's Table 6 benchmark profiles at
// the given scale and registers it. Scale is a fraction of the published
// size, in (0, 1]: the generator allocates scale × the profile's
// transaction count up front, and scale is client input on POST /datasets.
func (s *Server) RegisterProfile(name, profile string, scale float64, seed int64, opts RegisterOptions) (DatasetInfo, error) {
	p, ok := dataset.Profiles[profile]
	if !ok {
		return DatasetInfo{}, fmt.Errorf("server: unknown benchmark profile %q", profile)
	}
	if !(scale > 0 && scale <= 1) {
		return DatasetInfo{}, fmt.Errorf("server: profile scale %v outside (0, 1]", scale)
	}
	if opts.Source == "" {
		opts.Source = fmt.Sprintf("profile:%s@%g", profile, scale)
	}
	db := p.GenerateUncertain(scale, seed)
	return s.RegisterDatabase(name, db, opts)
}

// RegisterUncertain reads a database in the item:prob text format and
// registers it.
func (s *Server) RegisterUncertain(name string, r io.Reader, opts RegisterOptions) (DatasetInfo, error) {
	db, err := dataset.ReadUncertain(r, name)
	if err != nil {
		return DatasetInfo{}, err
	}
	if opts.Source == "" {
		opts.Source = "upload"
	}
	return s.RegisterDatabase(name, db, opts)
}

// Datasets lists the registered datasets sorted by name.
func (s *Server) Datasets() []DatasetInfo {
	entries := s.reg.list()
	out := make([]DatasetInfo, len(entries))
	for i, d := range entries {
		out[i] = d.info()
	}
	return out
}

// Dataset returns one dataset's info by name.
func (s *Server) Dataset(name string) (DatasetInfo, bool) {
	d, ok := s.reg.get(name)
	if !ok {
		return DatasetInfo{}, false
	}
	return d.info(), true
}
