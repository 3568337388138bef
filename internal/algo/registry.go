// The registry assembles the paper's eight algorithm implementations (plus
// the sampling extension) behind a single surface keyed by the paper's
// experiment labels, so the harness, the CLI tools and the public API
// construct miners uniformly.

package algo

import (
	"fmt"
	"sort"

	"umine/internal/algo/approx"
	"umine/internal/algo/exact"
	"umine/internal/algo/sampling"
	"umine/internal/algo/uapriori"
	"umine/internal/algo/ufpgrowth"
	"umine/internal/algo/uhmine"
	"umine/internal/core"
)

// Family groups the algorithms as in the paper's Section 3.
type Family int

const (
	// ExpectedSupportFamily: UApriori, UFP-growth, UH-Mine (§3.1).
	ExpectedSupportFamily Family = iota
	// ExactFamily: DPNB, DPB, DCNB, DCB (§3.2).
	ExactFamily
	// ApproxFamily: PDUApriori, NDUApriori, NDUH-Mine (§3.3).
	ApproxFamily
)

func (f Family) String() string {
	switch f {
	case ExpectedSupportFamily:
		return "expected-support"
	case ExactFamily:
		return "exact-probabilistic"
	case ApproxFamily:
		return "approximate-probabilistic"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Entry describes one registered algorithm: its identity, the capability
// metadata callers consult without constructing a miner, and the
// constructor behind NewWith and NewRestricted.
type Entry struct {
	Name   string
	Family Family
	// Partition reports whether the miner supports the SON partitioned
	// two-phase mine of Options.Partitions, whose phase 2 confines the
	// miner to the candidate union (NewRestricted). MCSampling is the one
	// exclusion: its sequential possible-world sampling is seeded per run,
	// so a restricted re-run draws different worlds and bit-identity to a
	// single-shot mine cannot hold. TestRegistryCapabilityMetadata checks
	// the restriction contract on every entry that sets it.
	Partition bool
	// build constructs a fresh miner with opts.Workers and opts.Progress
	// and the phase-2 restriction allow (nil = unrestricted) in its struct
	// literal; it does not read opts.Partitions.
	build func(opts core.Options, allow func(core.Itemset) bool) core.Miner
	// resume, set on the DP miners only, is build with the DP verification
	// resuming from a row store (NewResumable).
	resume func(opts core.Options, allow func(core.Itemset) bool, rows *exact.Rows) core.Miner
}

// dpMiner returns the DP miners' resume constructor, with or without the
// Chernoff pruning.
func dpMiner(chernoff bool) func(core.Options, func(core.Itemset) bool, *exact.Rows) core.Miner {
	return func(o core.Options, allow func(core.Itemset) bool, rows *exact.Rows) core.Miner {
		return &exact.Miner{Method: exact.DP, Chernoff: chernoff, Workers: o.Workers, Progress: o.Progress, Restrict: allow, Rows: rows}
	}
}

var registry = []Entry{
	{"UApriori", ExpectedSupportFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &uapriori.Miner{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"UFP-growth", ExpectedSupportFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &ufpgrowth.Miner{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"UH-Mine", ExpectedSupportFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &uhmine.Miner{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"DPNB", ExactFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return dpMiner(false)(o, allow, nil)
	}, dpMiner(false)},
	{"DPB", ExactFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return dpMiner(true)(o, allow, nil)
	}, dpMiner(true)},
	{"DCNB", ExactFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &exact.Miner{Method: exact.DC, Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"DCB", ExactFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &exact.Miner{Method: exact.DC, Chernoff: true, Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"PDUApriori", ApproxFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &approx.PDUApriori{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"NDUApriori", ApproxFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &approx.NDUApriori{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	{"NDUH-Mine", ApproxFamily, true, func(o core.Options, allow func(core.Itemset) bool) core.Miner {
		return &approx.NDUHMine{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
	}, nil},
	// MCSampling is an extension beyond the paper's eight algorithms: the
	// possible-world sampling estimator of the paper's reference [11]
	// (Calders et al., PAKDD 2010). See internal/algo/sampling. It is the
	// one non-partitionable configuration (see Entry.Partition), so
	// NewRestricted never passes it an allow.
	{"MCSampling", ApproxFamily, false, func(o core.Options, _ func(core.Itemset) bool) core.Miner {
		return &sampling.Miner{Workers: o.Workers, Progress: o.Progress}
	}, nil},
}

// lookup resolves a registry name to its entry — the single place name
// resolution happens, shared by every capability query and constructor.
func lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// SupportsPartitions reports whether the named algorithm supports the SON
// partitioned two-phase mine of Options.Partitions, from the registry's
// capability metadata. Unknown names report false.
func SupportsPartitions(name string) bool {
	e, ok := lookup(name)
	return ok && e.Partition
}

// New returns a fresh miner by registry name, configured for serial
// execution (the paper's single-threaded platform).
func New(name string) (core.Miner, error) {
	return NewWith(name, core.Options{})
}

// NewWith returns a fresh miner by registry name built from opts: Workers
// and Progress go into the miner, and Partitions > 1 returns the SON
// two-phase engine wrapping it (see umine/internal/partition). MCSampling
// has no partitioned mode and mines single-shot at every Partitions value.
// Every miner returns an identical ResultSet for every Options value.
func NewWith(name string, opts core.Options) (core.Miner, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, errUnknown(name)
	}
	if opts.Partitions > 1 && e.Partition {
		return NewPartitionEngine(name, opts)
	}
	return e.build(opts, nil), nil
}

// NewRestricted returns the named miner built like NewWith (Partitions is
// not read) with its search confined to a pre-computed candidate superset:
// the miner never reports — and never descends into, counts or verifies —
// an itemset for which allow returns false. Everything allow admits is
// computed exactly as an unrestricted run would compute it, so when the
// admitted set is a superset of the run's true result the restricted run
// is bit-identical to the unrestricted one while paying only for the
// admitted candidates. Phase 2 of the SON partition engine and the
// incremental ledger's refresh (umine/internal/incmine) rely on this.
//
// allow may be called concurrently from worker goroutines when Workers
// permits parallel execution, and may receive transient itemsets it must
// not retain. nil means unrestricted. Unknown names and non-partitionable
// algorithms (MCSampling) are errors.
func NewRestricted(name string, opts core.Options, allow func(core.Itemset) bool) (core.Miner, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, errUnknown(name)
	}
	if !e.Partition {
		return nil, fmt.Errorf("algo: %s does not support a candidate restriction", name)
	}
	return e.build(opts, allow), nil
}

// SupportsResume reports whether NewResumable accepts the named algorithm:
// the DP miners, DPNB and DPB. Unknown names report false.
func SupportsResume(name string) bool {
	e, ok := lookup(name)
	return ok && e.resume != nil
}

// NewResumable returns the named DP miner built like NewRestricted, with
// its verification resuming from rows (see exact.Rows): a candidate whose
// row a previous mine of a shorter prefix kept extends that row by the
// appended transactions instead of re-running its DP. Results are
// bit-identical to NewRestricted's. The incremental ledger's delta refresh
// relies on this. Names other than DPNB and DPB are errors.
func NewResumable(name string, opts core.Options, allow func(core.Itemset) bool, rows *exact.Rows) (core.Miner, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, errUnknown(name)
	}
	if e.resume == nil {
		return nil, fmt.Errorf("algo: %s has no resumable verification", name)
	}
	return e.resume(opts, allow, rows), nil
}

// errUnknown is the uniform unknown-algorithm error.
func errUnknown(name string) error {
	return fmt.Errorf("algo: unknown algorithm %q (known: %v)", name, Names())
}

// MustNewWith is NewWith panicking on unknown names.
func MustNewWith(name string, opts core.Options) core.Miner {
	m, err := NewWith(name, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Names lists all registered algorithm names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Entries returns a copy of the registry sorted by name.
func Entries() []Entry {
	out := append([]Entry(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
