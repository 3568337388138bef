// The registry assembles the paper's eight algorithm implementations (plus
// the sampling extension) behind a single surface keyed by the paper's
// experiment labels, so the harness, the CLI tools and the public API
// construct miners uniformly.

package algo

import (
	"fmt"
	"sort"

	"umine/internal/algo/exact"
	"umine/internal/algo/sampling"
	"umine/internal/algo/ufpgrowth"
	"umine/internal/core"
	"umine/internal/partition"
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
// metadata callers consult without constructing a miner, and what its
// miner runs — a rule on a search framework, or a miner of its own.
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
	// PFTMonotonic reports whether each result's FreqProb depends on the
	// itemset and min_sup alone, not on pft, so that a result set mined at
	// one pft filters exactly to any higher pft: true for the exact rules
	// (exact probabilities) and the Normal rule (a function of esup, var
	// and msc); false for the Poisson rule, whose results carry no
	// probability, for MCSampling's run-dependent estimates and for the
	// expected-support algorithms, which have no pft.
	PFTMonotonic bool
	// phase1 names the expected-support miner that generates a partitioned
	// mine's phase-1 candidates, and bound the provable esup floor of the
	// entry's acceptance region they are mined at (see the partition
	// package doc). Expected-support algorithms mine partitions with
	// themselves at their own threshold; the probabilistic ones, whose
	// test does not decompose over partitions, with their framework's
	// expected-support miner.
	phase1 string
	bound  partition.Bound
	// rule is the entry's frequentness test, run on UH-Mine when uh is set
	// and on Apriori otherwise; nil for the two entries with their own
	// miner type, which build constructs.
	rule rule
	uh   bool
	// resume, set on the DP entries only, is rule with the DP verification
	// resuming from a row store (NewResumable).
	resume func(*exact.Rows) rule
	// build constructs UFP-growth, which has its own search, and
	// MCSampling, which has its own options (NewSamplingMiner), with
	// opts.Workers and opts.Progress and the phase-2 restriction allow
	// (nil = unrestricted); it does not read opts.Partitions.
	build func(opts core.Options, allow func(core.Itemset) bool) core.Miner
}

// miner returns the entry's miner running rule r (e.rule, or a resumed DP
// rule), built with opts.Workers, opts.Progress and the restriction allow.
func (e Entry) miner(opts core.Options, allow func(core.Itemset) bool, r rule) core.Miner {
	if e.build != nil {
		return e.build(opts, allow)
	}
	f := frame{name: e.Name, sem: familySemantics(e.Family), rule: r, workers: opts.Workers, progress: opts.Progress, allow: allow}
	if e.uh {
		return &uhMiner{f}
	}
	return &aprioriMiner{f}
}

var registry = []Entry{
	{Name: "UApriori", Family: ExpectedSupportFamily, Partition: true, phase1: "UApriori", bound: partition.BoundESup, rule: esupRule},
	{Name: "UFP-growth", Family: ExpectedSupportFamily, Partition: true, phase1: "UFP-growth", bound: partition.BoundESup,
		build: func(o core.Options, allow func(core.Itemset) bool) core.Miner {
			return &ufpgrowth.Miner{Workers: o.Workers, Progress: o.Progress, Restrict: allow}
		}},
	{Name: "UH-Mine", Family: ExpectedSupportFamily, Partition: true, phase1: "UH-Mine", bound: partition.BoundESup, rule: esupRule, uh: true},
	{Name: "DPNB", Family: ExactFamily, Partition: true, PFTMonotonic: true, phase1: "UApriori", bound: partition.BoundMarkov, rule: exactRule(false, false, nil), resume: dpRule(false)},
	{Name: "DPB", Family: ExactFamily, Partition: true, PFTMonotonic: true, phase1: "UApriori", bound: partition.BoundMarkov, rule: exactRule(false, true, nil), resume: dpRule(true)},
	{Name: "DCNB", Family: ExactFamily, Partition: true, PFTMonotonic: true, phase1: "UApriori", bound: partition.BoundMarkov, rule: exactRule(true, false, nil)},
	{Name: "DCB", Family: ExactFamily, Partition: true, PFTMonotonic: true, phase1: "UApriori", bound: partition.BoundMarkov, rule: exactRule(true, true, nil)},
	{Name: "PDUApriori", Family: ApproxFamily, Partition: true, phase1: "UApriori", bound: partition.BoundPoisson, rule: poissonRule},
	{Name: "NDUApriori", Family: ApproxFamily, Partition: true, PFTMonotonic: true, phase1: "UApriori", bound: partition.BoundNormal, rule: normalRule},
	{Name: "NDUH-Mine", Family: ApproxFamily, Partition: true, PFTMonotonic: true, phase1: "UH-Mine", bound: partition.BoundNormal, rule: normalRule, uh: true},
	// MCSampling is an extension beyond the paper's eight algorithms: the
	// possible-world sampling estimator of the paper's reference [11]
	// (Calders et al., PAKDD 2010). See internal/algo/sampling. It is the
	// one non-partitionable configuration (see Entry.Partition), so
	// NewRestricted never passes it an allow.
	{Name: "MCSampling", Family: ApproxFamily,
		build: func(o core.Options, _ func(core.Itemset) bool) core.Miner {
			return &sampling.Miner{Workers: o.Workers, Progress: o.Progress}
		}},
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
	return e.miner(opts, nil, e.rule), nil
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
	return e.miner(opts, allow, e.rule), nil
}

// PFTMonotonic reports whether the named algorithm's results filter
// exactly to a higher pft (see Entry.PFTMonotonic). Unknown names report
// false.
func PFTMonotonic(name string) bool {
	e, ok := lookup(name)
	return ok && e.PFTMonotonic
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
	return e.miner(opts, allow, e.resume(rows)), nil
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
