package shardrpc

// The HTTP/JSON wire protocol between the coordinator and shard servers.
// Thresholds and work counters travel as core.Thresholds and
// core.MiningStats through their JSON tags, candidate itemsets in the
// validated wire form of umine/internal/partition; transactions travel as
// item:prob lines (the exact format of /ingest and dataset.ReadUncertain,
// with full-precision float64 round-tripping so pushed slices are
// bit-identical to the coordinator's arena).

import (
	"fmt"
	"math"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/telemetry"
)

// headerTraceID carries the coordinator's trace ID on every shard RPC, so
// shard-side spans stitch into the coordinator's trace. The proto field on
// the request bodies is authoritative; the header exists for middleboxes
// and access logs that only see headers.
const headerTraceID = "X-Umine-Trace-Id"

// Shard-server endpoint paths.
const (
	pathHealthz = "/healthz"
	pathReadyz  = "/readyz"
	pathStats   = "/stats"
	pathPush    = "/push"
	pathMine1   = "/mine1"
)

// PushRequest installs (or extends) one dataset slice on a shard server.
type PushRequest struct {
	Dataset string `json:"dataset"`
	// Version is the coordinator snapshot version the slice belongs to.
	Version uint64 `json:"version"`
	// Lo/Hi are the slice's global transaction boundaries — the shard's
	// range under partition.Boundaries(N, K) at this version. Boundaries
	// holds every Lo still across small appends, so a re-push after an
	// ingest usually keeps Lo and only Hi grows (the Append path).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// NumItems is the snapshot's item-universe size; the shard widens its
	// rebuilt slice to it so per-item index shapes match the coordinator's.
	NumItems int `json:"num_items"`
	// Append, when true, extends the currently held slice instead of
	// replacing it: the held slice must start at Lo, span BaseN
	// transactions whose content hash equals BaseHash, and Transactions
	// carries only the tail [Lo+BaseN, Hi).
	Append   bool   `json:"append,omitempty"`
	BaseN    int    `json:"base_n,omitempty"`
	BaseHash uint64 `json:"base_hash,omitempty"`
	// Transactions are item:prob lines, one per transaction (empty lines
	// are empty transactions).
	Transactions []string `json:"transactions"`
	// TraceID, when set, names the coordinator trace this push belongs to
	// (a re-push inside a /mine); the shard adopts it for its own spans.
	TraceID string `json:"trace_id,omitempty"`
}

// PushResponse acknowledges an installed slice.
type PushResponse struct {
	Dataset string `json:"dataset"`
	Version uint64 `json:"version"`
	// N is the held slice's transaction count after the push.
	N int `json:"n"`
	// Appended reports whether the delta path applied.
	Appended bool `json:"appended,omitempty"`
}

// MineShardRequest asks a shard to run one phase-1 candidate mine over its
// held slice. The request pins (Version, Lo, Hi); a shard holding anything
// else answers 409 with a StaleResponse instead of mining.
type MineShardRequest struct {
	Dataset   string          `json:"dataset"`
	Version   uint64          `json:"version"`
	Lo        int             `json:"lo"`
	Hi        int             `json:"hi"`
	Algorithm string          `json:"algorithm"`
	Th        core.Thresholds `json:"thresholds"`
	Workers   int             `json:"workers,omitempty"`
	// TraceID, when set, is the coordinator trace this mine belongs to: the
	// shard runs its mine under a trace with the same ID and returns its
	// span tree in MineShardResponse.Spans.
	TraceID string `json:"trace_id,omitempty"`
}

// MineShardResponse carries a shard's locally frequent itemsets and work
// counters back to the coordinator.
type MineShardResponse struct {
	Itemsets [][]uint32       `json:"itemsets"`
	Stats    core.MiningStats `json:"stats"`
	// Spans is the shard's span tree for this /mine1: its root, with the
	// mine and the miner's checkpoints under it. Absent when the request
	// carried no trace ID (neither TraceID nor the X-Umine-Trace-Id header).
	Spans []telemetry.SpanData `json:"spans,omitempty"`
}

// StaleResponse is the 409 body a shard answers a pinned version it does
// not hold with; it describes the held state so the coordinator can decide
// between a delta and a full re-push.
type StaleResponse struct {
	Error   string `json:"error"`
	Dataset string `json:"dataset"`
	// Held reports whether the shard holds any version of the dataset.
	Held        bool   `json:"held"`
	HeldVersion uint64 `json:"held_version,omitempty"`
	HeldLo      int    `json:"held_lo,omitempty"`
	HeldHi      int    `json:"held_hi,omitempty"`
	// HeldHash is the content hash (TxHash) of the held slice.
	HeldHash uint64 `json:"held_hash,omitempty"`
}

// errorResponse is the generic non-409 error body.
type errorResponse struct {
	Error string `json:"error"`
}

// FNV-1a (64-bit) parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// TxHash returns the FNV-1a content hash of db's first n transactions
// (items and probability bits, with a per-transaction separator). The
// coordinator and shard compute it over their own arenas; equality proves
// a held slice is a bit-exact prefix of the slice being pushed, which is
// what licenses the append-only delta path. It equals hash/fnv's New64a
// Sum64 over the byte stream: per unit the item's 4 and the probability
// bits' 8 little-endian bytes, then 0xFF after each transaction.
func TxHash(db *core.Database, n int) uint64 {
	return extendTxHash(fnvOffset64, db, 0, n)
}

// extendTxHash continues the running FNV-1a state h over db's transactions
// [lo, hi): extendTxHash(TxHash(db, lo), db, lo, hi) == TxHash(db, hi), so
// a delta-extended slice rehashes only its new tail.
func extendTxHash(h uint64, db *core.Database, lo, hi int) uint64 {
	items, probs, offsets := db.Columns()
	for j := lo; j < hi; j++ {
		for u := offsets[j]; u < offsets[j+1]; u++ {
			it := uint32(items[u])
			for b := 0; b < 32; b += 8 {
				h ^= uint64(byte(it >> b))
				h *= fnvPrime64
			}
			bits := math.Float64bits(probs[u])
			for b := 0; b < 64; b += 8 {
				h ^= uint64(byte(bits >> b))
				h *= fnvPrime64
			}
		}
		h ^= 0xFF
		h *= fnvPrime64
	}
	return h
}

// encodeTransactions renders db's transactions [lo, hi) as item:prob lines
// (dataset.AppendUncertain, the line format of dataset.WriteUncertain), so
// the shard's rebuilt arena is bit-identical to the coordinator's slice.
func encodeTransactions(db *core.Database, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	var line []byte
	for j := lo; j < hi; j++ {
		line = dataset.AppendUncertain(line[:0], db.Tx(j))
		out = append(out, string(line))
	}
	return out
}

// decodeTransactions parses item:prob lines into a fresh arena named name,
// optionally seeded with the transactions of base (the delta-append path).
func decodeTransactions(name string, base *core.Database, lines []string) (*core.Database, error) {
	b := core.NewBuilder(name)
	if base != nil {
		b.Grow(base.N()+len(lines), base.NumUnits())
		b.AddDatabase(base)
	}
	for i, line := range lines {
		units, err := dataset.ParseUnits(line)
		if err != nil {
			return nil, fmt.Errorf("shardrpc: transaction %d: %w", i, err)
		}
		if err := b.Add(units); err != nil {
			return nil, fmt.Errorf("shardrpc: transaction %d: %w", i, err)
		}
	}
	return b.Build(), nil
}
