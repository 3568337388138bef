package obsq

import (
	"sort"
	"strconv"
	"strings"

	"umine/internal/core"
	"umine/internal/telemetry"
)

// Explanation is the /explain (and umine -explain) document: how one query
// actually executed. It is observational — built from the same progress
// events and spans a normal run emits — so requesting an explanation cannot
// change the mined bits.
type Explanation struct {
	// Query identity.
	Dataset   string `json:"dataset,omitempty"`
	Version   uint64 `json:"version,omitempty"`
	Algorithm string `json:"algorithm"`
	Semantics string `json:"semantics,omitempty"`
	core.Thresholds
	Workers int `json:"workers,omitempty"`

	// Backend names the execution engine: "local" (single-shot miner),
	// "sharded" (in-process partition engine), "shardrpc" (process-per-shard
	// scatter-gather), or "cache" when no engine ran at all.
	Backend string `json:"backend"`
	// Path is the serving decision: "mined", "cache-hit", "cache-filtered"
	// (a superset entry filtered monotonically), "ledger" (served from the
	// incremental maintenance ledger), or "coalesced" (rode a duplicate
	// in-flight mine).
	Path   string `json:"path"`
	Shards int    `json:"shards,omitempty"`

	// Results and totals.
	Itemsets  int              `json:"itemsets"`
	MaxLevel  int              `json:"max_level,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Totals    core.MiningStats `json:"totals"`
	// Sched is the execution-layer breakdown — work-stealing scheduler
	// traffic — when the run's miners reported
	// one (core.PhaseExec). Unlike Totals it describes how the run executed,
	// not what it computed: the counters vary with worker count and steal
	// timing while the mined bits do not.
	Sched *core.ExecStats `json:"sched,omitempty"`

	// The executed plan, step by step, plus the shard timeline.
	Steps         []Step         `json:"steps,omitempty"`
	ShardAttempts []ShardAttempt `json:"shard_attempts,omitempty"`

	// BytesPushed / BytesMineRequests are the shardrpc transport's payload
	// totals at the end of the run (pool-lifetime counters sampled before
	// and after, so the difference is this query's traffic plus any
	// concurrent neighbours').
	BytesPushed       int64 `json:"bytes_pushed,omitempty"`
	BytesMineRequests int64 `json:"bytes_mine_requests,omitempty"`

	TraceID string `json:"trace_id,omitempty"`
}

// ShardAttempt is one event of a shard's execution timeline, extracted from
// the request's span tree: the shard's own phase-1 span ("shard", present for
// both the in-process and RPC backends), every "attempt"/"hedge" round-trip
// (with its outcome and payload size), plus "repush" coherence pushes and
// "failover" degradations.
type ShardAttempt struct {
	Shard int `json:"shard"`
	// Kind is the span name: shard | attempt | hedge | repush | failover.
	Kind          string  `json:"kind"`
	StartUnixNano int64   `json:"start_unix_nano"`
	DurationMS    float64 `json:"duration_ms"`
	Outcome       string  `json:"outcome,omitempty"`
	Bytes         int64   `json:"bytes,omitempty"`
	Error         string  `json:"error,omitempty"`
	Cause         string  `json:"cause,omitempty"`
}

// ShardAttemptsFromSpan walks a trace's span tree for "shard N" spans and
// flattens their transport children into one timeline ordered by start time
// (ties broken by shard then kind, so the order is deterministic for
// concurrent launches in the same nanosecond).
func ShardAttemptsFromSpan(root telemetry.SpanData) []ShardAttempt {
	var out []ShardAttempt
	var walk func(sd telemetry.SpanData)
	walk = func(sd telemetry.SpanData) {
		if shard, ok := shardOrdinal(sd.Name); ok {
			out = append(out, ShardAttempt{
				Shard:         shard,
				Kind:          "shard",
				StartUnixNano: sd.StartUnixNano,
				DurationMS:    sd.DurationMS,
				Error:         sd.Attrs["error"],
			})
			for _, c := range sd.Children {
				switch c.Name {
				case "attempt", "hedge", "repush", "failover":
					out = append(out, ShardAttempt{
						Shard:         shard,
						Kind:          c.Name,
						StartUnixNano: c.StartUnixNano,
						DurationMS:    c.DurationMS,
						Outcome:       c.Attrs["outcome"],
						Bytes:         attrInt64(c.Attrs, "bytes"),
						Error:         c.Attrs["error"],
						Cause:         c.Attrs["cause"],
					})
				}
			}
		}
		for _, c := range sd.Children {
			walk(c)
		}
	}
	walk(root)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartUnixNano != out[j].StartUnixNano {
			return out[i].StartUnixNano < out[j].StartUnixNano
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// shardOrdinal parses the partition engine's "shard N" span name.
func shardOrdinal(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "shard ")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func attrInt64(attrs map[string]string, key string) int64 {
	v, err := strconv.ParseInt(attrs[key], 10, 64)
	if err != nil {
		return 0
	}
	return v
}
