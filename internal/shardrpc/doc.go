// Package shardrpc is the process-per-shard backend of the scatter-gather
// mining service: shard servers (cmd/ushard) each hold one fixed-boundary
// slice of a dataset's transaction arena and answer phase-1 candidate mines
// over HTTP/JSON, while the coordinator side (Pool/Backend, wired into
// umine/internal/server) scatters phase 1 across them and keeps the
// robustness machinery — retries, hedged requests, failover — out of the
// mining code entirely. A completed RPC-sharded mine is bit-identical to a
// single-shot mine: shards transport candidates in the canonical wire form
// of umine/internal/partition, and phase 2 always re-verifies the union on
// the coordinator's full database with the target miner's own arithmetic.
//
// # Version pinning and coherent invalidation
//
// Every dataset snapshot on the coordinator carries a monotonically
// increasing version (bumped by /ingest). A scatter pins the version its
// snapshot was taken at, and every shard request names that pinned version
// plus the exact boundary range [lo, hi) the (N, K) decomposition assigns
// the shard. A shard answers only when it holds exactly that (version, lo,
// hi) slice; anything else — a version it never saw, a stale version after
// an ingest, boundaries shifted because N changed — is rejected with 409
// and a description of what the shard does hold. The coordinator reacts by
// re-pushing the pinned slice and retrying; when the shard's held slice is
// a content-verified prefix of the new one (same lo, held hash matches the
// coordinator's prefix hash — the common case for shard 0 of an append-only
// ingest), only the delta transactions travel.
//
// Pushes are therefore purely demand-driven: no invalidation fan-out runs
// on ingest, shards learn of a new version the first time a mine pins it,
// and a shard can crash, restart empty and be transparently repopulated by
// the next scatter. This is the strong end of the tunable-consistency
// spectrum (Jiang et al., "Tunable Causal Consistency"): /mine reads are
// pinned to one snapshot version across all K shards, so a scatter never
// mixes pre- and post-ingest slices no matter how the pushes interleave.
// The eventual end is /stats: shard stats (mines served, bytes resident)
// are unsynchronized gauges that may lag the ingest path — they are
// observability, not answers.
//
// # Robustness
//
// Each shard request runs under a per-attempt timeout, with bounded
// exponential-backoff retries on transport failures and 5xx responses; a
// straggling attempt is hedged after a configurable delay (one duplicate
// request to the same shard — first success wins, the loser's context is
// canceled so the shard aborts its mine at the next cooperative
// checkpoint); and a shard that exhausts its retries fails over to the
// coordinator mining that slice locally, so a dead shard degrades
// throughput but never availability or results. Every event is surfaced
// three times: through the Backend's Hooks, which feed the server's /stats
// counters (shard_retries, shard_hedges, shard_failovers, shard_repushes);
// as core.Progress events (PhaseShardRetry/Hedge/Failover/Repush); and as
// "attempt", "hedge", "repush" and "failover" spans in the request's trace.
package shardrpc
