package core

// Execution-layer observability. MiningStats is part of the
// deterministic result contract — bit-identical at every Workers value — so
// counters that describe *how* a run executed rather than *what* it computed
// (steal interleavings, forks run inline) must live elsewhere. ExecStats is
// that elsewhere: a side channel surfaced through Progress (PhaseExec) and
// the EXPLAIN plan, never through the ResultSet.

// ExecStats counts execution-layer activity during one run: work-stealing
// scheduler traffic. The counts are observational — Stolen depends on
// timing and worker count, ForksInline on whether the run was serial — and
// must never feed result data or MiningStats.
type ExecStats struct {
	// TasksSpawned counts tasks submitted to the work-stealing scheduler
	// (roots plus forks). A pure function of the input and the fork cutoff.
	TasksSpawned int64 `json:"tasks_spawned,omitempty"`
	// TasksStolen counts tasks executed by a worker other than the one
	// that forked them. Timing-dependent; always 0 in a serial run.
	TasksStolen int64 `json:"tasks_stolen,omitempty"`
	// ForksInline counts forks executed as direct recursion because the
	// run was serial.
	ForksInline int64 `json:"forks_inline,omitempty"`
}

// Add accumulates other into s. All fields are sums.
func (s *ExecStats) Add(other ExecStats) {
	s.TasksSpawned += other.TasksSpawned
	s.TasksStolen += other.TasksStolen
	s.ForksInline += other.ForksInline
}

// Zero reports whether no execution-layer activity was recorded.
func (s ExecStats) Zero() bool {
	return s == ExecStats{}
}

// EmitExec invokes the hook with a PhaseExec event when non-nil and the
// stats are non-zero — the one-liner miners call after a run to report
// execution-layer counters.
func (f ProgressFunc) EmitExec(algorithm string, ex ExecStats) {
	if f != nil && !ex.Zero() {
		f(ProgressEvent{Algorithm: algorithm, Phase: PhaseExec, Exec: ex})
	}
}
