package obsq

import (
	"sync"
	"time"
)

// SLO burn-rate tracking. Each route gets a latency objective ("99% of mine
// requests finish within 500ms"); every served request is marked good or bad
// against the target, bucketed into a ring of 10-second epochs covering the
// last hour. The burn rate over a window is the observed bad fraction
// divided by the budgeted bad fraction (1 − objective): burn 1.0 spends the
// error budget exactly on schedule, 14.4 exhausts a 30-day budget in 50
// hours — the classic fast-burn page threshold. Exposing two windows (5m and
// 1h) on /metrics lets alerting distinguish a spike from a sustained burn.

const (
	// sloBucketSeconds is the ring granularity.
	sloBucketSeconds = 10
	// sloRingBuckets covers one hour plus the in-progress bucket.
	sloRingBuckets = 361
	// DefaultSLOObjective is the fraction of requests that must meet the
	// latency target.
	DefaultSLOObjective = 0.99
)

// Standard burn-rate windows exposed on /metrics.
var (
	SLOWindowShort = 5 * time.Minute
	SLOWindowLong  = time.Hour
)

type sloBucket struct {
	epoch int64
	good  uint64
	total uint64
}

// SLO tracks one route's latency objective. Construct with NewSLO; the zero
// value is not usable.
type SLO struct {
	target    time.Duration
	objective float64
	now       func() time.Time

	mu   sync.Mutex
	ring [sloRingBuckets]sloBucket
}

// NewSLO builds a tracker for a latency target at DefaultSLOObjective.
func NewSLO(target time.Duration) *SLO {
	return &SLO{target: target, objective: DefaultSLOObjective, now: time.Now}
}

// Target returns the latency target.
func (s *SLO) Target() time.Duration { return s.target }

// Objective returns the good-fraction objective.
func (s *SLO) Objective() float64 { return s.objective }

// Observe classifies one request latency against the target. Requests that
// failed outright should be recorded via ObserveBad regardless of latency.
func (s *SLO) Observe(d time.Duration) { s.record(d <= s.target) }

// ObserveBad records a request that missed the objective unconditionally
// (an error response burns budget even when it fails fast).
func (s *SLO) ObserveBad() { s.record(false) }

func (s *SLO) record(good bool) {
	if s == nil {
		return
	}
	epoch := s.now().Unix() / sloBucketSeconds
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &s.ring[epoch%sloRingBuckets]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.total++
	if good {
		b.good++
	}
}

// Window sums the ring over the trailing window.
func (s *SLO) Window(window time.Duration) (good, total uint64) {
	if s == nil {
		return 0, 0
	}
	epochs := int64(window / (sloBucketSeconds * time.Second))
	if epochs < 1 {
		epochs = 1
	}
	if epochs > sloRingBuckets {
		epochs = sloRingBuckets
	}
	nowEpoch := s.now().Unix() / sloBucketSeconds
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := nowEpoch - epochs + 1; e <= nowEpoch; e++ {
		b := s.ring[e%sloRingBuckets]
		if b.epoch == e {
			good += b.good
			total += b.total
		}
	}
	return good, total
}

// BurnRate is the error-budget burn over the trailing window: observed bad
// fraction ÷ (1 − objective). 0 when the window saw no traffic.
func (s *SLO) BurnRate(window time.Duration) float64 {
	good, total := s.Window(window)
	if total == 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / (1 - s.objective)
}
