package server

import (
	"sync/atomic"
	"time"
)

// admission is the bounded worker pool in front of the backend. At most
// maxConcurrent computations run at once, each at the eta it asked for; a
// request that cannot get a slot within queueWait is shed (503 overloaded)
// instead of queueing, so the server's work stays bounded.
type admission struct {
	slots     chan struct{}
	queueWait time.Duration

	admitted atomic.Int64
	shed     atomic.Int64
}

func newAdmission(maxConcurrent int, queueWait time.Duration) *admission {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	return &admission{
		slots:     make(chan struct{}, maxConcurrent),
		queueWait: queueWait,
	}
}

// acquire reports whether a computation slot was granted; the caller must
// release a granted slot.
func (a *admission) acquire() bool {
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return true
	default:
	}
	if a.queueWait > 0 {
		t := time.NewTimer(a.queueWait)
		defer t.Stop()
		select {
		case a.slots <- struct{}{}:
			a.admitted.Add(1)
			return true
		case <-t.C:
		}
	}
	a.shed.Add(1)
	return false
}

func (a *admission) release() { <-a.slots }

// AdmissionStats is a point-in-time summary of the admission gate.
type AdmissionStats struct {
	MaxConcurrent int   `json:"max_concurrent"`
	InFlight      int   `json:"in_flight"`
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
}

func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		MaxConcurrent: cap(a.slots),
		InFlight:      len(a.slots),
		Admitted:      a.admitted.Load(),
		Shed:          a.shed.Load(),
	}
}
