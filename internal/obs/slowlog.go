package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog is a fixed-capacity ring buffer of the records whose work ran
// longer than a configurable threshold. Emit feeds DefaultSlowLog; the API
// exposes it at GET /queries/slow. Safe for concurrent use.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; <= 0 disables capture

	mu   sync.Mutex
	buf  []QueryRecord
	next int // ring write cursor
	n    int // live entries, <= len(buf)
}

// DefaultSlowLog captures slow statements from every DB in the process.
var DefaultSlowLog = NewSlowLog(128, 250*time.Millisecond)

// NewSlowLog returns a ring of the given capacity and threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 1
	}
	l := &SlowLog{buf: make([]QueryRecord, capacity)}
	l.threshold.Store(threshold.Nanoseconds())
	return l
}

// Threshold returns the current capture threshold.
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// SetThreshold replaces the capture threshold; zero or negative disables
// capture entirely.
func (l *SlowLog) SetThreshold(d time.Duration) {
	l.threshold.Store(d.Nanoseconds())
}

// Keeps reports whether work that took the given wall time crosses the
// threshold. The engine asks before Emit, so it renders the plan only for
// statements the log will keep.
func (l *SlowLog) Keeps(seconds float64) bool {
	th := l.threshold.Load()
	return th > 0 && seconds*float64(time.Second) >= float64(th)
}

// observe retains one finished record if it crossed the threshold.
func (l *SlowLog) observe(r *QueryRecord) bool {
	if !l.Keeps(r.Seconds) {
		return false
	}
	l.mu.Lock()
	l.buf[l.next] = *r
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
	return true
}

// Entries returns the retained records, newest first.
func (l *SlowLog) Entries() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}
