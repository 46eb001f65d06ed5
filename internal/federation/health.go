package federation

import (
	"errors"
	"time"
)

// ErrCircuitOpen is returned (wrapped) when a call is skipped because the
// worker's circuit breaker is open.
var ErrCircuitOpen = errors.New("circuit open")

// BreakerConfig tunes the master's per-worker circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that opens a
	// worker's circuit (default 3).
	FailureThreshold int
	// Cooldown is how long an open circuit stays open before a half-open
	// probe is admitted (default 5s).
	Cooldown time.Duration
	// ProbeInterval paces the master's background re-probe of unhealthy
	// workers (default 15s; negative disables the background loop — probes
	// then only happen through calls and ProbeNow).
	ProbeInterval time.Duration
}

func (b BreakerConfig) threshold() int {
	if b.FailureThreshold <= 0 {
		return 3
	}
	return b.FailureThreshold
}

func (b BreakerConfig) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 5 * time.Second
	}
	return b.Cooldown
}

func (b BreakerConfig) probeInterval() time.Duration {
	if b.ProbeInterval == 0 {
		return 15 * time.Second
	}
	return b.ProbeInterval
}

type breakerState int

const (
	stateClosed breakerState = iota
	stateHalfOpen
	stateOpen
)

func (s breakerState) String() string {
	switch s {
	case stateHalfOpen:
		return "half-open"
	case stateOpen:
		return "open"
	}
	return "closed"
}

// workerHealth is the master's circuit-breaker record for one worker.
type workerHealth struct {
	state    breakerState
	fails    int // consecutive failures
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	lastErr  string
}

// allowCall reports whether a call to the worker may proceed. An open
// circuit past its cooldown transitions to half-open and admits exactly
// one probe call; the probe's reportResult closes or re-opens it.
func (m *Master) allowCall(id string) bool {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h := m.health[id]
	if h == nil {
		return true
	}
	switch h.state {
	case stateClosed:
		return true
	case stateOpen:
		if m.now().Sub(h.openedAt) < m.breaker.cooldown() {
			return false
		}
		h.state = stateHalfOpen
		h.probing = true
		workerStateGauge(id).Set(1)
		return true
	case stateHalfOpen:
		if h.probing {
			return false
		}
		h.probing = true
		return true
	}
	return true
}

// reportResult feeds one call outcome into the worker's breaker.
func (m *Master) reportResult(id string, err error) {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h := m.health[id]
	if h == nil {
		return
	}
	h.probing = false
	if err == nil {
		h.fails = 0
		if h.state != stateClosed {
			h.state = stateClosed
			workerStateGauge(id).Set(0)
			masterLog.Info("circuit closed", "worker", id)
		}
		h.lastErr = ""
		return
	}
	h.fails++
	h.lastErr = err.Error()
	if h.state == stateHalfOpen || h.fails >= m.breaker.threshold() {
		if h.state != stateOpen {
			fedCircuitOpens.Inc()
			masterLog.Warn("circuit opened", "worker", id,
				"fails", h.fails, "err", err.Error())
		}
		h.state = stateOpen
		h.openedAt = m.now()
		workerStateGauge(id).Set(2)
	}
}

// WorkerState returns the circuit state of one worker ("closed",
// "half-open" or "open"; "" for unknown workers).
func (m *Master) WorkerState(id string) string {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	h := m.health[id]
	if h == nil {
		return ""
	}
	return h.state.String()
}

// WorkerStates snapshots every worker's circuit state and last error, for
// /healthz and mipctl.
func (m *Master) WorkerStates() map[string]WorkerStatus {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	out := make(map[string]WorkerStatus, len(m.health))
	for id, h := range m.health {
		out[id] = WorkerStatus{State: h.state.String(), ConsecutiveFailures: h.fails, LastError: h.lastErr}
	}
	return out
}

// WorkerStatus is the externally visible health record of one worker.
type WorkerStatus struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	LastError           string `json:"last_error,omitempty"`
}

// probeLoop periodically re-probes unhealthy workers until Close.
func (m *Master) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopProbe:
			return
		case <-t.C:
			m.ProbeNow()
		}
	}
}

// ProbeNow synchronously re-probes every worker that is unhealthy (or has
// no snapshot) with a DatasetInfo call, feeding the breaker and re-adopting
// recovered workers into availability. Tests and the background loop both
// drive recovery through this.
func (m *Master) ProbeNow() {
	for _, w := range m.Workers() {
		id := w.ID()
		m.mu.Lock()
		_, known := m.infos[id]
		m.mu.Unlock()
		if known && m.WorkerState(id) == "closed" {
			continue
		}
		if !m.allowCall(id) {
			continue
		}
		fedProbes.Inc()
		info, err := w.DatasetInfo()
		m.reportResult(id, err)
		m.mu.Lock()
		if err == nil {
			m.infos[id] = info
		} else {
			delete(m.infos, id)
		}
		m.mu.Unlock()
	}
}
