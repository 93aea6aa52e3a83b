package server

import (
	"net/http"
	"time"

	"ribbon/api"
	"ribbon/internal/obs"
	"ribbon/internal/slo"
	"ribbon/internal/wire"
)

// The control plane's own SLO: availability of the HTTP API, measured from
// the same instrument wrapper that feeds the request counters. Every
// response counts; 5xx answers spend error budget. Unlike the gateway's
// stream-time engine this one samples on a wall-clock ticker — the server
// has no stream clock, and nothing here needs replay determinism.

// defaultSLOSampleMs is the wall-clock sampling interval.
const defaultSLOSampleMs = 1000

// defaultSLOTarget is the availability objective when Config leaves it 0.
const defaultSLOTarget = 0.999

// initSLO builds the availability engine and starts its ticker; no-op when
// the interval is negative (engine disabled).
func (s *Server) initSLO() {
	interval := s.cfg.SLOSampleMs
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = defaultSLOSampleMs
	}
	target := s.cfg.SLOTarget
	if !(target > 0 && target < 1) {
		target = defaultSLOTarget
	}
	s.sloTrail = obs.NewTrail(128, s.cfg.Logger)
	eng, err := slo.New(slo.Config{Trail: s.sloTrail})
	if err != nil {
		// Only reachable with broken built-in defaults; surface, don't serve
		// a half-built engine.
		panic("server: slo engine: " + err.Error())
	}
	err = eng.Add(slo.Indicator{
		Name:   "availability/http",
		Kind:   "availability",
		Target: target,
		Sample: func() (good, total float64) {
			all := s.sm.httpAll.Load()
			failed := s.sm.httpFailed.Load()
			return float64(all - failed), float64(all)
		},
	})
	if err != nil {
		panic("server: slo indicator: " + err.Error())
	}
	s.slo = eng
	s.sloStop = make(chan struct{})
	s.sloDone = make(chan struct{})
	start := time.Now()
	go func() {
		defer close(s.sloDone)
		t := time.NewTicker(time.Duration(interval) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.sloStop:
				return
			case now := <-t.C:
				eng.Observe(float64(now.Sub(start)) / float64(time.Millisecond))
			}
		}
	}()
}

// closeSLO stops the sampling ticker; safe when the engine is disabled.
func (s *Server) closeSLO() {
	if s.sloStop == nil {
		return
	}
	close(s.sloStop)
	<-s.sloDone
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		wire.WriteError(w, &api.Error{Code: api.ErrNotFound, Message: "slo engine disabled"})
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.SLOStatus(s.slo.Status()))
}
