package server

import (
	"context"
	"log/slog"
	"net/http"

	"ribbon"
	"ribbon/api"
	"ribbon/internal/wire"
	"ribbon/internal/workload"
)

// defaultControllerQueries is the replay length of a named scenario when the
// request omits total_queries.
const defaultControllerQueries = 20_000

// ctl is the server-side state of one controller run. ctrl and phases are
// immutable after create; the lifecycle is behind the store mutex. The
// live control-loop snapshot is not stored here at all — ribbon.Controller
// publishes it concurrency-safely via Status(), so view() always reads the
// freshest state without any progress plumbing.
type ctl struct {
	lifecycle
	spec   api.ControllerSpec
	ctrl   *ribbon.Controller
	phases []ribbon.LoadPhase
}

// controllerStore is the controller-run lifecycle over the shared store
// machinery (store.go). sm and logger splice the server's telemetry into
// every controller it creates; both may be nil (tests). initialBudget and
// adaptBudget fill a spec that omits its search budgets.
type controllerStore struct {
	*store[ctl, api.Controller]
	sm                         *serverMetrics
	logger                     *slog.Logger
	initialBudget, adaptBudget int
}

func newControllerStore(workers, queueDepth, retain int) *controllerStore {
	st := &controllerStore{}
	st.store = newStore("controller", "ctl", workers, queueDepth, retain,
		func(c *ctl) *lifecycle { return &c.lifecycle },
		execController, (*ctl).view)
	return st
}

// execController replays one controller run on a worker goroutine.
func execController(ctx context.Context, c *ctl) *api.Error {
	if _, err := c.ctrl.RunPhases(ctx, c.phases); ctx.Err() == nil && err != nil {
		return &api.Error{Code: api.ErrInternal, Message: err.Error()}
	}
	return nil
}

// resolve builds a run from the spec (catalogs, scenario expansion,
// controller parameters) for the store to enqueue.
func (st *controllerStore) resolve(spec api.ControllerSpec) (*ctl, *api.Error) {
	initialBudget := spec.InitialBudget
	if initialBudget == 0 {
		initialBudget = st.initialBudget
	}
	adaptBudget := spec.AdaptBudget
	if adaptBudget == 0 {
		adaptBudget = st.adaptBudget
	}
	svc := serviceConfig(spec.ServiceSpec, ribbon.SearchOptions{})
	svc.DispatchObserver = st.sm.observer()
	var storm *ribbon.StormOptions
	if spec.Chaos != nil {
		seed := spec.Chaos.Seed
		if seed == 0 {
			seed = spec.Seed
		}
		storm = &ribbon.StormOptions{
			Seed:                 seed,
			HorizonMs:            spec.Chaos.HorizonMs,
			RevocationMultiplier: spec.Chaos.RevocationMultiplier,
			WarningMs:            spec.Chaos.WarningMs,
			FailuresPerHour:      spec.Chaos.FailuresPerHour,
			SlowdownsPerHour:     spec.Chaos.SlowdownsPerHour,
			SlowdownFactor:       spec.Chaos.SlowdownFactor,
			SlowdownMs:           spec.Chaos.SlowdownMs,
			PriceStepMs:          spec.Chaos.PriceStepMs,
			PriceVolatility:      spec.Chaos.PriceVolatility,
			RestoreAfterMs:       spec.Chaos.RestoreAfterMs,
		}
	}
	ctrl, err := ribbon.NewController(ribbon.ControllerConfig{
		Service:       svc,
		Logger:        st.logger,
		InitialBudget: initialBudget,
		ChaosStorm:    storm,
		UseSpot:       spec.UseSpot,
		Controller: ribbon.ControllerParams{
			WindowMs:               spec.WindowMs,
			TickMs:                 spec.TickMs,
			RelThreshold:           spec.RelThreshold,
			DwellMs:                spec.DwellMs,
			CooldownMs:             spec.CooldownMs,
			MigrationSetupHours:    spec.MigrationSetupHours,
			MigrationTeardownHours: spec.MigrationTeardownHours,
			AmortizationHours:      spec.AmortizationHours,
			AdaptBudget:            adaptBudget,
		},
	})
	if err != nil {
		return nil, apiError(err)
	}

	var phases []ribbon.LoadPhase
	if len(spec.Phases) > 0 {
		phases = make([]ribbon.LoadPhase, len(spec.Phases))
		for i, p := range spec.Phases {
			phases[i] = ribbon.LoadPhase{Queries: p.Queries, RateScale: p.RateScale}
		}
	} else {
		name := spec.Scenario
		if name == "" {
			name = string(ribbon.ScenarioSpike)
		}
		total := spec.TotalQueries
		if total == 0 {
			total = defaultControllerQueries
		}
		ph, err := workload.ScenarioPhases(workload.Scenario(name), total)
		if err != nil {
			return nil, &api.Error{Code: api.ErrInvalidRequest, Message: err.Error()}
		}
		phases = ph
	}

	return &ctl{spec: spec, ctrl: ctrl, phases: phases}, nil
}

// view snapshots the run as its wire representation; the control-loop
// snapshot comes straight from the (concurrency-safe) controller. Callers
// hold st.mu.
func (c *ctl) view() api.Controller {
	return api.Controller{
		ID:         c.id,
		Status:     c.status,
		CreatedAt:  c.created,
		StartedAt:  c.started,
		FinishedAt: c.finished,
		Spec:       c.spec,
		Snapshot:   wire.ControllerStatus(c.ctrl.Status()),
		Error:      c.err,
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	out := api.ScenarioList{Scenarios: make([]api.ScenarioInfo, 0, len(ribbon.Scenarios()))}
	for _, sc := range ribbon.Scenarios() {
		phases, err := workload.ScenarioPhases(sc, defaultControllerQueries)
		if err != nil { // unreachable for built-ins; fail loudly if it happens
			wire.WriteError(w, &api.Error{Code: api.ErrInternal, Message: err.Error()})
			return
		}
		info := api.ScenarioInfo{Name: string(sc), Phases: make([]api.LoadPhase, 0, len(phases))}
		for _, ph := range phases {
			info.Phases = append(info.Phases, api.LoadPhase{Queries: ph.Queries, RateScale: ph.RateScale})
		}
		out.Scenarios = append(out.Scenarios, info)
	}
	wire.WriteJSON(w, http.StatusOK, out)
}
