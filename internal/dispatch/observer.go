package dispatch

// Observer receives per-decision routing telemetry from the simulator
// (serving.SimOptions.Observer). Implementations must be safe for concurrent
// use — parallel searches run evaluations (and therefore policies) on many
// goroutines.
//
// Observation is strictly passive: the simulator makes exactly the decisions
// it would make without an Observer, so evaluation results are bit-identical
// with or without one attached.
type Observer interface {
	// ObservePick reports one routing decision: the policy's name, the
	// wall-clock seconds spent deciding, the query's criticality rank
	// (0 = sheddable .. 2 = critical), and whether the arrival was shed.
	ObservePick(policy string, seconds float64, rank int, shed bool)
}
