// Package perf is the performance model of the reproduction: it predicts the
// service latency of one inference query of a given batch size on a given
// cloud instance type, for each model profile. It replaces the paper's
// on-EC2 measurements (see DESIGN.md §2) and is calibrated so the published
// qualitative relationships hold:
//
//   - at small batch sizes most instance types have similarly high
//     performance (Fig. 3a, batch 32);
//   - at large batch sizes the GPU instance dominates throughput
//     (Fig. 3a, batch 128);
//   - memory-optimized instances (r5, r5n) are consistently the most
//     cost-effective while the GPU is the least at small batches (Fig. 3b).
//
// The model is
//
//	L(m, i, b) = F_i + ceil(b / P_i) * W_m / CS_{m,i} + b * M_m / MS_{m,i}
//
// where P_i is the instance's parallel width (how many samples one "wave"
// processes), W_m the model's dense-compute time per wave, M_m the
// memory-bound time per sample, and CS/MS instance speed factors with
// per-model accelerator adjustments (embedding tables that miss GPU memory,
// sequential GRU stages).
package perf

import (
	"fmt"
	"math"

	"ribbon/internal/cloud"
	"ribbon/internal/models"
	"ribbon/internal/stats"
)

// instanceParams are the calibrated per-family execution characteristics.
type instanceParams struct {
	parallelWidth int     // samples per wave
	computeSpeed  float64 // relative dense-compute speed
	memSpeed      float64 // relative memory-bound speed
	fixedMs       float64 // dispatch / kernel-launch overhead
}

// calibration holds the per-family parameters. Families absent from this
// table cannot be scored; NewService panics on them so that a silently wrong
// zero latency can never leak into an experiment.
var calibration = map[string]instanceParams{
	"t3":   {parallelWidth: 16, computeSpeed: 0.90, memSpeed: 0.85, fixedMs: 0.40},
	"m5":   {parallelWidth: 16, computeSpeed: 1.00, memSpeed: 1.00, fixedMs: 0.40},
	"m5n":  {parallelWidth: 16, computeSpeed: 1.00, memSpeed: 1.10, fixedMs: 0.35},
	"c5":   {parallelWidth: 16, computeSpeed: 1.00, memSpeed: 1.00, fixedMs: 0.35},
	"c5a":  {parallelWidth: 16, computeSpeed: 1.25, memSpeed: 0.95, fixedMs: 0.35},
	"r5":   {parallelWidth: 16, computeSpeed: 0.62, memSpeed: 1.35, fixedMs: 0.40},
	"r5n":  {parallelWidth: 16, computeSpeed: 0.62, memSpeed: 1.50, fixedMs: 0.40},
	"g4dn": {parallelWidth: 256, computeSpeed: 3.20, memSpeed: 2.20, fixedMs: 2.20},
}

// params returns the calibrated execution parameters for an instance family.
func params(inst cloud.InstanceType) instanceParams {
	p, ok := calibration[inst.Family]
	if !ok {
		panic(fmt.Sprintf("perf: no calibration for instance family %q", inst.Family))
	}
	return p
}

// Service is the latency model of one model on one instance type, resolved
// once: the calibration lookup and the accelerator adjustments are done, so
// scoring a query is arithmetic only. The simulator resolves one per
// deployed instance per evaluation instead of one per query.
type Service struct {
	fixedMs        float64
	parallelWidth  float64
	waveMs         float64
	computeSpeed   float64
	memMsPerSample float64
	memSpeed       float64
}

// NewService resolves m's latency model on inst. It panics on a family
// without calibration.
func NewService(m models.Profile, inst cloud.InstanceType) Service {
	p := params(inst)
	cs := p.computeSpeed
	ms := p.memSpeed
	if inst.Class == cloud.Accelerator {
		cs *= m.GPUComputeFactor
		ms *= m.GPUMemFactor
	}
	return Service{
		fixedMs:        p.fixedMs,
		parallelWidth:  float64(p.parallelWidth),
		waveMs:         m.WaveMs,
		computeSpeed:   cs,
		memMsPerSample: m.MemMsPerSample,
		memSpeed:       ms,
	}
}

// Ms returns the deterministic (noise-free) service latency in milliseconds
// for one query of the given batch size. It panics if batch < 1.
func (s Service) Ms(batch int) float64 {
	if batch < 1 {
		panic("perf: batch must be >= 1")
	}
	waves := math.Ceil(float64(batch) / s.parallelWidth)
	return s.fixedMs + waves*s.waveMs/s.computeSpeed + float64(batch)*s.memMsPerSample/s.memSpeed
}

// NoisyMs returns Ms perturbed by multiplicative log-normal noise: exactly
// one draw from r.
func (s Service) NoisyMs(batch int, r *stats.RNG) float64 {
	return s.Ms(batch) * r.LogNormal(-NoiseSigma*NoiseSigma/2, NoiseSigma)
}

// ServiceMs returns the deterministic (noise-free) service latency in
// milliseconds for one query of the given batch size. It panics if
// batch < 1 or the family has no calibration.
func ServiceMs(m models.Profile, inst cloud.InstanceType, batch int) float64 {
	return NewService(m, inst).Ms(batch)
}

// NoiseSigma is the scale of the multiplicative log-normal service-time
// noise used by NoisyMs and NoisyServiceMs. Real inference latency jitters with kernel
// scheduling, cache state, and co-location; 6% keeps per-query variation
// realistic without washing out the tail structure the batch distribution
// creates.
const NoiseSigma = 0.06

// NoisyServiceMs returns ServiceMs perturbed by multiplicative log-normal
// noise drawn from r.
func NoisyServiceMs(m models.Profile, inst cloud.InstanceType, batch int, r *stats.RNG) float64 {
	return NewService(m, inst).NoisyMs(batch, r)
}

// ThroughputQPS returns the steady-state single-instance throughput
// (queries per second) at a fixed batch size: the reciprocal of the mean
// service latency, as defined in Sec. 2 ("Figure of Merit").
func ThroughputQPS(m models.Profile, inst cloud.InstanceType, batch int) float64 {
	return 1000 / ServiceMs(m, inst, batch)
}

// CostEffectiveness returns queries per dollar at a fixed batch size,
// Eq. 1 of the paper: 3600 * QPS / price.
func CostEffectiveness(m models.Profile, inst cloud.InstanceType, batch int) float64 {
	return 3600 * ThroughputQPS(m, inst, batch) / inst.PricePerHour
}

// Score is one instance's normalized performance and cost-effectiveness at a
// batch size, as plotted in Fig. 3.
type Score struct {
	Instance           cloud.InstanceType
	Batch              int
	QPS                float64
	QueriesPerDollar   float64
	NormPerformance    float64
	NormCostEff        float64
	ServiceLatencyMs   float64
	MeetsQoSStandalone bool // service latency alone within the model's QoS target
}

// ScoreInstances computes Fig. 3-style normalized scores for the given
// instances at one batch size. Normalization is against the best performer
// and the most cost-effective instance in the set, respectively.
func ScoreInstances(m models.Profile, insts []cloud.InstanceType, batch int) []Score {
	if len(insts) == 0 {
		return nil
	}
	out := make([]Score, len(insts))
	bestQPS, bestCE := 0.0, 0.0
	for i, inst := range insts {
		q := ThroughputQPS(m, inst, batch)
		ce := CostEffectiveness(m, inst, batch)
		lat := ServiceMs(m, inst, batch)
		out[i] = Score{
			Instance: inst, Batch: batch,
			QPS: q, QueriesPerDollar: ce, ServiceLatencyMs: lat,
			MeetsQoSStandalone: lat <= m.QoSLatencyMs,
		}
		if q > bestQPS {
			bestQPS = q
		}
		if ce > bestCE {
			bestCE = ce
		}
	}
	for i := range out {
		out[i].NormPerformance = out[i].QPS / bestQPS
		out[i].NormCostEff = out[i].QueriesPerDollar / bestCE
	}
	return out
}

// Capacity returns the approximate sustainable query rate (QPS) of a single
// instance under the model's batch-size distribution, using the mean batch
// size. The workload generator uses it to translate "the optimal homogeneous
// pool needs N instances" into an arrival rate.
func Capacity(m models.Profile, inst cloud.InstanceType) float64 {
	mean := meanBatch(m.Batch)
	b := int(math.Round(mean))
	if b < 1 {
		b = 1
	}
	if b > m.Batch.MaxBatch {
		b = m.Batch.MaxBatch
	}
	return ThroughputQPS(m, inst, b)
}

// meanBatch approximates the mean of the clamped heavy-tail distribution by
// its unclamped mixture mean, good enough for capacity planning.
func meanBatch(b models.BatchParams) float64 {
	body := math.Exp(b.Mu + b.Sigma*b.Sigma/2)
	if b.TailProb == 0 {
		return body
	}
	tail := b.TailScale * b.TailShape / (b.TailShape - 1)
	return (1-b.TailProb)*body + b.TailProb*tail
}
