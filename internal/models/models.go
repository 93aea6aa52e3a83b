// Package models catalogs the five deep-learning inference workloads
// evaluated in the Ribbon paper (Table 1) together with the analytic profile
// parameters the performance model (internal/perf) and workload generator
// (internal/workload) consume.
//
// The paper runs real TensorFlow/PyTorch models on EC2; this reproduction
// substitutes calibrated analytic profiles (see DESIGN.md §2). Only the
// latency distribution per (instance, batch) and the arrival process are
// visible to the scheduler, so the profiles are tuned to preserve the
// paper's published shapes: per-model QoS targets, GPU dominance at large
// batch, and memory-optimized cost-effectiveness.
package models

import (
	"errors"
	"fmt"
)

// Category separates general DNN/CNN models from embedding-table hybrid
// recommenders, the two model groups of Sec. 2.
type Category int

const (
	// GeneralDNN covers CANDLE, ResNet50, and VGG19.
	GeneralDNN Category = iota
	// Recommender covers MT-WND and DIEN.
	Recommender
)

// String names the category as the paper does.
func (c Category) String() string {
	switch c {
	case GeneralDNN:
		return "general DNN/CNN"
	case Recommender:
		return "recommendation"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// BatchParams parameterizes the per-query batch-size distribution
// (Sec. 5.1): a heavy-tail log-normal body with a Pareto tail, clamped to
// [1, MaxBatch].
type BatchParams struct {
	Mu        float64 // log-normal location
	Sigma     float64 // log-normal scale
	TailProb  float64 // probability of a Pareto tail draw
	TailScale float64 // Pareto xm
	TailShape float64 // Pareto alpha
	MaxBatch  int     // clamp upper bound
}

// Profile is the analytic stand-in for one deep-learning model.
type Profile struct {
	// Name is the model name as used in the paper.
	Name string
	// Description is the Table 1 blurb.
	Description string
	// Category groups the model per Sec. 2.
	Category Category

	// WaveMs is the dense-compute time (ms) for one wave of samples on a
	// unit-speed instance; a wave is the instance's parallel width.
	WaveMs float64
	// MemMsPerSample is the memory-bound time (ms) per sample on a
	// unit-memory-speed instance (embedding gathers for recommenders,
	// activation traffic for CNNs).
	MemMsPerSample float64
	// GPUMemFactor scales the accelerator's effective memory speed for
	// this model. Below 1 penalizes models whose working set (e.g. tens
	// of GB of embedding tables) does not fit GPU memory and must cross
	// PCIe; above 1 rewards models that stream activations through HBM.
	GPUMemFactor float64
	// GPUComputeFactor scales the accelerator's effective compute speed
	// for this model; below 1 models poorly-parallelizable networks such
	// as DIEN's sequential GRU layers.
	GPUComputeFactor float64

	// QoSLatencyMs is the per-query tail-latency target (Sec. 5.1).
	QoSLatencyMs float64
	// Batch is the batch-size distribution for the query stream.
	Batch BatchParams
	// ArrivalRateQPS is the default Poisson query arrival rate used by
	// the paper-scale experiments; chosen so the optimal homogeneous pool
	// needs roughly five instances of the primary type.
	ArrivalRateQPS float64
}

func (p Profile) String() string { return p.Name }

// The calibrated catalog. QoS targets are the paper's: CANDLE 40 ms,
// ResNet50 400 ms, VGG19 800 ms, MT-WND 20 ms, DIEN 30 ms (Sec. 5.1).
var catalog = []Profile{
	{
		Name:        "CANDLE",
		Description: "large fully-connected DNN predicting tumor cell line response to drug pairs",
		Category:    GeneralDNN,

		WaveMs:           7.0,
		MemMsPerSample:   0.010,
		GPUMemFactor:     1.4,
		GPUComputeFactor: 1.0,

		QoSLatencyMs: 40,
		Batch: BatchParams{
			Mu: 2.4, Sigma: 0.55,
			TailProb: 0.024, TailScale: 90, TailShape: 2.5,
			MaxBatch: 96,
		},
		ArrivalRateQPS: 900,
	},
	{
		Name:        "ResNet50",
		Description: "residual CNN for image classification and object detection",
		Category:    GeneralDNN,

		WaveMs:           70,
		MemMsPerSample:   0.020,
		GPUMemFactor:     1.6,
		GPUComputeFactor: 1.0,

		QoSLatencyMs: 400,
		Batch: BatchParams{
			Mu: 2.4, Sigma: 0.55,
			TailProb: 0.024, TailScale: 90, TailShape: 2.5,
			MaxBatch: 96,
		},
		ArrivalRateQPS: 64,
	},
	{
		Name:        "VGG19",
		Description: "very deep CNN for image recognition (DLHUB)",
		Category:    GeneralDNN,

		WaveMs:           145,
		MemMsPerSample:   0.030,
		GPUMemFactor:     1.6,
		GPUComputeFactor: 1.0,

		QoSLatencyMs: 800,
		Batch: BatchParams{
			Mu: 2.4, Sigma: 0.55,
			TailProb: 0.024, TailScale: 90, TailShape: 2.5,
			MaxBatch: 96,
		},
		ArrivalRateQPS: 32,
	},
	{
		Name:        "MT-WND",
		Description: "Multi-Task Wide & Deep recommender (YouTube video recommendation)",
		Category:    Recommender,

		WaveMs:           2.2,
		MemMsPerSample:   0.100,
		GPUMemFactor:     0.62,
		GPUComputeFactor: 1.0,

		QoSLatencyMs: 20,
		Batch: BatchParams{
			Mu: 3.18, Sigma: 0.43,
			TailProb: 0.007, TailScale: 120, TailShape: 2.5,
			MaxBatch: 192,
		},
		ArrivalRateQPS: 690,
	},
	{
		Name:        "DIEN",
		Description: "Deep Interest Evolution Network with GRUs (Alibaba e-commerce recommendation)",
		Category:    Recommender,

		WaveMs:           3.6,
		MemMsPerSample:   0.130,
		GPUMemFactor:     0.62,
		GPUComputeFactor: 0.55,

		QoSLatencyMs: 30,
		Batch: BatchParams{
			Mu: 3.0, Sigma: 0.45,
			TailProb: 0.013, TailScale: 120, TailShape: 2.5,
			MaxBatch: 160,
		},
		ArrivalRateQPS: 640,
	},
}

// Catalog returns all model profiles in paper order.
func Catalog() []Profile {
	out := make([]Profile, len(catalog))
	copy(out, catalog)
	return out
}

// ErrUnknownModel is returned (wrapped) by Lookup for names not in the
// catalog; match with errors.Is.
var ErrUnknownModel = errors.New("unknown model")

// Lookup returns the profile with the given name.
func Lookup(name string) (Profile, error) {
	for _, p := range catalog {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("models: %w %q", ErrUnknownModel, name)
}

// MustLookup is Lookup but panics on an unknown name.
func MustLookup(name string) Profile {
	p, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}
