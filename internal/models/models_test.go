package models

import "testing"

func TestCatalogHasFivePaperModels(t *testing.T) {
	want := map[string]Category{
		"CANDLE":   GeneralDNN,
		"ResNet50": GeneralDNN,
		"VGG19":    GeneralDNN,
		"MT-WND":   Recommender,
		"DIEN":     Recommender,
	}
	got := Catalog()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d models, want %d", len(got), len(want))
	}
	for _, p := range got {
		cat, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected model %q", p.Name)
			continue
		}
		if p.Category != cat {
			t.Errorf("%s category = %v, want %v", p.Name, p.Category, cat)
		}
	}
}

func TestQoSTargetsMatchPaper(t *testing.T) {
	// Sec. 5.1: CANDLE 40ms, ResNet50 400ms, VGG19 800ms, MT-WND 20ms,
	// DIEN 30ms.
	want := map[string]float64{
		"CANDLE": 40, "ResNet50": 400, "VGG19": 800, "MT-WND": 20, "DIEN": 30,
	}
	for name, target := range want {
		p := MustLookup(name)
		if p.QoSLatencyMs != target {
			t.Errorf("%s QoS = %g, want %g", name, p.QoSLatencyMs, target)
		}
	}
}

func TestProfileSanity(t *testing.T) {
	for _, p := range Catalog() {
		if p.WaveMs <= 0 {
			t.Errorf("%s: WaveMs must be positive", p.Name)
		}
		if p.MemMsPerSample < 0 {
			t.Errorf("%s: negative MemMsPerSample", p.Name)
		}
		if p.GPUMemFactor <= 0 || p.GPUComputeFactor <= 0 {
			t.Errorf("%s: GPU factors must be positive", p.Name)
		}
		if p.ArrivalRateQPS <= 0 {
			t.Errorf("%s: arrival rate must be positive", p.Name)
		}
		b := p.Batch
		if b.MaxBatch < 1 {
			t.Errorf("%s: MaxBatch must be >= 1", p.Name)
		}
		if b.Sigma <= 0 {
			t.Errorf("%s: batch sigma must be positive", p.Name)
		}
		if b.TailProb < 0 || b.TailProb > 1 {
			t.Errorf("%s: tail prob out of range", p.Name)
		}
		if b.TailProb > 0 {
			if b.TailShape <= 1 {
				t.Errorf("%s: Pareto tail needs shape > 1 for a finite mean", p.Name)
			}
			if b.TailScale <= 0 {
				t.Errorf("%s: Pareto tail needs a positive scale", p.Name)
			}
		}
		if p.Description == "" {
			t.Errorf("%s: missing description", p.Name)
		}
	}
}

func TestRecommendersPenalizeGPUMemory(t *testing.T) {
	// The paper motivates recommenders by their tens-of-GB embedding
	// tables that do not fit accelerator memory; the calibrated profiles
	// must reflect that (factor < 1), while CNNs benefit from HBM (> 1).
	for _, p := range Catalog() {
		switch p.Category {
		case Recommender:
			if p.GPUMemFactor >= 1 {
				t.Errorf("%s: recommender GPUMemFactor = %g, want < 1", p.Name, p.GPUMemFactor)
			}
		case GeneralDNN:
			if p.GPUMemFactor <= 1 {
				t.Errorf("%s: DNN/CNN GPUMemFactor = %g, want > 1", p.Name, p.GPUMemFactor)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("BERT"); err == nil {
		t.Fatalf("expected error for unknown model")
	}
	p, err := Lookup("DIEN")
	if err != nil || p.Name != "DIEN" {
		t.Fatalf("Lookup(DIEN) = %+v, %v", p, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustLookup should panic")
		}
	}()
	MustLookup("BERT")
}

func TestCategoryString(t *testing.T) {
	if GeneralDNN.String() != "general DNN/CNN" || Recommender.String() != "recommendation" {
		t.Fatalf("category names changed")
	}
	if Category(7).String() != "Category(7)" {
		t.Fatalf("unknown category formatting")
	}
}

func TestCatalogReturnsCopy(t *testing.T) {
	a := Catalog()
	a[0].Name = "mutated"
	b := Catalog()
	if b[0].Name == "mutated" {
		t.Fatalf("Catalog exposes internal state")
	}
}
