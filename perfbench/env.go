package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// probeEnv describes the machine and code a report was measured on: the
// scheduler the numbers depend on (GOMAXPROCS, CPUs), the toolchain, the
// code version and the seed, plus a short idle probe of scheduler stalls so a
// noisier box shows up in the report rather than only in the numbers.
func probeEnv(seed uint64) string {
	stalls, worst := stallProbe(300 * time.Millisecond)
	return fmt.Sprintf("env: gomaxprocs=%d nproc=%d go=%s commit=%s source=%s seed=%d idle_stalls_per_s=%.1f idle_worst_stall_ms=%.2f",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), sourceHash(), seed,
		stalls, worst)
}

// stallProbe sleeps in 200µs steps for d and counts the wake-ups that came
// more than 2ms late: on an idle box those are scheduler or hypervisor
// stalls, which every latency in the report also pays.
func stallProbe(d time.Duration) (perSecond, worstMs float64) {
	const nap, late = 200 * time.Microsecond, 2 * time.Millisecond
	n := 0
	var worst time.Duration
	start := time.Now()
	prev := start
	for time.Since(start) < d {
		time.Sleep(nap)
		now := time.Now()
		if gap := now.Sub(prev) - nap; gap > late {
			n++
			worst = max(worst, gap)
		}
		prev = now
	}
	return float64(n) / time.Since(start).Seconds(), float64(worst) / 1e6
}

// commit is the VCS revision the binary was built from, when the build saw a
// repository; a plain source checkout has none, and sourceHash identifies the
// code instead.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceHash is a SHA-256 over the Go sources and module files under the
// working directory (hidden directories skipped), shortened to 12 digits.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
