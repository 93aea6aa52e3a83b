//go:build race

package serving

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// Puts, so how often Evaluate's arena is reused is left to chance.
const raceEnabled = true
