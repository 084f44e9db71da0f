//go:build race

package ps

// raceEnabled reports whether this test binary runs under the race
// detector, where sync.Pool drops a quarter of what it is given: byte
// budgets that count on pooled frames hold only without it.
const raceEnabled = true
