//go:build race

package rpc

// raceEnabled reports whether this test binary runs under the race
// detector, where sync.Pool drops a quarter of what it is given: a
// recycle that allocates nothing does so only without it.
const raceEnabled = true
