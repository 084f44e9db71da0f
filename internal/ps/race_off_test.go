//go:build !race

package ps

const raceEnabled = false
