// Package ps holds the configuration struct and the generic type the
// ledger test checks.
package ps

// JobConfig is a tracked configuration struct.
type JobConfig struct {
	// Width is set only through the alias app.Config.
	Width int
	// Depth is read but set by nothing.
	Depth int
}

// Box is generic; Get is reached only through Box[int].
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Run reads both fields.
func Run(c JobConfig) int {
	b := &Box[int]{v: c.Width + c.Depth}
	return b.Get()
}
