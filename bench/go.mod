// The repo benchmark is a module of its own so that it builds with its own
// build file and stays out of the root module's `go build ./...` and
// `go test ./...`. Its module path sits under psgraph/ so it may import
// the root module's internal packages.
module psgraph/bench

go 1.24

require psgraph v0.0.0

replace psgraph => ../
