// Command tool is the module's one binary.
package main

import (
	"ledgertest"
	"ledgertest/internal/ps"
)

func main() { println(ps.Run(app.Config{Width: 3})) }
