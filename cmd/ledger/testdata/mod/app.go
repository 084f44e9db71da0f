// Package app is the public face of the module: its Config is an alias.
package app

import "ledgertest/internal/ps"

// Config is what callers name; it is ps.JobConfig.
type Config = ps.JobConfig
