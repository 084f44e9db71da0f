//go:build race

package rpc

import "sync/atomic"

// A frame received happens after the frame was sent, and callers rely on
// it: what a handler did is visible to whoever read its reply. The race
// detector learns that edge for write(2)/read(2) from package syscall, but
// not for the writev(2) a net.Buffers makes, so writeFrame and readFrame
// restate it on a word of their own when the detector is on.
var frameSync atomic.Uint64

func raceReleaseFrame() { frameSync.Add(1) }
func raceAcquireFrame() { frameSync.Load() }
