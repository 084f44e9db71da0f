//go:build !race

package rpc

func raceReleaseFrame() {}
func raceAcquireFrame() {}
