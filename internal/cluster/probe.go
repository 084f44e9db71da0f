package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"psgraph/internal/rpc"
)

// WaitHealthy polls addr's Health RPC until the node reports Ready or
// the deadline passes, backing off 5ms doubling to a 200ms cap — never
// a fixed sleep. An unreachable endpoint and a reachable-but-not-ready
// one both keep probing; the returned error distinguishes them.
func WaitHealthy(tr rpc.Transport, addr string, timeout time.Duration) (HealthInfo, error) {
	retry := rpc.NewBackoff(5*time.Millisecond, 200*time.Millisecond, timeout)
	var hi HealthInfo
	var last error
	for {
		resp, err := tr.Call(addr, "Health", nil)
		switch {
		case err != nil:
			last = err
		default:
			hi = HealthInfo{}
			if err := json.Unmarshal(resp, &hi); err != nil {
				last = fmt.Errorf("cluster: bad Health response from %s: %w", addr, err)
			} else if hi.Ready {
				return hi, nil
			} else {
				last = fmt.Errorf("cluster: %s (%s) not ready: %s", addr, hi.Role, hi.Detail)
			}
		}
		if !retry.Wait(nil) {
			return hi, fmt.Errorf("cluster: %s not healthy after %v: %w", addr, timeout, last)
		}
	}
}

// WaitPortFile polls for the address a starting process publishes via
// its port file, with the same capped backoff as WaitHealthy.
func WaitPortFile(path string, timeout time.Duration) (string, error) {
	retry := rpc.NewBackoff(5*time.Millisecond, 200*time.Millisecond, timeout)
	for {
		b, err := os.ReadFile(path)
		if err == nil && len(b) > 0 {
			return string(b), nil
		}
		if !retry.Wait(nil) {
			if err == nil {
				err = fmt.Errorf("port file %s empty", path)
			}
			return "", fmt.Errorf("cluster: no port file after %v: %w", timeout, err)
		}
	}
}
