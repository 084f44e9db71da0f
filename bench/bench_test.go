package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// TestSmoke runs every workload once on short inputs, untraced and traced,
// and checks that each emits exactly the metrics BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	defer func(s sizes, r runShape) { sz, shape = s, r }(sz, shape)
	sz, shape = shortSizes, runShape{setupRounds: 1, minReps: 1}

	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(w.Name, 1, 0, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd, true)

			res, rec, err := runTraced(w.Name, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer, false)
			if r := res.Metrics["trace.accounted_ratio"].Value; r < 0.95 || r > 1.05 {
				t.Errorf("trace.accounted_ratio = %g, want within 0.95–1.05", r)
			}
			if len(clientSpans(rec.since(0))) == 0 {
				t.Error("traced run recorded no rpc client spans")
			}
		})
	}
}

func checkMetrics(t *testing.T, res *result, specs []metricSpec, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, spec := range specs {
		m, ok := res.Metrics[spec.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", spec.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("metric %s = %g", spec.Name, m.Value)
		case positive && m.Value == 0:
			t.Errorf("end-to-end metric %s is 0", spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("metric %s has unit %q, want %q", spec.Name, m.Unit, spec.Unit)
		}
	}
}

// TestTraceTransportCluster: a ps.NewCluster on the decorator round-trips a
// push and a pull, in-proc and over TCP (where the decorator maps the
// cluster's symbolic endpoint names to listener addresses), and every
// client span pairs with a server span inside it.
func TestTraceTransportCluster(t *testing.T) {
	inners := map[string]func() rpc.Transport{
		"inproc": func() rpc.Transport { return rpc.NewInProc() },
		"tcp":    func() rpc.Transport { return rpc.NewTCP() },
	}
	for name, inner := range inners {
		t.Run(name, func(t *testing.T) {
			rec := newRecorder()
			tt := newTraceTransport(inner(), rec)
			defer tt.Close()
			cluster, err := ps.NewCluster(ps.ClusterConfig{NumServers: 2, Transport: tt})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			agent := cluster.NewClient()
			var got map[int64][]float64
			err = rec.call("ps.client", "roundtrip", func() error {
				emb, err := agent.CreateEmbedding(ps.EmbeddingSpec{Name: "e", Dim: 4})
				if err != nil {
					return err
				}
				if err := emb.PushSet(map[int64][]float64{7: {1, 2, 3, 4}, 8: {5, 6, 7, 8}}); err != nil {
					return err
				}
				got, err = emb.Pull([]int64{7, 8})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[7], []float64{1, 2, 3, 4}) || !reflect.DeepEqual(got[8], []float64{5, 6, 7, 8}) {
				t.Fatalf("pulled %v", got)
			}

			spans := rec.since(0)
			top := topSpans(spans)
			if len(top) != 1 {
				t.Fatalf("%d top-level spans, want 1", len(top))
			}
			servers := map[uint64]span{}
			for _, s := range serverSpans(spans) {
				servers[s.ID] = s
			}
			groups := map[string]int{}
			for _, c := range clientSpans(spans) {
				s, ok := servers[c.ID]
				if !ok {
					t.Errorf("client span %s has no server span", c.Name)
					continue
				}
				if s.Name != c.Name || s.Start < c.Start || s.End > c.End {
					t.Errorf("server span %+v not inside client span %+v", s, c)
				}
				if c.Start >= top[0].Start && c.End <= top[0].End {
					if c.Parent != top[0].ID && c.Name != "CreatePart" {
						t.Errorf("client span %s has parent %d, want %d", c.Name, c.Parent, top[0].ID)
					}
					groups[c.Group]++
				}
			}
			if groups["pull"] == 0 || groups["push"] == 0 || groups["master"] == 0 {
				t.Errorf("calls per group inside the round trip: %v", groups)
			}
			if self := selfTime(top[0], clientSpans(spans)); self <= 0 || self >= top[0].dur() {
				t.Errorf("self time %d of a %d ns span", self, top[0].dur())
			}
			if _, err := tt.Call("nowhere", "Ping", nil); err == nil {
				t.Error("call to an unregistered endpoint succeeded")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in spec.go the same.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloadSpecs) {
		t.Errorf("workloads differ from spec.go:\n%+v", file.Workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v", file.EndToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n%+v", file.PerLayer)
	}
	for _, w := range workloadSpecs {
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g %g %g", q1, q2, q3)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}, {Start: 35, End: 38}, {Start: 90, End: 200}}
	if got := covered(0, 100, spans); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	if got := selfTime(span{Start: 0, End: 100}, spans); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
}
