package euler

import (
	"strings"
	"testing"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/gen"
	"psgraph/internal/rpc"
)

func writeDataset(t *testing.T, fs *dfs.FS, n int64, classes int, seed int64) {
	t.Helper()
	edges, labels := gen.SBM(gen.SBMConfig{Vertices: n, Classes: classes, IntraDeg: 10, InterDeg: 0.5, Seed: seed})
	feats := gen.Features(labels, classes, 8, 0.6, seed+1)
	if err := gen.WriteEdgesText(fs, "/raw/edges.txt", edges, false); err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteFeaturesText(fs, "/raw/feats.txt", labels, feats); err != nil {
		t.Fatal(err)
	}
}

func TestPreprocessStagesProduceFiles(t *testing.T) {
	fs := dfs.NewDefault()
	writeDataset(t, fs, 100, 3, 1)
	res, err := PreprocessWithConfig(fs, "/raw/edges.txt", "/raw/feats.txt", "/euler", 4, PreprocessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumVertices != 100 {
		t.Fatalf("vertices = %d", res.NumVertices)
	}
	if res.Dim != 8 {
		t.Fatalf("dim = %d", res.Dim)
	}
	// All intermediate artifacts must exist on the DFS: the defining
	// property of the disk-staged pipeline.
	for _, p := range []string{"/euler/stage1/edges.bin", "/euler/stage1/idmap.txt", "/euler/stage2/vertices.jsonl"} {
		if !fs.Exists(p) {
			t.Fatalf("missing intermediate %s", p)
		}
	}
	if got := len(fs.List("/euler/part-")); got != 4 {
		t.Fatalf("partition files = %d", got)
	}
	if res.IndexMapping <= 0 || res.ToJSON <= 0 || res.Partitioning < 0 {
		t.Fatalf("stage times not recorded: %+v", res)
	}
}

func TestPreprocessIndexMappingIsDense(t *testing.T) {
	fs := dfs.NewDefault()
	// Sparse raw ids.
	fs.WriteFile("/raw/edges.txt", []byte("1000\t2000\n2000\t3000\n"))
	fs.WriteFile("/raw/feats.txt", []byte("1000\t0\t1.0\n2000\t1\t2.0\n3000\t0\t3.0\n"))
	res, err := PreprocessWithConfig(fs, "/raw/edges.txt", "/raw/feats.txt", "/euler", 2, PreprocessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumVertices != 3 {
		t.Fatalf("vertices = %d", res.NumVertices)
	}
	idmap, _ := fs.ReadFile("/euler/stage1/idmap.txt")
	if !strings.Contains(string(idmap), "0\t1000") {
		t.Fatalf("idmap = %q", idmap)
	}
}

func TestServiceServesVertices(t *testing.T) {
	fs := dfs.NewDefault()
	writeDataset(t, fs, 50, 2, 2)
	if _, err := PreprocessWithConfig(fs, "/raw/edges.txt", "/raw/feats.txt", "/euler", 2, PreprocessConfig{}); err != nil {
		t.Fatal(err)
	}
	tr := rpc.NewInProc()
	defer tr.Close()
	svc, err := StartService(fs, tr, "euler-svc", "/euler", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if len(svc.recs) != 50 {
		t.Fatalf("service vertices = %d", len(svc.recs))
	}
	rec, err := getVertex(tr, "euler-svc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Features) != 8 {
		t.Fatalf("features = %v", rec.Features)
	}
	// Missing vertex returns an empty record, not an error.
	rec, err = getVertex(tr, "euler-svc", 9999)
	if err != nil || rec.ID != 9999 || len(rec.Neighbors) != 0 {
		t.Fatalf("missing vertex: %+v, %v", rec, err)
	}
}

func TestTrainLearnsSBM(t *testing.T) {
	fs := dfs.NewDefault()
	writeDataset(t, fs, 600, 3, 3)
	pre, err := PreprocessWithConfig(fs, "/raw/edges.txt", "/raw/feats.txt", "/euler", 2, PreprocessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := rpc.NewInProc()
	defer tr.Close()
	svc, err := StartService(fs, tr, "euler-svc", "/euler", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := Train(tr, "euler-svc", pre.NumVertices, TrainConfig{
		Classes: 3, Epochs: 6, BatchSize: 128, LR: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.8 {
		t.Fatalf("accuracy = %v (losses %v)", res.TestAccuracy, res.Losses)
	}
	if len(res.EpochTimes) != 6 {
		t.Fatalf("epoch times = %d", len(res.EpochTimes))
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	tr := rpc.NewInProc()
	defer tr.Close()
	if _, err := Train(tr, "nowhere", 10, TrainConfig{Classes: 1}); err == nil {
		t.Fatal("Classes=1 accepted")
	}
}

func TestPreprocessJobLaunchOverhead(t *testing.T) {
	fs := dfs.NewDefault()
	writeDataset(t, fs, 60, 2, 9)
	fast, err := PreprocessWithConfig(fs, "/raw/edges.txt", "/raw/feats.txt", "/fast", 2, PreprocessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := PreprocessWithConfig(fs, "/raw/edges.txt", "/raw/feats.txt", "/slow", 2,
		PreprocessConfig{JobLaunch: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Three stages, one launch each: at least 300ms more than the free run.
	if slow.Total-fast.Total < 250*time.Millisecond {
		t.Fatalf("job-launch overhead missing: fast %v, slow %v", fast.Total, slow.Total)
	}
}
