// Package euler reimplements the workflow of Euler, Alibaba's graph
// learning system, as the GNN baseline of Table I.
//
// Two properties of Euler drive the numbers the paper reports, and both
// are reproduced here mechanically rather than by inserting sleeps:
//
//   - Preprocessing is a chain of *separate sequential jobs* — index
//     mapping, data-to-JSON transformation, JSON partitioning — and
//     "every operation needs to read data from disk and write output to
//     disk" (Sec. V-B3). Each stage below is single-threaded and round-
//     trips the full dataset through the DFS, serializing through JSON
//     for the middle stage.
//
//   - Training fetches neighborhoods and features from a graph service
//     one vertex per RPC, with no batching, so the per-epoch time is
//     dominated by request count rather than computation.
package euler

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/gnn"
	"psgraph/internal/rpc"
)

// vertexRecord is the JSON document Euler's preprocessing produces per
// vertex.
type vertexRecord struct {
	ID        int64     `json:"id"`
	Neighbors []int64   `json:"neighbors"`
	Label     int32     `json:"label"`
	Features  []float64 `json:"features"`
}

// PreprocessResult reports the per-stage wall times of the pipeline.
type PreprocessResult struct {
	IndexMapping time.Duration
	ToJSON       time.Duration
	Partitioning time.Duration
	Total        time.Duration
	NumVertices  int
	Dim          int
}

// PreprocessConfig tunes the pipeline simulation.
type PreprocessConfig struct {
	// JobLaunch is charged once per stage: the paper stresses that
	// Euler's preprocessing operations are "executed sequentially and
	// individually", i.e. each stage is a separate job submitted to the
	// shared resource manager, paying scheduler queueing and container
	// start-up before any work happens — overhead the Spark-pipeline side
	// pays once for the whole application. Zero disables it (unit tests).
	JobLaunch time.Duration
}

// Preprocess converts the raw edge list plus feature file into Euler's
// partitioned JSON format under outDir, running the three stages strictly
// one after another with full DFS round trips between them.
func Preprocess(fs *dfs.FS, edgesPath, featsPath, outDir string, parts int) (*PreprocessResult, error) {
	return PreprocessWithConfig(fs, edgesPath, featsPath, outDir, parts, PreprocessConfig{})
}

// PreprocessWithConfig is Preprocess with explicit simulation knobs.
func PreprocessWithConfig(fs *dfs.FS, edgesPath, featsPath, outDir string, parts int, cfg PreprocessConfig) (*PreprocessResult, error) {
	res := &PreprocessResult{}
	start := time.Now()
	launch := func() {
		if cfg.JobLaunch > 0 {
			time.Sleep(cfg.JobLaunch)
		}
	}
	launch()

	// Stage 1: index mapping. Scan the raw edges sequentially, assign
	// dense indices, and write the remapped binary edge file plus the id
	// map back to the DFS.
	t0 := time.Now()
	idOf := make(map[int64]int64)
	var order []int64
	mapID := func(raw int64) int64 {
		if idx, ok := idOf[raw]; ok {
			return idx
		}
		idx := int64(len(order))
		idOf[raw] = idx
		order = append(order, raw)
		return idx
	}
	in, err := fs.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	mappedPath := outDir + "/stage1/edges.bin"
	w := fs.Create(mappedPath)
	bw := bufio.NewWriterSize(w, 1<<20)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var buf [16]byte
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("euler: stage1: %v", err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("euler: stage1: %v", err)
		}
		binary.LittleEndian.PutUint64(buf[0:8], uint64(mapID(src)))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(mapID(dst)))
		if _, err := bw.Write(buf[:]); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	in.Close()
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// Persist the id map too (the real system needs it to translate
	// predictions back).
	mw := fs.Create(outDir + "/stage1/idmap.txt")
	mbw := bufio.NewWriterSize(mw, 1<<20)
	for idx, raw := range order {
		fmt.Fprintf(mbw, "%d\t%d\n", idx, raw)
	}
	mbw.Flush()
	mw.Close()
	res.IndexMapping = time.Since(t0)

	// Stage 2: data-to-JSON. Read the binary edges back from the DFS,
	// build adjacency, join features, and marshal one JSON document per
	// vertex.
	launch()
	t0 = time.Now()
	data, err := fs.ReadFile(mappedPath)
	if err != nil {
		return nil, err
	}
	adj := make(map[int64][]int64)
	for off := 0; off+16 <= len(data); off += 16 {
		src := int64(binary.LittleEndian.Uint64(data[off : off+8]))
		dst := int64(binary.LittleEndian.Uint64(data[off+8 : off+16]))
		adj[src] = append(adj[src], dst)
		adj[dst] = append(adj[dst], src)
	}
	labels := make(map[int64]int32)
	feats := make(map[int64][]float64)
	ff, err := fs.Open(featsPath)
	if err != nil {
		return nil, err
	}
	fsc := bufio.NewScanner(ff)
	fsc.Buffer(make([]byte, 1<<16), 1<<24)
	for fsc.Scan() {
		line := fsc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("euler: stage2: malformed feature line %q", line)
		}
		raw, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, err
		}
		lbl, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, err
		}
		cols := strings.Split(fields[2], ",")
		vec := make([]float64, len(cols))
		for i, c := range cols {
			if vec[i], err = strconv.ParseFloat(c, 64); err != nil {
				return nil, err
			}
		}
		id := mapID(raw)
		labels[id] = int32(lbl)
		feats[id] = vec
		res.Dim = len(vec)
	}
	if err := fsc.Err(); err != nil {
		return nil, err
	}
	ff.Close()
	jsonPath := outDir + "/stage2/vertices.jsonl"
	jw := fs.Create(jsonPath)
	jbw := bufio.NewWriterSize(jw, 1<<20)
	enc := json.NewEncoder(jbw)
	for idx := int64(0); idx < int64(len(order)); idx++ {
		rec := vertexRecord{ID: idx, Neighbors: adj[idx], Label: labels[idx], Features: feats[idx]}
		if err := enc.Encode(&rec); err != nil {
			return nil, err
		}
	}
	if err := jbw.Flush(); err != nil {
		return nil, err
	}
	jw.Close()
	res.ToJSON = time.Since(t0)

	// Stage 3: JSON partitioning. Read the JSON back and split into
	// partition files by vertex id.
	launch()
	t0 = time.Now()
	jr, err := fs.Open(jsonPath)
	if err != nil {
		return nil, err
	}
	writers := make([]*bufio.Writer, parts)
	closers := make([]io.WriteCloser, parts)
	for p := 0; p < parts; p++ {
		closers[p] = fs.Create(fmt.Sprintf("%s/part-%05d.jsonl", outDir, p))
		writers[p] = bufio.NewWriterSize(closers[p], 1<<20)
	}
	jsc := bufio.NewScanner(jr)
	jsc.Buffer(make([]byte, 1<<20), 1<<26)
	var nv int
	for jsc.Scan() {
		line := jsc.Bytes()
		var rec struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, err
		}
		p := int(rec.ID) % parts
		writers[p].Write(line)
		writers[p].WriteByte('\n')
		nv++
	}
	if err := jsc.Err(); err != nil {
		return nil, err
	}
	jr.Close()
	for p := 0; p < parts; p++ {
		if err := writers[p].Flush(); err != nil {
			return nil, err
		}
		if err := closers[p].Close(); err != nil {
			return nil, err
		}
	}
	res.Partitioning = time.Since(t0)
	res.NumVertices = nv
	res.Total = time.Since(start)
	return res, nil
}

// Service is Euler's graph service: it loads the partitioned JSON and
// answers one vertex per RPC.
type Service struct {
	Addr string
	tr   rpc.Transport
	recs map[int64]*vertexRecord
}

// StartService loads every partition file under dir and registers the
// service on tr at addr.
func StartService(fs *dfs.FS, tr rpc.Transport, addr, dir string, parts int) (*Service, error) {
	s := &Service{Addr: addr, tr: tr, recs: make(map[int64]*vertexRecord)}
	for p := 0; p < parts; p++ {
		f, err := fs.Open(fmt.Sprintf("%s/part-%05d.jsonl", dir, p))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			rec := &vertexRecord{}
			if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
				return nil, err
			}
			s.recs[rec.ID] = rec
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		f.Close()
	}
	if err := tr.Register(addr, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// NumVertices returns the number of loaded vertices.
func (s *Service) NumVertices() int { return len(s.recs) }

// Close deregisters the service endpoint.
func (s *Service) Close() { s.tr.Deregister(s.Addr) }

func (s *Service) handle(method string, body []byte) ([]byte, error) {
	switch method {
	case "GetVertex":
		if len(body) != 8 {
			return nil, fmt.Errorf("euler: bad GetVertex request")
		}
		id := int64(binary.LittleEndian.Uint64(body))
		rec, ok := s.recs[id]
		if !ok {
			return json.Marshal(&vertexRecord{ID: id})
		}
		return json.Marshal(rec)
	default:
		return nil, fmt.Errorf("euler: unknown method %q", method)
	}
}

// getVertex performs the one-vertex RPC of Euler's client library.
func getVertex(tr rpc.Transport, addr string, id int64) (*vertexRecord, error) {
	var req [8]byte
	binary.LittleEndian.PutUint64(req[:], uint64(id))
	resp, err := tr.Call(addr, "GetVertex", req[:])
	if err != nil {
		return nil, err
	}
	rec := &vertexRecord{}
	if err := json.Unmarshal(resp, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// TrainConfig mirrors the PSGraph GraphSage configuration.
type TrainConfig struct {
	HiddenDim        int
	Classes          int
	FanOut1, FanOut2 int
	Epochs           int
	BatchSize        int
	LR               float64
	TrainFrac        float64
	Seed             int64
}

// TrainResult reports Table I's training-side numbers for Euler.
type TrainResult struct {
	TestAccuracy float64
	EpochTimes   []time.Duration
	Losses       []float64
}

// Train runs the same 2-layer mean-aggregator GraphSage as PSGraph, but
// sourcing every neighborhood and feature vector through one-vertex RPCs
// to the graph service.
func Train(tr rpc.Transport, addr string, numVertices int, cfg TrainConfig) (*TrainResult, error) {
	if cfg.HiddenDim == 0 {
		cfg.HiddenDim = 16
	}
	if cfg.FanOut1 == 0 {
		cfg.FanOut1 = 10
	}
	if cfg.FanOut2 == 0 {
		cfg.FanOut2 = 5
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 5
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 256
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.7
	}
	if cfg.Classes <= 1 {
		return nil, fmt.Errorf("euler: Classes must be >= 2")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Discover the feature dimension with one probe request.
	probe, err := getVertex(tr, addr, 0)
	if err != nil {
		return nil, err
	}
	dim := len(probe.Features)
	if dim == 0 {
		return nil, fmt.Errorf("euler: vertex 0 has no features")
	}

	w1 := gnn.XavierFlat(2*dim, cfg.HiddenDim, rng)
	w2 := gnn.XavierFlat(2*cfg.HiddenDim, cfg.Classes, rng)
	opt1 := gnn.NewAdam(cfg.LR, len(w1))
	opt2 := gnn.NewAdam(cfg.LR, len(w2))

	perm := rng.Perm(numVertices)
	nTrain := int(float64(numVertices) * cfg.TrainFrac)
	train := make([]int64, nTrain)
	test := make([]int64, numVertices-nTrain)
	for i, p := range perm {
		if i < nTrain {
			train[i] = int64(p)
		} else {
			test[i-nTrain] = int64(p)
		}
	}

	res := &TrainResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		prng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*104729))
		var lossSum float64
		var steps int
		for s := 0; s < len(train); s += cfg.BatchSize {
			e := min(s+cfg.BatchSize, len(train))
			batch := train[s:e]
			jb, err := buildBatchRPC(tr, addr, batch, cfg, prng, true)
			if err != nil {
				return nil, err
			}
			out := gnn.Run(jb, w1, w2, cfg.HiddenDim, cfg.Classes)
			opt1.Step(w1, out.GradW1)
			opt2.Step(w2, out.GradW2)
			lossSum += out.Loss
			steps++
		}
		res.EpochTimes = append(res.EpochTimes, time.Since(start))
		if steps > 0 {
			res.Losses = append(res.Losses, lossSum/float64(steps))
		}
	}

	// Evaluate.
	var correct, total int
	prng := rand.New(rand.NewSource(cfg.Seed + 977))
	for s := 0; s < len(test); s += cfg.BatchSize {
		e := min(s+cfg.BatchSize, len(test))
		batch := test[s:e]
		jb, err := buildBatchRPC(tr, addr, batch, cfg, prng, true)
		if err != nil {
			return nil, err
		}
		out := gnn.Run(jb, w1, w2, cfg.HiddenDim, cfg.Classes)
		correct += out.Correct
		total += len(batch)
	}
	if total > 0 {
		res.TestAccuracy = float64(correct) / float64(total)
	}
	return res, nil
}

// buildBatchRPC assembles a GraphSage batch the Euler way: every
// adjacency and feature access is its own GetVertex round trip, vertex by
// vertex, with repeated fetches for vertices shared between hops.
func buildBatchRPC(tr rpc.Transport, addr string, batch []int64, cfg TrainConfig, rng *rand.Rand, withLabels bool) (gnn.Batch, error) {
	recs := make(map[int64]*vertexRecord)
	fetch := func(id int64) (*vertexRecord, error) {
		// No cross-call caching beyond the current batch: Euler's client
		// fetches from the remote service per request.
		if r, ok := recs[id]; ok {
			return r, nil
		}
		r, err := getVertex(tr, addr, id)
		if err != nil {
			return nil, err
		}
		recs[id] = r
		return r, nil
	}

	samples1 := make([][]int64, len(batch))
	var s1 []int64
	s1Seen := map[int64]bool{}
	for i, v := range batch {
		rec, err := fetch(v)
		if err != nil {
			return gnn.Batch{}, err
		}
		samples1[i] = gnn.SampleK(nil, rec.Neighbors, cfg.FanOut1, rng)
		for _, u := range samples1[i] {
			if !s1Seen[u] {
				s1Seen[u] = true
				s1 = append(s1, u)
			}
		}
	}
	samples2 := make(map[int64][]int64, len(s1))
	for _, u := range s1 {
		rec, err := fetch(u)
		if err != nil {
			return gnn.Batch{}, err
		}
		samples2[u] = gnn.SampleK(nil, rec.Neighbors, cfg.FanOut2, rng)
	}

	rowOf := make(map[int64]int32)
	var order []int64
	touch := func(v int64) {
		if _, ok := rowOf[v]; !ok {
			rowOf[v] = int32(len(order))
			order = append(order, v)
		}
	}
	for _, v := range batch {
		touch(v)
	}
	for _, u := range s1 {
		touch(u)
		for _, w := range samples2[u] {
			touch(w)
		}
	}
	for i := range batch {
		for _, u := range samples1[i] {
			touch(u)
		}
	}

	var dim int
	x := []float64(nil)
	for _, v := range order {
		rec, err := fetch(v)
		if err != nil {
			return gnn.Batch{}, err
		}
		if dim == 0 {
			dim = len(rec.Features)
			x = make([]float64, 0, len(order)*dim)
		}
		if len(rec.Features) == dim {
			x = append(x, rec.Features...)
		} else {
			x = append(x, make([]float64, dim)...)
		}
	}

	h1RowOf := make(map[int64]int32)
	var l1Order []int64
	touchL1 := func(v int64) {
		if _, ok := h1RowOf[v]; !ok {
			h1RowOf[v] = int32(len(l1Order))
			l1Order = append(l1Order, v)
		}
	}
	for _, v := range batch {
		touchL1(v)
	}
	for _, u := range s1 {
		touchL1(u)
	}
	self1 := make([]int32, len(l1Order))
	nbrs1 := make([][]int32, len(l1Order))
	for i, v := range l1Order {
		self1[i] = rowOf[v]
		var ns []int64
		found := false
		for bi, bv := range batch {
			if bv == v {
				ns = samples1[bi]
				found = true
				break
			}
		}
		if !found {
			ns = samples2[v]
		}
		rows := make([]int32, len(ns))
		for j, u := range ns {
			rows[j] = rowOf[u]
		}
		nbrs1[i] = rows
	}
	self2 := make([]int32, len(batch))
	nbrs2 := make([][]int32, len(batch))
	for i, v := range batch {
		self2[i] = h1RowOf[v]
		rows := make([]int32, len(samples1[i]))
		for j, u := range samples1[i] {
			rows[j] = h1RowOf[u]
		}
		nbrs2[i] = rows
	}

	jb := gnn.Batch{
		X: x, NumNodes: len(order), Dim: dim,
		Self1: self1, Nbrs1: nbrs1,
		Self2: self2, Nbrs2: nbrs2,
		Aggregator: "mean",
	}
	if withLabels {
		labels := make([]int32, len(batch))
		for i, v := range batch {
			rec, err := fetch(v)
			if err != nil {
				return gnn.Batch{}, err
			}
			labels[i] = rec.Label
		}
		jb.Labels = labels
	}
	return jb, nil
}
