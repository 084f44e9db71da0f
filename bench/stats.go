package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns the three cut points of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), because the
// acceptance procedure is defined by that function. One value is its own
// quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	ld := len(vs)
	if ld == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		j = min(max(j, 1), ld-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// summary is a metric as the table and the -out file report it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(vs []float64, unit string) summary {
	q1, q2, q3 := quartiles(vs)
	return summary{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(vs)}
}

// percentile returns the p-th percentile (nearest rank) of sorted vs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// hostInfo is recorded next to every number.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
