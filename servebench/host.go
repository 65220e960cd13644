package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// hostInfo is the host record kept with every result, so a change in ISA
// use or core count can be told apart from a change in the program.
type hostInfo struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	CPUModel   string   `json:"cpu_model"`
	ISA        []string `json:"isa"` // which of sse2, avx2, avx512bw /proc/cpuinfo lists
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		ISA:        []string{},
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h // not Linux: the record keeps the Go-side fields
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var flags string
	for sc.Scan() && (h.CPUModel == "" || flags == "") {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			h.CPUModel = strings.TrimSpace(val)
		case "flags":
			flags = val
		}
	}
	have := map[string]bool{}
	for _, f := range strings.Fields(flags) {
		have[f] = true
	}
	for _, isa := range []string{"sse2", "avx2", "avx512bw"} {
		if have[isa] {
			h.ISA = append(h.ISA, isa)
		}
	}
	return h
}
