package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// workloadSpec freezes one traffic mix. Why each exists is told once,
// in BENCHMARK.json.
type workloadSpec struct {
	name   string
	mapped bool  // serve the saved corpus with -mmap
	open   bool  // open loop at fixed rates instead of a closed loop
	warm   bool  // the whole query pool is in the server's cache before measurement
	kind   uint8 // request kind p50_ms is taken from
	// closed loop
	clients int
	// open loop, requests per second: writes over writeLanes connections, reads over one
	writeRate, readRate float64
}

var workloads = []workloadSpec{
	{name: "search_cold", kind: kSearch, clients: 2},
	{name: "search_hot", kind: kSearch, clients: 2, warm: true},
	{name: "query_mixed", kind: kQuery, clients: 2},
	{name: "ingest_serve", kind: kSearchable, mapped: true, open: true, writeRate: 60, readRate: 30},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one reported number.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// contract is BENCHMARK.json at the repository root: the one list of
// workloads, metric names, units and bounds. The result line is
// rendered from it, so a name exists in one place.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"` // what a user of the service sees; untraced run, gated
	PerLayer []metricSpec `json:"per_layer"`  // the ledger of the traced run, layer = module name
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the generator has %d", path, len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the generator's is %q", path, i, w.Name, workloads[i].name)
		}
	}
	return &c, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill renders values under the names of specs. A listed name without
// a value reports 0 (a layer the workload's traffic never reaches); a
// value under a name the contract does not list is a bug here.
func fill(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}
