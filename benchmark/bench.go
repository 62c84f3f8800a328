package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// bench is the root BENCHMARK.json joined with what the file cannot express.
// The file is the only place that holds the workload list with its reasons,
// the gated end-to-end metrics with unit, direction and bound, and the
// per-layer metrics with unit and direction; the program adds each
// workload's implementation, the ungated end-to-end metrics and each
// per-layer metric's fold.
type bench struct {
	workloads []*workload  // in the file's order, why filled in
	gated     []metricSpec // the file's end_to_end: what --trace 0 prints
	endToEnd  []metricSpec // gated, then ungated: what the report and -compare cover
	layers    []layerMetric
}

// loadBench reads root/BENCHMARK.json and refuses a file and a program that
// disagree about which workloads and per-layer metrics exist.
func loadBench(root string) (*bench, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	b := &bench{gated: file.EndToEnd}
	listed := map[string]bool{}
	for _, m := range file.EndToEnd {
		listed[m.Name] = true
	}
	for _, name := range everyWorkload {
		if !listed[name] {
			return nil, fmt.Errorf("%s does not list end-to-end metric %q, which every workload reports", path, name)
		}
	}
	if len(listed) != len(everyWorkload) {
		return nil, fmt.Errorf("%s lists %d end-to-end metrics; only these %d exist on every workload: %v", path, len(listed), len(everyWorkload), everyWorkload)
	}
	b.endToEnd = append(append(b.endToEnd, file.EndToEnd...), ungated...)
	for _, fw := range file.Workloads {
		w, ok := implemented[fw.Name]
		if !ok {
			return nil, fmt.Errorf("%s lists workload %q, which this program does not implement", path, fw.Name)
		}
		w.name, w.why = fw.Name, fw.Why
		b.workloads = append(b.workloads, &w)
	}
	if len(b.workloads) != len(implemented) {
		return nil, fmt.Errorf("%s lists %d workloads, this program implements %d", path, len(b.workloads), len(implemented))
	}
	folds := map[string]layerFold{}
	for _, f := range layerFolds {
		folds[f.Name] = f
	}
	for _, m := range file.PerLayer {
		f, ok := folds[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s lists per-layer metric %q, which the traced run does not measure", path, m.Name)
		}
		b.layers = append(b.layers, layerMetric{m, f.Agg, f.Moves})
	}
	if len(b.layers) != len(layerFolds) {
		return nil, fmt.Errorf("%s lists %d per-layer metrics, the traced run measures %d", path, len(b.layers), len(layerFolds))
	}
	return b, nil
}

func (b *bench) workload(name string) (*workload, bool) {
	for _, w := range b.workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// unit is the unit an end-to-end metric is reported in.
func (b *bench) unit(name string) string {
	for _, m := range b.endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark: end-to-end metric " + name + " is neither in BENCHMARK.json nor in ungated")
}
