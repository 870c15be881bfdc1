// Command perfbench is the engine's end-to-end and per-layer benchmark.
// It runs one named workload against the public entry points, checks
// the workload's outputs against what the seed generated, and prints
// one JSON result as its last line of output. See README.md.
//
//	perfbench --workload ingest-durable --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/ideadb/idea/internal/cluster"
)

var workloads = map[string]func(*run) error{
	"ingest-durable": (*run).ingestDurable,
	"enrich-refresh": (*run).enrichRefresh,
	"serve-mixed":    (*run).serveMixed,
}

// outDir holds the benchmark's working data, results and spans,
// relative to the working directory (the checkout root).
const outDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "", "workload: ingest-durable, enrich-refresh or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	body, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := mainErr(*name, body, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, body func(*run) error, seed int64, seconds int, traced bool) error {
	workDir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	r := &run{workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		workDir: workDir, ctx: context.Background()}
	if traced {
		r.tracer = NewTracer(true)
	}
	if err := body(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rss := peakRSSMB()
	r.add(Metric{Name: "peak_rss_mb", Value: rss, Unit: "MB", N: 1, Base: "process peak", Valid: true})
	if traced {
		if err := r.replayLayers(); err != nil {
			return fmt.Errorf("%s: layer replay: %w", name, err)
		}
		r.addLayer(Ratio("bench.fail_ratio", "ratio", float64(r.failed), float64(r.attempted), "attempted operations"))
	} else {
		for _, m := range r.e2e {
			if !m.Valid {
				r.problem(1, "%s cannot be reported (%s)", m.Name, m.Base)
			}
		}
	}
	return r.print(traced)
}

// print writes the context block, the metric table with every base,
// the per-layer self times of a traced run, the result file, and the
// one-line JSON result last.
func (r *run) print(traced bool) error {
	root, _ := os.Getwd()
	lines, hash := codeStats(root, filepath.Join(root, "perfbench"))
	tuning := cluster.DefaultTuning()
	commit := gitCommit(root)
	if commit == "" {
		commit = "none (not a git checkout)"
	}
	ctxBlock := map[string]any{
		"workload":         r.workload,
		"seed":             r.seed,
		"seconds":          r.seconds.Seconds(),
		"trace":            traced,
		"commit":           commit,
		"source_sha256_16": hash,
		"go_version":       runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"nodes":            nodes,
		"tuning": fmt.Sprintf("DefaultTuning: dispatch %v/node, invoke %v/node, holder %d frames, frame %d records, memtable %d B",
			tuning.DispatchOverheadPerNode, tuning.InvokeOverheadPerNode, tuning.HolderCapacity, tuning.FrameCapacity, tuning.Storage.MemBudget),
		"go_lines_non_test": lines,
	}
	ctxJSON, _ := json.Marshal(ctxBlock)
	fmt.Printf("context %s\n", ctxJSON)

	reported := r.e2e
	if traced {
		reported = r.layer
		fmt.Println("end-to-end numbers of a traced run (not reported; take them from untraced runs):")
		printTable(r.e2e)
		fmt.Println("per-layer metrics:")
	}
	printTable(reported)
	if traced {
		spans := r.tracer.Spans()
		self := SelfTime(spans)
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Printf("self time per layer over %d spans:\n", len(spans))
		for _, l := range layers {
			fmt.Printf("  %-8s %12.3f ms\n", l, float64(self[l].Nanoseconds())/1e6)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
		if err := r.tracer.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, p := range r.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}

	metrics := make(map[string]map[string]any, len(reported))
	for _, m := range reported {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	result := map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	}
	full, _ := json.MarshalIndent(map[string]any{"context": ctxBlock, "result": result, "e2e": r.e2e, "layer": r.layer, "problems": r.problems}, "", "  ")
	resPath := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%v.json", r.workload, r.seed, traced))
	if err := os.WriteFile(resPath, full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(ms []Metric) {
	for _, m := range ms {
		flag := ""
		if !m.Valid {
			flag = "  (not reportable)"
		}
		fmt.Printf("  %-34s %14.4f %-7s base: %s%s\n", m.Name, m.Value, m.Unit, strings.TrimSpace(m.Base), flag)
	}
}
