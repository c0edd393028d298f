// Command perfbench is the Browsix reproduction's benchmark. It runs one
// seeded workload against the public API, checks every output against
// an oracle computed on the host, and prints its metrics: end-to-end
// metrics on an untraced run (--trace 0), per-layer metrics, a Chrome
// trace and the tracing overhead on a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload shell --seed 1 --seconds 10 --trace 0
//
// The human-readable table goes to stderr; the last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and the definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloads maps a workload name to the function that runs it. It
// panics on a state it cannot measure past (a deadlocked simulation);
// the run then exits without a result.
var workloads = map[string]func(*bench){
	"shell":      runShell,
	"latex":      runLatex,
	"meme-swarm": runSwarm,
	"fleet":      runFleet,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: shell, latex, meme-swarm or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time per run, in host seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	b.tr.do("run", "", 0, 0, nil, func() { run(b) })
	res := result{Correct: !b.drift && b.attempted > 0, Attempted: b.attempted, Failed: b.failed}
	if b.tr == nil {
		res.Metrics = b.endToEnd()
	} else {
		res.Metrics = b.perLayer()
		path := b.tracePath(".json")
		if err := b.tr.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		b.notes = append(b.notes, fmt.Sprintf("trace: %d spans written to %s", len(b.tr.spans), path))
	}
	b.report(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report prints the run to stderr: outcome, every metric with its unit,
// failures and notes.
func (b *bench) report(res result) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s seed %d: attempted %d failed %d fail_frac %.6f correct %v\n",
		b.workload, b.seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "  failure: %s\n", p)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// endToEnd computes the metrics a user of the system sees.
func (b *bench) endToEnd() map[string]metric {
	hostTail := tailPct(b.tailAt)
	if b.virtMs != nil {
		b.virtN, b.virtTailPct = len(b.virtMs), tailPct(len(b.virtMs))
		b.virtP50, b.virtTail = median(b.virtMs), pctl(b.virtMs, b.virtTailPct)
	}
	b.notes = append(b.notes,
		fmt.Sprintf("op_host_ms.tail is p%g over n=%d host samples (chosen for n>=%d)", hostTail, len(b.hostMs), b.tailAt),
		fmt.Sprintf("virt_op_ms.tail is p%g over n=%d virtual samples", b.virtTailPct, b.virtN),
		fmt.Sprintf("setup_s samples %.4f", b.setupS),
		fmt.Sprintf("window: %.4f ops per wall second (CPU/wall %.2f)",
			ratio(float64(b.ops), b.wallSecs), ratio(b.cpuSecs, b.wallSecs)))
	return map[string]metric{
		"setup_s":         {median(b.setupS), "s"},
		"ops_per_s":       {ratio(float64(b.ops), b.cpuSecs), "1/s"},
		"op_host_ms.p50":  {median(b.hostMs), "ms"},
		"op_host_ms.tail": {pctl(b.hostMs, hostTail), "ms"},
		"alloc_mb_per_op": {ratio(float64(b.allocBytes)/(1<<20), float64(b.ops)), "MB"},
		"virt_op_ms.p50":  {b.virtP50, "ms"},
		"virt_op_ms.tail": {b.virtTail, "ms"},
		"cold_virt_ms":    {b.coldVirtMs, "ms"},
		"virt_slo_rps":    {b.sloRps, "1/s"},
		"virt_peak_rps":   {b.peakRps, "1/s"},
	}
}
