// Command perfbench is the end-to-end benchmark of the Dist-µ-RA engine:
// seeded, fixed-length, single-client closed-loop operation streams through
// the public API (Engine.LoadTSV, Engine.Query with a full Rows drain,
// Engine.AddTriple, Engine.DeleteTriple), every answer checked against the
// reference evaluator. See README.md for the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench --workload anchored --seed 1 --seconds 25 --trace 0
//
// It runs from the root of a checkout and writes only under .bench_build.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// stateDir holds what runs leave behind: one record per (program, workload,
// seed, seconds) with the determinism digest and the untraced qps, and the
// spans of traced runs. The program is identified by a hash of the
// benchmark binary, which embeds the engine: a rebuilt engine starts fresh
// records instead of being held to another build's counts.
const stateDir = ".bench_build/perfbench/runs"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what an untraced run stores for later runs of the same stream.
type record struct {
	Digest string  `json:"digest"`
	QPS    float64 `json:"qps"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all of them in turn")
	seed := fs.Int64("seed", 1, "stream seed")
	seconds := fs.Int("seconds", 25, "nominal length of the timed phase; sets the stream length")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if workloads[names[0]] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	code := 0
	for _, n := range names {
		if err := bench(workloads[n], *seed, *seconds, *trace == 1, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// errFailed marks a run that completed but answered wrongly or failed ops;
// its result line has already been printed.
var errFailed = errors.New("some operations failed or answered wrongly")

func bench(w *workload, seed int64, seconds int, traced bool, out io.Writer) error {
	fx, err := newFixture()
	if err != nil {
		return err
	}
	recPath := filepath.Join(stateDir, fmt.Sprintf("%s-%s-seed%d-sec%d.json", programID(), w.name, seed, seconds))
	prev, hasPrev := loadRecord(recPath)

	var base *runner
	if traced && !hasPrev {
		// No untraced run of this stream yet: make one for the overhead
		// baseline and the digest.
		if base, err = runStream(w, fx, seed, seconds, nil); err != nil {
			return err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := runStream(w, fx, seed, seconds, tr)
	if err != nil {
		return err
	}
	reads := len(r.readIdx())
	failed, attempted := r.failures()
	fmt.Fprintf(out, "workload %s seed %d: %d reads, %d write batches, %d failed\n",
		w.name, seed, reads, len(r.ops)-reads, failed)
	r.printCounts(out)
	fmt.Fprintf(out, "set-ups %v, reference check %v\n", r.setupTimes, r.checkTime)
	for _, i := range r.readIdx() {
		if o := r.reads[i]; o.err != nil || o.wrong {
			fmt.Fprintf(out, "FAIL op %d %q: rows=%d err=%v wrong=%t\n", i, r.ops[i].text, o.rows, o.err, o.wrong)
		}
	}
	for i, wo := range r.writes {
		if wo.err != nil {
			fmt.Fprintf(out, "FAIL op %d: %v\n", i, wo.err)
		}
	}

	// The determinism guard: every count of a stream must repeat exactly,
	// traced or not, across runs of one seed.
	digest := r.digest()
	fmt.Fprintf(out, "digest %s\n", digest)
	if base != nil {
		prev, hasPrev = record{Digest: base.digest(), QPS: base.qps()}, true
		if err := saveRecord(recPath, prev); err != nil {
			return err
		}
	}
	deterministic := !hasPrev || prev.Digest == digest
	if !deterministic {
		fmt.Fprintf(out, "FAIL digest %s differs from %s recorded by an earlier run of this stream\n", digest, prev.Digest)
	}

	var figs []metric
	if traced {
		figs = r.layers(prev.QPS)
		path, err := tr.write(stateDir, fmt.Sprintf("spans-%s-seed%d-sec%d.json", w.name, seed, seconds))
		if err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
		self := tr.selfTimes()
		for _, n := range sortedNames(self) {
			fmt.Fprintf(out, "self %-30s %10.1f ms\n", n, ms(self[n]))
		}
	} else {
		if figs, err = r.endToEnd(); err != nil {
			return err
		}
		if !hasPrev {
			if err := saveRecord(recPath, record{Digest: digest, QPS: r.qps()}); err != nil {
				return err
			}
		}
	}
	res := result{Correct: failed == 0 && deterministic, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, m := range figs {
		label := m.name
		if m.label != "" {
			label = m.label + " (" + m.name + ")"
		}
		if m.n > 0 {
			fmt.Fprintf(out, "metric %-36s %14.4f %-6s n=%d\n", label, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(out, "metric %-36s %14.4f %s\n", label, m.value, m.unit)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return errFailed
	}
	return nil
}

// runStream sets up an engine, runs the seeded stream through it and
// checks every answer against the reference.
func runStream(w *workload, fx *fixture, seed int64, seconds int, tr *tracer) (*runner, error) {
	r := &runner{w: w, fx: fx, ctx: context.Background(), tr: tr, ops: w.gen(fx, seed, seconds)}
	if err := r.setup(); err != nil {
		return nil, err
	}
	defer r.eng.Close()
	r.stream()
	start := time.Now()
	if err := r.w.check(r); err != nil {
		return nil, err
	}
	r.checkTime = time.Since(start)
	return r, nil
}

func (r *runner) qps() float64 { return float64(len(r.readIdx())) / r.wall.Seconds() }

// digest folds every count the stream produced, op by op, into one hash:
// the answer (rows and row hash), the network bytes, the plan-cache and
// sub-result outcomes and the iteration and shuffle counts of each read,
// the applied flags of each write, and the engine's cache counters.
func (r *runner) digest() string {
	h := fnv.New64a()
	for i, o := range r.ops {
		if o.kind == opWrite {
			fmt.Fprintf(h, "W|%v|%v\n", r.writes[i].applied, r.writes[i].err)
			continue
		}
		ob, s := r.reads[i], r.reads[i].stats
		fmt.Fprintf(h, "R|%s|%d|%x|%d|%t|%d|%d|%d|%d|%d|%d|%d|%d|%v\n", o.text, ob.rows, ob.hash,
			s.NetworkBytes, s.PlanCacheHit, s.SubResultHits, s.SubResultWaits, s.Refreshes,
			s.RefreshRows, s.Retractions, s.RederivedRows, s.Iterations, s.ShuffleRecords, ob.err)
	}
	fmt.Fprintf(h, "P|%+v|%+v\n", r.plan1, r.sub1)
	return fmt.Sprintf("%016x", h.Sum64())
}

// printCounts prints the stream's exact counts, which repeat for a seed.
func (r *runner) printCounts(out io.Writer) {
	var rows, net int64
	for _, i := range r.readIdx() {
		rows += int64(r.reads[i].rows)
		net += r.reads[i].stats.NetworkBytes
	}
	fmt.Fprintf(out, "counts rows=%d net_bytes=%d plan_hits=%d plan_misses=%d sub_hits=%d sub_misses=%d evictions=%d refreshes=%d retractions=%d rederived=%d\n",
		rows, net, r.plan1.Hits-r.plan0.Hits, r.plan1.Misses-r.plan0.Misses,
		r.sub1.Hits-r.sub0.Hits, r.sub1.Misses-r.sub0.Misses, r.sub1.Evictions-r.sub0.Evictions,
		r.sub1.Refreshes-r.sub0.Refreshes, r.sub1.Retractions-r.sub0.Retractions,
		r.sub1.RederivedRows-r.sub0.RederivedRows)
}

// programID is a short hash of the running executable.
func programID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

func loadRecord(path string) (record, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, false
	}
	var rec record
	if json.Unmarshal(data, &rec) != nil || rec.Digest == "" {
		return record{}, false
	}
	return rec, true
}

func saveRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
