package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	distmura "repro"
)

// readObs is what the stream records about one read.
type readObs struct {
	latency time.Duration // Query call to the last Rows.Next
	query   time.Duration // the Query call alone
	drain   time.Duration // the Rows drain alone
	rows    int
	hash    uint64 // sum of rowHash over the answer
	stats   distmura.QueryStats
	err     error
	wrong   bool // set by the reference check
}

// writeObs records one write batch.
type writeObs struct {
	calls   int
	elapsed time.Duration
	applied []bool // DeleteTriple's result per edit; inserts record true
	err     error
}

// runner drives one workload's stream through one engine.
type runner struct {
	w   *workload
	fx  *fixture
	eng *distmura.Engine
	ctx context.Context
	tr  *tracer // nil on untraced runs

	ops    []op
	reads  []readObs // indexed like ops; zero for writes
	writes []writeObs

	setupTimes []time.Duration
	checkTime  time.Duration // the reference check, after the timed phase
	wall       time.Duration // timed phase, reads and writes
	rssMB      float64
	rssSamples int
	allocBytes uint64
	plan0      distmura.PlanCacheStats
	plan1      distmura.PlanCacheStats
	sub0       distmura.SubResultCacheStats
	sub1       distmura.SubResultCacheStats
}

// setup opens w.setups engines, each loading the graph and warming up,
// and keeps the last one. Each set-up is timed on its own.
func (r *runner) setup() error {
	for i := 0; i < r.w.setups; i++ {
		if r.eng != nil {
			r.eng.Close()
			r.eng = nil
		}
		runtime.GC()
		start := time.Now()
		eng, err := distmura.Open(r.w.opts)
		if err != nil {
			return fmt.Errorf("open engine: %w", err)
		}
		r.eng = eng
		if err := eng.LoadTSV(bytes.NewReader(r.fx.tsv)); err != nil {
			return fmt.Errorf("load graph: %w", err)
		}
		if err := r.w.warm(r); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		r.setupTimes = append(r.setupTimes, time.Since(start))
	}
	return nil
}

// read runs one query to its last row and records how. Op i < 0 marks a
// warm-up read, which the tracer does not record.
func (r *runner) read(text string, i int) (readObs, error) {
	var o readObs
	opSpan := r.tr.start("op", -1, i)
	defer r.tr.stop(opSpan)
	qSpan := r.tr.start("distmura.Engine.Query", opSpan, i)
	start := time.Now()
	rows, err := r.eng.Query(r.ctx, text)
	mid := time.Now()
	r.tr.stop(qSpan)
	if err != nil {
		return o, fmt.Errorf("query %q: %w", text, err)
	}
	dSpan := r.tr.start("distmura.Rows", opSpan, i)
	for rows.Next() {
		o.hash += rowHash(rows.Values())
		o.rows++
	}
	end := time.Now()
	r.tr.stop(dSpan)
	o.stats = rows.Stats()
	if err := rows.Close(); err != nil {
		return o, fmt.Errorf("rows %q: %w", text, err)
	}
	o.latency, o.query, o.drain = end.Sub(start), mid.Sub(start), end.Sub(mid)
	return o, nil
}

// stream runs the timed phase: every op in order, one at a time. On a
// traced run the optimizer replays after a read are not timed.
func (r *runner) stream() {
	r.reads = make([]readObs, len(r.ops))
	r.writes = make([]writeObs, len(r.ops))
	r.plan0, r.sub0 = r.eng.PlanCacheStats(), r.eng.SubResultCacheStats()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var excluded time.Duration // traced replays inside the timed phase
	start := time.Now()
	var win rssWindows
	win.start()
	for i, o := range r.ops {
		win.tick(i, len(r.ops))
		if o.kind == opWrite {
			r.writes[i] = r.write(i, o)
			continue
		}
		obs, err := r.read(o.text, i)
		obs.err = err
		r.reads[i] = obs
		if r.tr != nil && err == nil {
			excluded += r.tr.afterRead(r, i, o.text, obs)
		}
	}
	r.wall = time.Since(start) - excluded
	r.rssMB, r.rssSamples = win.finish()
	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - alloc0
	r.plan1, r.sub1 = r.eng.PlanCacheStats(), r.eng.SubResultCacheStats()
}

// write applies one batch through the public write calls.
func (r *runner) write(i int, o op) writeObs {
	var w writeObs
	opSpan := r.tr.start("op", -1, i)
	start := time.Now()
	for _, e := range o.edits {
		if e.del {
			s := r.tr.start("distmura.Engine.DeleteTriple", opSpan, i)
			ok := r.eng.DeleteTriple(e.s, e.p, e.o)
			r.tr.stop(s)
			w.applied = append(w.applied, ok)
			if !ok && w.err == nil {
				w.err = fmt.Errorf("DeleteTriple(%s %s %s) found no edge", e.s, e.p, e.o)
			}
		} else {
			s := r.tr.start("distmura.Engine.AddTriple", opSpan, i)
			r.eng.AddTriple(e.s, e.p, e.o)
			r.tr.stop(s)
			w.applied = append(w.applied, true)
		}
		w.calls++
	}
	w.elapsed = time.Since(start)
	r.tr.stop(opSpan)
	return w
}

// readIdx lists the indexes of the read ops.
func (r *runner) readIdx() []int {
	var out []int
	for i, o := range r.ops {
		if o.kind == opRead {
			out = append(out, i)
		}
	}
	return out
}

// failures counts the ops that errored or answered wrongly.
func (r *runner) failures() (failed, attempted int) {
	for i, o := range r.ops {
		attempted++
		if o.kind == opRead {
			if r.reads[i].err != nil || r.reads[i].wrong {
				failed++
			}
		} else if r.writes[i].err != nil {
			failed++
		}
	}
	return failed, attempted
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
