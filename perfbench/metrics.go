package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it.
const minTail = 10

// metric is one reported figure and the number of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	label string // printed name when it differs from name
}

// tailPercentile is the tail each workload reports as latency_tail_ms:
// p90 where a run holds ~100 reads, p99 where it holds ≥1000.
var tailPercentile = map[string]float64{"analytic": 90, "anchored": 99, "live": 99}

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// when fewer than minTail samples lie beyond it: such a figure is one or
// two outliers, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd computes the metrics a user of the engine sees.
func (r *runner) endToEnd() ([]metric, error) {
	idx := r.readIdx()
	var lat []float64
	var net int64
	for _, i := range idx {
		lat = append(lat, ms(r.reads[i].latency))
		net += r.reads[i].stats.NetworkBytes
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, fmt.Errorf("latency_p50_ms: %w", err)
	}
	tp := tailPercentile[r.w.name]
	tail, err := percentile(lat, tp)
	if err != nil {
		return nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	failed, attempted := r.failures()
	return []metric{
		{name: "setup_s", unit: "s", value: median(r.setupTimes).Seconds(), n: len(r.setupTimes)},
		{name: "qps", unit: "1/s", value: float64(len(idx)) / r.wall.Seconds(), n: len(idx)},
		{name: "latency_p50_ms", unit: "ms", value: p50, n: len(lat)},
		{name: "latency_tail_ms", unit: "ms", value: tail, n: len(lat), label: fmt.Sprintf("latency_p%g_ms", tp)},
		{name: "net_bytes_per_query", unit: "bytes", value: float64(net) / float64(len(idx)), n: len(idx)},
		{name: "peak_rss_mb", unit: "MB", value: r.rssMB, n: r.rssSamples},
		{name: "success_rate", unit: "1", value: 1 - float64(failed)/float64(attempted), n: attempted},
	}, nil
}

// layers computes the per-layer metrics of a traced run. baseQPS is the
// untraced qps of the same stream, for the tracing overhead.
func (r *runner) layers(baseQPS float64) []metric {
	idx := r.readIdx()
	n := float64(len(idx))
	var plan, exec, render, refresh time.Duration
	var refreshed, iters, shuffles, rows, net, fixpoints float64
	var coreEval time.Duration
	for _, i := range idx {
		o := r.reads[i]
		plan += o.query - time.Duration(o.stats.Seconds*float64(time.Second))
		exec += time.Duration(o.stats.Seconds * float64(time.Second))
		render += o.drain
		if o.stats.Refreshes > 0 {
			refresh += time.Duration(o.stats.Seconds * float64(time.Second))
			refreshed++
		}
		iters += float64(o.stats.Iterations)
		shuffles += float64(o.stats.ShuffleRecords)
		rows += float64(o.rows)
		net += float64(o.stats.NetworkBytes)
		fixpoints += float64(r.tr.rp.fixpoints[r.ops[i].text])
		coreEval += r.tr.rp.eval[r.ops[i].text]
	}
	var writeCalls float64
	var writeTime time.Duration
	for _, w := range r.writes {
		writeCalls += float64(w.calls)
		writeTime += w.elapsed
	}
	rp := r.tr.rp
	reps := float64(rp.replays)
	pc := float64(r.plan1.Hits - r.plan0.Hits)
	pm := float64(r.plan1.Misses - r.plan0.Misses)
	sh := float64(r.sub1.Hits - r.sub0.Hits)
	sm := float64(r.sub1.Misses - r.sub0.Misses)
	retr := float64(r.sub1.Retractions - r.sub0.Retractions)
	qps := n / r.wall.Seconds()
	return []metric{
		{name: "distmura.plan_ms", unit: "ms", value: ms(plan) / n},
		{name: "distmura.exec_ms", unit: "ms", value: ms(exec) / n},
		{name: "distmura.render_ms", unit: "ms", value: ms(render) / n},
		{name: "distmura.alloc_mb_per_query", unit: "MB", value: float64(r.allocBytes-r.tr.replayAlloc) / (1 << 20) / n},
		{name: "distmura.plancache.hit_ratio", unit: "1", value: ratio(pc, pc+pm)},
		{name: "distmura.subresult.hit_ratio", unit: "1", value: ratio(sh, sh+sm)},
		{name: "distmura.subresult.evictions", unit: "count", value: float64(r.sub1.Evictions - r.sub0.Evictions)},
		{name: "distmura.subresult.bytes", unit: "bytes", value: float64(r.sub1.Bytes)},
		{name: "distmura.subresult.refreshes", unit: "count", value: float64(r.sub1.Refreshes - r.sub0.Refreshes)},
		{name: "distmura.subresult.refresh_ms", unit: "ms", value: ratio(ms(refresh), refreshed)},
		{name: "distmura.subresult.refresh_rows", unit: "count", value: float64(r.sub1.RefreshRows - r.sub0.RefreshRows)},
		{name: "distmura.subresult.retractions", unit: "count", value: retr},
		{name: "distmura.subresult.rederived_ratio", unit: "1", value: ratio(float64(r.sub1.RederivedRows-r.sub0.RederivedRows), retr)},
		{name: "ucrpq.parse_ms", unit: "ms", value: ratio(ms(rp.parse), reps)},
		{name: "ucrpq.translate_ms", unit: "ms", value: ratio(ms(rp.translate), reps)},
		{name: "rewrite.explore_ms", unit: "ms", value: ratio(ms(rp.explore), reps)},
		{name: "rewrite.plans_per_query", unit: "count", value: ratio(float64(rp.plans), reps)},
		{name: "rewrite.capped_ratio", unit: "1", value: ratio(float64(rp.capped), reps)},
		{name: "rewrite.verify_ms", unit: "ms", value: ratio(ms(rp.verify), reps)},
		{name: "cost.select_ms", unit: "ms", value: ratio(ms(rp.selectT), reps)},
		{name: "physical.iterations_per_query", unit: "count", value: iters / n},
		{name: "physical.fixpoints_per_query", unit: "count", value: fixpoints / n},
		{name: "core.eval_ms", unit: "ms", value: ms(coreEval) / n},
		{name: "core.result_rows_per_query", unit: "count", value: rows / n},
		{name: "cluster.overhead_ms", unit: "ms", value: (ms(exec) - ms(coreEval)) / n},
		{name: "cluster.shuffle_records_per_query", unit: "count", value: shuffles / n},
		{name: "cluster.bytes_per_result_row", unit: "bytes", value: ratio(net, rows)},
		{name: "graphgen.write_us", unit: "us", value: ratio(float64(writeTime)/float64(time.Microsecond), writeCalls)},
		{name: "trace.overhead_ratio", unit: "1", value: ratio(baseQPS, qps) - 1},
	}
}

// rssWindows measures the peak resident set of the timed phase as the
// median, over rssSlices equal slices of the stream, of each slice's
// VmHWM, resetting the high-water mark at every slice start. One rare
// garbage-collector overshoot lifts one slice, not the figure.
type rssWindows struct {
	peaks []float64
	reset bool // the kernel lets the process reset its high-water mark
}

const rssSlices = 10

func (w *rssWindows) start() {
	w.reset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// tick closes a slice when op i starts the next one.
func (w *rssWindows) tick(i, n int) {
	if i > 0 && i*rssSlices/n != (i-1)*rssSlices/n && w.reset {
		w.peaks = append(w.peaks, peakRSSMB())
		os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
}

// finish returns the median slice peak and the slice count, or the whole
// run's VmHWM where the mark cannot be reset.
func (w *rssWindows) finish() (float64, int) {
	w.peaks = append(w.peaks, peakRSSMB())
	if !w.reset {
		return w.peaks[len(w.peaks)-1], 1
	}
	sort.Float64s(w.peaks)
	return w.peaks[len(w.peaks)/2], len(w.peaks)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
