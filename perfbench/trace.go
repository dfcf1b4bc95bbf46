package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// engineMaxPlans is the plan-space cap Engine.Query applies when
// Options.MaxPlans is 0; the replay explores with the same cap.
const engineMaxPlans = 96

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// replayStats is what the traced replays of the optimizer measured.
type replayStats struct {
	replays   int
	parse     time.Duration
	translate time.Duration
	explore   time.Duration
	verify    time.Duration
	selectT   time.Duration
	plans     int
	capped    int
	// per distinct text: the replayed plan's fixpoint count and the time
	// core.Evaluator took to evaluate it.
	fixpoints map[string]int
	eval      map[string]time.Duration
}

// tracer keeps spans in memory for the whole run; the benchmark writes
// them out at exit. Every method is a no-op on a nil tracer, so untraced
// runs share the traced code path.
type tracer struct {
	t0    time.Time
	spans []span
	rp    replayStats
	// replayAlloc is the heap the replays allocated, which the timed
	// phase's allocation figure excludes.
	replayAlloc uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), rp: replayStats{
		fixpoints: map[string]int{}, eval: map[string]time.Duration{}}}
}

// start opens a span and returns its index; warm-up ops (op < 0) are not
// recorded.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil || op < 0 {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) stop(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	id := t.start(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	t.stop(id)
	return d
}

// afterRead replays the optimizer for read i when it missed the plan
// cache or its text is new to the run, and returns the time the replay
// took, which the timed phase excludes.
func (t *tracer) afterRead(r *runner, i int, text string, obs readObs) time.Duration {
	_, seen := t.rp.fixpoints[text]
	if seen && obs.stats.PlanCacheHit {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	if err := t.replay(r, i, text, !seen); err != nil {
		r.reads[i].err = err
	}
	d := time.Since(start)
	runtime.ReadMemStats(&ms)
	t.replayAlloc += ms.TotalAlloc - alloc0
	return d
}

// replay re-drives, from the benchmark's side, the module functions
// Engine.Query composes on a plan-cache miss: parse, translate both
// directions, explore the rewrite space, pick by cost, verify. The
// catalog carries no sub-result-cache pricing, so where the engine's
// cache holds fixpoints the replayed pick can differ from the engine's;
// with the cache disabled it must equal Engine.Explain's, and that is
// checked. A text's first replay also evaluates the pick under the
// centralized streaming core.Evaluator.
func (t *tracer) replay(r *runner, i int, text string, first bool) error {
	root := t.start("replay", -1, i)
	defer t.stop(root)
	g := r.eng.Graph()
	var (
		q        *ucrpq.UnionQuery
		ltr, rtl core.Term
		err      error
	)
	t.rp.parse += t.timed("ucrpq.ParseUnion", root, i, func() { q, err = ucrpq.ParseUnion(text) })
	if err != nil {
		return fmt.Errorf("replay parse %q: %w", text, err)
	}
	t.rp.translate += t.timed("ucrpq.TranslateUnion", root, i, func() {
		if ltr, err = ucrpq.TranslateUnion(q, "G", g.Dict, rpq.LeftToRight); err == nil {
			rtl, err = ucrpq.TranslateUnion(q, "G", g.Dict, rpq.RightToLeft)
		}
	})
	if err != nil {
		return fmt.Errorf("replay translate %q: %w", text, err)
	}
	senv := core.SchemaEnv{"G": g.Triples.Cols()}
	var plans []core.Term
	t.rp.explore += t.timed("rewrite.Rewriter.Explore", root, i, func() {
		rw := rewrite.NewRewriter(senv)
		rw.MaxPlans = engineMaxPlans
		plans = rw.Explore(ltr)
		capped := len(plans) >= engineMaxPlans
		seen := map[string]bool{}
		for _, p := range plans {
			seen[p.String()] = true
		}
		more := rw.Explore(rtl)
		capped = capped || len(more) >= engineMaxPlans
		for _, p := range more {
			if !seen[p.String()] {
				plans = append(plans, p)
				seen[p.String()] = true
			}
		}
		if capped {
			t.rp.capped++
		}
	})
	t.rp.plans += len(plans)
	var best core.Term
	t.rp.selectT += t.timed("cost.SelectBest", root, i, func() {
		cat := cost.NewCatalog()
		cat.BindRelation("G", g.Triples)
		best, _ = cost.SelectBest(plans, cat)
	})
	t.rp.verify += t.timed("rewrite.VerifyErr", root, i, func() { err = rewrite.VerifyErr(best, senv) })
	if err != nil {
		return fmt.Errorf("replay verify %q: %w", text, err)
	}
	t.rp.replays++
	if !first {
		return nil
	}
	if r.w.opts.DisableSubResultCache {
		ex, err := r.eng.Explain(r.ctx, text)
		if err != nil {
			return fmt.Errorf("explain %q: %w", text, err)
		}
		if ex.Best != best.String() {
			return fmt.Errorf("replayed plan for %q differs from Explain:\n  replay:  %s\n  explain: %s", text, best, ex.Best)
		}
	}
	fixpoints := 0
	core.Walk(best, func(n core.Term) bool {
		if _, ok := n.(*core.Fixpoint); ok {
			fixpoints++
		}
		return true
	})
	t.rp.fixpoints[text] = fixpoints
	env := core.NewEnv()
	env.Bind("G", g.Triples)
	ev := core.NewEvaluator(env)
	t.rp.eval[text] = t.timed("core.Evaluator.Eval", root, i, func() { _, err = ev.Eval(best) })
	ev.Close()
	if err != nil {
		return fmt.Errorf("replay eval %q: %w", text, err)
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover. The benchmark is single-threaded, so children never
// overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
