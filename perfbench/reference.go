package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// answer identifies a result set: its row count and the sum of rowHash
// over its rows, which does not depend on row order.
type answer struct {
	rows int
	hash uint64
}

// refEval is the reference semantics every answer is checked against: the
// materializing core.Evaluator on the query's naive left-to-right µ-RA
// translation, with no rewriting, no cost model and no cluster.
func refEval(g *graphgen.Graph, text string) (*core.Relation, error) {
	term, err := refTerm(g, text)
	if err != nil {
		return nil, err
	}
	return refEvalTerm(g.Triples, term, text)
}

// refTerm is text's left-to-right translation over g's dictionary.
func refTerm(g *graphgen.Graph, text string) (core.Term, error) {
	q, err := ucrpq.ParseUnion(text)
	if err != nil {
		return nil, fmt.Errorf("reference parse %q: %w", text, err)
	}
	term, err := ucrpq.TranslateUnion(q, "G", g.Dict, rpq.LeftToRight)
	if err != nil {
		return nil, fmt.Errorf("reference translate %q: %w", text, err)
	}
	return term, nil
}

// refEvalTerm evaluates term over the triple relation triples.
func refEvalTerm(triples *core.Relation, term core.Term, text string) (*core.Relation, error) {
	env := core.NewEnv()
	env.Bind("G", triples)
	ev := core.NewEvaluator(env)
	defer ev.Close()
	ev.Materializing = true
	rel, err := ev.Eval(term)
	if err != nil {
		return nil, fmt.Errorf("reference eval %q: %w", text, err)
	}
	return rel, nil
}

func answerOf(rel *core.Relation) answer {
	a := answer{rows: rel.Len()}
	for i := 0; i < rel.Len(); i++ {
		a.hash += rowHash(rel.RowAt(i))
	}
	return a
}

// observed is the answer a read returned.
func (o readObs) observed() answer { return answer{rows: o.rows, hash: o.hash} }

// refWorkers bounds the reference evaluations that run at once. They run
// after the timed phase, so they may use both CPUs of the box the
// benchmark was sized on.
const refWorkers = 2

// parallel runs f(0) … f(n-1) on refWorkers goroutines and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// checkStatic evaluates the reference once per distinct text on the
// engine's graph, which no op of the stream mutates.
func (r *runner) checkStatic() error {
	var texts []string
	index := map[string]int{}
	for _, i := range r.readIdx() {
		if _, ok := index[r.ops[i].text]; !ok {
			index[r.ops[i].text] = len(texts)
			texts = append(texts, r.ops[i].text)
		}
	}
	want := make([]answer, len(texts))
	err := parallel(len(texts), func(k int) error {
		rel, err := refEval(r.eng.Graph(), texts[k])
		if err == nil {
			want[k] = answerOf(rel)
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, i := range r.readIdx() {
		r.mark(i, want[index[r.ops[i].text]])
	}
	return nil
}

// checkAnchored evaluates each template's unanchored form once and
// answers every anchor from it: a direct anchored reference would
// recompute the whole closure per anchor.
func (r *runner) checkAnchored() error {
	g := r.eng.Graph()
	perTmpl := make([]map[core.Value]answer, len(anchoredTemplates))
	err := parallel(len(anchoredTemplates), func(t int) error {
		var err error
		perTmpl[t], err = anchorAnswers(g, anchoredTemplates[t].unanchored())
		return err
	})
	if err != nil {
		return err
	}
	for _, i := range r.readIdx() {
		o := r.ops[i]
		a, ok := g.Dict.Lookup(o.anchor)
		if !ok {
			return fmt.Errorf("anchor %q is not in the graph", o.anchor)
		}
		r.mark(i, perTmpl[o.tmpl][a])
	}
	return nil
}

// anchorAnswers evaluates an unanchored "?a,?x <- …" text and groups its
// ?x column by the ?a column: the answer of each anchored read.
func anchorAnswers(g *graphgen.Graph, text string) (map[core.Value]answer, error) {
	rel, err := refEval(g, text)
	if err != nil {
		return nil, err
	}
	ai, xi := -1, -1
	for c, name := range rel.Cols() {
		switch strings.TrimPrefix(name, "?") {
		case "a":
			ai = c
		case "x":
			xi = c
		}
	}
	if ai < 0 || xi < 0 {
		return nil, fmt.Errorf("reference %q has columns %v, want a and x", text, rel.Cols())
	}
	out := map[core.Value]answer{}
	for i := 0; i < rel.Len(); i++ {
		row := rel.RowAt(i)
		a := out[row[ai]]
		a.rows++
		a.hash += rowHash(row[xi : xi+1])
		out[row[ai]] = a
	}
	return out, nil
}

// checkLive replays the stream's writes on a replica graph, built the way
// the engine builds its own, and evaluates each read's reference on a copy
// of the replica's triples at that read's graph version, refWorkers copies
// at a time. Answers are memoized per text and generations of the
// predicates the text reads, so a write to an unrelated predicate does not
// force a new evaluation.
func (r *runner) checkLive() error {
	g := graphgen.NewGraph("reference")
	if err := g.ReadTSVInto(bytes.NewReader(r.fx.tsv)); err != nil {
		return fmt.Errorf("reference graph: %w", err)
	}
	type job struct {
		key, text string
		term      core.Term
		triples   *core.Relation
	}
	var (
		mu      sync.Mutex
		answers = map[string]answer{}
		errs    []error
		wg      sync.WaitGroup
	)
	jobs := make(chan job)
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rel, err := refEvalTerm(j.triples, j.term, j.text)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					answers[j.key] = answerOf(rel)
				}
				mu.Unlock()
			}
		}()
	}
	type ref struct {
		term  core.Term
		preds []core.Value // nil: reads every predicate
	}
	refs := map[string]ref{}
	keys := make([]string, len(r.ops))
	queued := map[string]bool{}
	var err error
	for i, o := range r.ops {
		if o.kind == opWrite {
			for _, e := range o.edits {
				if e.del {
					g.Delete(e.s, e.p, e.o)
				} else {
					g.Add(e.s, e.p, e.o)
				}
			}
			continue
		}
		rf, ok := refs[o.text]
		if !ok {
			if rf.term, err = refTerm(g, o.text); err != nil {
				break
			}
			rf.preds, _ = rewrite.PredFootprint(rf.term, "G")
			refs[o.text] = rf
		}
		keys[i] = fmt.Sprint(o.text, g.PredGens(rf.preds))
		if rf.preds == nil {
			keys[i] = fmt.Sprint(o.text, g.Generation())
		}
		if !queued[keys[i]] {
			queued[keys[i]] = true
			jobs <- job{key: keys[i], text: o.text, term: rf.term, triples: g.Triples.Clone()}
		}
	}
	close(jobs)
	wg.Wait()
	if err = errors.Join(append(errs, err)...); err != nil {
		return err
	}
	for i, k := range keys {
		if k != "" {
			r.mark(i, answers[k])
		}
	}
	return nil
}

// mark flags read i wrong when it succeeded with another answer than want.
func (r *runner) mark(i int, want answer) {
	if r.reads[i].err == nil && r.reads[i].observed() != want {
		r.reads[i].wrong = true
	}
}
