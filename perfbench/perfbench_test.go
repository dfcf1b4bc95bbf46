package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	distmura "repro"
)

func testFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	fx := testFixture(t)
	for _, name := range workloadNames {
		w := workloads[name]
		a, b, c := w.gen(fx, 1, 1), w.gen(fx, 1, 1), w.gen(fx, 2, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
}

func TestStreamSizes(t *testing.T) {
	fx := testFixture(t)
	floors := map[string]int{"analytic": analyticMinRead, "anchored": anchoredMinRead, "live": liveMinRead}
	for _, name := range workloadNames {
		reads, writes := 0, 0
		for _, o := range workloads[name].gen(fx, 7, 1) {
			if o.kind == opRead {
				reads++
			} else {
				writes++
			}
		}
		if reads < floors[name] {
			t.Errorf("%s: %d reads, want at least %d", name, reads, floors[name])
		}
		if (name == "live") != (writes > 0) {
			t.Errorf("%s: %d write batches", name, writes)
		}
	}
	if n := len(genAnalytic(1, 1)); n%len(analyticIDs) != 0 {
		t.Errorf("analytic stream of %d is not whole passes of %d queries", n, len(analyticIDs))
	}
}

// TestLiveWritesHitTheGraph replays a live stream's edits on the
// generator's source edges: every delete must find its edge and every
// insert must be new, or DeleteTriple would report a failed op.
func TestLiveWritesHitTheGraph(t *testing.T) {
	fx := testFixture(t)
	present := map[edit]bool{}
	for p, es := range fx.live {
		for _, e := range es {
			present[edit{s: e[0], p: p, o: e[1]}] = true
		}
	}
	dels := 0
	for _, o := range genLive(fx, 3, 1) {
		for _, e := range o.edits {
			k := edit{s: e.s, p: e.p, o: e.o}
			if e.del {
				if !present[k] {
					t.Fatalf("delete of absent edge %v", e)
				}
				dels++
			} else if present[k] {
				t.Fatalf("insert of present edge %v", e)
			}
			present[k] = !e.del
		}
	}
	if dels == 0 {
		t.Fatal("live stream deletes nothing")
	}
}

func TestPercentileGuard(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{19, 50, 0}, {20, 50, 10}, {99, 90, 0}, {100, 90, 90}, {999, 99, 0}, {1000, 99, 990},
	} {
		got, err := percentile(xs(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d: got %g, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

// tinyTSV is a graph small enough to evaluate anything on.
const tinyTSV = "a\tknows\tb\nb\tknows\tc\nc\tknows\ta\nc\tknows\td\nd\tlikes\te\n"

func tinyRunner(t *testing.T, name string, ops []op) *runner {
	t.Helper()
	fx := &fixture{tsv: []byte(tinyTSV)}
	eng, err := distmura.Open(distmura.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.LoadTSV(bytes.NewReader(fx.tsv)); err != nil {
		t.Fatal(err)
	}
	r := &runner{w: workloads[name], fx: fx, eng: eng, ctx: context.Background(), ops: ops}
	r.stream()
	for i, o := range r.reads {
		if ops[i].kind == opRead && o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
	}
	return r
}

func wrongOps(r *runner) []int {
	var out []int
	for i, o := range r.reads {
		if o.wrong {
			out = append(out, i)
		}
	}
	return out
}

func TestReferenceRejectsCorruptedAnswer(t *testing.T) {
	read := func(text string) op { return op{kind: opRead, text: text, tmpl: -1} }
	ops := []op{read("?x,?y <- ?x knows+ ?y"), read("?x <- a knows+ ?x"), read("?x,?y <- ?x knows+ ?y")}
	r := tinyRunner(t, "analytic", ops)
	if err := r.w.check(r); err != nil {
		t.Fatal(err)
	}
	if w := wrongOps(r); len(w) != 0 {
		t.Fatalf("correct answers flagged wrong: %v", w)
	}
	if r.reads[0].rows != 12 {
		t.Fatalf("closure has %d rows, want 12", r.reads[0].rows)
	}
	r.reads[2].hash++ // same row count, one row changed
	r.reads[1].rows--
	if err := r.w.check(r); err != nil {
		t.Fatal(err)
	}
	if w := wrongOps(r); !reflect.DeepEqual(w, []int{1, 2}) {
		t.Fatalf("wrong = %v, want [1 2]", w)
	}
}

func TestAnchorAnswersMatchDirectReference(t *testing.T) {
	r := tinyRunner(t, "analytic", nil)
	g := r.eng.Graph()
	tm := template{body: "$A knows+ ?x"}
	byAnchor, err := anchorAnswers(g, tm.unanchored())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"a", "c", "d"} {
		rel, err := refEval(g, tm.anchored(a))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := g.Dict.Lookup(a)
		if got, want := byAnchor[v], answerOf(rel); got != want {
			t.Errorf("anchor %s: grouped %+v, direct %+v", a, got, want)
		}
	}
}

func TestLiveReferenceFollowsWrites(t *testing.T) {
	read := op{kind: opRead, text: "?x,?y <- ?x knows+ ?y", tmpl: -1}
	ops := []op{
		read,
		{kind: opWrite, tmpl: -1, edits: []edit{{del: true, s: "c", p: "knows", o: "a"}, {s: "d", p: "knows", o: "e"}}},
		read,
		{kind: opWrite, tmpl: -1, edits: []edit{{s: "c", p: "knows", o: "a"}}},
		read,
	}
	r := tinyRunner(t, "live", ops)
	if err := r.w.check(r); err != nil {
		t.Fatal(err)
	}
	if w := wrongOps(r); len(w) != 0 {
		t.Fatalf("correct answers flagged wrong: %v", w)
	}
	if r.reads[0].observed() == r.reads[2].observed() {
		t.Fatal("writes did not change the answer")
	}
	r.reads[4] = r.reads[2] // a stale answer after the re-insert
	if err := r.w.check(r); err != nil {
		t.Fatal(err)
	}
	if w := wrongOps(r); !reflect.DeepEqual(w, []int{4}) {
		t.Fatalf("wrong = %v, want [4]", w)
	}
}

func TestDigestCoversCounts(t *testing.T) {
	ops := []op{{kind: opRead, text: "?x,?y <- ?x knows+ ?y", tmpl: -1}}
	r := tinyRunner(t, "analytic", ops)
	d := r.digest()
	if d != r.digest() {
		t.Fatal("digest is not a function of the run")
	}
	r.reads[0].stats.NetworkBytes++
	if d == r.digest() {
		t.Fatal("digest ignores network bytes")
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}

	r := &runner{w: workloads["anchored"], tr: newTracer(), wall: time.Second,
		setupTimes: []time.Duration{time.Second}}
	for i := 0; i < anchoredMinRead; i++ {
		r.ops = append(r.ops, op{kind: opRead, text: "q"})
		r.reads = append(r.reads, readObs{latency: time.Duration(i) * time.Millisecond})
		r.writes = append(r.writes, writeObs{})
	}
	e2e, err := r.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		var wn, gn []string
		for _, m := range want {
			wn = append(wn, m.Name+" "+m.Unit)
		}
		for _, m := range got {
			gn = append(gn, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(wn, gn) {
			t.Errorf("%s metrics:\n BENCHMARK.json %s\n run reports    %s", kind, strings.Join(wn, ", "), strings.Join(gn, ", "))
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, r.layers(1))
}
