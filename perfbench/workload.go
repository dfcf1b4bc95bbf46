package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	distmura "repro"
	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/graphgen"
)

// The graph is the same for every seed of every workload: Yago at scale
// 1000 (≈6.5k edges) from a fixed generator seed. The seed varies only the
// operation stream, so seeds differ in what is asked, never in the data.
const (
	yagoScale = 1000
	graphSeed = 1
)

// Stream sizes. A stream is a fixed number of operations, never a time
// budget, so one seed always does the same work. The count scales with
// --seconds through each workload's nominal rate on a 2-CPU container and
// never drops below the floor its tail percentile needs: ten samples beyond
// p90 on analytic, ten beyond p99 on anchored and live.
const (
	analyticRate    = 3.4 // queries/s
	analyticMinRead = 100
	anchoredRate    = 33 // reads/s
	anchoredMinRead = 1000
	liveRate        = 150 // reads/s
	liveMinRead     = 1000
	liveBlockReads  = 4 // reads per write batch
	zipfS           = 1.1
)

// anchoredCacheBytes sits below the anchored stream's sub-result working
// set (≈0.9 MB over 1000 reads), so the cache evicts.
const anchoredCacheBytes = 256 << 10

// analyticIDs are the unanchored closure and closure-join queries of the
// paper's Fig. 7 that the analytic workload cycles through.
var analyticIDs = []string{"Q2", "Q8", "Q9", "Q13", "Q14", "Q15", "Q20"}

// template is one anchored query shape. body is a triple pattern whose "$A"
// is the anchor and whose other endpoint is ?x.
type template struct {
	body string
	pool string // "person" or "place": the anchor's entity kind
}

// anchoredTemplates are C2 (anchor on the right) and C3 (anchor on the
// left) shapes, some with a closure join (C6).
var anchoredTemplates = []template{
	{"$A (actedIn/-actedIn)+ ?x", "person"},
	{"?x (wasBornIn/IsL/-wasBornIn)+ $A", "person"},
	{"$A (haa|influences)+/(isMarriedTo|hasChild)+ ?x", "person"},
	{"$A hasChild+ ?x", "person"},
	{"?x isMarriedTo/livesIn/IsL+ $A", "place"},
	{"$A (livesIn/IsL/-livesIn)+ ?x", "person"},
	{"$A (hWP/-hWP)+ ?x", "person"},
}

func (t template) anchored(anchor string) string {
	return "?x <- " + strings.Replace(t.body, "$A", anchor, 1)
}

// unanchored is the template with the anchor turned into the variable ?a:
// one reference evaluation of it answers every anchor of the template.
func (t template) unanchored() string {
	return "?a,?x <- " + strings.Replace(t.body, "$A", "?a", 1)
}

// livePreds are the predicates live writes touch; each standing query reads
// one or two of them.
var livePreds = []string{"hasChild", "isMarriedTo", "isConnectedTo"}

// opKind distinguishes reads from write batches.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

// edit is one AddTriple (del=false) or DeleteTriple (del=true) call.
type edit struct {
	del     bool
	s, p, o string
}

// op is one operation of a stream.
type op struct {
	kind   opKind
	text   string // read: query text
	tmpl   int    // anchored read: template index, else -1
	anchor string // anchored read: anchor entity
	edits  []edit // write batch
}

// fixture is the generated graph, loaded into every engine of a run.
type fixture struct {
	tsv      []byte
	people   int
	places   int
	airports int
	// live holds, per live predicate, the graph's original edges in TSV
	// order: the write generator deletes from and inserts beside them.
	live map[string][][2]string
	// present holds every entity the graph's triples name: only these can
	// anchor a query.
	present map[string]bool
	// root is the hasChild source with the most children, the anchor of
	// the live workload's anchored standing query.
	root string
}

func newFixture() (*fixture, error) {
	g := graphgen.Yago(yagoScale, graphSeed)
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		return nil, fmt.Errorf("write graph: %w", err)
	}
	fx := &fixture{tsv: buf.Bytes(), people: yagoScale, places: yagoScale / 3,
		airports: yagoScale / 12, live: map[string][][2]string{}, present: map[string]bool{}}
	children := map[string]int{}
	cols := g.Triples.Cols()
	si, pi, ti := core.ColIndex(cols, core.ColSrc), core.ColIndex(cols, core.ColPred), core.ColIndex(cols, core.ColTrg)
	for i := 0; i < g.Triples.Len(); i++ {
		row := g.Triples.RowAt(i)
		s, p, o := g.Dict.String(row[si]), g.Dict.String(row[pi]), g.Dict.String(row[ti])
		fx.present[s], fx.present[o] = true, true
		for _, lp := range livePreds {
			if p == lp {
				fx.live[p] = append(fx.live[p], [2]string{s, o})
			}
		}
		if p == "hasChild" {
			children[s]++
			if fx.root == "" || children[s] > children[fx.root] ||
				(children[s] == children[fx.root] && s < fx.root) {
				fx.root = s
			}
		}
	}
	return fx, nil
}

// analyticQueries returns the analytic query texts in Fig. 7 order.
func analyticQueries() []string {
	var out []string
	for _, id := range analyticIDs {
		for _, q := range benchkit.YagoQueries {
			if q.ID == id {
				out = append(out, q.Text)
			}
		}
	}
	return out
}

// liveQueries returns the live workload's standing queries. All but the
// last are maintained in place by sub-result refresh. The last nests one
// closure in another, which refresh cannot maintain: a write to its
// predicates evicts it and the next read recomputes it on the cluster, the
// one source of the workload's network bytes.
func (fx *fixture) liveQueries() []string {
	return []string{
		"?x,?y <- ?x hasChild+ ?y",
		"?x,?y <- ?x isMarriedTo+ ?y",
		"?x,?y <- ?x isConnectedTo+ ?y",
		"?x <- " + fx.root + " hasChild+ ?x",
		"?x,?y <- ?x isMarriedTo/hasChild+ ?y",
		"?x,?y <- ?x (isMarriedTo/hasChild+)+ ?y",
	}
}

func readCount(seconds int, rate float64, floor int) int {
	n := int(float64(seconds) * rate)
	if n < floor {
		n = floor
	}
	return n
}

// genAnalytic is whole seeded-shuffled passes over the analytic queries,
// at least analyticMinRead queries in all.
func genAnalytic(seed int64, seconds int) []op {
	qs := analyticQueries()
	n := readCount(seconds, analyticRate, analyticMinRead)
	passes := (n + len(qs) - 1) / len(qs)
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(qs)) {
			ops = append(ops, op{kind: opRead, text: qs[i], tmpl: -1})
		}
	}
	return ops
}

// popularity is a fixed ranking of the graph's entities of one kind
// (prefix0 … prefix<n-1> that some triple names): rank 0 is the hottest
// anchor. It does not depend on the stream seed.
func (fx *fixture) popularity(prefix string, n int) []string {
	rng := rand.New(rand.NewSource(graphSeed))
	var out []string
	for _, j := range rng.Perm(n) {
		if name := fmt.Sprintf("%s%d", prefix, j); fx.present[name] {
			out = append(out, name)
		}
	}
	return out
}

// anchorPools ranks the anchors of each template pool.
func (fx *fixture) anchorPools() map[string][]string {
	return map[string][]string{
		"person": fx.popularity("person", fx.people),
		"place":  fx.popularity("place", fx.places),
	}
}

// genAnchored gives every template the same number of reads. Each
// template's anchors are a stratified Zipf(zipfS) sample over its entity
// pool's popularity ranks: read k of n takes the rank at the middle of the
// k-th of n equal slices of the distribution. The seed orders the templates
// and, within each, the anchors. Seeds thus ask the same multiset of
// queries in different orders, as analytic's shuffled passes do, and
// differ in how the plan and sub-result caches see them.
func genAnchored(fx *fixture, seed int64, seconds int) []op {
	n := readCount(seconds, anchoredRate, anchoredMinRead)
	rng := rand.New(rand.NewSource(seed))
	pools := fx.anchorPools()
	tmpls := make([]int, n)
	for i := range tmpls {
		tmpls[i] = i % len(anchoredTemplates)
	}
	rng.Shuffle(n, func(i, j int) { tmpls[i], tmpls[j] = tmpls[j], tmpls[i] })
	anchors := make([][]string, len(anchoredTemplates))
	for ti, t := range anchoredTemplates {
		count := n / len(anchoredTemplates)
		if ti < n%len(anchoredTemplates) {
			count++
		}
		cdf := zipfCDF(len(pools[t.pool]))
		for k := 0; k < count; k++ {
			u := (float64(k) + 0.5) / float64(count)
			anchors[ti] = append(anchors[ti], pools[t.pool][sort.SearchFloat64s(cdf, u)])
		}
		rng.Shuffle(count, func(i, j int) { anchors[ti][i], anchors[ti][j] = anchors[ti][j], anchors[ti][i] })
	}
	ops := make([]op, 0, n)
	for _, ti := range tmpls {
		a := anchors[ti][0]
		anchors[ti] = anchors[ti][1:]
		ops = append(ops, op{kind: opRead, text: anchoredTemplates[ti].anchored(a), tmpl: ti, anchor: a})
	}
	return ops
}

// zipfCDF is the cumulative distribution of Zipf(zipfS) over ranks
// 0…n-1, P(k) ∝ (k+1)^-zipfS.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// genLive is blocks of four reads and one write batch at a seeded position
// in the block. Reads cycle through the standing queries and batches through
// the live predicates, each cycle in seeded order, so every seed asks each
// query and writes each predicate equally often. A batch on predicate p
// deletes a random original edge of p and the edge p's previous batch
// inserted, inserts a new random edge, and restores the original edge p's
// previous batch deleted. Maintenance thus both over-deletes and
// rederives, while the graph stays within two edges per predicate of the
// original, so a read costs the same early and late in the stream.
func genLive(fx *fixture, seed int64, seconds int) []op {
	n := readCount(seconds, liveRate, liveMinRead)
	rng := rand.New(rand.NewSource(seed))
	qs := fx.liveQueries()
	// pending is, per predicate, the original edge out of the graph and the
	// random edge in it since the predicate's last batch.
	type pending struct{ deleted, inserted *[2]string }
	state := map[string]*pending{}
	present := map[string]map[[2]string]bool{}
	for _, p := range livePreds {
		state[p] = &pending{}
		present[p] = map[[2]string]bool{}
		for _, e := range fx.live[p] {
			present[p][e] = true
		}
	}
	domain := map[string]func() string{
		"hasChild":      func() string { return fmt.Sprintf("person%d", rng.Intn(fx.people)) },
		"isMarriedTo":   func() string { return fmt.Sprintf("person%d", rng.Intn(fx.people)) },
		"isConnectedTo": func() string { return fmt.Sprintf("airport%d", rng.Intn(fx.airports)) },
	}
	batch := func(p string) op {
		st, orig := state[p], fx.live[p]
		var edits []edit
		del := orig[rng.Intn(len(orig))]
		for st.deleted != nil && del == *st.deleted {
			del = orig[rng.Intn(len(orig))]
		}
		edits = append(edits, edit{del: true, s: del[0], p: p, o: del[1]})
		if st.inserted != nil {
			edits = append(edits, edit{del: true, s: st.inserted[0], p: p, o: st.inserted[1]})
			present[p][*st.inserted] = false
		}
		ins := [2]string{domain[p](), domain[p]()}
		for ins[0] == ins[1] || present[p][ins] || (st.deleted != nil && ins == *st.deleted) {
			ins = [2]string{domain[p](), domain[p]()}
		}
		edits = append(edits, edit{s: ins[0], p: p, o: ins[1]})
		present[p][ins] = true
		if st.deleted != nil {
			edits = append(edits, edit{s: st.deleted[0], p: p, o: st.deleted[1]})
			present[p][*st.deleted] = true
		}
		present[p][del] = false
		st.deleted, st.inserted = &del, &ins
		return op{kind: opWrite, tmpl: -1, edits: edits}
	}
	var readCycle, predCycle []int
	next := func(cycle *[]int, size int) int {
		if len(*cycle) == 0 {
			*cycle = rng.Perm(size)
		}
		x := (*cycle)[0]
		*cycle = (*cycle)[1:]
		return x
	}
	var ops []op
	for reads := 0; reads < n; {
		at := rng.Intn(liveBlockReads + 1) // the batch's slot in the block
		for slot := 0; slot <= liveBlockReads; slot++ {
			if slot == at {
				ops = append(ops, batch(livePreds[next(&predCycle, len(livePreds))]))
			} else if reads < n {
				ops = append(ops, op{kind: opRead, text: qs[next(&readCycle, len(qs))], tmpl: -1})
				reads++
			}
		}
	}
	return ops
}

// workload is one benchmark workload: engine options, stream generator
// and the warm-up that fills caches before timing.
type workload struct {
	name   string
	opts   distmura.Options
	setups int // set-ups per run; setup_s is their median
	gen    func(fx *fixture, seed int64, seconds int) []op
	// warm runs after LoadTSV on every set-up.
	warm func(r *runner) error
	// check compares every successful read with its reference answer after
	// the timed phase, marking mismatches wrong.
	check func(r *runner) error
}

var workloads = map[string]*workload{
	"analytic": {
		name: "analytic",
		// The paper's §V setting: every query evaluated from scratch.
		opts:   distmura.Options{DisableSubResultCache: true},
		setups: 3,
		gen:    func(_ *fixture, seed int64, seconds int) []op { return genAnalytic(seed, seconds) },
		warm:   warmAnalytic,
		check:  (*runner).checkStatic,
	},
	"anchored": {
		name:   "anchored",
		opts:   distmura.Options{SubResultCacheBytes: anchoredCacheBytes},
		setups: 3,
		gen:    genAnchored,
		warm:   warmAnchored,
		check:  (*runner).checkAnchored,
	},
	"live": {
		name:   "live",
		setups: 7,
		gen:    genLive,
		warm:   warmLive,
		check:  (*runner).checkLive,
	},
}

// workloadNames lists the workloads in the order the doc presents them.
var workloadNames = []string{"analytic", "anchored", "live"}

// warmAnalytic prepares every analytic query (filling the plan cache) and
// runs one pass, so the cold first pass is set-up, not measurement.
func warmAnalytic(r *runner) error {
	for _, q := range analyticQueries() {
		st, err := r.eng.Prepare(q)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", q, err)
		}
		st.Close()
	}
	for _, q := range analyticQueries() {
		if _, err := r.read(q, -1); err != nil {
			return err
		}
	}
	return nil
}

// warmAnchored asks every template at its three hottest anchors.
func warmAnchored(r *runner) error {
	pools := r.fx.anchorPools()
	for _, t := range anchoredTemplates {
		for _, a := range pools[t.pool][:3] {
			if _, err := r.read(t.anchored(a), -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// warmLive computes every standing query once, filling the plan and
// sub-result caches the stream then maintains.
func warmLive(r *runner) error {
	for _, q := range r.fx.liveQueries() {
		if _, err := r.read(q, -1); err != nil {
			return err
		}
	}
	return nil
}

// rowHash mixes one row into 64 bits; results are sets, so summing row
// hashes gives an order-independent digest of a whole answer.
func rowHash(row []core.Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}
