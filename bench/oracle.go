package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// oracle answers the workload's queries in-process over the same generated
// corpus, two ways: through the library's indexed search (cheap, applied to
// every retained response) and by exhaustive scan (expensive, applied to as
// many as the time box allows).
type oracle struct {
	db *core.Database
	// initialOnly restricts comparison to the initial corpus: the write
	// stream never touches it, so its members' answers do not depend on
	// which writes had landed when the query ran.
	initialOnly bool
}

// newOracle indexes corpus in memory.
func newOracle(corpus []*core.Sequence, initialOnly bool) (*oracle, error) {
	db, err := core.NewDatabase(core.Options{Dim: corpus[0].Dim()})
	if err != nil {
		return nil, err
	}
	if _, err := db.AddAll(corpus); err != nil {
		db.Close()
		return nil, err
	}
	return &oracle{db: db, initialOnly: initialOnly}, nil
}

func (o *oracle) close() { o.db.Close() }

// answer is a response reduced to what the oracle compares: labels with,
// where the endpoint reports one, the exact distance.
type answer struct {
	labels []string
	dists  []float64
}

func parseAnswer(kind reqKind, body []byte, initialOnly bool) (answer, error) {
	var a answer
	switch kind {
	case kindSearch, kindSearchDTW:
		var resp server.SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return a, err
		}
		for _, m := range resp.Matches {
			if initialOnly && strings.HasPrefix(m.Label, writeLabelPrefix) {
				continue
			}
			a.labels = append(a.labels, m.Label)
			a.dists = append(a.dists, m.Dist)
		}
	case kindKNN, kindKNNDTW:
		var resp struct {
			Neighbors []server.NeighborJSON `json:"neighbors"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return a, err
		}
		for _, n := range resp.Neighbors {
			a.labels = append(a.labels, n.Label)
			a.dists = append(a.dists, n.Dist)
		}
	default:
		return a, fmt.Errorf("no oracle for %v", kind)
	}
	return a, nil
}

func sortedCopy(s []string) []string {
	c := slices.Clone(s)
	sort.Strings(c)
	return c
}

// sameSet reports whether two label lists hold the same labels.
func sameSet(a, b []string) bool { return slices.Equal(sortedCopy(a), sortedCopy(b)) }

// sameRanking compares two kNN answers: distances must agree exactly and in
// order; labels must agree wherever the distance is not tied.
func sameRanking(gotL []string, gotD []float64, wantL []string, wantD []float64) bool {
	if !slices.Equal(gotD, wantD) || len(gotL) != len(wantL) {
		return false
	}
	for i := 0; i < len(gotD); {
		j := i + 1
		for j < len(gotD) && gotD[j] == gotD[i] {
			j++
		}
		if !sameSet(gotL[i:j], wantL[i:j]) && j < len(gotD) {
			return false // a tie at the k-th place may legitimately cut differently
		}
		i = j
	}
	return true
}

func metricLabels(ms []core.MetricMatch) ([]string, []float64) {
	labels := make([]string, len(ms))
	dists := make([]float64, len(ms))
	for i, m := range ms {
		labels[i], dists[i] = m.Seq.Label, m.Dist
	}
	return labels, dists
}

func knnLabels(rs []core.KNNResult) ([]string, []float64) {
	labels := make([]string, len(rs))
	dists := make([]float64, len(rs))
	for i, r := range rs {
		labels[i], dists[i] = r.Seq.Label, r.Dist
	}
	return labels, dists
}

// checkLibrary compares a response with the library's own indexed search.
func (o *oracle) checkLibrary(r *request, body []byte) error {
	got, err := parseAnswer(r.kind, body, o.initialOnly)
	if err != nil {
		return err
	}
	switch r.kind {
	case kindSearch:
		ms, _, err := o.db.Search(r.q, r.eps)
		if err != nil {
			return err
		}
		want := make([]string, len(ms))
		for i, m := range ms {
			want[i] = m.Seq.Label
		}
		if !sameSet(got.labels, want) {
			return fmt.Errorf("/search ε=%g: %d labels, library Search has %d", r.eps, len(got.labels), len(want))
		}
	case kindSearchDTW:
		ms, _, err := o.db.SearchMetric(r.q, r.eps, r.metric())
		if err != nil {
			return err
		}
		want, _ := metricLabels(ms)
		if !sameSet(got.labels, want) {
			return fmt.Errorf("/search dtw ε=%g: %d labels, library SearchMetric has %d", r.eps, len(got.labels), len(want))
		}
	case kindKNN, kindKNNDTW:
		var rs []core.KNNResult
		if r.kind == kindKNN {
			rs, err = o.db.SearchKNN(r.q, r.k)
		} else {
			rs, err = o.db.SearchKNNMetric(r.q, r.k, r.metric())
		}
		if err != nil {
			return err
		}
		wantL, wantD := knnLabels(rs)
		if !sameRanking(got.labels, got.dists, wantL, wantD) {
			return fmt.Errorf("/knn %v k=%d: ranking differs from the library's", r.kind, r.k)
		}
	}
	return nil
}

// checkScan compares a response with an exhaustive scan.
func (o *oracle) checkScan(r *request, body []byte) error {
	got, err := parseAnswer(r.kind, body, o.initialOnly)
	if err != nil {
		return err
	}
	switch r.kind {
	case kindSearch:
		// Lemma 1: the filter may keep extra sequences, never lose one.
		scan, err := o.db.SequentialSearch(r.q, r.eps)
		if err != nil {
			return err
		}
		have := make(map[string]bool, len(got.labels))
		for _, l := range got.labels {
			have[l] = true
		}
		for _, s := range scan {
			if !have[s.Seq.Label] {
				return fmt.Errorf("/search ε=%g: false dismissal of %s (D=%g)", r.eps, s.Seq.Label, s.Dist)
			}
		}
	case kindSearchDTW:
		scan, err := o.db.SequentialSearchMetric(r.q, r.eps, r.metric())
		if err != nil {
			return err
		}
		want, _ := metricLabels(scan)
		if !sameSet(got.labels, want) {
			return fmt.Errorf("/search dtw ε=%g: %d labels, scan has %d", r.eps, len(got.labels), len(want))
		}
	case kindKNN, kindKNNDTW:
		scan, err := o.db.SequentialSearchMetric(r.q, math.MaxFloat64, r.metric())
		if err != nil {
			return err
		}
		sort.SliceStable(scan, func(i, j int) bool { return scan[i].Dist < scan[j].Dist })
		scan = scan[:min(r.k, len(scan))]
		wantL, wantD := metricLabels(scan)
		if !sameRanking(got.labels, got.dists, wantL, wantD) {
			return fmt.Errorf("/knn %v k=%d: ranking differs from the scan's", r.kind, r.k)
		}
	}
	return nil
}

// verdict is the outcome of checking a run's retained responses.
type verdict struct {
	library, scanned, wrong int
	firstErr                error
}

// verify checks every sample against the library and then as many as fit
// in scanBudget against the exhaustive scan, on all cores: it runs after
// the load phases, when nothing else is being measured.
func (o *oracle) verify(stream []request, samples []sample, scanBudget time.Duration) verdict {
	var (
		mu sync.Mutex
		v  verdict
		wg sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		v.wrong++
		if v.firstErr == nil {
			v.firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(samples); i += clients {
				s := samples[i]
				r := &stream[s.idx]
				if err := o.checkLibrary(r, s.body); err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				v.library++
				mu.Unlock()
			}
			// Scan from the far end, so that a sample's place in the stream
			// does not decide whether it is scanned; at least one each.
			deadline := time.Now().Add(scanBudget)
			for i := len(samples) - 1 - w; i >= 0 && (i >= len(samples)-clients || time.Now().Before(deadline)); i -= clients {
				s := samples[i]
				if err := o.checkScan(&stream[s.idx], s.body); err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				v.scanned++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return v
}
