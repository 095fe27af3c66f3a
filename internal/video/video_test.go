package video

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestFrameAccessors(t *testing.T) {
	f := NewFrame(4, 3)
	if f.W != 4 || f.H != 3 || len(f.Pix) != 12 {
		t.Fatalf("NewFrame shape wrong: %+v", f)
	}
	c := RGB{0.1, 0.2, 0.3}
	f.Set(2, 1, c)
	if f.At(2, 1) != c {
		t.Errorf("At/Set round trip failed")
	}
}

func TestMeanColorRGB(t *testing.T) {
	f := NewFrame(2, 1)
	f.Set(0, 0, RGB{0, 0.5, 1})
	f.Set(1, 0, RGB{1, 0.5, 0})
	got := MeanColorRGB(f)
	want := geom.Point{0.5, 0.5, 0.5}
	if !got.Equal(want) {
		t.Errorf("MeanColorRGB = %v, want %v", got, want)
	}
}

func TestRGBToYCbCr(t *testing.T) {
	// Pure white: Y=1, neutral chroma.
	y, cb, cr := RGBToYCbCr(RGB{1, 1, 1})
	if !almostEqual(y, 1) || !almostEqual(cb, 0.5) || !almostEqual(cr, 0.5) {
		t.Errorf("white -> (%g,%g,%g), want (1,0.5,0.5)", y, cb, cr)
	}
	// Pure black: Y=0, neutral chroma.
	y, cb, cr = RGBToYCbCr(RGB{0, 0, 0})
	if !almostEqual(y, 0) || !almostEqual(cb, 0.5) || !almostEqual(cr, 0.5) {
		t.Errorf("black -> (%g,%g,%g), want (0,0.5,0.5)", y, cb, cr)
	}
	// Pure red: Cr at maximum.
	_, _, cr = RGBToYCbCr(RGB{1, 0, 0})
	if !almostEqual(cr, 1) {
		t.Errorf("red Cr = %g, want 1", cr)
	}
	// Pure blue: Cb at maximum.
	_, cb, _ = RGBToYCbCr(RGB{0, 0, 1})
	if !almostEqual(cb, 1) {
		t.Errorf("blue Cb = %g, want 1", cb)
	}
}

func TestMeanColorYCbCrInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewFrame(8, 8)
	for i := range f.Pix {
		f.Pix[i] = RGB{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	p := MeanColorYCbCr(f)
	if !p.InUnitCube() {
		t.Errorf("YCbCr mean %v escapes unit cube", p)
	}
}

func TestGenerateStreamShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st, err := GenerateStream(rng, 200, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Frames) != 200 {
		t.Fatalf("frames = %d", len(st.Frames))
	}
	if len(st.ShotStarts) < 200/48 {
		t.Errorf("only %d shots in 200 frames", len(st.ShotStarts))
	}
	if st.ShotStarts[0] != 0 {
		t.Errorf("first shot starts at %d, want 0", st.ShotStarts[0])
	}
	for i := 1; i < len(st.ShotStarts); i++ {
		gap := st.ShotStarts[i] - st.ShotStarts[i-1]
		if gap < 12 || gap > 48 {
			t.Errorf("shot %d length %d outside [12,48]", i-1, gap)
		}
	}
}

func TestGenerateStreamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := GenerateStream(rng, 0, StreamConfig{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GenerateStream(rng, 10, StreamConfig{MinShotLen: 10, MaxShotLen: 5}); err == nil {
		t.Error("inverted shot range accepted")
	}
	if _, err := GenerateStream(rng, 10, StreamConfig{Jitter: -1}); err == nil {
		t.Error("negative jitter accepted")
	}
}

// TestShotStructureVisibleInFeatures is the load-bearing property of the
// substitution: within a shot, consecutive feature points are much closer
// than across a cut.
func TestShotStructureVisibleInFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st, err := GenerateStream(rng, 400, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seq := ExtractSequence(st, MeanColorRGB)
	isCut := make(map[int]bool)
	for _, s := range st.ShotStarts {
		if s > 0 {
			isCut[s] = true
		}
	}
	var within, across float64
	var nWithin, nAcross int
	for i := 1; i < seq.Len(); i++ {
		d := seq.Points[i].Dist(seq.Points[i-1])
		if isCut[i] {
			across += d
			nAcross++
		} else {
			within += d
			nWithin++
		}
	}
	if nAcross == 0 || nWithin == 0 {
		t.Fatal("degenerate stream: no cuts or no within-shot steps")
	}
	within /= float64(nWithin)
	across /= float64(nAcross)
	if across < 5*within {
		t.Errorf("cut step %g not clearly larger than within-shot step %g", across, within)
	}
}

func TestExtractSequenceInUnitCube(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st, _ := GenerateStream(rng, 100, StreamConfig{})
	for _, ext := range []Extractor{MeanColorRGB, MeanColorYCbCr} {
		seq := ExtractSequence(st, ext)
		if seq.Len() != 100 {
			t.Fatalf("extracted %d points", seq.Len())
		}
		if !seq.InUnitCube() {
			t.Error("features escape unit cube")
		}
		if err := seq.Validate(); err != nil {
			t.Errorf("invalid sequence: %v", err)
		}
	}
}

func TestGenerateFeatureSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, err := GenerateFeatureSequence(rng, 150, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 150 || s.Dim() != 3 {
		t.Errorf("shape = (%d, %d)", s.Len(), s.Dim())
	}
}

func TestGenerateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set, err := GenerateSet(rng, 20, 56, 512, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 20 {
		t.Fatalf("set size = %d", len(set))
	}
	for _, s := range set {
		if s.Len() < 56 || s.Len() > 512 {
			t.Errorf("length %d outside range", s.Len())
		}
	}
	if _, err := GenerateSet(rng, 5, 0, 10, StreamConfig{}); err == nil {
		t.Error("minLen=0 accepted")
	}
}

// TestVideoPartitionsTighterThanNoise confirms the clustering that drives
// the paper's Figures 7 and 9: shot-structured sequences partition into
// fewer MBRs per point than unstructured noise.
func TestVideoPartitionsTighterThanNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := core.DefaultPartitionConfig()
	vid, err := GenerateFeatureSequence(rng, 300, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	noisePts := make([]geom.Point, 300)
	for i := range noisePts {
		noisePts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	gv, _ := core.NewSegmented(vid, cfg)
	gn, _ := core.NewSegmented(&core.Sequence{Points: noisePts}, cfg)
	if len(gv.MBRs) >= len(gn.MBRs) {
		t.Errorf("video MBRs %d >= noise MBRs %d; expected tighter clustering", len(gv.MBRs), len(gn.MBRs))
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 || clamp01(0.25) != 0.25 {
		t.Error("clamp01 broken")
	}
}

// TestHighDimVideoPipeline indexes 6-dimensional video features end to
// end — each frame's mean color in RGB and in YCbCr — and searches them
// with the same machinery as the paper's 3-dimensional ones.
func TestHighDimVideoPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ext := func(f *Frame) geom.Point { return append(MeanColorRGB(f), MeanColorYCbCr(f)...) }
	db, err := core.NewDatabase(core.Options{Dim: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var seqs []*core.Sequence
	for i := 0; i < 12; i++ {
		st, err := GenerateStream(rng, 80+rng.Intn(60), StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s := ExtractSequence(st, ext)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	q := &core.Sequence{Points: seqs[4].Points[10:40]}
	matches, _, err := db.Search(q, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SeqID == 4 {
			found = true
		}
	}
	if !found {
		t.Error("6-dim pipeline missed the source sequence")
	}
	// No false dismissal against the exact scan.
	exact, err := db.SequentialSearch(q, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]bool)
	for _, m := range matches {
		got[m.SeqID] = true
	}
	for _, r := range exact {
		if !got[r.SeqID] {
			t.Errorf("dismissed %d", r.SeqID)
		}
	}
}

// TestKeyFrameSearchMissesWhatMBRSearchFinds demonstrates the paper's
// motivating claim (Section 1): "the search by a key frame does not
// guarantee the correctness since it cannot always summarize all the
// frames of a shot." We build a shot whose frames drift across the feature
// space; a query matching the shot's tail is far from the key (middle)
// frame but still within threshold of the actual frames — key-frame search
// dismisses it, MBR search does not.
func TestKeyFrameSearchMissesWhatMBRSearchFinds(t *testing.T) {
	// One long "shot": features drifting linearly from 0.2 to 0.8.
	n := 60
	pts := make([]geom.Point, n)
	for i := range pts {
		v := 0.2 + 0.6*float64(i)/float64(n-1)
		pts[i] = geom.Point{v, v, v}
	}
	seq := &core.Sequence{Points: pts}

	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add(seq); err != nil {
		t.Fatal(err)
	}

	// Query: the tail of the drift.
	q := &core.Sequence{Points: pts[50:]}
	const eps = 0.05

	// Key-frame search: compare the query's mean point against the shot's
	// key frame, its middle one, only.
	key := pts[n/2]
	qMean := make(geom.Point, 3)
	for _, p := range q.Points {
		for k := range qMean {
			qMean[k] += p[k] / float64(len(q.Points))
		}
	}
	if key.Dist(qMean) <= eps {
		t.Fatalf("example construction broken: key frame distance %g <= eps", key.Dist(qMean))
	}

	// MBR search finds the real match.
	matches, _, err := db.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("MBR search found %d matches, want 1", len(matches))
	}
}
