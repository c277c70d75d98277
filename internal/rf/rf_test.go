package rf

import (
	"math"
	"testing"

	"iupdater/internal/geom"
)

func testGrid() geom.Grid {
	// Office-like: 12 m links, 8 strips across 9 m, 12 cells per strip.
	return geom.NewGrid(12, 9, 8, 12)
}

func testChannel(seed uint64) *Channel {
	return NewChannel(testGrid(), DefaultParams(), seed)
}

func TestKnifeEdgeLossRegimes(t *testing.T) {
	tests := []struct {
		name     string
		v        float64
		min, max float64
	}{
		{"cleared", -2, 0, 0},
		{"boundary", -0.78, 0, 0.3},
		{"grazing", 0, 5.5, 6.5},
		{"blocked v=1", 1, 12, 15},
		{"deep shadow v=2.4", 2.4, 19, 23},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := KnifeEdgeLossDB(tt.v)
			if got < tt.min || got > tt.max {
				t.Errorf("J(%v) = %v, want in [%v, %v]", tt.v, got, tt.min, tt.max)
			}
		})
	}
}

func TestKnifeEdgeLossMonotone(t *testing.T) {
	prev := -1.0
	for v := -0.7; v < 5; v += 0.1 {
		j := KnifeEdgeLossDB(v)
		if j < prev-1e-9 {
			t.Fatalf("J not monotone at v=%v: %v < %v", v, j, prev)
		}
		prev = j
	}
}

func TestChannelDeterministic(t *testing.T) {
	a := testChannel(42)
	b := testChannel(42)
	for i := 0; i < a.NumLinks(); i++ {
		for _, j := range []int{NoTarget, 0, 50, 95} {
			for _, ts := range []float64{0, 100, 86400} {
				if a.Sample(i, j, ts) != b.Sample(i, j, ts) {
					t.Fatalf("samples differ for link %d cell %d t %v", i, j, ts)
				}
			}
		}
	}
}

func TestChannelSeedsDiffer(t *testing.T) {
	a := testChannel(1)
	b := testChannel(2)
	same := 0
	for i := 0; i < a.NumLinks(); i++ {
		if a.CleanRSS(i, NoTarget) == b.CleanRSS(i, NoTarget) {
			same++
		}
	}
	if same == a.NumLinks() {
		t.Error("different seeds produced identical baselines")
	}
}

func TestTargetEffectRegimes(t *testing.T) {
	c := testChannel(7)
	g := c.Grid()
	// Target on link 3's own strip: large decrease.
	ownCell := g.CellIndex(3, 6)
	if eff := c.effects[3][ownCell]; eff < 5 {
		t.Errorf("own-strip effect = %v dB, want >= 5", eff)
	}
	// Target on the adjacent strip: small but present decrease.
	adjCell := g.CellIndex(4, 6)
	adj := c.effects[3][adjCell]
	if adj <= 0 || adj > 5 {
		t.Errorf("adjacent-strip effect = %v dB, want in (0, 5]", adj)
	}
	// Far strip: no effect at all.
	farCell := g.CellIndex(7, 6)
	if eff := c.effects[3][farCell]; eff != 0 {
		t.Errorf("far-strip effect = %v dB, want 0", eff)
	}
	// Ordering: own >> adjacent >> far.
	if !(c.effects[3][ownCell] > adj && adj > c.effects[3][farCell]) {
		t.Error("effect ordering violated")
	}
}

func TestAffectedMatchesEffect(t *testing.T) {
	c := testChannel(7)
	for i := 0; i < c.NumLinks(); i++ {
		for j := 0; j < c.NumCells(); j++ {
			if c.Affected(i, j) != (c.effects[i][j] > 0) {
				t.Fatalf("Affected(%d,%d) inconsistent with the target effect", i, j)
			}
		}
	}
}

func TestAffectedBandStructure(t *testing.T) {
	// Every link must affect its own strip entirely and must not affect
	// strips more than two away (the banded structure of Fig 4).
	c := testChannel(7)
	g := c.Grid()
	for i := 0; i < c.NumLinks(); i++ {
		for j := 0; j < c.NumCells(); j++ {
			d := g.Strip(j) - i
			if d < 0 {
				d = -d
			}
			if d == 0 && !c.Affected(i, j) {
				t.Errorf("link %d does not affect its own cell %d", i, j)
			}
			if d > 2 && c.Affected(i, j) {
				t.Errorf("link %d affects distant cell %d (strip distance %d)", i, j, d)
			}
		}
	}
}

func TestOwnStripVShape(t *testing.T) {
	// Along the direct path the decrease is larger near the transceivers
	// than at the midpoint (the paper's observation behind the G-matrix
	// midpoint re-definition, Eqns 15-16). The per-cell multipath
	// perturbation can locally mask the shape, so assert it on the
	// link-averaged profile, which is what the G design relies on.
	c := testChannel(7)
	g := c.Grid()
	k := g.PerStrip
	avg := make([]float64, k)
	for i := 0; i < g.Links; i++ {
		for u := 0; u < k; u++ {
			avg[u] += c.effects[i][g.CellIndex(i, u)] / float64(g.Links)
		}
	}
	mid := avg[k/2]
	if !(avg[0] > mid && avg[k-1] > mid) {
		t.Errorf("no averaged V-shape: ends %.1f/%.1f dB vs mid %.1f dB", avg[0], avg[k-1], mid)
	}
	// The minimum lies in the interior, not at the ends.
	minU := 0
	for u := 1; u < k; u++ {
		if avg[u] < avg[minU] {
			minU = u
		}
	}
	if minU == 0 || minU == k-1 {
		t.Errorf("profile minimum at end position %d", minU)
	}
}

func TestBaselinePlausible(t *testing.T) {
	c := testChannel(7)
	for i := 0; i < c.NumLinks(); i++ {
		rss := c.CleanRSS(i, NoTarget)
		if rss > -40 || rss < -90 {
			t.Errorf("link %d baseline %v dBm implausible", i, rss)
		}
	}
}

func TestShortTermVariationMagnitude(t *testing.T) {
	// Fig 1: RSS at a fixed location varies by ~5 dB over 100 s.
	c := testChannel(11)
	var lo, hi = math.Inf(1), math.Inf(-1)
	for k := 0; k < 200; k++ {
		v := c.Sample(0, NoTarget, float64(k)*0.5)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	swing := hi - lo
	if swing < 2 || swing > 10 {
		t.Errorf("100 s peak-to-peak swing = %.1f dB, want ~5 dB (2..10)", swing)
	}
}

func TestLongTermDriftCalibration(t *testing.T) {
	// Fig 2: mean |shift| ≈ 2.5 dB after 5 days and ≈ 6 dB after 45 days.
	// Average over many seeds and links for a stable estimate.
	const day = 86400.0
	mean := func(days float64) float64 {
		var sum float64
		var n int
		for seed := uint64(0); seed < 40; seed++ {
			c := testChannel(seed)
			for i := 0; i < c.NumLinks(); i++ {
				sum += math.Abs(c.Drift(i, days*day) - c.Drift(i, 0))
				n++
			}
		}
		return sum / float64(n)
	}
	d5 := mean(5)
	if d5 < 1.7 || d5 > 3.3 {
		t.Errorf("mean |drift| @5 days = %.2f dB, want ≈2.5", d5)
	}
	d45 := mean(45)
	if d45 < 4.5 || d45 > 7.5 {
		t.Errorf("mean |drift| @45 days = %.2f dB, want ≈6", d45)
	}
	if d45 <= d5 {
		t.Errorf("drift not growing: %.2f @5 d vs %.2f @45 d", d5, d45)
	}
}

func TestDriftCorrelationAcrossLinks(t *testing.T) {
	// Adjacent links share the global drift component, so their drift
	// difference must be smaller (in RMS) than raw drift.
	const day = 86400.0
	var rawSq, diffSq float64
	var n int
	for seed := uint64(0); seed < 30; seed++ {
		c := testChannel(seed)
		for i := 0; i+1 < c.NumLinks(); i++ {
			a := c.Drift(i, 45*day) - c.Drift(i, 0)
			b := c.Drift(i+1, 45*day) - c.Drift(i+1, 0)
			rawSq += a * a
			diffSq += (a - b) * (a - b)
			n++
		}
	}
	rawRMS := math.Sqrt(rawSq / float64(n))
	diffRMS := math.Sqrt(diffSq / float64(n))
	if diffRMS >= rawRMS*1.15 {
		t.Errorf("adjacent-link drift difference RMS %.2f not damped vs raw %.2f", diffRMS, rawRMS)
	}
}

func TestAdjacentLinkNoiseCancels(t *testing.T) {
	// Fig 6: the common-mode component cancels in cross-link differences,
	// so the difference of two links' readings varies less than a single
	// link's reading around its mean.
	c := testChannel(13)
	var rawVar, diffVar, rawMean, diffMean float64
	const n = 400
	raw := make([]float64, n)
	diff := make([]float64, n)
	for k := 0; k < n; k++ {
		ts := float64(k) * 0.5
		a := c.Sample(2, NoTarget, ts)
		b := c.Sample(3, NoTarget, ts)
		raw[k] = a
		diff[k] = a - b
		rawMean += a
		diffMean += a - b
	}
	rawMean /= n
	diffMean /= n
	for k := 0; k < n; k++ {
		rawVar += (raw[k] - rawMean) * (raw[k] - rawMean)
		diffVar += (diff[k] - diffMean) * (diff[k] - diffMean)
	}
	if diffVar >= rawVar {
		t.Errorf("cross-link difference variance %.3f not below raw variance %.3f", diffVar/n, rawVar/n)
	}
}

func TestSampleMeanReducesNoise(t *testing.T) {
	c := testChannel(17)
	clean := c.CleanRSS(0, NoTarget)
	// The 50-sample mean should be closer to clean+drift than a single
	// sample on average across many windows.
	var errSingle, errMean float64
	col := make([]float64, c.NumLinks())
	for k := 0; k < 50; k++ {
		ts := float64(k) * 120
		truth := clean + c.Drift(0, ts)
		errSingle += math.Abs(c.Sample(0, NoTarget, ts) - truth)
		c.SampleColumnMean(NoTarget, ts, 50, col)
		errMean += math.Abs(col[0] - truth)
	}
	if errMean >= errSingle {
		t.Errorf("50-sample mean error %.3f not below single-sample %.3f", errMean/50, errSingle/50)
	}
}

func TestQuantization(t *testing.T) {
	p := DefaultParams()
	p.QuantStepDB = 0.5
	c := NewChannel(testGrid(), p, 3)
	v := c.Sample(0, NoTarget, 12.25)
	if r := math.Mod(math.Abs(v), 0.5); r > 1e-9 && r < 0.5-1e-9 {
		t.Errorf("sample %v not on 0.5 dB lattice", v)
	}
	p.QuantStepDB = 0
	c2 := NewChannel(testGrid(), p, 3)
	_ = c2.Sample(0, NoTarget, 12.25) // must not panic
}

func TestHashNormalStatistics(t *testing.T) {
	var sum, sumSq float64
	const n = 20000
	for k := 0; k < n; k++ {
		v := hashNormal(99, 1, int64(k))
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("hashNormal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("hashNormal variance = %v, want ~1", variance)
	}
}

func TestValueNoiseSmoothness(t *testing.T) {
	// Consecutive samples 0.05 lattice units apart must differ far less
	// than samples 5 units apart on average.
	var nearDiff, farDiff float64
	const n = 500
	for k := 0; k < n; k++ {
		x := float64(k) * 0.37
		nearDiff += math.Abs(valueNoise(5, 9, x+0.05) - valueNoise(5, 9, x))
		farDiff += math.Abs(valueNoise(5, 9, x+5) - valueNoise(5, 9, x))
	}
	if nearDiff*5 > farDiff {
		t.Errorf("value noise not smooth: near %.3f vs far %.3f", nearDiff/n, farDiff/n)
	}
}

func TestCleanRSSWithTargetLower(t *testing.T) {
	c := testChannel(19)
	g := c.Grid()
	for i := 0; i < c.NumLinks(); i++ {
		j := g.CellIndex(i, 5)
		if c.CleanRSS(i, j) >= c.CleanRSS(i, NoTarget) {
			t.Errorf("link %d: target on path did not reduce RSS", i)
		}
	}
}
