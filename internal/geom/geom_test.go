package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDistance(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Distance(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Distance = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLinkProject(t *testing.T) {
	l := Link{TX: Point{0, 0}, RX: Point{10, 0}}
	tests := []struct {
		name     string
		p        Point
		wantT    float64
		wantPerp float64
	}{
		{"midpoint above", Point{5, 2}, 0.5, 2},
		{"at TX", Point{0, 0}, 0, 0},
		{"at RX", Point{10, 0}, 1, 0},
		{"beyond RX clamps", Point{15, 3}, 1, 3},
		{"before TX clamps", Point{-5, 1}, 0, 1},
		{"on the line", Point{3, 0}, 0.3, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gotT, gotPerp := l.Project(tt.p)
			if math.Abs(gotT-tt.wantT) > 1e-12 {
				t.Errorf("t = %v, want %v", gotT, tt.wantT)
			}
			if math.Abs(gotPerp-tt.wantPerp) > 1e-12 {
				t.Errorf("perp = %v, want %v", gotPerp, tt.wantPerp)
			}
		})
	}
}

// excessPathLength is d(TX,p) + d(p,RX) - d(TX,RX): how much longer the
// path through p is than the direct path. p lies inside the first
// Fresnel zone when it is below half a wavelength.
func excessPathLength(l Link, p Point) float64 {
	return l.TX.Distance(p) + p.Distance(l.RX) - l.Length()
}

func TestExcessPathLength(t *testing.T) {
	l := Link{TX: Point{0, 0}, RX: Point{10, 0}}
	if got := excessPathLength(l, Point{5, 0}); math.Abs(got) > 1e-12 {
		t.Errorf("on-path excess = %v, want 0", got)
	}
	// Off-path point: excess must be positive and grow with distance.
	e1 := excessPathLength(l, Point{5, 1})
	e2 := excessPathLength(l, Point{5, 2})
	if e1 <= 0 || e2 <= e1 {
		t.Errorf("excess not monotone: %v, %v", e1, e2)
	}
}

// TestInFirstFresnelZone: the first Fresnel zone is the ellipse of
// points whose excess path length is below half a wavelength.
func TestInFirstFresnelZone(t *testing.T) {
	l := Link{TX: Point{0, 0}, RX: Point{10, 0}}
	const lambda = 0.125
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"on direct path", Point{5, 0}, true},
		{"just off path", Point{5, 0.3}, true},
		{"at FFZ boundary radius", Point{5, 0.558}, true},
		{"outside FFZ", Point{5, 0.7}, false},
		{"far away", Point{5, 3}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := excessPathLength(l, tt.p) < lambda/2; got != tt.want {
				t.Errorf("excess path length at %v < lambda/2 = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestGridShape(t *testing.T) {
	g := NewGrid(12, 9, 8, 12) // office: 8 links, 12 cells per strip
	if got := g.NumCells(); got != 96 {
		t.Errorf("NumCells = %d, want 96", got)
	}
	along, across := g.CellSize()
	if math.Abs(along-1.0) > 1e-12 || math.Abs(across-1.125) > 1e-12 {
		t.Errorf("CellSize = %v, %v", along, across)
	}
}

func TestGridStripMajorIndexing(t *testing.T) {
	g := NewGrid(12, 9, 8, 12)
	tests := []struct {
		j          int
		strip, pos int
	}{
		{0, 0, 0},
		{11, 0, 11},
		{12, 1, 0},
		{95, 7, 11},
		{50, 4, 2},
	}
	for _, tt := range tests {
		if got := g.Strip(tt.j); got != tt.strip {
			t.Errorf("Strip(%d) = %d, want %d", tt.j, got, tt.strip)
		}
		if got := g.PosInStrip(tt.j); got != tt.pos {
			t.Errorf("PosInStrip(%d) = %d, want %d", tt.j, got, tt.pos)
		}
		if got := g.CellIndex(tt.strip, tt.pos); got != tt.j {
			t.Errorf("CellIndex(%d,%d) = %d, want %d", tt.strip, tt.pos, got, tt.j)
		}
	}
}

func TestGridCenterRoundTrip(t *testing.T) {
	g := NewGrid(12, 9, 8, 12)
	for j := 0; j < g.NumCells(); j++ {
		if got := g.CellAt(g.Center(j)); got != j {
			t.Errorf("CellAt(Center(%d)) = %d", j, got)
		}
	}
}

func TestGridCellAtOutside(t *testing.T) {
	g := NewGrid(12, 9, 8, 12)
	outside := []Point{{-1, 3}, {3, -1}, {13, 3}, {3, 10}}
	for _, p := range outside {
		if got := g.CellAt(p); got != -1 {
			t.Errorf("CellAt(%v) = %d, want -1", p, got)
		}
	}
}

func TestLinkLineGeometry(t *testing.T) {
	g := NewGrid(12, 9, 8, 12)
	for i := 0; i < g.Links; i++ {
		l := g.LinkLine(i)
		if l.TX.X != 0 || l.RX.X != 12 {
			t.Errorf("link %d spans %v..%v, want 0..12", i, l.TX.X, l.RX.X)
		}
		if l.TX.Y != l.RX.Y {
			t.Errorf("link %d not horizontal", i)
		}
		// Link i runs along the center of strip i: every cell of strip i
		// is closer to link i than to any other link.
		for pos := 0; pos < g.PerStrip; pos++ {
			c := g.Center(g.CellIndex(i, pos))
			_, dOwn := l.Project(c)
			for k := 0; k < g.Links; k++ {
				if k == i {
					continue
				}
				if _, dOther := g.LinkLine(k).Project(c); dOther < dOwn {
					t.Fatalf("cell (%d,%d) closer to link %d than its own", i, pos, k)
				}
			}
		}
	}
}

func TestGridPanics(t *testing.T) {
	g := NewGrid(12, 9, 8, 12)
	tests := []struct {
		name string
		f    func()
	}{
		{"bad dims", func() { NewGrid(0, 9, 8, 12) }},
		{"bad shape", func() { NewGrid(12, 9, 0, 12) }},
		{"center out of range", func() { g.Center(96) }},
		{"link out of range", func() { g.LinkLine(8) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}

func TestQuickProjectClamped(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Link{
			TX: Point{rng.Float64() * 10, rng.Float64() * 10},
			RX: Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		p := Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5}
		tt, perp := l.Project(p)
		return tt >= 0 && tt <= 1 && perp >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickExcessPathNonNegative(t *testing.T) {
	// Triangle inequality: the detour through any point is never shorter.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Link{
			TX: Point{rng.Float64() * 10, rng.Float64() * 10},
			RX: Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		p := Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5}
		return excessPathLength(l, p) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCellAtCenterIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		k := 1 + rng.Intn(20)
		g := NewGrid(1+rng.Float64()*20, 1+rng.Float64()*20, m, k)
		j := rng.Intn(g.NumCells())
		return g.CellAt(g.Center(j)) == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
