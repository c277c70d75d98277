package iupdater

import (
	"time"

	"iupdater/internal/geom"
	"iupdater/internal/testbed"
)

// Environment is a simulated deployment preset. Obtain one from Office,
// Library or Hall.
type Environment struct {
	inner testbed.Environment
}

// Name returns the environment's name.
func (e Environment) Name() string { return e.inner.Name }

// Geometry returns the deployment geometry.
func (e Environment) Geometry() Geometry {
	g := e.inner.Grid
	return Geometry{WidthM: g.Width, HeightM: g.Height, Links: g.Links, PerStrip: g.PerStrip}
}

// Office returns the paper's office testbed: 9 m x 12 m, medium
// multipath, 8 links, 96 grid cells.
func Office() Environment { return Environment{inner: testbed.Office()} }

// Library returns the paper's library testbed: 8 m x 11 m, high
// multipath, 6 links, 72 grid cells.
func Library() Environment { return Environment{inner: testbed.Library()} }

// Hall returns the paper's empty-hall testbed: 10 m x 10 m, low
// multipath, 8 links, 120 grid cells.
func Hall() Environment { return Environment{inner: testbed.Hall()} }

// LaborCost reports the human cost of a survey.
type LaborCost struct {
	// Locations visited with the target present.
	Locations int
	// Duration of the human labor.
	Duration time.Duration
}

// Testbed is a simulated deployment: radio channel, human target, drift
// and survey campaigns, deterministic for a given seed. It is the
// stand-in for the paper's physical testbeds.
type Testbed struct {
	s   *testbed.Surveyor
	env testbed.Environment
}

// NewTestbed builds the simulated deployment.
func NewTestbed(env Environment, seed uint64) *Testbed {
	return &Testbed{s: testbed.NewSurveyor(env.inner, seed), env: env.inner}
}

// Links returns the number of links M.
func (t *Testbed) Links() int { return t.env.NumLinks() }

// PerStrip returns the cells per strip K.
func (t *Testbed) PerStrip() int { return t.env.Grid.PerStrip }

// NumCells returns N = M*K.
func (t *Testbed) NumCells() int { return t.env.NumCells() }

// Geometry returns the deployment geometry for building a Deployment.
func (t *Testbed) Geometry() Geometry {
	g := t.env.Grid
	return Geometry{WidthM: g.Width, HeightM: g.Height, Links: g.Links, PerStrip: g.PerStrip}
}

// SurveyMatrix performs a full human site survey at the given elapsed
// time: the target visits every grid cell while every link collects
// samplesPerLocation readings. This is the traditional (expensive) way to
// build or refresh the database.
func (t *Testbed) SurveyMatrix(at time.Duration, samplesPerLocation int) (Matrix, LaborCost) {
	fp, labor := t.s.FullSurvey(at.Seconds(), samplesPerLocation)
	return matrixFromDense(fp.X), LaborCost{
		Locations: labor.Locations,
		Duration:  time.Duration(labor.Seconds * float64(time.Second)),
	}
}

// Deploy surveys the deployment at the given elapsed time and builds a
// Deployment serving the surveyed database, returning the survey's labor
// cost alongside.
func (t *Testbed) Deploy(at time.Duration, samplesPerLocation int, opts ...Option) (*Deployment, LaborCost, error) {
	m, labor := t.SurveyMatrix(at, samplesPerLocation)
	d, err := NewDeployment(m, t.Geometry(), opts...)
	return d, labor, err
}

// NoDecreaseMatrix measures the no-decrease entries at the given time
// without the target — the zero-labor input to Deployment.Update.
func (t *Testbed) NoDecreaseMatrix(at time.Duration) Matrix {
	return matrixFromDense(t.s.NoDecreaseScan(at.Seconds(), testbed.IUpdaterSamples))
}

// Mask returns the no-decrease index: Known(i, j) is true when link i
// does not react to a target at cell j.
func (t *Testbed) Mask() Mask {
	return maskFromFingerprint(t.s.Mask())
}

// ReferenceMatrix measures fresh full columns at the given locations (the
// reference survey) with the target present — the labor-cost input to
// Deployment.Update — plus the labor accounting for those locations.
func (t *Testbed) ReferenceMatrix(at time.Duration, locations []int) (Matrix, LaborCost) {
	xr, labor := t.s.ReferenceSurvey(at.Seconds(), locations, testbed.IUpdaterSamples)
	return matrixFromDense(xr), LaborCost{
		Locations: labor.Locations,
		Duration:  time.Duration(labor.Seconds * float64(time.Second)),
	}
}

// Sampler returns a ReferenceSampler that takes the fresh measurements
// an automatic update needs from this simulated deployment, at the
// elapsed time reported by now — the testbed standing in for the radio
// frontend of a Monitor. The underlying channel simulator is not safe
// for concurrent use: callers must serialize the returned sampler
// against all other measurements on this Testbed (have now both report
// the clock and take whatever lock guards it, as cmd/iupdater serve
// does, or run the Monitor with WithSynchronousUpdates on a single
// goroutine).
func (t *Testbed) Sampler(now func() time.Duration) ReferenceSampler {
	return SamplerFunc(func(refs []int) (UpdateInputs, error) {
		at := now()
		xr, _ := t.ReferenceMatrix(at, refs)
		return UpdateInputs{
			NoDecrease: t.NoDecreaseMatrix(at),
			Known:      t.Mask(),
			References: xr,
		}, nil
	})
}

// TrueMatrix returns the noise-free fingerprint matrix at the given time:
// the ideal database a perfect survey would record. Useful as a
// ground-truth baseline in evaluations.
func (t *Testbed) TrueMatrix(at time.Duration) Matrix {
	return matrixFromDense(t.s.TrueFingerprint(at.Seconds()).X)
}

// MeasureOnline returns one online RSS vector for a target standing at
// (x, y) meters at the given time — the input to Deployment.Locate.
func (t *Testbed) MeasureOnline(x, y float64, at time.Duration) []float64 {
	return t.s.MeasureOnline(geom.Point{X: x, Y: y}, at.Seconds(), testbed.IUpdaterSamples)
}

// MeasureOnlineMulti returns one online RSS vector with several targets
// present simultaneously — the input to Deployment.LocateMultiple.
func (t *Testbed) MeasureOnlineMulti(positions [][2]float64, at time.Duration) []float64 {
	pts := make([]geom.Point, len(positions))
	for i, p := range positions {
		pts[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return t.s.MeasureOnlineMulti(pts, at.Seconds(), testbed.IUpdaterSamples)
}

// CellCenter returns the center of a grid cell in meters.
func (t *Testbed) CellCenter(cell int) (x, y float64) {
	p := t.env.Grid.Center(cell)
	return p.X, p.Y
}
