package testbed

import (
	"iupdater/internal/fingerprint"
	"iupdater/internal/geom"
	"iupdater/internal/mat"
	"iupdater/internal/rf"
)

// Survey timing constants measured in the paper's experiments (§VI-C):
// moving between two adjacent locations takes ~5 s and the RSS beacon
// interval is 0.5 s.
const (
	MoveSeconds    = 5.0
	SampleInterval = 0.5
	// TraditionalSamples is the per-location sample count of traditional
	// fingerprint systems (they average heavily to fight RSS variation).
	TraditionalSamples = 50
	// IUpdaterSamples is the per-location sample count iUpdater needs
	// (the difference-stability constraints replace most of the
	// averaging).
	IUpdaterSamples = 5
)

// Surveyor simulates the human measurement campaigns that build and
// refresh fingerprint databases on a given channel.
type Surveyor struct {
	Channel *rf.Channel
}

// NewSurveyor builds the channel for env with the given seed and wraps it
// in a Surveyor.
func NewSurveyor(env Environment, seed uint64) *Surveyor {
	return &Surveyor{Channel: rf.NewChannel(env.Grid, env.Radio, seed)}
}

// Labor records the human cost of a survey.
type Labor struct {
	// Locations visited with the target present.
	Locations int
	// SamplesPerLocation collected at each visited location.
	SamplesPerLocation int
	// Seconds of human labor: moves between locations plus dwell time.
	Seconds float64
}

// SurveySeconds returns the labor model of §VI-C: (L-1) moves plus
// L*samples collection intervals.
func SurveySeconds(locations, samplesPerLocation int) float64 {
	if locations <= 0 {
		return 0
	}
	return float64(locations-1)*MoveSeconds +
		float64(locations)*float64(samplesPerLocation)*SampleInterval
}

// FullSurvey walks the target through every grid cell starting at time t0
// and records the averaged RSS of every link — the traditional way to
// (re)build the whole fingerprint database.
func (s *Surveyor) FullSurvey(t0 float64, samplesPerLoc int) (fingerprint.Matrix, Labor) {
	ch := s.Channel
	m, n := ch.NumLinks(), ch.NumCells()
	x := mat.New(m, n)
	col := make([]float64, m)
	dwell := float64(samplesPerLoc) * SampleInterval
	for j := 0; j < n; j++ {
		tj := t0 + float64(j)*(MoveSeconds+dwell)
		ch.SampleColumnMean(j, tj, samplesPerLoc, col)
		for i, v := range col {
			x.Set(i, j, v)
		}
	}
	labor := Labor{
		Locations:          n,
		SamplesPerLocation: samplesPerLoc,
		Seconds:            SurveySeconds(n, samplesPerLoc),
	}
	return fingerprint.New(x, t0), labor
}

// ReferenceSurvey measures fresh full columns at the given reference
// locations starting at t0: the only labor-cost measurements iUpdater
// needs for an update. It returns the M x len(refs) reference matrix X_R
// (Eqn 13).
func (s *Surveyor) ReferenceSurvey(t0 float64, refs []int, samplesPerLoc int) (*mat.Dense, Labor) {
	ch := s.Channel
	m := ch.NumLinks()
	xr := mat.New(m, len(refs))
	col := make([]float64, m)
	dwell := float64(samplesPerLoc) * SampleInterval
	for k, j := range refs {
		tk := t0 + float64(k)*(MoveSeconds+dwell)
		ch.SampleColumnMean(j, tk, samplesPerLoc, col)
		for i, v := range col {
			xr.Set(i, k, v)
		}
	}
	labor := Labor{
		Locations:          len(refs),
		SamplesPerLocation: samplesPerLoc,
		Seconds:            SurveySeconds(len(refs), samplesPerLoc),
	}
	return xr, labor
}

// Mask returns the no-decrease index matrix B for this deployment: entry
// (i, j) is known (1) when link i does not react to a target at cell j.
func (s *Surveyor) Mask() fingerprint.Mask {
	ch := s.Channel
	return fingerprint.NewMask(ch.NumLinks(), ch.NumCells(), ch.Affected)
}

// NoDecreaseScan measures the no-decrease entries at time t without the
// target present (zero human labor): X_B = B ∘ (baseline readings). Each
// known entry of column j receives the link's current target-free reading.
func (s *Surveyor) NoDecreaseScan(t float64, samples int) *mat.Dense {
	ch := s.Channel
	m, n := ch.NumLinks(), ch.NumCells()
	mask := s.Mask()
	// One baseline reading per link, reused across that link's known
	// entries: without a target the reading does not depend on j.
	base := make([]float64, m)
	ch.SampleColumnMean(rf.NoTarget, t, samples, base)
	xb := mat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if mask.Known(i, j) {
				xb.Set(i, j, base[i])
			}
		}
	}
	return xb
}

// TrueFingerprint returns the drift-inclusive, noise-free fingerprint
// matrix at time t: the ideal database a perfect survey would record.
func (s *Surveyor) TrueFingerprint(t float64) fingerprint.Matrix {
	ch := s.Channel
	m, n := ch.NumLinks(), ch.NumCells()
	x := mat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, ch.TrueRSS(i, j, t))
		}
	}
	return fingerprint.New(x, t)
}

// MeasureOnlineMulti returns the online RSS vector with several targets
// present simultaneously (the multi-target extension).
func (s *Surveyor) MeasureOnlineMulti(pts []geom.Point, t float64, samples int) []float64 {
	ch := s.Channel
	m := ch.NumLinks()
	y := make([]float64, m)
	if samples <= 0 {
		samples = 1
	}
	for i := 0; i < m; i++ {
		var sum float64
		for k := 0; k < samples; k++ {
			sum += ch.SampleAtMulti(i, pts, t+SampleInterval*float64(k))
		}
		y[i] = sum / float64(samples)
	}
	return y
}

// MeasureOnline returns the online RSS vector y (Eqn 25) for a target at
// point p at time t, averaging the given number of samples.
func (s *Surveyor) MeasureOnline(p geom.Point, t float64, samples int) []float64 {
	ch := s.Channel
	m := ch.NumLinks()
	y := make([]float64, m)
	if samples <= 0 {
		samples = 1
	}
	for i := 0; i < m; i++ {
		var sum float64
		for k := 0; k < samples; k++ {
			sum += ch.SampleAt(i, p, t+SampleInterval*float64(k))
		}
		y[i] = sum / float64(samples)
	}
	return y
}
