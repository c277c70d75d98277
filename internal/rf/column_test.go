package rf_test

import (
	"math"
	"testing"

	"iupdater/internal/rf"
	"iupdater/internal/testbed"
)

const hour, day = 3600.0, 86400.0

// sampleMean is the reference the column sampler must reproduce: n
// readings of Sample spaced 0.5 s apart, summed in time order.
func sampleMean(c *rf.Channel, i, j int, t float64, n int) float64 {
	var s float64
	for k := 0; k < n; k++ {
		s += c.Sample(i, j, t+0.5*float64(k))
	}
	return s / float64(n)
}

// TestSampleColumnMeanMatchesSample checks the column sampler against a
// loop over Sample bit for bit, for every preset, target and sample
// count, at start times whose readings straddle the drift chains' hour
// lattice and the interference-burst windows, on channels whose drift
// chains start fresh or were already extended past the survey. Each
// preset also runs unquantized: the 0.5 dB quantizer absorbs almost any
// rounding difference inside a reading, so only the raw sum exposes a
// regrouped operand.
func TestSampleColumnMeanMatchesSample(t *testing.T) {
	starts := []float64{
		0,
		hour - 0.25, hour + 0.25, // both sides of an hour-lattice point
		20 - 0.25, 20 + 0.25, // both sides of a 10 s burst window
		45 * day, 45*day - 12.75, 45*day + 1234.5,
	}
	for _, env := range testbed.Environments() {
		targets := []int{rf.NoTarget}
		for j := 0; j < env.NumCells(); j++ {
			targets = append(targets, j)
		}
		raw := env.Radio
		raw.QuantStepDB = 0
		for _, radio := range []rf.Params{env.Radio, raw} {
			for _, extended := range []bool{false, true} {
				for _, start := range starts {
					for _, n := range []int{1, 5, 50} {
						checkColumnMean(t, env, radio, extended, start, n, targets)
					}
				}
			}
		}
	}
}

// checkColumnMean compares every target's column mean on one channel
// with the Sample loop on a second channel built from the same inputs.
func checkColumnMean(t *testing.T, env testbed.Environment, radio rf.Params, extended bool, start float64, n int, targets []int) {
	t.Helper()
	got := rf.NewChannel(env.Grid, radio, 5)
	ref := rf.NewChannel(env.Grid, radio, 5)
	if extended {
		for _, c := range []*rf.Channel{got, ref} {
			for i := 0; i < c.NumLinks(); i++ {
				c.TrueRSS(i, env.Grid.CellIndex(i, 0), 90*day)
			}
		}
	}
	col := make([]float64, got.NumLinks())
	for _, j := range targets {
		got.SampleColumnMean(j, start, n, col)
		for i, v := range col {
			want := sampleMean(ref, i, j, start, n)
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s quant=%v extended=%v t=%v n=%d link %d cell %d: column %v, Sample loop %v",
					env.Name, radio.QuantStepDB, extended, start, n, i, j, v, want)
			}
		}
	}
}

func TestSampleColumnMeanNonPositiveCountTakesOneReading(t *testing.T) {
	env := testbed.Office()
	c := rf.NewChannel(env.Grid, env.Radio, 2)
	col := make([]float64, c.NumLinks())
	for _, n := range []int{0, -3} {
		c.SampleColumnMean(7, 30, n, col)
		for i, v := range col {
			if want := c.Sample(i, 7, 30); v != want {
				t.Fatalf("n=%d link %d: got %v, want one reading %v", n, i, v, want)
			}
		}
	}
}
