package drift

import "math"

// baseline accumulates the calibration-phase mean and standard deviation
// of the residual floor.
type baseline struct {
	target     int
	n          int
	sum, sumSq float64
	mu, sigma  float64
}

// observe consumes one calibration sample and reports whether the
// baseline is (now) calibrated.
func (b *baseline) observe(r float64, minSigma float64) bool {
	if b.n >= b.target {
		return true
	}
	b.n++
	b.sum += r
	b.sumSq += r * r
	if b.n < b.target {
		return false
	}
	nf := float64(b.n)
	b.mu = b.sum / nf
	v := b.sumSq/nf - b.mu*b.mu
	if v < 0 {
		v = 0
	}
	b.sigma = math.Max(math.Sqrt(v), minSigma)
	return true
}

func (b *baseline) reset() { *b = baseline{target: b.target} }

// export returns the calibrated floor; ok is false during calibration.
func (b *baseline) export() (mu, sigma float64, ok bool) {
	return b.mu, b.sigma, b.n >= b.target
}

// install skips calibration by marking the baseline complete at the
// given floor (e.g. one persisted from a previous process life).
func (b *baseline) install(mu, sigma float64, minSigma float64) {
	b.reset()
	b.n = b.target
	b.mu = mu
	b.sigma = math.Max(sigma, minSigma)
}

// MeanShiftConfig tunes the sliding-window mean-shift detector. The zero
// value selects the defaults noted per field.
type MeanShiftConfig struct {
	// Baseline is the number of calibration samples used to learn the
	// stationary residual floor (mean and sigma). Default 200.
	Baseline int
	// Window is the sliding-window length whose mean is compared
	// against the floor. Default 64.
	Window int
	// K is the detection threshold in floor-sigma units: drift is
	// flagged when the window mean exceeds mu0 + max(K*sigma0,
	// MinShiftDB). The window mean of W stationary residuals is far
	// tighter than one residual (sigma0/sqrt(W) if they were
	// independent; a few times that in practice, because interference
	// and ambient events correlate neighboring queries), so K well
	// below 1-residual sigma units still rejects noise: on the
	// simulated testbeds the worst stationary 64-window excursion over
	// 12k queries is ~0.9 sigma0 while 45 days of drift lifts the
	// window mean by 1.8 sigma0 or more. Default 1.5.
	K float64
	// MinShiftDB is an absolute lower bound (dB) on the detectable mean
	// shift, protecting against an underestimated sigma0 on very quiet
	// floors. Default 0.4.
	MinShiftDB float64
	// MinSigma floors the learned sigma0 (dB). Default 0.02.
	MinSigma float64
}

func (c MeanShiftConfig) withDefaults() MeanShiftConfig {
	if c.Baseline <= 0 {
		c.Baseline = 200
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.K <= 0 {
		c.K = 1.5
	}
	if c.MinShiftDB <= 0 {
		c.MinShiftDB = 0.4
	}
	if c.MinSigma <= 0 {
		c.MinSigma = 0.02
	}
	return c
}

// MeanShift flags drift when the mean of the last Window residuals
// exceeds the calibrated floor by a threshold: a robust detector for the
// abrupt, persistent shifts an environment change produces. It is
// self-calibrating: it learns the stationary residual floor from the
// first samples after construction or Reset. The ring buffer is
// allocated once at construction; Observe is allocation-free. It is not
// safe for concurrent use; callers serialize access.
type MeanShift struct {
	cfg    MeanShiftConfig
	base   baseline
	ring   []float64
	head   int
	filled int
	winSum float64
}

// NewMeanShift builds the detector (zero-value config fields select
// defaults).
func NewMeanShift(cfg MeanShiftConfig) *MeanShift {
	cfg = cfg.withDefaults()
	return &MeanShift{
		cfg:  cfg,
		base: baseline{target: cfg.Baseline},
		ring: make([]float64, cfg.Window),
	}
}

// Observe consumes one residual and reports whether drift is flagged at
// this sample. During calibration it always reports false.
func (d *MeanShift) Observe(r float64) bool {
	if !d.base.observe(r, d.cfg.MinSigma) {
		return false
	}
	d.winSum += r - d.ring[d.head]
	d.ring[d.head] = r
	d.head++
	if d.head == len(d.ring) {
		d.head = 0
	}
	if d.filled < len(d.ring) {
		d.filled++
		return false
	}
	return d.winSum/float64(d.filled) > d.base.mu+d.threshold()
}

func (d *MeanShift) threshold() float64 {
	return math.Max(d.cfg.K*d.base.sigma, d.cfg.MinShiftDB)
}

// Score returns the window mean's excess over the floor in threshold
// units: ~0 at the calibrated floor, >= 1 while flagging, 0 during
// calibration.
func (d *MeanShift) Score() float64 {
	if d.filled == 0 || d.base.n < d.base.target {
		return 0
	}
	return (d.winSum/float64(d.filled) - d.base.mu) / d.threshold()
}

// Reset discards all state including the calibrated floor; the
// detector re-calibrates on the samples that follow (e.g. after a
// database update changes the residual baseline).
func (d *MeanShift) Reset() {
	d.base.reset()
	for i := range d.ring {
		d.ring[i] = 0
	}
	d.head, d.filled, d.winSum = 0, 0, 0
}

// Baseline exports the calibrated residual floor for persistence; ok is
// false while the detector is still calibrating.
func (d *MeanShift) Baseline() (mu, sigma float64, ok bool) { return d.base.export() }

// SetBaseline installs a previously exported floor, skipping the
// calibration window entirely: the detector is armed as soon as the
// sliding window refills (Window observations instead of Baseline +
// Window). All streaming state is reset first.
func (d *MeanShift) SetBaseline(mu, sigma float64) {
	d.Reset()
	d.base.install(mu, sigma, d.cfg.MinSigma)
}
