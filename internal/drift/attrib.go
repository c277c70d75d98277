package drift

// Attribution maintains per-link drift attribution over a stream of
// per-link shape errors (from Residualizer.ResidualAttributed): an
// exponentially weighted moving average of each link's absolute error,
// so a sustained drift on a subset of links stands out over the
// per-query matching noise. Knowing *which* links drifted diagnoses
// hardware faults (one link's EWMA high, the rest flat) versus
// environment change (broad rise), and gives the sampler a priority
// order over reference locations.
//
// Observe and TopK are allocation-free; callers serialize access (the
// Monitor holds its own lock).
type Attribution struct {
	alpha float64
	ew    []float64
	n     uint64
}

// DefaultAttributionAlpha is the EWMA smoothing factor when
// NewAttribution is given a non-positive alpha: the average spans
// roughly the last 1/alpha observations, matching the detectors'
// sliding-window scale.
const DefaultAttributionAlpha = 0.02

// NewAttribution builds a tracker over links RF links.
func NewAttribution(links int, alpha float64) *Attribution {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAttributionAlpha
	}
	return &Attribution{alpha: alpha, ew: make([]float64, links)}
}

// Observe folds one per-link error vector (one entry per link) into the
// averages. The first observation seeds the EWMA directly.
func (a *Attribution) Observe(perLink []float64) {
	if a.n == 0 {
		copy(a.ew, perLink[:len(a.ew)])
	} else {
		for i := range a.ew {
			a.ew[i] += a.alpha * (perLink[i] - a.ew[i])
		}
	}
	a.n++
}

// Reset clears the averages (a new snapshot version re-baselines what
// "error" means, exactly like the detector's floor).
func (a *Attribution) Reset() {
	for i := range a.ew {
		a.ew[i] = 0
	}
	a.n = 0
}

// TopK writes the worst-offending links in descending EWMA-error order
// into outLink/outErr (parallel slices, both at least as long as the
// wanted k) and returns how many entries were filled: min(k, links),
// or 0 before the first observation. No allocation is performed.
func (a *Attribution) TopK(outLink []int, outErr []float64) int {
	k := len(outLink)
	if len(outErr) < k {
		k = len(outErr)
	}
	if k > len(a.ew) {
		k = len(a.ew)
	}
	if k == 0 || a.n == 0 {
		return 0
	}
	filled := 0
	for link, e := range a.ew {
		// Insertion into the descending top-k prefix; ties keep the
		// lower link index first (stable, deterministic output).
		pos := filled
		for pos > 0 && outErr[pos-1] < e {
			pos--
		}
		if pos >= k {
			continue
		}
		last := filled
		if last >= k {
			last = k - 1
		}
		copy(outLink[pos+1:last+1], outLink[pos:last])
		copy(outErr[pos+1:last+1], outErr[pos:last])
		outLink[pos], outErr[pos] = link, e
		if filled < k {
			filled++
		}
	}
	return filled
}
