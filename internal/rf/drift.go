package rf

import "math"

// driftChain is a lazily extended Ornstein-Uhlenbeck sample path on an
// hourly lattice. The exact OU transition is used between lattice points,
// so the marginal statistics are exact at hour resolution:
//
//	x[k+1] = x[k]·exp(-dt/tau) + N(0, sigma²·(1-exp(-2dt/tau)))
//
// with x[0] = 0: the original survey is the calibration reference, so
// drift accumulates from it, E[(x_t-x_0)²] = sigma²·(1-exp(-2t/tau)).
// Values between lattice points are linearly interpolated; drift moves on
// the scale of hours and days, so sub-hour interpolation error is
// negligible.
type driftChain struct {
	seed   uint64
	stream uint64
	// decay = exp(-1/tau) and innov = sigma·sqrt(1-decay²) are the
	// one-hour OU transition constants.
	decay  float64
	innov  float64
	values []float64
}

func newDriftChain(seed, stream uint64, sigma, tauHours float64) *driftChain {
	decay := math.Exp(-1 / tauHours)
	c := &driftChain{seed: seed, stream: stream, decay: decay, innov: sigma * math.Sqrt(1-decay*decay)}
	c.values = append(c.values, 0)
	return c
}

// at returns the drift value at time t (hours).
func (c *driftChain) at(tHours float64) float64 {
	if tHours < 0 {
		tHours = 0
	}
	k := int(tHours)
	c.extend(k + 1)
	u := tHours - float64(k)
	return c.values[k]*(1-u) + c.values[k+1]*u
}

func (c *driftChain) extend(upto int) {
	for k := len(c.values); k <= upto; k++ {
		prev := c.values[k-1]
		c.values = append(c.values, prev*c.decay+c.innov*hashNormal(c.seed, c.stream, int64(k)))
	}
}

// driftModel combines one global OU chain shared by all links with one
// idiosyncratic chain per link:
//
//	drift_i(t) = corr·g(t) + sqrt(1-corr²)·l_i(t)
//
// so each link's drift is marginally OU(sigma, tau) while adjacent links
// stay correlated — the physical reason the paper's adjacent-link RSS
// differences are stable over months (Fig 6, Observation 3).
type driftModel struct {
	global *driftChain
	links  []*driftChain
	// bump and bump2 are per-link spatial drift coefficients: the target
	// effect at normalized along-link position x drifts by
	// bump(t)*sin(pi*x) + 0.5*bump2(t)*sin(2*pi*x). Both harmonics vanish
	// at the link ends: the Fresnel zone is widest mid-link, so that is
	// where the environment couples into (and slowly reshapes) the target
	// effect; near the transceivers the effect is dominated by stable
	// direct blockage.
	bump  []*driftChain
	bump2 []*driftChain
	corr  float64
	idio  float64 // sqrt(1-corr²)
}

func newDriftModel(seed uint64, numLinks int, p Params) *driftModel {
	m := &driftModel{
		global: newDriftChain(seed, 0xd71f7, p.DriftSigmaInfDB, p.DriftTauHours),
		links:  make([]*driftChain, numLinks),
		bump:   make([]*driftChain, numLinks),
		bump2:  make([]*driftChain, numLinks),
		corr:   p.DriftCorr,
		idio:   math.Sqrt(1 - p.DriftCorr*p.DriftCorr),
	}
	for i := range m.links {
		// The idiosyncratic drift magnitude is heavy-tailed across links:
		// most units age slowly, the odd one drifts hard. This matches
		// measured COTS behavior and is why a stale database's per-link
		// shape goes wrong even when the average drift is modest.
		u := hashUniform(seed, 0x1d105ca1e, int64(i))
		scale := 0.3 + 2.4*u*u*u
		m.links[i] = newDriftChain(seed, 0x11d0+uint64(i)<<8+0x5eed, scale*p.DriftSigmaInfDB, p.DriftTauHours)
		m.bump[i] = newDriftChain(seed, 0xb009+uint64(i)<<8, p.TargetDriftSigmaDB, p.DriftTauHours)
		m.bump2[i] = newDriftChain(seed, 0x7117+uint64(i)<<8, p.TargetDriftSigmaDB, p.DriftTauHours)
	}
	return m
}

// at returns the drift of link i at time t in seconds.
func (m *driftModel) at(link int, tSeconds float64) float64 {
	th := tSeconds / 3600
	return m.linkAt(link, th, m.global.at(th))
}

// linkAt returns the drift of link i at time th (hours) given the global
// chain's value g at th, which every link shares.
func (m *driftModel) linkAt(link int, th, g float64) float64 {
	return m.corr*g + m.idio*m.links[link].at(th)
}

// spatialAt returns the target-effect drift of link `link` for a target
// at normalized along-link position x in [0, 1] at time t (seconds).
func (m *driftModel) spatialAt(link int, x, tSeconds float64) float64 {
	s1, s2 := harmonics(x)
	return m.spatialHarmonics(link, tSeconds/3600, s1, s2)
}

// harmonics returns the two spatial drift harmonics sin(pi*x) and
// sin(2*pi*x) at normalized along-link position x.
func harmonics(x float64) (s1, s2 float64) {
	return math.Sin(math.Pi * x), math.Sin(2 * math.Pi * x)
}

// spatialHarmonics is spatialAt at time th (hours) for a position whose
// harmonics are s1, s2.
func (m *driftModel) spatialHarmonics(link int, th, s1, s2 float64) float64 {
	return m.bump[link].at(th)*s1 + 0.5*m.bump2[link].at(th)*s2
}
