package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"iupdater"
)

// workload is one traffic mix against one serve configuration. The
// README explains why each exists and which layers it exercises.
type workload struct {
	name string
	env  string
	// sites is how many sites receive locates; site i is surveyed from
	// testbed seed serveSeed+i, as serve's -seed does. probe adds one more
	// site, never queried, that takes the workload's updates so the
	// queried site stays stationary.
	sites int
	probe bool
	// batch is the measurements per locate request; 0 sends one rss.
	batch int
	// ladder lists the locate rates (requests/s) stepped through in
	// ascending order; ref is the one whose latency is reported.
	ladder []float64
	ref    float64
	// limitMs is the p99 latency a step must stay within to count as
	// meeting its rate.
	limitMs float64
	// conns is how many connections carry locates; update-mix keeps the
	// second for its update stream.
	conns int

	monitor  bool
	durable  bool
	retain   int
	resident int
	follower bool
	// updateRate, when non-zero, runs open-loop updates of updateDays at
	// this rate beside the locate steps for the whole run (update-mix).
	updateRate float64
	// precondition is how many untimed updates of preconditionDays each
	// site takes before the load, so parked sites rehydrate through a
	// delta chain (fleet-cold).
	precondition int
}

const (
	serveSeed = 1
	// updateDays is the simulated time one measured update advances.
	updateDays = 0.05
	// preconditionDays is the simulated time one preconditioning update
	// advances.
	preconditionDays = 1.0
	// postUpdates is how many closed-loop updates the workloads without
	// an update stream take in a run, so that every workload exercises
	// and reports its update path: 200 samples carry a p95.
	postUpdates = 200
	// measureSpacing separates the simulated measurement times of
	// consecutive queries: the channel's noise is a function of time, so
	// each query gets fresh noise, and 1440 of them span one hour, over
	// which drift is negligible.
	measureSpacing = 2500 * time.Millisecond
	measureCycle   = 1440
)

var workloads = []workload{
	{
		name: "query-single", env: "hall", sites: 1, probe: true,
		ladder: []float64{2000, 4000, 8000, 12000}, ref: 4000, limitMs: 2, conns: 2,
		monitor: true,
	},
	{
		name: "query-batch", env: "hall", sites: 1, probe: true, batch: 256,
		ladder: []float64{100, 200, 500, 1000}, ref: 200, limitMs: 25, conns: 2,
		monitor: true,
	},
	{
		name: "update-mix", env: "office", sites: 1,
		ladder: []float64{500, 1000, 2000, 4000}, ref: 1000, limitMs: 5, conns: 1,
		durable: true, retain: 64, follower: true, updateRate: 20,
	},
	{
		name: "fleet-cold", env: "office", sites: 64,
		ladder: []float64{300, 600, 1200, 2400}, ref: 600, limitMs: 10, conns: 2,
		monitor: true, durable: true, resident: 8, precondition: 4,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func pickEnv(name string) iupdater.Environment {
	if name == "hall" {
		return iupdater.Hall()
	}
	return iupdater.Office()
}

// siteNames returns the serve site names: "default" for one site (serve's
// name without -sites) and "probe" after it, s0..s{n-1} for a fleet.
func (w workload) siteNames() []string {
	if w.sites == 1 {
		if w.probe {
			return []string{"default", "probe"}
		}
		return []string{"default"}
	}
	names := make([]string, w.sites)
	for i := range names {
		names[i] = "s" + strconv.Itoa(i)
	}
	return names
}

// serveArgs returns the serve command line for a set-up rooted at dir.
func (w workload) serveArgs(dir string) []string {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-env", w.env, "-seed", strconv.Itoa(serveSeed)}
	if names := w.siteNames(); len(names) > 1 {
		spec := ""
		for i, name := range names {
			if i > 0 {
				spec += ","
			}
			spec += name + "=" + w.env
		}
		args = append(args, "-sites", spec)
	}
	if w.monitor {
		args = append(args, "-monitor")
	}
	if w.durable {
		args = append(args, "-data-dir", dir)
	}
	if w.retain > 0 {
		args = append(args, "-retain", strconv.Itoa(w.retain))
	}
	if w.resident > 0 {
		args = append(args, "-resident", strconv.Itoa(w.resident))
	}
	return args
}

// startDay is the simulated time the load's queries are measured at: after
// the preconditioning updates.
func (w workload) startDay() time.Duration {
	return days(float64(w.precondition) * preconditionDays)
}

// days converts simulated days to a duration exactly as serve's update
// handler does, so clocks computed here match the server's bit for bit.
func days(d float64) time.Duration { return time.Duration(d * float64(24*time.Hour)) }

// query is one pre-generated locate request: the true target positions,
// the RSS measured there, and the request bytes.
type query struct {
	site  int
	truth [][2]float64
	rss   [][]float64
	body  []byte
	raw   []byte
}

// world is what the benchmark generates from its seed: per-site testbeds
// (the same simulated worlds serve's sites are surveyed from) and the
// query pool.
type world struct {
	w     workload
	names []string
	tbs   []*iupdater.Testbed
	geo   iupdater.Geometry
	rng   *rand.Rand
}

func newWorld(w workload, seed uint64) *world {
	env := pickEnv(w.env)
	wd := &world{
		w:     w,
		names: w.siteNames(),
		geo:   env.Geometry(),
		rng:   rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908)),
	}
	for i := range wd.names {
		wd.tbs = append(wd.tbs, iupdater.NewTestbed(env, serveSeed+uint64(i)))
	}
	return wd
}

// makeQuery draws uniform target positions for a request to site (a
// uniformly drawn queried site when site < 0) and measures their RSS at
// at plus the k-th measurement offset.
func (wd *world) makeQuery(site int, at time.Duration, k int) query {
	if site < 0 {
		site = wd.rng.IntN(wd.w.sites)
	}
	n := max(wd.w.batch, 1)
	q := query{site: site}
	for m := 0; m < n; m++ {
		x := wd.rng.Float64() * wd.geo.WidthM
		y := wd.rng.Float64() * wd.geo.HeightM
		t := at + time.Duration((k*n+m)%measureCycle)*measureSpacing
		q.truth = append(q.truth, [2]float64{x, y})
		q.rss = append(q.rss, wd.tbs[site].MeasureOnline(x, y, t))
	}
	q.body = locateBody(q.rss, wd.w.batch > 0)
	q.raw = buildRequest("POST", "/sites/"+wd.names[site]+"/locate", q.body)
	return q
}

// pool generates n queries to uniformly drawn sites at the workload's
// start day.
func (wd *world) pool(n int) []query {
	out := make([]query, n)
	for k := range out {
		out[k] = wd.makeQuery(-1, wd.w.startDay(), k)
	}
	return out
}

// locateBody encodes a locate request as serve's handler expects it.
func locateBody(rss [][]float64, batch bool) []byte {
	b := []byte(`{"rss":`)
	if batch {
		b = []byte(`{"batch":[`)
	}
	for m, v := range rss {
		if m > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, v)
	}
	if batch {
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendFloats(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func updateRequest(site string, d float64) []byte {
	return buildRequest("POST", "/sites/"+site+"/update",
		[]byte(`{"days":`+strconv.FormatFloat(d, 'g', -1, 64)+`}`))
}

// mirror replays one site's update sequence in process: the same survey,
// the same testbed measurements at the same simulated times and the same
// solver settings serve uses, so its snapshots are what the server must
// serve bit for bit.
type mirror struct {
	tb    *iupdater.Testbed
	d     *iupdater.Deployment
	clock time.Duration
	snaps map[uint64]*iupdater.Snapshot
}

func newMirror(env iupdater.Environment, seed uint64, opts ...iupdater.Option) (*mirror, error) {
	tb := iupdater.NewTestbed(env, seed)
	opts = append([]iupdater.Option{iupdater.WithUpdateConcurrency(1)}, opts...)
	d, _, err := tb.Deploy(0, 50, opts...)
	if err != nil {
		return nil, err
	}
	return &mirror{tb: tb, d: d, snaps: map[uint64]*iupdater.Snapshot{1: d.Snapshot()}}, nil
}

// update applies one update of d simulated days exactly as serve's
// handler does. refresh first rebuilds the updater from the latest
// snapshot, as a site rehydrated from its store does.
func (m *mirror) update(d float64, refresh bool) (*iupdater.Snapshot, error) {
	if refresh {
		if err := m.d.Refresh(); err != nil {
			return nil, err
		}
	}
	refs, err := m.d.ReferenceLocations()
	if err != nil {
		return nil, err
	}
	at := m.clock + days(d)
	noDec := m.tb.NoDecreaseMatrix(at)
	known := m.tb.Mask()
	xr, _ := m.tb.ReferenceMatrix(at, refs)
	snap, err := m.d.Update(noDec, known, xr)
	if err != nil {
		return nil, err
	}
	m.clock = at
	m.snaps[snap.Version()] = snap
	return snap, nil
}

// reconError is the paper's reconstruction error (Figs 16-19): the mean
// absolute difference in dB between fp and the noise-free truth at the
// mirror's clock over the labor-cost entries (those the no-decrease scan
// cannot measure).
func (m *mirror) reconError(fp iupdater.Matrix) float64 {
	truth := m.tb.TrueMatrix(m.clock)
	known := m.tb.Mask()
	var sum float64
	var n int
	for i := 0; i < truth.Rows(); i++ {
		for j := 0; j < truth.Cols(); j++ {
			if !known.Known(i, j) {
				sum += math.Abs(fp.At(i, j) - truth.At(i, j))
				n++
			}
		}
	}
	return sum / float64(n)
}
