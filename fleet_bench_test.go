package iupdater_test

import (
	"fmt"
	"testing"

	"iupdater"
)

// benchFleetSite builds one durable site over an in-memory store
// backend with a smooth synthetic fingerprint map, mirroring the
// root-package fleet tests but from the external bench package.
// monitor, when non-nil, is the site's MonitorFactory.
func benchFleetSite(b *testing.B, f *iupdater.Fleet, name string, seed int, monitor func(*iupdater.Deployment) (*iupdater.Monitor, error)) *iupdater.Site {
	b.Helper()
	geo := iupdater.Geometry{WidthM: 8, HeightM: 4, Links: 4, PerStrip: 24}
	rows := make([][]float64, geo.Links)
	for i := range rows {
		rows[i] = make([]float64, geo.NumCells())
		for j := range rows[i] {
			rows[i][j] = -40 - float64((i*31+j*7+seed*13)%200)/10
		}
	}
	fp, err := iupdater.MatrixFromRows(rows)
	if err != nil {
		b.Fatal(err)
	}
	st, err := iupdater.OpenStore("", iupdater.WithBackend(iupdater.NewMemoryBackend()), iupdater.WithoutSync())
	if err != nil {
		b.Fatal(err)
	}
	d, err := iupdater.NewDeployment(fp, geo, iupdater.WithStore(st))
	if err != nil {
		b.Fatal(err)
	}
	site, err := f.AddSite(name, iupdater.SiteConfig{Deployment: d, MonitorFactory: monitor})
	if err != nil {
		b.Fatal(err)
	}
	return site
}

// BenchmarkFleetHotQuery measures the resident-site query path through
// the fleet: Site.Hydrate (one atomic load plus an LRU touch) followed
// by Snapshot and Locate. The whole chain must stay on the lock-free
// path — allocs/op budget <= 2 (0 measured; the Locate scratch is
// pooled), enforced by scripts/bench.sh.
func BenchmarkFleetHotQuery(b *testing.B) {
	f := iupdater.NewFleet(iupdater.WithResidentLimit(4))
	defer f.Close()
	var hot *iupdater.Site
	for i := 0; i < 4; i++ {
		s := benchFleetSite(b, f, fmt.Sprintf("site-%d", i), i+1, nil)
		if i == 0 {
			hot = s
		}
	}
	probe := []float64{-41, -43.5, -47, -52}
	// Warm the locate scratch pool (per-P) so b.N measures the steady
	// state even at -benchtime 1x.
	for i := 0; i < 64; i++ {
		d, _, err := hot.Hydrate()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Snapshot().Locate(probe); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := hot.Hydrate()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Snapshot().Locate(probe); err != nil {
			b.Fatal(err)
		}
	}
	// Stop before the deferred fleet teardown, which would otherwise be
	// timed (and billed) against the final iteration.
	b.StopTimer()
}

// BenchmarkFleetColdQuery measures the park/rehydrate cycle end to end:
// with a resident budget of one, two sites queried alternately evict
// each other every iteration, so each op pays a full store read, delta
// resolution, snapshot materialization and index build. This is the
// latency a cold site's first query sees (also exported live as the
// iupdater_site_rehydration_seconds histogram).
func BenchmarkFleetColdQuery(b *testing.B) {
	f := iupdater.NewFleet(iupdater.WithResidentLimit(1))
	defer f.Close()
	pair := []*iupdater.Site{
		benchFleetSite(b, f, "even", 1, nil),
		benchFleetSite(b, f, "odd", 2, nil),
	}
	probe := []float64{-41, -43.5, -47, -52}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := pair[i%2].Hydrate()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Snapshot().Locate(probe); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := f.Stats(); st.Rehydrations == 0 {
		b.Fatal("cold bench never rehydrated")
	}
}

// BenchmarkFleetColdQueryMonitored is BenchmarkFleetColdQuery with a
// drift monitor on each site and one Observe per op, so each op also
// parks the other site's monitor and rebuilds this one's: the cycle a
// cold query pays in serve mode with -monitor. Parking keeps the
// monitor's state in memory, so no op reads or writes a state blob.
func BenchmarkFleetColdQueryMonitored(b *testing.B) {
	f := iupdater.NewFleet(iupdater.WithResidentLimit(1))
	defer f.Close()
	monitor := func(d *iupdater.Deployment) (*iupdater.Monitor, error) {
		return iupdater.NewMonitor(d, nil)
	}
	pair := []*iupdater.Site{
		benchFleetSite(b, f, "even", 1, monitor),
		benchFleetSite(b, f, "odd", 2, monitor),
	}
	probe := []float64{-41, -43.5, -47, -52}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, mon, err := pair[i%2].Hydrate()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Snapshot().Locate(probe); err != nil {
			b.Fatal(err)
		}
		if err := mon.Observe(probe); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := f.Stats(); st.Rehydrations == 0 {
		b.Fatal("cold bench never rehydrated")
	}
}
