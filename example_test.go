package iupdater_test

import (
	"context"
	"fmt"
	"time"

	"iupdater"
)

// ExampleDeployment shows the serving API: a long-lived Deployment that
// refreshes its fingerprint database in place (publishing versioned
// snapshots) while answering localization queries. The simulation is
// deterministic for a given seed, so the output is reproducible.
func ExampleDeployment() {
	tb := iupdater.NewTestbed(iupdater.Office(), 1)

	// Day 0: original site survey, served as snapshot v1.
	dep, _, err := tb.Deploy(0, 50)
	if err != nil {
		panic(err)
	}
	refs, err := dep.ReferenceLocations()
	if err != nil {
		panic(err)
	}
	fmt.Println("reference locations:", refs)

	// Day 45: refresh from the no-decrease scan + 8 reference columns.
	at := 45 * 24 * time.Hour
	columns, labor := tb.ReferenceMatrix(at, refs)
	snap, err := dep.Update(tb.NoDecreaseMatrix(at), tb.Mask(), columns)
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot v%d published after %s of labor\n",
		snap.Version(), labor.Duration.Round(time.Second))

	// Localize a batch of online measurements against the new snapshot.
	cx, cy := tb.CellCenter(42)
	batch := [][]float64{
		tb.MeasureOnline(cx, cy, at+time.Hour),
		tb.MeasureOnline(cx, cy, at+2*time.Hour),
	}
	positions, err := dep.LocateBatch(context.Background(), batch)
	if err != nil {
		panic(err)
	}
	for _, p := range positions {
		cell, err := dep.LocateCell(tb.MeasureOnline(p.X, p.Y, at+3*time.Hour))
		if err != nil {
			panic(err)
		}
		fmt.Println("target located at cell:", cell)
	}
	// Output:
	// reference locations: [11 23 35 47 59 71 83 95]
	// snapshot v2 published after 55s of labor
	// target located at cell: 42
	// target located at cell: 42
}
