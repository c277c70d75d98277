// Quickstart: build a fingerprint database, let the environment drift for
// 45 days, refresh the database with iUpdater's 8 reference measurements,
// and localize a device-free target.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"iupdater"
)

func main() {
	// A simulated office deployment: 8 parallel Wi-Fi links over a
	// 12 m x 9 m room divided into 96 grid cells.
	tb := iupdater.NewTestbed(iupdater.Office(), 1)

	// Day 0: the original (expensive) site survey — a person stands at
	// every grid cell while all links record RSS.
	original, labor := tb.SurveyMatrix(0, 50)
	fmt.Printf("original survey: %d locations, %s of labor\n",
		labor.Locations, labor.Duration.Round(time.Second))

	// Serve it: the deployment selects the reference locations and
	// learns the correlation between them and the whole database.
	dep, err := iupdater.NewDeployment(original, tb.Geometry())
	if err != nil {
		log.Fatal(err)
	}
	refs, err := dep.ReferenceLocations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference locations for future updates: %v\n", refs)

	// Day 45: the RSS landscape has drifted several dB. Refresh the
	// whole database from a zero-labor scan plus 8 reference columns.
	at := 45 * 24 * time.Hour
	columns, refLabor := tb.ReferenceMatrix(at, refs)
	snap, err := dep.Update(tb.NoDecreaseMatrix(at), tb.Mask(), columns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update labor: %s (%.1f%% below a full re-survey)\n",
		refLabor.Duration.Round(time.Second),
		100*(1-refLabor.Duration.Seconds()/labor.Duration.Seconds()))

	// How much did the update help? Compare both databases against the
	// current noise-free truth on the entries that need the target.
	fresh, truth, known := snap.Fingerprints(), tb.TrueMatrix(at), tb.Mask()
	var freshErr, staleErr float64
	var n int
	for i := 0; i < truth.Rows(); i++ {
		for j := 0; j < truth.Cols(); j++ {
			if known.Known(i, j) {
				continue
			}
			freshErr += math.Abs(fresh.At(i, j) - truth.At(i, j))
			staleErr += math.Abs(original.At(i, j) - truth.At(i, j))
			n++
		}
	}
	fmt.Printf("database error: %.2f dB refreshed vs %.2f dB stale\n",
		freshErr/float64(n), staleErr/float64(n))

	// Localize a person standing near the middle of the room against the
	// refreshed snapshot.
	const tx, ty = 6.2, 4.4
	p, err := dep.Locate(tb.MeasureOnline(tx, ty, at+time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target at (%.1f, %.1f) m -> estimated (%.2f, %.2f) m, error %.2f m\n",
		tx, ty, p.X, p.Y, math.Hypot(p.X-tx, p.Y-ty))
}
