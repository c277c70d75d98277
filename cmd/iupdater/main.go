// Command iupdater demonstrates the library on the simulated testbed:
//
//	iupdater survey   [-env office|library|hall] [-seed n]
//	iupdater update   [-env ...] [-seed n] [-days d]
//	iupdater localize [-env ...] [-seed n] [-days d] [-x m -y m]
//	iupdater labor    [-scale k]
//	iupdater serve    [-env ...] [-seed n] [-addr :8080] [-workers n]
//	                  [-sites name=env,...] [-data-dir dir] [-retain n]
//	                  [-follow name=url,...]
//	iupdater replicate -leader url [-site name] [-addr :8081]
//
// survey prints the original fingerprint database and its labor cost;
// update runs the iUpdater refresh after the given number of days and
// reports accuracy and labor; localize runs an online localization with
// the refreshed database; labor prints the update-cost model; serve runs
// a long-lived localization service over HTTP/JSON (POST /locate,
// POST /update, GET /snapshot) backed by testbed-seeded Deployments.
// With -monitor, serve also attaches a drift Monitor per site fed from
// /locate traffic (status under GET /drift) that refreshes the database
// automatically when the environment changes; SIGINT/SIGTERM drain the
// server gracefully.
//
// With -sites, serve hosts a fleet of named site deployments: GET /sites
// lists every site's version, search-tier and drift summary, GET
// /metrics serves the fleet-wide Prometheus text exposition (latency
// histograms, search work, drift and per-link attribution, store and
// replication state, one site label per sample), and each site answers
// under /sites/{name}/locate|update|snapshot|drift|rollback|records
// (the bare routes remain aliases for the first site). Sites also come
// and go at runtime: PUT /sites/{name} creates one (JSON body: env,
// seed, token, monitor), DELETE removes it, and a site created with a
// token requires it as a bearer Authorization header on every mutating
// route. With -data-dir, every
// published snapshot is persisted to an append-only checksummed store
// under dir/<site>, a restart warm-starts from the latest version (no
// re-survey, resumed drift baseline), API-created sites are recorded
// in dir/fleet.manifest and re-created warm on the next start, POST
// .../rollback?version=N republishes a retained version, and -retain
// bounds how many versions each site keeps. -resident caps how many
// sites stay materialized in RAM: past the cap, cold durable sites
// park and the next query re-materializes them from their store.
//
// Durable sites also stream their snapshot record log to followers
// under GET /records (per-site: /sites/{name}/records). A follower —
// serve's -follow flag, or the dedicated replicate mode — tails that
// endpoint, validates every record like the store's own crash
// recovery, and serves read-only localization that is bit-identical to
// the leader at the same version; its replication lag shows under
// GET /sites, and writes against it answer 409.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"iupdater"
	"iupdater/internal/eval"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "survey":
		err = runSurvey(os.Args[2:])
	case "update":
		err = runUpdate(os.Args[2:])
	case "localize":
		err = runLocalize(os.Args[2:])
	case "labor":
		err = runLabor(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "replicate":
		err = runReplicate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "iupdater: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: iupdater <survey|update|localize|labor|serve> [flags]

  survey    run the original full site survey and print its cost
  update    refresh the database after -days days of drift
  localize  refresh, then localize a target at (-x, -y)
  labor     print the labor-cost model for a -scale x larger area
  serve     run the HTTP localization service (multi-site with -sites,
            durable snapshot stores with -data-dir, follower sites
            with -follow)
  replicate run a read-only follower of a leader's records endpoint
`)
}

func envFlag(fs *flag.FlagSet) *string {
	return fs.String("env", "office", "environment: office, library or hall")
}

func pickEnv(name string) (iupdater.Environment, error) {
	switch name {
	case "office":
		return iupdater.Office(), nil
	case "library":
		return iupdater.Library(), nil
	case "hall":
		return iupdater.Hall(), nil
	default:
		return iupdater.Environment{}, fmt.Errorf("unknown environment %q", name)
	}
}

func runSurvey(args []string) error {
	fs := flag.NewFlagSet("survey", flag.ExitOnError)
	envName := envFlag(fs)
	seed := fs.Uint64("seed", 1, "deployment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := pickEnv(*envName)
	if err != nil {
		return err
	}
	tb := iupdater.NewTestbed(env, *seed)
	_, labor := tb.SurveyMatrix(0, 50)
	g := env.Geometry()
	fmt.Printf("environment: %s (%.0f m x %.0f m, %d links, %d cells)\n",
		env.Name(), g.WidthM, g.HeightM, g.Links, g.Links*g.PerStrip)
	fmt.Printf("full survey: %d locations, %s of human labor\n",
		labor.Locations, labor.Duration.Round(time.Second))
	return nil
}

func runUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	envName := envFlag(fs)
	seed := fs.Uint64("seed", 1, "deployment seed")
	days := fs.Int("days", 45, "days of drift before the update")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := pickEnv(*envName)
	if err != nil {
		return err
	}
	tb := iupdater.NewTestbed(env, *seed)
	original, fullLabor := tb.SurveyMatrix(0, 50)
	d, err := iupdater.NewDeployment(original, tb.Geometry())
	if err != nil {
		return err
	}
	at := time.Duration(*days) * 24 * time.Hour
	refs, err := d.ReferenceLocations()
	if err != nil {
		return err
	}
	xr, refLabor := tb.ReferenceMatrix(at, refs)
	snap, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), xr)
	if err != nil {
		return err
	}
	fresh := snap.Fingerprints()

	truth := tb.TrueMatrix(at)
	known := tb.Mask()
	var errFresh, errStale float64
	var cnt int
	for i := 0; i < truth.Rows(); i++ {
		for j := 0; j < truth.Cols(); j++ {
			if known.Known(i, j) {
				continue
			}
			errFresh += math.Abs(fresh.At(i, j) - truth.At(i, j))
			errStale += math.Abs(original.At(i, j) - truth.At(i, j))
			cnt++
		}
	}
	fmt.Printf("update after %d days in %s (snapshot v%d)\n", *days, env.Name(), snap.Version())
	fmt.Printf("reference locations (%d): %v\n", len(refs), refs)
	fmt.Printf("labor: %s (vs %s for a full re-survey, %.1f%% saved)\n",
		refLabor.Duration.Round(time.Second), fullLabor.Duration.Round(time.Second),
		100*(1-refLabor.Duration.Seconds()/fullLabor.Duration.Seconds()))
	fmt.Printf("mean error on labor-cost entries: %.2f dB reconstructed vs %.2f dB stale\n",
		errFresh/float64(cnt), errStale/float64(cnt))
	return nil
}

func runLocalize(args []string) error {
	fs := flag.NewFlagSet("localize", flag.ExitOnError)
	envName := envFlag(fs)
	seed := fs.Uint64("seed", 1, "deployment seed")
	days := fs.Int("days", 45, "days of drift before the update")
	x := fs.Float64("x", 6.0, "target x (m)")
	y := fs.Float64("y", 4.5, "target y (m)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := pickEnv(*envName)
	if err != nil {
		return err
	}
	tb := iupdater.NewTestbed(env, *seed)
	d, _, err := tb.Deploy(0, 50)
	if err != nil {
		return err
	}
	at := time.Duration(*days) * 24 * time.Hour
	refs, err := d.ReferenceLocations()
	if err != nil {
		return err
	}
	xr, _ := tb.ReferenceMatrix(at, refs)
	if _, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), xr); err != nil {
		return err
	}
	rss := tb.MeasureOnline(*x, *y, at+time.Hour)
	est, err := d.Locate(rss)
	if err != nil {
		return err
	}
	fmt.Printf("target at (%.2f, %.2f) m; online RSS: %v\n", *x, *y, compact(rss))
	fmt.Printf("estimate: (%.2f, %.2f) m, error %.2f m\n", est.X, est.Y, math.Hypot(est.X-*x, est.Y-*y))
	return nil
}

func runLabor(args []string) error {
	fs := flag.NewFlagSet("labor", flag.ExitOnError)
	scale := fs.Int("scale", 10, "edge-length multiplier of the deployment area")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Print(eval.LaborSavings().Render())
	if *scale > 1 {
		fmt.Printf("\nat %dx the edge length:\n", *scale)
		r := eval.Fig20LaborScaling()
		for _, pt := range r.Points {
			if pt.Scale == *scale {
				fmt.Printf("traditional: %.1f h, iUpdater: %.2f h\n",
					pt.TraditionalHours, pt.IUpdaterHours)
			}
		}
	}
	return nil
}

func compact(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*10) / 10
	}
	return out
}
