// Leader/follower replication: a read-only replica tails a leader's
// record log, serves bit-identical localization, survives a disconnect,
// and finally takes over the version line.
//
// iUpdater keeps fingerprint updates cheap; this walkthrough makes the
// read path cheap to scale the same way. A leader office site publishes
// its snapshot record log over HTTP (the wire format IS the on-disk
// record format — CRC-framed snapshot records).
// A follower opens a Replica against that endpoint, validates every
// streamed record exactly like the store's own crash recovery, and
// swaps materialized snapshots behind the same atomic pointer a
// Deployment uses — so Locate on the replica is lock-free and
// bit-identical to the leader at the same version. The leader then
// drifts and updates (a full record on the wire), the follower's connections
// are all severed and it resumes on its own, and at the end the
// follower is promoted: it continues the leader's version line as a
// writer, durably, in its own store.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"iupdater"
)

const day = 24 * time.Hour

func main() {
	root, err := os.MkdirTemp("", "iupdater-replica-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// --- Leader: a durable office site, serving its record log. -------
	leaderStore, err := iupdater.OpenStore(filepath.Join(root, "leader"))
	if err != nil {
		log.Fatal(err)
	}
	defer leaderStore.Close()
	tb := iupdater.NewTestbed(iupdater.Office(), 1)
	leader, _, err := tb.Deploy(0, 50, iupdater.WithStore(leaderStore))
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(leader.ServeRecords())
	fmt.Printf("leader: office surveyed, snapshot v%d, records endpoint %s\n",
		leader.Version(), srv.URL)

	// --- Follower: a replica tailing that endpoint. -------------------
	// Its store is only used at promotion time; while following, the
	// leader owns durability.
	followerStore, err := iupdater.OpenStore(filepath.Join(root, "follower"))
	if err != nil {
		log.Fatal(err)
	}
	defer followerStore.Close()
	rep, err := iupdater.OpenReplica(srv.URL,
		iupdater.WithReplicaStore(followerStore),
		iupdater.WithReplicaWait(500*time.Millisecond),
		iupdater.WithReplicaBackoff(10*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := rep.WaitVersion(ctx, leader.Version()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("follower: bootstrapped at v%d (lag %d)\n", rep.Version(), rep.Lag())

	// Same measurement, both sides: the replica answers queries without
	// ever talking to the leader's query path.
	cx, cy := tb.CellCenter(42)
	rss := tb.MeasureOnline(cx, cy, time.Hour)
	lp, _ := leader.Locate(rss)
	fp, _ := rep.Locate(rss)
	fmt.Printf("locate on both: leader (%.2f, %.2f) follower (%.2f, %.2f) — identical: %v\n",
		lp.X, lp.Y, fp.X, fp.Y, lp == fp)

	// --- Drift and update: a full record crosses the wire. ------------
	refs, err := leader.ReferenceLocations()
	if err != nil {
		log.Fatal(err)
	}
	xr, _ := tb.ReferenceMatrix(30*day, refs)
	snap, err := leader.Update(tb.NoDecreaseMatrix(30*day), tb.Mask(), xr)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rep.WaitVersion(ctx, snap.Version()); err != nil {
		log.Fatal(err)
	}
	recs := leaderStore.Records()
	last := recs[len(recs)-1]
	fmt.Printf("leader updated to v%d (%s record, %d bytes on the wire); follower at v%d\n",
		snap.Version(), last.Kind, last.Bytes, rep.Version())

	// A tiny recalibration — one fingerprint column touched — persists
	// and replicates as a full record too: every publish writes the
	// whole snapshot. (Followers still read the changed-columns delta
	// records that stores written by earlier versions hold.)
	rows := snap.Fingerprints().ToRows()
	for i := range rows {
		rows[i][10] += 0.5
	}
	tweaked, err := iupdater.MatrixFromRows(rows)
	if err != nil {
		log.Fatal(err)
	}
	if snap, err = leader.Install(tweaked); err != nil {
		log.Fatal(err)
	}
	if _, err := rep.WaitVersion(ctx, snap.Version()); err != nil {
		log.Fatal(err)
	}
	recs = leaderStore.Records()
	last = recs[len(recs)-1]
	fmt.Printf("recalibration published v%d (%s record, %d bytes on the wire); follower at v%d\n",
		snap.Version(), last.Kind, last.Bytes, rep.Version())

	// --- Disconnect: every follower connection is severed. ------------
	// The tailer reconnects with capped, jittered backoff and resumes
	// from its last applied version; records published while it was
	// down are streamed on the next poll.
	srv.CloseClientConnections()
	xr2, _ := tb.ReferenceMatrix(60*day, refs)
	snap, err = leader.Update(tb.NoDecreaseMatrix(60*day), tb.Mask(), xr2)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rep.WaitVersion(ctx, snap.Version()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after forced disconnect: follower resumed to v%d (lag %d)\n",
		rep.Version(), rep.Lag())

	// --- Promotion: the follower becomes the writer. ------------------
	// The old leader retires; Promote seeds the follower's own store
	// with the takeover snapshot and returns a Deployment whose next
	// publish continues the same monotone version line.
	srv.Close()
	promoted, err := rep.Promote()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted at v%d; follower store now holds %v\n",
		promoted.Version(), followerStore.Versions())
	xr3, _ := tb.ReferenceMatrix(90*day, refs)
	snap, err = promoted.Update(tb.NoDecreaseMatrix(90*day), tb.Mask(), xr3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-promotion update published v%d — the line continued without a gap\n",
		snap.Version())
}
