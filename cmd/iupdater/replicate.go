package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iupdater"
)

// runReplicate is the follower-only serving mode: it opens one replica
// tailing a leader's records endpoint and serves read-only
// localization from it — the cheap fan-out half of leader/follower
// scale-out. The replica resumes across disconnects on its own; the
// process carries no durable state unless the operator promotes the
// library-level Replica elsewhere.
func runReplicate(args []string) error {
	fs := flag.NewFlagSet("replicate", flag.ExitOnError)
	leader := fs.String("leader", "", "leader records URL (e.g. http://leader:8080/sites/default/records); required")
	name := fs.String("site", "default", "registry name for the replica site")
	addr := fs.String("addr", ":8081", "listen address")
	workers := fs.Int("workers", 0, "batch-locate worker pool size (0 = GOMAXPROCS)")
	wait := fs.Duration("wait", 25*time.Second, "long-poll duration requested from the leader")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leader == "" {
		return fmt.Errorf("replicate: -leader is required")
	}
	if err := checkSiteName(*name); err != nil {
		return err
	}

	s := newServer(*workers)
	defer s.fleet.Close()
	rep, err := iupdater.OpenReplica(*leader, iupdater.WithReplicaWait(*wait))
	if err != nil {
		return err
	}
	if _, err := s.fleet.AddReplica(*name, rep); err != nil {
		rep.Close()
		return err
	}
	s.claimDefault(*name)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := s.httpServer()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("replica site %s following %s on %s (POST /locate, GET /snapshot|/sites; writes answer 409)",
		*name, *leader, ln.Addr())
	return serveUntil(ctx, srv, ln, *drainTimeout, func() {
		if err := s.fleet.Close(); err != nil {
			log.Printf("closing fleet: %v", err)
		}
	})
}
