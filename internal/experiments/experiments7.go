package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// E16 is the resilience experiment: the same interactive classroom fleet
// against the same 3-node cluster, run once per network condition —
// clean, wifi-flaky (a few percent of requests dropped, reset or turned
// into 503s), and partition (the network vanishes for 400ms out of every
// 2s). Both the fleet→gateway and gateway→node paths cross the injector.
// The point is the price of survival: every run must finish with zero
// failed learners and exact telemetry accounting, and the table shows
// what the retries, rescues and breaker trips cost in throughput.
func E16(learners int) (string, error) {
	if learners <= 0 {
		learners = 100
	}
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E16 — surviving bad networks: one fleet, three conditions\n")
	fmt.Fprintf(&b, "%d interactive learners through a 3-node cluster; every HTTP hop\n", learners)
	b.WriteString("(fleet→gateway, fleet→server, gateway→node) crosses a seeded fault\n")
	b.WriteString("injector; the stack's retries/breakers/rescues must absorb it all\n\n")
	fmt.Fprintf(&b, "%-12s %10s %7s %7s %9s %9s %8s %8s %7s\n",
		"profile", "sess/s", "done", "failed", "injected", "retries", "rescues", "recovers", "trips")

	for _, name := range []string{"clean", "wifi-flaky", "partition"} {
		profile, ok := faultnet.Lookup(name)
		if !ok {
			return "", fmt.Errorf("unknown profile %q", name)
		}
		row, err := e16Run(blob, profile, learners)
		if err != nil {
			return "", fmt.Errorf("profile %s: %w", name, err)
		}
		b.WriteString(row)
	}
	b.WriteString("\nzero failed learners in every row: the injected drops, resets,\n")
	b.WriteString("503s and outages cost throughput, never sessions or telemetry.\n")
	return b.String(), nil
}

// e16Run drives one fleet through one fault profile and formats the
// resilience counters as a table row.
func e16Run(blob []byte, profile faultnet.Profile, learners int) (string, error) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		return "", err
	}
	svc := telemetry.NewService(telemetry.Options{})
	defer svc.Close()
	if err := srv.Mount("/telemetry/", svc.Handler()); err != nil {
		return "", err
	}
	front := httptest.NewServer(srv)
	defer front.Close()

	// The gateway's backend hops ride their own injected transport so the
	// breakers see real faults; a separate seed keeps the two fault
	// streams uncorrelated, exactly like the chaos gate.
	gwTr := faultnet.NewTransport(faultnet.NewHTTPTransport(64), profile, 7)
	cl, err := playsvc.NewCluster(playsvc.ClusterOptions{
		HTTP: &http.Client{Transport: gwTr},
		Node: playsvc.Options{TTL: -1, CheckpointEvery: 50 * time.Millisecond},
	})
	if err != nil {
		return "", err
	}
	defer cl.Close()
	if err := cl.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.StartNode(); err != nil {
			return "", err
		}
	}
	gw := httptest.NewServer(cl.Gateway().Handler())
	defer gw.Close()

	fleetTr := faultnet.NewTransport(faultnet.NewHTTPTransport(64), profile, 11)
	sum, err := fleet.Run(fleet.Config{
		ServerURL:   front.URL,
		PlayURL:     gw.URL,
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Interactive: true,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, WatchEvery: 4},
		FlushEvery:  8,
		HTTP:        &http.Client{Transport: fleetTr},
	})
	if err != nil {
		return "", err
	}
	cs := svc.Store().Snapshot()["classroom"]
	if cs.SessionsStarted != learners || cs.SessionsEnded != learners || cs.LiveSessions != 0 {
		return "", fmt.Errorf("telemetry accounting skewed: %+v", cs)
	}

	gs := cl.Gateway().Stats().Gateway
	gwSt, flSt := gwTr.Stats(), fleetTr.Stats()
	injected := gwSt.Drops + gwSt.Resets + gwSt.Errors + gwSt.Outages +
		flSt.Drops + flSt.Resets + flSt.Errors + flSt.Outages
	return fmt.Sprintf("%-12s %10.1f %7d %7d %9d %9d %8d %8d %7d\n",
		profile.Name, sum.SessionsPerSec, sum.Completed, sum.Failed, injected,
		gs["retries"], gs["rescues"], gs["recoveries"], gs["breaker_trips"]), nil
}
