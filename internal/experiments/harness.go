package experiments

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

// The deployment experiments (E10, E14, E16, E17, E18) stand a deployment
// up one way: the classroom course published on deploy.New behind one
// loopback front, the guided classroom fleet pointed at that front, and
// the ingest checked against what the learners reported.

// classroomPackage is the classroom course every deployment experiment
// publishes, built once per process.
var classroomPackage = sync.OnceValues(func() ([]byte, error) {
	return content.Classroom().BuildPackage(studio.Options{QStep: 10})
})

// site is a deployment with the classroom course published, served on
// loopback at URL.
type site struct {
	*deploy.Deployment
	URL   string
	front *httptest.Server
}

// served publishes the classroom package on a deployment built from dc and
// serves it behind one loopback front.
func served(dc deploy.Config) (*site, error) {
	blob, err := classroomPackage()
	if err != nil {
		return nil, err
	}
	d, err := deploy.New(dc)
	if err != nil {
		return nil, err
	}
	if err := d.Publish("classroom", blob); err != nil {
		d.Close()
		return nil, err
	}
	front := httptest.NewServer(d)
	return &site{Deployment: d, URL: front.URL, front: front}, nil
}

// Close stops the front, then the deployment.
func (s *site) Close() {
	s.front.Close()
	s.Deployment.Close()
}

// classroomFleet is the seed-locked guided fleet every deployment
// experiment runs: 12 steps a learner, telemetry in batches of 8, and an
// interactive learner fetches a rendered frame every 4 steps.
func classroomFleet(url string, learners int, interactive bool) fleet.Config {
	cfg := fleet.Config{
		ServerURL:   url,
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Interactive: interactive,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, Seed: 977},
		FlushEvery:  8,
	}
	if interactive {
		cfg.Sim.WatchEvery = 4
	}
	return cfg
}

// telemetryExact checks that no learner failed and that the deployment
// ingested exactly what the learners reported: every session started and
// ended, none live, and the course totals equal the sum of the local
// per-session reports. It returns that sum.
func telemetryExact(d *deploy.Deployment, sum *fleet.Summary) (*analytics.Rolling, error) {
	if sum.Failed > 0 {
		return nil, fmt.Errorf("%d learners failed: %v", sum.Failed, sum.Errors)
	}
	var want analytics.Rolling
	for _, r := range sum.Reports {
		want.Add(r)
	}
	cs := d.Telemetry.Store().Snapshot()["classroom"]
	if cs.SessionsStarted != sum.Learners || cs.SessionsEnded != sum.Learners || cs.LiveSessions != 0 ||
		cs.Events != want.Events || cs.Decisions != want.Decisions || cs.Knowledge != want.Knowledge ||
		cs.Rewards != want.Rewards || cs.Completed != want.Completed {
		return nil, fmt.Errorf("ingest is not exact: ingested %+v, learners reported %+v", cs, want)
	}
	return &want, nil
}

// untimed is a deployment whose play nodes never evict an idle session:
// a session or room lives exactly as long as its client holds it.
func untimed(nodes int) deploy.Config {
	return deploy.Config{Play: playsvc.ClusterOptions{Node: playsvc.Options{TTL: -1}}, Nodes: nodes}
}

// durableCluster is the 3-node play cluster of the churn and fault
// experiments: no idle eviction, a checkpoint every 50 ms.
func durableCluster() deploy.Config {
	dc := untimed(3)
	dc.Play.Node.CheckpointEvery = 50 * time.Millisecond
	return dc
}
