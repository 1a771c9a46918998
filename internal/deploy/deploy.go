// Package deploy assembles the paper's platform (§2) as one deployment:
// the package server that publishes the courses the authoring tool
// exports, the telemetry ingest that records their play, the play service
// that hosts sessions for learners "via network", and the metrics registry
// every one of them reports into. It is the one place that knows the
// route layout and the publish rule: every full-stack caller (vgbl-server,
// vgbl-loadtest's in-process mode, examples, experiments, the fleet
// gates) builds its stack here.
//
// Routes, next to the package server's own /pkg/, /manifest/, /chunk/,
// /res/ and /list:
//
//	/telemetry/     ingest and stats (telemetry.Service)
//	/healthz        readiness (telemetry.Service)
//	/play/, /room/  the play service: one Manager, or a Cluster's Gateway
//	/metrics        every subsystem's families (?format=json)
//	/debug/traces   the play surface's span ring
package deploy

import (
	"net/http"

	"repro/internal/blobstore"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/telemetry"
)

// Config is every setting a deployment has; each field is an existing
// subsystem's own options.
type Config struct {
	// Store is the package server's chunk store; a nil Backend is an
	// in-memory tier.
	Store     blobstore.Options
	Telemetry telemetry.Options
	// Play is the play service: Play.Node configures the one Manager (or
	// every cluster node), Play.HTTP is the gateway's transport.
	Play playsvc.ClusterOptions
	// Nodes > 0 runs the play service as that many nodes behind a
	// consistent-hash gateway instead of one in-process Manager.
	Nodes int
}

// Deployment is the http.Handler for every route. Exactly one of Play and
// Cluster is set.
type Deployment struct {
	Store     *blobstore.Store
	Telemetry *telemetry.Service
	Play      *playsvc.Manager
	Cluster   *playsvc.Cluster
	Registry  *obs.Registry

	srv       *netstream.Server
	addCourse func(name string, blob []byte) error
}

// New builds a deployment and, with Nodes > 0, starts its play nodes.
func New(c Config) (*Deployment, error) {
	if c.Store.Backend == nil {
		c.Store.Backend = blobstore.NewMemory()
	}
	store, err := blobstore.New(c.Store)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Store:     store,
		Telemetry: telemetry.NewService(c.Telemetry),
		Registry:  obs.NewRegistry("vgbl"),
		srv:       netstream.NewServerWith(store),
	}
	var play, traces http.Handler
	if c.Nodes > 0 {
		if d.Cluster, err = playsvc.NewCluster(c.Play); err != nil {
			d.Close()
			return nil, err
		}
		for i := 0; i < c.Nodes; i++ {
			if _, err := d.Cluster.StartNode(); err != nil {
				d.Close()
				return nil, err
			}
		}
		d.Cluster.Gateway().Register(d.Registry)
		play, traces = d.Cluster.Gateway().Handler(), d.Cluster.Gateway().Ring().Handler()
		d.addCourse = d.Cluster.AddCourse
	} else {
		d.Play = playsvc.NewManager(c.Play.Node)
		d.Play.Register(d.Registry)
		play, traces = d.Play.Handler(), d.Play.Ring().Handler()
		d.addCourse = d.Play.AddCourse
	}
	store.Register(d.Registry)
	d.srv.Register(d.Registry)
	d.Telemetry.Register(d.Registry)
	ingest := d.Telemetry.Handler()
	for _, m := range []struct {
		pattern string
		h       http.Handler
	}{
		{"/telemetry/", ingest},
		{telemetry.HealthPath, ingest},
		{"/play/", play},
		{"/room/", play},
		{"/metrics", d.Registry.Handler()},
		{"/debug/traces", traces},
	} {
		if err := d.srv.Mount(m.pattern, m.h); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// Publish is the only way a course enters a deployment: its package goes
// to the package server, then to the play service.
func (d *Deployment) Publish(name string, blob []byte) error {
	if err := d.srv.AddPackage(name, blob); err != nil {
		return err
	}
	return d.addCourse(name, blob)
}

// Names lists the published courses, sorted.
func (d *Deployment) Names() []string { return d.srv.Names() }

// AddResource publishes a text resource at /res/<name>.
func (d *Deployment) AddResource(name, content string) { d.srv.AddResource(name, content) }

// ServeHTTP serves every route.
func (d *Deployment) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.srv.ServeHTTP(w, r) }

// Close stops the play service and the telemetry ingest.
func (d *Deployment) Close() {
	if d.Cluster != nil {
		d.Cluster.Close()
	}
	if d.Play != nil {
		d.Play.Close()
	}
	d.Telemetry.Close()
}
