// Cluster: an in-process multi-node play service.
//
// Cluster owns N backend nodes — each a stock play-service Manager behind
// its own HTTP listener, exactly what `vgbl-server` runs — plus the
// Gateway that routes across them. All nodes open their courses from one
// content-addressed chunk store and share one snapshot directory, which is
// the entire coordination surface: session handoff is a freeze into the
// directory on one node and a thaw out of it on another.
//
// It backs `vgbl-server -cluster N`, the churn experiment (E14) and the
// TestClusterChurnResume scale gate. A multi-host deployment would run
// the same node binary per machine with a Disk-backed store and a shared
// SnapshotDir implementation; the lifecycle below is the single-process
// equivalent.
package playsvc

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/gamepack"
	"repro/internal/obs"
)

// ClusterOptions configures a Cluster.
type ClusterOptions struct {
	// Store is the shared chunk store the nodes open courses from.
	// Defaults to a fresh in-memory store.
	Store *blobstore.Store
	// Dir is the shared snapshot directory. Defaults to a fresh MemDir.
	Dir SnapshotDir
	// Node is the per-node Manager template; Store and Dir are overridden
	// with the shared ones.
	Node Options
	// HTTP is the gateway's transport (defaults to a pooled client
	// sized for gateway fan-in; tests inject fault transports here).
	HTTP *http.Client
}

// ClusterNode is one running backend.
type ClusterNode struct {
	Name    string
	URL     string
	Manager *Manager
	// Registry is the node's metric namespace, served at <URL>/metrics
	// (Prometheus text; ?format=json for the structured snapshot).
	Registry *obs.Registry
	srv      *http.Server
	ln       net.Listener
}

// publishedCourse remembers a course so nodes started later host it too.
type publishedCourse struct {
	name     string
	blob     []byte
	manifest *gamepack.Manifest
}

// Cluster manages node lifecycle around a Gateway.
type Cluster struct {
	opts  ClusterOptions
	store *blobstore.Store
	dir   SnapshotDir
	gw    *Gateway

	mu      sync.Mutex
	nodes   map[string]*ClusterNode
	courses []publishedCourse
	seq     int
}

// NewCluster builds an empty cluster; add nodes with StartNode.
func NewCluster(o ClusterOptions) (*Cluster, error) {
	if o.Store == nil {
		st, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
		if err != nil {
			return nil, err
		}
		o.Store = st
	}
	if o.Dir == nil {
		o.Dir = NewMemDir()
	}
	return &Cluster{
		opts:  o,
		store: o.Store,
		dir:   o.Dir,
		gw:    NewGateway(o.HTTP),
		nodes: map[string]*ClusterNode{},
	}, nil
}

// Gateway returns the routing front the clients point at.
func (c *Cluster) Gateway() *Gateway { return c.gw }

// Store returns the shared chunk store.
func (c *Cluster) Store() *blobstore.Store { return c.store }

// Dir returns the shared snapshot directory.
func (c *Cluster) Dir() SnapshotDir { return c.dir }

// AddCourse publishes a package blob on every current and future node.
func (c *Cluster) AddCourse(name string, blob []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if err := n.Manager.AddCourse(name, blob); err != nil {
			return err
		}
	}
	c.courses = append(c.courses, publishedCourse{name: name, blob: blob})
	return nil
}

// AddManifest publishes a store-resident course (its chunks must already
// be deposited in the shared store) on every current and future node.
func (c *Cluster) AddManifest(name string, man *gamepack.Manifest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if err := n.Manager.AddCourseFromManifest(name, man); err != nil {
			return err
		}
	}
	c.courses = append(c.courses, publishedCourse{name: name, manifest: man})
	return nil
}

// StartNode brings up one backend: a Manager over the shared store and
// directory, hosting every published course, serving /play/* on its own
// loopback listener, registered with the gateway. Sessions whose ring
// owner moves onto the new node migrate lazily on their next request.
func (c *Cluster) StartNode() (*ClusterNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	name := fmt.Sprintf("node-%d", c.seq)
	nodeOpts := c.opts.Node
	nodeOpts.Store = c.store
	nodeOpts.Dir = c.dir
	nodeOpts.Node = name
	mgr := NewManager(nodeOpts)
	for _, course := range c.courses {
		var err error
		if course.manifest != nil {
			err = mgr.AddCourseFromManifest(course.name, course.manifest)
		} else {
			err = mgr.AddCourse(course.name, course.blob)
		}
		if err != nil {
			mgr.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	// Each node is its own scrape target: play-service counters plus the
	// shared store's (every node reports the same store totals — it is
	// one store), a span ring, and a readiness payload.
	reg := obs.NewRegistry("vgbl")
	mgr.Register(reg)
	c.store.Register(reg)
	health := obs.NewHealth().
		Set("node", func() any { return name }).
		Set("sessions_live", func() any { return mgr.Live() })
	mux := http.NewServeMux()
	mux.Handle("/play/", mgr.Handler())
	mux.Handle("/room/", mgr.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", mgr.Ring().Handler())
	mux.Handle("/healthz", health)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	n := &ClusterNode{
		Name:     name,
		URL:      "http://" + ln.Addr().String(),
		Manager:  mgr,
		Registry: reg,
		srv:      srv,
		ln:       ln,
	}
	if err := c.gw.AddNode(name, n.URL); err != nil {
		srv.Close()
		mgr.Close()
		return nil, err
	}
	c.nodes[name] = n
	return n, nil
}

// node looks a backend up and removes it from the table.
func (c *Cluster) take(name string) (*ClusterNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[name]
	if n == nil {
		return nil, fmt.Errorf("playsvc: cluster has no node %q", name)
	}
	delete(c.nodes, name)
	return n, nil
}

// StopNode removes a backend gracefully: it leaves the ring, every hosted
// session freezes into the shared store (zero loss), in-flight requests
// finish, then the listener closes and the manager shuts down.
func (c *Cluster) StopNode(name string) error {
	n, err := c.take(name)
	if err != nil {
		return err
	}
	drainErr := c.gw.RemoveNode(name, true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	n.Manager.Close()
	return drainErr
}

// KillNode simulates a crash: the listener dies first, nothing is
// drained, and the manager's sessions are discarded without snapshots.
// Whatever the periodic checkpointer last persisted is all that survives
// — the -checkpoint-every loss bound, for real.
func (c *Cluster) KillNode(name string) error {
	n, err := c.take(name)
	if err != nil {
		return err
	}
	n.srv.Close()
	c.gw.RemoveNode(name, false)
	n.Manager.Halt()
	return nil
}

// NodeNames lists the running backends.
func (c *Cluster) NodeNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		out = append(out, name)
	}
	return out
}

// Node returns a running backend by name (nil when absent).
func (c *Cluster) Node(name string) *ClusterNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// Close stops every node gracefully.
func (c *Cluster) Close() {
	c.mu.Lock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	c.mu.Unlock()
	for _, name := range names {
		c.StopNode(name)
	}
}
