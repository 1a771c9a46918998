package playsvc

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
)

// liveCluster brings up an n-node cluster with the classroom course and a
// gateway front.
func liveCluster(t testing.TB, n int, node Options) (*Cluster, *httptest.Server) {
	t.Helper()
	if node.TTL == 0 {
		node.TTL = -1
	}
	cl, err := NewCluster(ClusterOptions{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(cl.Gateway().Handler())
	t.Cleanup(ts.Close)
	return cl, ts
}

// TestClusterRepublishKeepsLatest: re-publishing a course replaces it, so
// the cluster keeps one blob per course, and a node started later hosts
// the latest version only.
func TestClusterRepublishKeepsLatest(t *testing.T) {
	cl, err := NewCluster(ClusterOptions{Node: Options{TTL: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var latest []byte
	for _, q := range []int{8, 10} {
		blob, err := content.Classroom().BuildPackage(studio.Options{QStep: q})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.AddCourse("classroom", blob); err != nil {
			t.Fatal(err)
		}
		latest = blob
	}
	n, err := cl.StartNode()
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.courses) != 1 {
		t.Fatalf("the cluster keeps %d versions of one course, want the latest only", len(cl.courses))
	}
	pkg, err := gamepack.Open(latest)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Manager.published("classroom")
	if c == nil || c.videoKey != blobstore.Sum(pkg.Video) {
		t.Fatal("the new node does not host the latest publish of classroom")
	}
}

// TestGatewayCountsCreatesOnce: a resume through the gateway reattaches a
// session the gateway already counted, so it counts nothing — a room
// dialed through the gateway and then driven by a resuming client is one
// create, as its node says.
func TestGatewayCountsCreatesOnce(t *testing.T) {
	cl, ts := liveCluster(t, 2, Options{})
	room, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Resume: room.SessionID(), Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	driver.Talk("teacher")
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	gs := cl.Gateway().Stats()
	if creates, created := stat(t, gs.Gateway, "creates"), stat(t, gs.Cluster, "sessions_created"); creates != 1 || created != 1 {
		t.Fatalf("gateway counted %d creates, the nodes %d sessions created; want one each", creates, created)
	}
	if got := stat(t, gs.Cluster, "sessions_live"); got != 1 {
		t.Fatalf("the nodes host %d sessions, want the room", got)
	}
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stat(t, cl.Gateway().Stats().Cluster, "sessions_live"); got != 0 {
		t.Fatalf("the nodes still host %d sessions after the driver left", got)
	}
	if n := cl.Dir().Len(); n != 0 {
		t.Fatalf("the directory still holds %d sessions after the driver left", n)
	}
}

// TestGatewayResumeSweepsLiveCopy: a resume may thaw a checkpoint entry,
// so the gateway sweeps the session's live copy off the other nodes before
// it relays one. A session acts past its newborn checkpoint, a fourth node
// takes its id, and a resume through the gateway must reattach the live
// state — frozen by the old owner, thawed by the new — not fork a second
// copy from the stale checkpoint.
func TestGatewayResumeSweepsLiveCopy(t *testing.T) {
	cl, gw := liveCluster(t, 3, Options{})
	// Node names are sequential, so the ring after one more node is known:
	// dial until the id is one node-4 will own.
	next := NewGateway(nil)
	for i := 1; i <= 4; i++ {
		next.AddNode(fmt.Sprintf("node-%d", i), "http://unused")
	}
	var c *Client
	for tries := 0; ; tries++ {
		c = dial(t, gw, nil)
		if owner, _ := next.ownerOf(c.SessionID()); owner.name == "node-4" {
			break
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if tries == 200 {
			t.Fatal("no minted id hashes onto the fourth node")
		}
	}
	c.Talk("teacher")
	c.Talk("teacher")
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StartNode(); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(ClientOptions{BaseURL: gw.URL, Resume: c.SessionID(), Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c2.Messages(), c.Messages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the resume rebuilt transcript %q, want the live session's %q", got, want)
	}
	live := 0
	for _, name := range cl.NodeNames() {
		live += cl.Node(name).Manager.Live()
	}
	if live != 1 {
		t.Fatalf("%d live copies of the session after the resume, want 1", live)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	checkClusterEmpty(t, cl)
}

// TestGatewayRouting: sessions created through the gateway spread across
// nodes by consistent hashing, and every /play/* verb works through it.
func TestGatewayRouting(t *testing.T) {
	cl, ts := liveCluster(t, 3, Options{})
	const n = 24
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = dial(t, ts, nil)
		clients[i].Talk("teacher")
		if err := clients[i].Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	// Each client landed on the node its id hashes to, and more than one
	// node carries load.
	populated := 0
	total := 0
	for _, name := range cl.NodeNames() {
		live := cl.Node(name).Manager.Live()
		total += live
		if live > 0 {
			populated++
		}
	}
	if total != n {
		t.Fatalf("cluster hosts %d sessions, want %d", total, n)
	}
	if populated < 2 {
		t.Fatalf("all sessions landed on %d node(s)", populated)
	}
	gs := cl.Gateway().Stats()
	if stat(t, gs.Gateway, "creates") != n || stat(t, gs.Cluster, "sessions_live") != n {
		t.Fatalf("gateway stats: %+v", gs)
	}
	// Frames work through the gateway too.
	f, err := clients[0].Frame()
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 160 || f.H != 120 {
		t.Fatalf("frame %dx%d", f.W, f.H)
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if live := stat(t, cl.Gateway().Stats().Cluster, "sessions_live"); live != 0 {
		t.Fatalf("cluster still hosts %d", live)
	}
}

// TestGatewayGracefulNodeRemoval: stopping a node drains its sessions
// into the shared directory; clients keep playing, their sessions thawed by
// the new owners.
func TestGatewayGracefulNodeRemoval(t *testing.T) {
	cl, ts := liveCluster(t, 3, Options{})
	const n = 18
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = dial(t, ts, nil)
		clients[i].Talk("teacher")
	}
	// Stop whichever node hosts the most sessions.
	var victim string
	most := -1
	for _, name := range cl.NodeNames() {
		if live := cl.Node(name).Manager.Live(); live > most {
			victim, most = name, live
		}
	}
	if most == 0 {
		t.Fatal("no node hosts anything")
	}
	if err := cl.StopNode(victim); err != nil {
		t.Fatal(err)
	}
	// Every client continues: strayed sessions are rescued on demand.
	for _, c := range clients {
		c.Talk("teacher")
		if err := c.Advance(1); err != nil {
			t.Fatal(err)
		}
		if c.Err() != nil {
			t.Fatalf("client failed after node removal: %v", c.Err())
		}
	}
	gs := cl.Gateway().Stats()
	if live := stat(t, gs.Cluster, "sessions_live"); live != n {
		t.Fatalf("live = %d, want %d", live, n)
	}
	if stat(t, gs.Cluster, "sessions_resumed") == 0 {
		t.Fatal("no session was thawed after the drain")
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayNodeAdditionMigratesLazily: adding a node changes some ids'
// owners; their next act is rescued off the old owner (freeze → thaw)
// with no client-visible hiccup.
func TestGatewayNodeAdditionMigratesLazily(t *testing.T) {
	cl, ts := liveCluster(t, 1, Options{})
	const n = 16
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = dial(t, ts, nil)
		clients[i].Talk("teacher")
	}
	if _, err := cl.StartNode(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StartNode(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.Talk("teacher")
		if c.Err() != nil {
			t.Fatalf("client failed after node addition: %v", c.Err())
		}
	}
	gs := cl.Gateway().Stats()
	if live := stat(t, gs.Cluster, "sessions_live"); live != n {
		t.Fatalf("live = %d, want %d", live, n)
	}
	// With 1→3 nodes roughly two thirds of the ids move; at least one
	// must have (vanishingly unlikely otherwise).
	if stat(t, gs.Gateway, "rescues") == 0 {
		t.Fatal("no session migrated to the new nodes")
	}
	spread := 0
	for _, name := range cl.NodeNames() {
		if cl.Node(name).Manager.Live() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("sessions on %d node(s) after expansion", spread)
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayCrashRecovery: a killed node loses post-checkpoint progress
// but nothing else — the gateway routes around the dead node (its breaker
// starts absorbing failures; the ring drop waits for deadNodeLimit) and
// the session thaws from its last checkpoint on a survivor.
func TestGatewayCrashRecovery(t *testing.T) {
	cl, ts := liveCluster(t, 2, Options{})
	c := dial(t, ts, nil)
	if err := c.Advance(5); err != nil {
		t.Fatal(err)
	}
	owner, err := cl.Gateway().ownerOf(c.SessionID())
	if err != nil {
		t.Fatal(err)
	}
	if n := cl.Node(owner.name).Manager.Checkpoint(); n != 1 {
		t.Fatalf("checkpointed %d", n)
	}
	// Progress past the checkpoint, then the node dies WITHOUT telling
	// anyone — its listener just stops answering.
	if err := c.Advance(3); err != nil {
		t.Fatal(err)
	}
	cl.Node(owner.name).srv.Close()
	// The next act hits the dead node, the gateway excludes it for the
	// rest of the call and retries on the survivor; the ticks since the
	// last checkpoint are gone, which is exactly the advertised loss bound.
	if err := c.Advance(1); err != nil {
		t.Fatalf("act after crash: %v", err)
	}
	if c.Err() != nil {
		t.Fatalf("client stuck: %v", c.Err())
	}
	if got := c.Ticks(); got != 6 {
		t.Fatalf("resumed ticks = %d, want 6 (5 checkpointed + 1 new; 3 lost)", got)
	}
	gs := cl.Gateway().Stats().Gateway
	if n := stat(t, gs, "recoveries"); n != 1 {
		t.Fatalf("recoveries = %d, want 1 (thawed from crash checkpoint)", n)
	}
	if stat(t, gs, "retries") == 0 {
		t.Fatal("retries = 0, want >0 (act replayed off the dead node)")
	}
	// One failed hop is far below deadNodeLimit: the node stays on the
	// ring (its breaker shields it) instead of being ejected outright.
	if n := stat(t, gs, "dead_nodes_removed"); n != 0 {
		t.Fatalf("dead nodes removed = %d, want 0", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Reap the crashed node's process-level remains.
	if err := cl.KillNode(owner.name); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayResumeAfterClusterRestart: a fresh client resumes by id
// through the gateway after every original node is gone (replaced), as
// long as store+dir survive.
func TestGatewayResumeAfterClusterRestart(t *testing.T) {
	cl, ts := liveCluster(t, 2, Options{})
	c := dial(t, ts, nil)
	c.Talk("teacher")
	id := c.SessionID()
	msgs := len(c.Messages())
	// Rolling restart: start replacements, stop originals.
	old := cl.NodeNames()
	for i := 0; i < 2; i++ {
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range old {
		if err := cl.StopNode(name); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := Dial(ClientOptions{
		BaseURL: ts.URL,
		Resume:  id,
		Project: content.Classroom().Project,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Messages()) != msgs {
		t.Fatalf("resumed transcript has %d messages, want %d", len(c2.Messages()), msgs)
	}
	c2.Talk("teacher")
	if c2.Err() != nil {
		t.Fatal(c2.Err())
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConsistentHashStability: removing one node only reassigns the ids
// it owned; everyone else keeps their owner.
func TestConsistentHashStability(t *testing.T) {
	g := NewGateway(nil)
	for i := 0; i < 4; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("http://127.0.0.1:%d", 10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddNode("n0", "http://x"); err == nil {
		t.Fatal("duplicate node name accepted")
	}
	const ids = 1000
	before := map[string]string{}
	perNode := map[string]int{}
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("classroom-%08d", i)
		n, err := g.ownerOf(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = n.name
		perNode[n.name]++
	}
	// Reasonable balance: every node owns something substantial.
	for name, count := range perNode {
		if count < ids/16 {
			t.Fatalf("node %s owns only %d/%d ids", name, count, ids)
		}
	}
	g.RemoveNode("n2", false)
	moved := 0
	for id, owner := range before {
		now, err := g.ownerOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if owner == "n2" {
			if now.name == "n2" {
				t.Fatal("removed node still owns ids")
			}
			moved++
			continue
		}
		if now.name != owner {
			t.Fatalf("id %s moved %s→%s though its owner survived", id, owner, now.name)
		}
	}
	if moved != perNode["n2"] {
		t.Fatalf("moved %d ids, want exactly n2's %d", moved, perNode["n2"])
	}
	if err := g.RemoveNode("ghost", false); err == nil {
		t.Fatal("removing an unknown node succeeded")
	}
}

// TestGatewayDropsDeadNode: a node that stays unreachable for
// deadNodeLimit failures counted by its breaker leaves the ring. The
// gateway has that one node, so no live peer's open breaker diverts the
// traffic: every hop of every routed call is a failure against it. A room
// call takes 4 hops (rooms heal no 404). The breaker counts the 5 that
// trip it and then one failed probe per cooldown (30 ms here, 500 ms in
// service), so the node leaves only after 27 cooldowns, however many hops
// failed meanwhile; the next call answers 502 without a hop, and a live
// node added after serves again.
func TestGatewayDropsDeadNode(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // its port now refuses connections
	g := NewGateway(nil)
	if err := g.AddNode("dead", dead.URL); err != nil {
		t.Fatal(err)
	}
	const threshold, cooldown = 5, 30 * time.Millisecond
	br := &faultnet.Breaker{Threshold: threshold, Cooldown: cooldown}
	g.breakers["dead"] = br
	front := httptest.NewServer(g.Handler())
	defer front.Close()
	roomStats := func() int {
		t.Helper()
		resp, err := http.Get(front.URL + RoomStatsPath + "?room=r1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	dropped := func() int64 { return stat(t, g.reg.Flat("gateway"), "dead_nodes_removed") }

	var tripped time.Time
	calls := 0
	for dropped() == 0 {
		if calls == 4*deadNodeLimit {
			t.Fatalf("node still on the ring after %d calls (%d failures counted)", calls, br.ConsecutiveFailures())
		}
		if code := roomStats(); code != http.StatusBadGateway {
			t.Fatalf("call %d through a dead node answered %d, want 502", calls, code)
		}
		calls++
		if tripped.IsZero() && br.Open() {
			tripped = time.Now()
		}
		time.Sleep(cooldown + cooldown/4) // the next call's first hop is the probe
	}
	if n := br.ConsecutiveFailures(); n != deadNodeLimit {
		t.Fatalf("dropped with %d failures counted, want %d", n, deadNodeLimit)
	}
	if took, least := time.Since(tripped), (deadNodeLimit-threshold)*cooldown; took < least {
		t.Fatalf("dropped %v after the breaker tripped, before %d cooldowns (%v)", took, deadNodeLimit-threshold, least)
	}
	if names := g.NodeNames(); len(names) != 0 {
		t.Fatalf("the ring still holds %v", names)
	}
	hops := g.hops.Snapshot()
	if hops.Count != int64(calls) || hops.Sum <= deadNodeLimit {
		t.Fatalf("%d calls took %d hops: want %d calls, and more hops than the %d counted failures", hops.Count, hops.Sum, calls, deadNodeLimit)
	}

	// An empty ring answers at once: no hop, no second drop.
	if code := roomStats(); code != http.StatusBadGateway {
		t.Fatalf("a call with no node answered %d, want 502", code)
	}
	if s := g.hops.Snapshot(); s.Count != hops.Count+1 || s.Sum != hops.Sum {
		t.Fatalf("the call with no node took %d hops", s.Sum-hops.Sum)
	}
	if n := dropped(); n != 1 {
		t.Fatalf("dead_nodes_removed = %d, want 1", n)
	}

	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(m.Handler())
	defer live.Close()
	if err := g.AddNode("live", live.URL); err != nil {
		t.Fatal(err)
	}
	if names := g.NodeNames(); !reflect.DeepEqual(names, []string{"live"}) {
		t.Fatalf("nodes = %v, want [live]", names)
	}
	c := dial(t, front, nil)
	c.Talk("teacher")
	if err := c.Err(); err != nil {
		t.Fatalf("act through the revived gateway: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// cutTransport fails every request while cut is set, as a network
// partition does, and passes the rest to its base.
type cutTransport struct {
	base http.RoundTripper
	cut  atomic.Bool
}

func (c *cutTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.cut.Load() {
		return nil, faultnet.ErrPartitioned
	}
	return c.base.RoundTrip(r)
}

// TestPartitionKeepsNodes: a partition that fails many more hops than
// deadNodeLimit in a moment drops no node. The breaker opens after 5 and
// counts no failure while open, so the node is still on the ring when the
// network returns and the next call reaches it. A partition fails every
// in-flight hop at once; were each counted, one brief window under load
// would drop every node of a cluster, and each later call would answer
// "gateway has no nodes".
func TestPartitionKeepsNodes(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	node := httptest.NewServer(m.Handler())
	defer node.Close()
	tr := &cutTransport{base: faultnet.NewHTTPTransport(16)}
	g := NewGateway(&http.Client{Transport: tr})
	if err := g.AddNode("n0", node.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	defer front.Close()
	roomStats := func() int {
		t.Helper()
		resp, err := http.Get(front.URL + RoomStatsPath + "?room=r1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	tr.cut.Store(true)
	const calls = deadNodeLimit // 4 hops each: 4·deadNodeLimit failures
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := roomStats(); code != http.StatusBadGateway {
				t.Errorf("a call across the partition answered %d, want 502", code)
			}
		}()
	}
	wg.Wait()
	if n := stat(t, g.reg.Flat("gateway"), "dead_nodes_removed"); n != 0 {
		t.Fatalf("dead_nodes_removed = %d after a partition, want 0", n)
	}
	if names := g.NodeNames(); !reflect.DeepEqual(names, []string{"n0"}) {
		t.Fatalf("nodes = %v after a partition, want [n0]", names)
	}
	if s := g.hops.Snapshot(); s.Sum != 4*calls {
		t.Fatalf("%d calls took %d hops, want %d", calls, s.Sum, 4*calls)
	}

	tr.cut.Store(false)
	if code := roomStats(); code == http.StatusBadGateway {
		t.Fatal("the call after the partition did not reach the node")
	}
	if br := g.breakerFor("n0"); br.Open() {
		t.Fatalf("breaker %s after the node answered, want closed", br.State())
	}
}

// TestStopNodeClosesSpareConnections: a graceful stop does not wait on a
// connection the gateway dialed but never sent a request on. net/http's
// Shutdown counts such a connection (StateNew) as busy for 5 s, and the
// gateway's transport parks one in its idle pool whenever a request it
// dialed for was served first by a connection another request freed.
// Here the first dial is held until all four concurrent requests to one
// node are dialing, and the other three until the first connection has
// served all four, so three spare connections land in a pool that keeps
// 16 a host; the drain uses one of them.
func TestStopNodeClosesSpareConnections(t *testing.T) {
	tr := faultnet.NewHTTPTransport(16)
	var dials, dialed atomic.Int64
	allDialing, served := make(chan struct{}), make(chan struct{})
	hold := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
		}
	}
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		defer dialed.Add(1)
		switch dials.Add(1) {
		case 1:
			hold(allDialing)
		case 4:
			close(allDialing)
			fallthrough
		default:
			hold(served)
		}
		return dial(ctx, network, addr)
	}
	httpc := &http.Client{Transport: tr}
	cl, err := NewCluster(ClusterOptions{Node: Options{TTL: -1}, HTTP: httpc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	n, err := cl.StartNode()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := httpc.Get(n.URL + "/healthz")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(served)
	for deadline := time.Now().Add(2 * time.Second); dialed.Load() < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if d := dialed.Load(); d != 4 {
		t.Fatalf("%d dials finished for 4 concurrent requests, want 4: no spare connection to strand", d)
	}
	began := time.Now()
	if err := cl.StopNode(n.Name); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > time.Second {
		t.Fatalf("StopNode took %v with %d dialed connections: Shutdown waited on a connection that never carried a request", took, dials.Load())
	}
}
