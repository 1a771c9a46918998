package deploy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/media/studio"
	"repro/internal/playsvc"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// get fetches a path on the front and fails the test on anything but 200.
func get(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	return string(body)
}

// TestRoutes is the deployment's route layout, single manager and
// cluster: one published course is served by the package server and
// played, watched and reported on through the one front, and /metrics
// carries every subsystem's families.
func TestRoutes(t *testing.T) {
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{0, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) { testRoutes(t, blob, nodes) })
	}
}

func testRoutes(t *testing.T, blob []byte, nodes int) {
	d, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if (d.Play == nil) == (d.Cluster == nil) {
		t.Fatalf("nodes=%d: Play %v, Cluster %v; want exactly one", nodes, d.Play != nil, d.Cluster != nil)
	}
	if err := d.Publish("classroom", blob); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(d)
	t.Cleanup(front.Close)

	// The package server.
	get(t, front.URL, "/pkg/classroom")
	get(t, front.URL, "/manifest/classroom")

	// A thin session creates, acts and leaves through /play/.
	project := content.Classroom().Project
	c, err := playsvc.Dial(playsvc.ClientOptions{BaseURL: front.URL, Course: "classroom", Project: project})
	if err != nil {
		t.Fatal(err)
	}
	c.Talk("teacher")
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(c.Messages()) == 0 {
		t.Error("talking to the teacher produced no message")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A room driver and one watcher through /room/.
	driver, err := playsvc.Dial(playsvc.ClientOptions{BaseURL: front.URL, Course: "classroom", Room: true, Project: project})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := playsvc.JoinRoom(playsvc.RoomClientOptions{BaseURL: front.URL, Room: driver.SessionID()})
	if err != nil {
		t.Fatal(err)
	}
	driver.Talk("teacher")
	for deadline := time.Now().Add(5 * time.Second); wc.Seq() < 2; {
		if _, _, err := wc.Poll(time.Second); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher stuck at seq %d after the driver's act", wc.Seq())
		}
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}

	// A telemetry batch is ingested through /telemetry/.
	tc, err := telemetry.NewClient(telemetry.ClientOptions{BaseURL: front.URL, Course: "classroom", Session: "deploy-routes"})
	if err != nil {
		t.Fatal(err)
	}
	tc.Record(runtime.Event{Tick: 1, Kind: "click"})
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := tc.Stats(); st.Batches == 0 || st.Events != 1 {
		t.Errorf("telemetry client stats = %+v", st)
	}
	if cs := d.Telemetry.Store().Snapshot()["classroom"]; cs.SessionsEnded != 1 || cs.Events != 1 {
		t.Errorf("ingested classroom stats = %+v", cs)
	}

	// The operator surface.
	get(t, front.URL, telemetry.HealthPath)
	get(t, front.URL, "/debug/traces")
	metrics := get(t, front.URL, "/metrics")
	families := []string{
		"vgbl_blobstore_hits_total",
		"vgbl_netstream_requests_total",
		"vgbl_telemetry_batches_applied_total",
		"vgbl_playsvc_acts_total",
	}
	if nodes > 0 {
		families[3] = "vgbl_gateway_creates_total"
	}
	for _, f := range families {
		if !strings.Contains(metrics, f) {
			t.Errorf("/metrics has no %s", f)
		}
	}
}

// TestUnknownSessionIsOneHop: an act for an id no node holds and none ever
// minted is answered 404 by its owner alone. The owner holds the shared
// snapshot directory, which has no entry for the id, so no node holds the
// session: the gateway relays the 404 without sweeping the other nodes with
// a handoff or asking the owner to recover, and no node tries a thaw.
func TestUnknownSessionIsOneHop(t *testing.T) {
	d, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	front := httptest.NewServer(d)
	t.Cleanup(front.Close)
	for _, body := range []string{
		`{"session":"classroom-0123456789abcdef","kind":"tick","ticks":1}`,
		`{"session":"no such session","kind":"talk","object":"teacher"}`,
	} {
		resp, err := http.Post(front.URL+playsvc.ActPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("act %s answered %s, want 404", body, resp.Status)
		}
	}
	acts := 0
	for _, name := range d.Cluster.NodeNames() {
		for _, sp := range d.Cluster.Node(name).Manager.Ring().Spans("", 0) {
			switch sp.Name {
			case "play.handoff", "play.recover", "play.thaw":
				t.Errorf("node %s recorded a %s span for an unknown session", name, sp.Name)
			case "play.act":
				acts++
			}
		}
	}
	if acts != 2 {
		t.Errorf("the nodes recorded %d play.act spans, want one per request", acts)
	}
}
