package playsvc_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
	"repro/internal/playsvc"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// replyTap sits under a client and reads every act reply: whether it
// carried the state it names or left it out, and — every dropEvery-th
// act frame — it loses the reply after the server applied the batch, so
// the client retries.
type replyTap struct {
	dropEvery int

	mu                        sync.Mutex
	frames                    int
	carried, omitted          int
	dropped, droppedWithState int
}

func (rt *replyTap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != playsvc.ActV2Path || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out, err := playsvc.ParseReplyFrame(body)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.frames++
	if rt.dropEvery > 0 && rt.frames%rt.dropEvery == 0 {
		rt.dropped++
		if out.Reply.State != nil {
			rt.droppedWithState++
		}
		return nil, errors.New("reply lost in transit")
	}
	if out.Reply.StateTag != 0 {
		if out.Reply.State != nil {
			rt.carried++
		} else {
			rt.omitted++
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

var (
	tagBlobOnce sync.Once
	tagBlob     []byte
	tagBlobErr  error
)

func tagClassroom(t *testing.T) []byte {
	t.Helper()
	tagBlobOnce.Do(func() { tagBlob, tagBlobErr = content.Classroom().BuildPackage(studio.Options{QStep: 10}) })
	if tagBlobErr != nil {
		t.Fatal(tagBlobErr)
	}
	return tagBlob
}

// tagFront publishes the classroom on a deployment of the given node
// count and serves it.
func tagFront(t *testing.T, nodes int) (*deploy.Deployment, string) {
	t.Helper()
	d, err := deploy.New(deploy.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.Publish("classroom", tagClassroom(t)); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(d)
	t.Cleanup(front.Close)
	return d, front.URL
}

// canonical is a copy of s with empty collections nil, so two states
// compare equal exactly when their content is — a decoded state holds nil
// where a live one holds an empty map.
func canonical(s *core.State) *core.State {
	c := s.Clone()
	if len(c.Inventory) == 0 {
		c.Inventory = nil
	}
	if len(c.Rewards) == 0 {
		c.Rewards = nil
	}
	for _, m := range []*map[string]bool{&c.Flags, &c.Learned, &c.Hidden} {
		if len(*m) == 0 {
			*m = nil
		}
	}
	for _, m := range []*map[string]int{&c.Vars, &c.Visited} {
		if len(*m) == 0 {
			*m = nil
		}
	}
	return c
}

// TestThinStateMatchesLocalEveryAct is the differential test of the
// state-tag rule: a thin client is sent a state only when the session's
// state is not the one it holds, so after every act its State() must
// equal a local session's that played the same acts — across a lost reply
// and its retry, a freeze and a resume, and a re-home between two nodes —
// and some replies must have left the state out, or the rule never ran.
func TestThinStateMatchesLocalEveryAct(t *testing.T) {
	res, err := sim.Run(tagClassroom(t), sim.GuidedFactory, sim.Config{MaxSteps: 40, Patience: 15, Seed: 7, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 6 {
		t.Fatalf("the guided run took %d steps; too few to interrupt", len(res.Trace))
	}
	project := content.Classroom().Project
	for _, tc := range []struct {
		name      string
		nodes     int
		dropEvery int
		// interrupt runs once, before the trace's middle step.
		interrupt func(t *testing.T, d *deploy.Deployment, c *playsvc.Client)
	}{
		{name: "dropped reply and retry", dropEvery: 4},
		{name: "freeze, thaw and resume", interrupt: func(t *testing.T, d *deploy.Deployment, c *playsvc.Client) {
			if err := d.Play.Freeze(c.SessionID()); err != nil {
				t.Fatal(err)
			}
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
			if d.Play.Snapshot()["sessions_resumed"] != 1 {
				t.Fatal("the resume did not thaw the frozen session")
			}
		}},
		{name: "re-home across two nodes", nodes: 2, interrupt: func(t *testing.T, d *deploy.Deployment, c *playsvc.Client) {
			owner := ""
			for _, name := range d.Cluster.NodeNames() {
				for _, id := range d.Cluster.Node(name).Manager.LiveSessions() {
					if id == c.SessionID() {
						owner = name
					}
				}
			}
			if owner == "" {
				t.Fatal("no node hosts the session")
			}
			if err := d.Cluster.StopNode(owner); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, url := tagFront(t, tc.nodes)
			tap := &replyTap{dropEvery: tc.dropEvery}
			c, err := playsvc.Dial(playsvc.ClientOptions{BaseURL: url, Course: "classroom", Project: project,
				HTTP: &http.Client{Transport: tap}})
			if err != nil {
				t.Fatal(err)
			}
			local, err := runtime.NewSession(tagClassroom(t), runtime.Options{})
			if err != nil {
				t.Fatal(err)
			}
			acts := 0
			check := func(what string) {
				t.Helper()
				acts++
				if err := c.Err(); err != nil {
					t.Fatalf("act %d (%s): %v", acts, what, err)
				}
				if got, want := canonical(c.State()), canonical(local.State()); !reflect.DeepEqual(got, want) {
					t.Fatalf("act %d (%s): the client holds\n %+v\nthe local session\n %+v", acts, what, got, want)
				}
			}
			check("create")
			for i, step := range res.Trace {
				if i == len(res.Trace)/2 && tc.interrupt != nil {
					tc.interrupt(t, d, c)
					check("interruption")
				}
				sim.Apply(c, step.Action)
				sim.Apply(local, step.Action)
				check(step.Action.String())
				for _, ans := range step.Answers {
					c.AnswerQuiz(ans.Quiz, ans.Choice)
					local.AnswerQuiz(ans.Quiz, ans.Choice)
					check("answer " + ans.Quiz)
				}
				if step.Ticks > 0 {
					c.Advance(step.Ticks)
					local.Advance(step.Ticks)
					check("advance")
				}
			}
			if !c.Ended() || c.Outcome() != "victory" {
				t.Fatalf("ended=%v outcome=%q", c.Ended(), c.Outcome())
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			tap.mu.Lock()
			defer tap.mu.Unlock()
			t.Logf("%d acts: %d replies carried the state, %d left it out, %d lost (%d with a state)",
				acts, tap.carried, tap.omitted, tap.dropped, tap.droppedWithState)
			if tap.omitted == 0 {
				t.Fatal("no reply left the state out")
			}
			if tc.dropEvery > 0 && tap.droppedWithState == 0 {
				t.Fatal("no lost reply carried a state; the retry proved nothing")
			}
		})
	}
}

// TestMirrorStateDivergenceSticks: a mirror names its replica's state in
// every batch, and a reply naming another state is a divergence like a
// wrong event count or tick — the client fails, and stays failed.
func TestMirrorStateDivergenceSticks(t *testing.T) {
	_, url := tagFront(t, 0)
	pkg, err := gamepack.Open(tagClassroom(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := playsvc.Dial(playsvc.ClientOptions{BaseURL: url, Course: "classroom",
		Project: content.Classroom().Project, LocalMirror: true, Pkg: pkg})
	if err != nil {
		t.Fatal(err)
	}
	c.Talk("teacher")
	if err := c.Sync(); err != nil {
		t.Fatalf("an agreeing replica failed: %v", err)
	}
	// The replica learns something the hosted session never will: events
	// and ticks still agree, the state does not.
	c.State().Vars["tampered"] = 1
	c.Examine("computer")
	err = c.Sync()
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("a disagreeing replica synced with %v, want a divergence", err)
	}
	c.Talk("teacher")
	if c.Err() != err {
		t.Fatalf("the divergence did not stick: %v", c.Err())
	}
	if cerr := c.Close(); cerr != err {
		t.Fatalf("Close returned %v, want the divergence", cerr)
	}
}
