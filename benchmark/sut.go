package main

// sut.go is the single file through which every call into
// repro/internal/... goes. Later non-benchmark PRs cannot edit this
// directory, so every symbol used here is an API a simplification PR
// must keep. Option structs are zero-valued except the fields the
// benchmark's definition names.
//
// Functions used:
//
//	content.Classroom, content.Museum, content.StreetDemo
//	(*content.Course).PublishLadderTo, (*content.Course).RecordLadderVideo
//	gamepack.Open, gamepack.BuildLadder, gamepack.DepositChunks,
//	gamepack.VideoSectionTier, (*gamepack.Manifest).Assemble / Encode
//	blobstore.New, (*blobstore.Store).Put, (*blobstore.Store).Get
//	playback.OpenVideo, (*playback.Video).FrameAt
//	runtime.NewSession, (*runtime.Session).Close
//	(*core.Project).ScenarioByID
//	sim.RunGame, sim.Run, sim.Observers, sim.GuidedFactory
//	(*analytics.Collector).Digest
//	playsvc.Dial, (*playsvc.Client) as sim.Game, (*playsvc.Client).Close
//	telemetry.NewClient, (*telemetry.Client).Record / Close / Stats
//	netstream.NewPackageCache, netstream.TierLabel
//	(*netstream.Client).DownloadDelta, (*netstream.Client).ProgressiveOpenABR
//	(*netstream.RemoteGame).Tiers / Chapters / HasSegment /
//	    FetchSegmentTier / FrameAt
//
// Fields read: gamepack.Package.{Project,Video}, core.Project.StartScenario,
// core.Scenario.Segment, content.Course.{Project,Chapters},
// gamepack.Manifest.Sections[].{Name,Chunks[].Hash},
// gamepack.TierVideo.{Tier,Video}, container.Chapter.{Name,Start,End},
// raster.Frame.Pix, analytics.Report.TotalEvents,
// telemetry.ClientStats.{Batches,Events,Posts},
// netstream.Stats.{ChunkHits,ChunksFetched}.

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/analytics"
	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/playback"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

type (
	game         = sim.Game
	report       = analytics.Report
	collector    = analytics.Collector
	observer     = runtime.Observer
	pkg          = gamepack.Package
	manifest     = gamepack.Manifest
	tierVideo    = gamepack.TierVideo
	remoteGame   = netstream.RemoteGame
	packageCache = netstream.PackageCache
	fetchStats   = netstream.Stats
	store        = blobstore.Store
	course       = content.Course
)

// courseNames is the rotation learners walk: learner i plays
// courseNames[i % 3]. The server publishes the same three under the same
// names.
var courseNames = [...]string{"classroom", "museum", "street"}

func demoCourses() [len(courseNames)]*course {
	return [...]*course{content.Classroom(), content.Museum(), content.StreetDemo()}
}

// publishOpts is what vgbl-server -ladder publishes with; nil tiers in
// the calls below mean the default ladder.
var publishOpts = studio.Options{QStep: 8}

func publishLadder(c *course, st *store) (*manifest, error) {
	return c.PublishLadderTo(st, publishOpts, nil)
}

func recordLadder(c *course) ([]tierVideo, error) { return c.RecordLadderVideo(publishOpts, nil) }

func buildLadder(c *course, videos []tierVideo) ([]byte, error) {
	return gamepack.BuildLadder(c.Project, videos)
}

func depositChunks(blob []byte, st *store) (*manifest, error) {
	return gamepack.DepositChunks(blob, st)
}

func newStore() (*store, error) { return blobstore.New(blobstore.Options{}) }

func assemble(man *manifest, st *store) ([]byte, error) { return man.Assemble(st.Get) }

func openPackage(blob []byte) (*pkg, error) { return gamepack.Open(blob) }

// chunkTiers maps every video chunk of a manifest to the tier label the
// server's netstream_tier_bytes_total series carries for it. Sections
// run extras first, canonical last, and a later section wins — the same
// preference the server applies.
func chunkTiers(man *manifest, into map[string]string) {
	for _, sc := range man.Sections {
		tier, ok := gamepack.VideoSectionTier(sc.Name)
		if !ok {
			continue
		}
		for _, c := range sc.Chunks {
			into[c.Hash.String()] = netstream.TierLabel(tier)
		}
	}
}

// chunkCount is how many chunk references the manifest holds.
func chunkCount(man *manifest) (n int) {
	for _, sc := range man.Sections {
		n += len(sc.Chunks)
	}
	return n
}

// manifestBytes is the size of the encoded manifest, what /manifest/ serves.
func manifestBytes(man *manifest) int { return len(man.Encode()) }

// chunkBytes returns the bytes of every distinct chunk of a manifest, in
// manifest order, read back from the store that holds them.
func chunkBytes(man *manifest, st *store) ([][]byte, error) {
	seen := map[blobstore.Hash]bool{}
	var out [][]byte
	for _, sc := range man.Sections {
		for _, c := range sc.Chunks {
			if seen[c.Hash] {
				continue
			}
			seen[c.Hash] = true
			data, err := st.Get(c.Hash)
			if err != nil {
				return nil, err
			}
			out = append(out, data)
		}
	}
	return out, nil
}

// putChunk stores one chunk and reports whether the store already held it.
func putChunk(st *store, data []byte) (dup bool, err error) {
	_, isNew, err := st.Put(data)
	return !isNew, err
}

// video is a sequential decoder over one TKVC blob, decode workers 1.
type video struct{ v *playback.Video }

func openVideo(blob []byte) (video, error) {
	v, err := playback.OpenVideo(blob, 1)
	return video{v}, err
}

// framePix decodes frame i and returns its pixels, valid until the next call.
func (v video) framePix(i int) ([]uint8, error) {
	f, err := v.v.FrameAt(i)
	if err != nil {
		return nil, err
	}
	return f.Pix, nil
}

// simConfig is the guided learner every play workload and probe runs.
func simConfig(seed int64) sim.Config {
	return sim.Config{MaxSteps: 30, TicksPerStep: 2, Patience: 20, RewardBoost: 10, WatchEvery: 4, Seed: seed}
}

// runGame drives the guided policy over g; col must be (part of) g's observer.
func runGame(g game, seed int64, col *collector) error {
	_, err := sim.RunGame(g, sim.GuidedFactory, simConfig(seed), col)
	return err
}

// runLocal plays the same learner against a local runtime.Session — the
// executable spec the remote legs are diffed against.
func runLocal(blob []byte, seed int64) (*report, error) {
	res, err := sim.Run(blob, sim.GuidedFactory, simConfig(seed))
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// newLocalSession opens a local session reporting to obs.
func newLocalSession(blob []byte, obs observer) (game, func(), error) {
	s, err := runtime.NewSession(blob, runtime.Options{Observer: obs})
	if err != nil {
		return nil, nil, err
	}
	return s, s.Close, nil
}

func digest(col *collector, p *pkg) *report { return col.Digest(p.Project.StartScenario) }

type (
	playClient      = playsvc.Client
	telemetryClient = telemetry.Client
)

// dialPlay creates a hosted session. Thin: every mode option zero (one
// JSON round trip per act). Mirror: LocalMirror over the opened package.
func dialPlay(base, courseName string, p *pkg, obs observer, hc *http.Client, mirror bool) (*playClient, error) {
	o := playsvc.ClientOptions{BaseURL: base, Course: courseName, Project: p.Project, Observer: obs, HTTP: hc}
	if mirror {
		o.LocalMirror = true
		o.Pkg = p
	}
	return playsvc.Dial(o)
}

// newTelemetry builds a size-flushed batching client: Interval 0, so no
// timer goroutine posts on a connection of its own.
func newTelemetry(base, courseName, session string, p *pkg, hc *http.Client) (*telemetryClient, error) {
	return telemetry.NewClient(telemetry.ClientOptions{
		BaseURL: base, Course: courseName, Session: session,
		Start: p.Project.StartScenario, FlushEvery: 32, HTTP: hc,
	})
}

// closePlay leaves the hosted session (flushing a mirror's buffered acts).
func closePlay(pc *playClient) error { return pc.Close() }

// closeTelemetry flushes the tail, marks the session done and returns
// what delivery cost: events and batches delivered, posts made.
func closeTelemetry(tc *telemetryClient) (events, batches, posts int, err error) {
	err = tc.Close()
	st := tc.Stats()
	return st.Events, st.Batches, st.Posts, err
}

// teeObservers fans events out to the collector and the telemetry client.
func teeObservers(obs ...observer) observer { return sim.Observers(obs...) }

func newPackageCache() *packageCache { return netstream.NewPackageCache() }

func downloadDelta(hc *http.Client, url string, cache *packageCache) ([]byte, fetchStats, error) {
	nc := &netstream.Client{HTTP: hc}
	return nc.DownloadDelta(url, cache)
}

func openABR(hc *http.Client, url string, cache *packageCache) (*remoteGame, error) {
	nc := &netstream.Client{HTTP: hc}
	g, _, err := nc.ProgressiveOpenABR(url, cache, netstream.ABRConfig{})
	return g, err
}

// chapter is one segment of a streamed course.
type chapter struct {
	name       string
	start, end int // frames [start, end)
}

func chapters(g *remoteGame) []chapter { return toChapters(g.Chapters()) }

// courseChapters is a course's own chapter table; the chapters tile its film.
func courseChapters(co *course) []chapter { return toChapters(co.Chapters) }

func toChapters(chs []container.Chapter) []chapter {
	out := make([]chapter, len(chs))
	for i, c := range chs {
		out[i] = chapter{c.Name, c.Start, c.End}
	}
	return out
}

// startChapter is the chapter the open already fetched: the start
// scenario's segment.
func startChapter(g *remoteGame) (string, error) {
	sc := g.Project.ScenarioByID(g.Project.StartScenario)
	if sc == nil {
		return "", fmt.Errorf("start scenario %q missing", g.Project.StartScenario)
	}
	return sc.Segment, nil
}

func tiers(g *remoteGame) []string               { return g.Tiers() }
func hasSegment(g *remoteGame, name string) bool { return g.HasSegment(name) }
func fetchSegment(g *remoteGame, name, tier string) error {
	_, err := g.FetchSegmentTier(name, tier)
	return err
}

func streamedPix(g *remoteGame, i int) ([]uint8, error) {
	f, err := g.FrameAt(i)
	if err != nil {
		return nil, err
	}
	return f.Pix, nil
}

// timedGame is the decorator the benchmark wraps round a sim.Game: it
// times every act method and Watch as the policy sees them — call until
// return — and on a traced run records a span per call plus one
// sim.step span per policy step. Reads (State, Scenario, …) pass through
// untimed.
type timedGame struct {
	game
	w *worker

	acts       int           // act calls this session
	step       int32         // open sim.step span, -1 when none
	lastEnd    stamp         // when the last call returned
	firstFrame time.Duration // Watch that first put a frame in hand, since session start; 0 = none yet
	began      stamp
}

func newTimedGame(g game, w *worker, began stamp) *timedGame {
	return &timedGame{game: g, w: w, step: -1, began: began}
}

// enter opens the call's span; opensStep marks the calls a policy step
// starts with (everything but quiz answers, Advance and Watch).
func (g *timedGame) enter(name string, opensStep bool) (stamp, int32) {
	tr := g.w.tr
	if tr.on {
		if opensStep && g.step >= 0 {
			tr.endAt(g.step, g.lastEnd)
			g.step = -1
		}
		if g.step < 0 {
			g.step = tr.begin("sim.step")
		}
	}
	return now(), tr.begin(name)
}

func (g *timedGame) leave(t0 stamp, id int32, kind sample) {
	d := since(t0)
	if tr := g.w.tr; tr.on {
		tr.end(id)
		g.lastEnd = now()
	}
	g.w.add(kind, d)
	if kind == sAct {
		g.acts++
	}
}

// finish closes the last step when the policy is done.
func (g *timedGame) finish() {
	if g.step >= 0 {
		g.w.tr.endAt(g.step, g.lastEnd)
		g.step = -1
	}
}

func (g *timedGame) Click(vx, vy int) {
	t0, id := g.enter("playsvc.Click", true)
	g.game.Click(vx, vy)
	g.leave(t0, id, sAct)
}

func (g *timedGame) Examine(objectID string) {
	t0, id := g.enter("playsvc.Examine", true)
	g.game.Examine(objectID)
	g.leave(t0, id, sAct)
}

func (g *timedGame) Talk(objectID string) {
	t0, id := g.enter("playsvc.Talk", true)
	g.game.Talk(objectID)
	g.leave(t0, id, sAct)
}

func (g *timedGame) Take(objectID string) bool {
	t0, id := g.enter("playsvc.Take", true)
	took := g.game.Take(objectID)
	g.leave(t0, id, sAct)
	return took
}

func (g *timedGame) UseItemOn(item, objectID string) {
	t0, id := g.enter("playsvc.UseItemOn", true)
	g.game.UseItemOn(item, objectID)
	g.leave(t0, id, sAct)
}

func (g *timedGame) SelectItem(item string) error {
	t0, id := g.enter("playsvc.SelectItem", true)
	err := g.game.SelectItem(item)
	g.leave(t0, id, sAct)
	return err
}

func (g *timedGame) GotoScenario(id string) error {
	t0, sp := g.enter("playsvc.GotoScenario", true)
	err := g.game.GotoScenario(id)
	g.leave(t0, sp, sAct)
	return err
}

func (g *timedGame) AnswerQuiz(quizID string, choice int) (bool, error) {
	t0, id := g.enter("playsvc.AnswerQuiz", false)
	ok, err := g.game.AnswerQuiz(quizID, choice)
	g.leave(t0, id, sAct)
	return ok, err
}

func (g *timedGame) Advance(ticks int) error {
	t0, id := g.enter("playsvc.Advance", false)
	err := g.game.Advance(ticks)
	g.leave(t0, id, sAct)
	return err
}

func (g *timedGame) Watch() error {
	t0, id := g.enter("playsvc.Watch", false)
	err := g.game.Watch()
	g.leave(t0, id, sFrame)
	if g.firstFrame == 0 && err == nil {
		g.firstFrame = since(g.began)
	}
	return err
}

// timedObserver forwards events to the telemetry client. The client
// flushes synchronously inside Record, so on a traced run a Record that
// posted becomes a "telemetry.flush" span (nested in the act that
// emitted the event); one that only buffered leaves no span.
type timedObserver struct {
	tc *telemetryClient
	tr *tracer
}

func (o timedObserver) Record(e runtime.Event) {
	id := o.tr.begin("telemetry.flush")
	o.tc.Record(e)
	o.tr.cancel(id)
}
