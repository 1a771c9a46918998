// Streaming: publish a course over HTTP, open it progressively (metadata +
// start segment only), then pull further segments on demand — the paper's
// networked deployment (§2) with measured transfer costs.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/content"
	"repro/internal/media/studio"
	"repro/internal/netstream"
)

func main() {
	// Publish the museum course on a loopback server.
	blob, err := content.Museum().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		log.Fatal(err)
	}
	srv := netstream.NewServer()
	if err := srv.AddPackage("museum", blob); err != nil {
		log.Fatal(err)
	}
	srv.AddResource("generator", "VAN DE GRAAFF: AN ELECTROSTATIC GENERATOR")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d-byte package at %s/manifest/museum\n\n", len(blob), base)

	c := &netstream.Client{}

	// Strategy 1: classic full download — a cold sync into an empty cache
	// (the manifest, then every chunk).
	_, full, err := c.DownloadDelta(base+"/pkg/museum", netstream.NewPackageCache())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full download:    %6d bytes, %d request(s), %v\n",
		full.BytesFetched, full.Requests, full.Elapsed)

	// Strategy 2: progressive start.
	g, prog, err := c.ProgressiveOpenABR(base+"/pkg/museum", netstream.NewPackageCache(), netstream.ABRConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("progressive open: %6d bytes, %d request(s), %v (%.0f%% of full)\n",
		prog.BytesFetched, prog.Requests, prog.Elapsed,
		100*float64(prog.BytesFetched)/float64(full.BytesFetched))

	// The start segment is playable immediately.
	ch := g.Chapters()[0]
	f, err := g.FrameAt(ch.Start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst frame of %q decoded remotely: %dx%d\n", ch.Name, f.W, f.H)

	// Watching on is one decode per frame: the game keeps its decoder
	// between calls and recycles f, so Clone a frame to keep it.
	began := time.Now()
	for i := ch.Start + 1; i < ch.End; i++ {
		if _, err := g.FrameAt(i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("watched the other %d frames of it in %v\n", ch.End-ch.Start-1, time.Since(began))

	// Later segments stream on demand (e.g. when a goto approaches).
	for _, seg := range []string{"seg-corridor", "seg-lab"} {
		st, err := g.FetchSegmentTier(seg, g.ABR().CurrentTier())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fetched %-13s %6d bytes in %v\n", seg, st.BytesFetched, st.Elapsed)
	}

	// Popup web resources resolve over the same server.
	body, _, err := c.FetchResource(base + "/res/generator")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npopup web resource: %q\n", body)
}
