// Package apps assembles the paper's nine benchmark interactive
// applications (Section IV-B) from the workload substrates:
//
//	user-level: <SSSP, GRAPH>, <PR, GRAPH>, <TC, GRAPH>,
//	            <ABC, VISION>, <ALEXNET, VISION>, <SQZ-NET, VISION>,
//	            <AES, QUERY>
//	OS-level:   <MEMCACHED, OS>, <LIGHTTPD, OS>
//
// Each factory builds a completely fresh application instance (fresh
// process state, identical seeds) for driver.CaptureTrace to record once;
// binding-search probes and measured runs replay that trace. Round counts
// are scaled-down stand-ins for the paper's input counts (13.3K inputs
// averaged per user app; 2M memcached requests; 1M lighttpd fetches); the
// Scale option trades fidelity for run time.
package apps

import (
	"fmt"
	"strings"

	"ironhide/internal/abc"
	"ironhide/internal/aes"
	"ironhide/internal/driver"
	"ironhide/internal/graphalg"
	"ironhide/internal/graphgen"
	"ironhide/internal/httpserver"
	"ironhide/internal/kvstore"
	"ironhide/internal/neural"
	"ironhide/internal/osproc"
	"ironhide/internal/querygen"
	"ironhide/internal/vision"
	"ironhide/internal/workload"
)

// Road-network scale: large enough that the resident graph (~770 KB)
// overflows a two-slice (512 KB) L2 allocation, reproducing the paper's
// <TC, GRAPH> capacity story.
const (
	roadW, roadH, roadShortcuts = 160, 120, 600
	graphUpdatesPerRound        = 64
	graphSeed                   = 101
)

const (
	userRounds, userWarmup, userProfile = 120, 12, 10
	osRounds, osWarmup, osProfile       = 1200, 100, 48
)

func userApp(name string, insecure, secure workload.Process) *workload.App {
	return &workload.App{
		Name: name, Class: workload.User,
		Insecure: insecure, Secure: secure,
		Rounds: userRounds, Warmup: userWarmup, ProfileRounds: userProfile,
		PayloadBytes: 1024, ReplyBytes: 256,
	}
}

func osApp(name string, insecure, secure workload.Process) *workload.App {
	return &workload.App{
		Name: name, Class: workload.OSLevel,
		Insecure: insecure, Secure: secure,
		Rounds: osRounds, Warmup: osWarmup, ProfileRounds: osProfile,
		PayloadBytes: 1024, ReplyBytes: 512,
	}
}

// SSSPGraph builds <SSSP, GRAPH>.
func SSSPGraph() *workload.App {
	g := graphgen.NewRoadNetwork(roadW, roadH, roadShortcuts, graphSeed)
	gen := graphgen.NewGenerator(g, graphUpdatesPerRound, 7)
	return userApp("sssp-graph", gen, graphalg.NewSSSP(gen, 0, 6))
}

// PRGraph builds <PR, GRAPH>.
func PRGraph() *workload.App {
	g := graphgen.NewRoadNetwork(roadW, roadH, roadShortcuts, graphSeed)
	gen := graphgen.NewGenerator(g, graphUpdatesPerRound, 7)
	return userApp("pr-graph", gen, graphalg.NewPageRank(gen, 0.85, 4))
}

// TCGraph builds <TC, GRAPH>.
func TCGraph() *workload.App {
	g := graphgen.NewRoadNetwork(roadW, roadH, roadShortcuts, graphSeed)
	gen := graphgen.NewGenerator(g, graphUpdatesPerRound, 7)
	return userApp("tc-graph", gen, graphalg.NewTriangleCount(gen))
}

// ABCVision builds <ABC, VISION>.
func ABCVision() *workload.App {
	pipe := vision.NewPipeline(64, 48, 5)
	colony := abc.NewColony(32, 96, 50, 30, 9, pipe, nil)
	return userApp("abc-vision", pipe, colony)
}

// AlexNetVision builds <ALEXNET, VISION>.
func AlexNetVision() *workload.App {
	pipe := vision.NewPipeline(48, 48, 5)
	return userApp("alexnet-vision", pipe, neural.NewAlexNet(pipe, 8<<20))
}

// SqueezeNetVision builds <SQZ-NET, VISION>.
func SqueezeNetVision() *workload.App {
	pipe := vision.NewPipeline(48, 48, 5)
	return userApp("sqznet-vision", pipe, neural.NewSqueezeNet(pipe))
}

// AESQuery builds <AES, QUERY>.
func AESQuery() *workload.App {
	gen := querygen.NewGenerator(16384, 256, 128, 13)
	var key [aes.KeySize]byte
	for i := range key {
		key[i] = byte(3*i + 1)
	}
	p, err := aes.NewProcess(gen, key)
	if err != nil {
		panic(err) // the fixed key size cannot fail
	}
	return userApp("aes-query", gen, p)
}

// MemcachedOS builds <MEMCACHED, OS>.
func MemcachedOS() *workload.App {
	ch := &osproc.Channel{}
	src := kvstore.NewMemtierSource(16384, 256, 0.1, 17)
	return osApp("memcached-os",
		osproc.New(ch, src, 36),
		kvstore.NewServer(ch, 4<<20))
}

// LighttpdOS builds <LIGHTTPD, OS>.
func LighttpdOS() *workload.App {
	ch := &osproc.Channel{}
	site := httpserver.NewSite(500, 20<<10, 19) // the paper's 20KB pages
	src := httpserver.NewHTTPLoadSource(site, 23)
	return osApp("lighttpd-os",
		osproc.New(ch, src, 3),
		httpserver.NewServer(ch, site))
}

// Entry names one application and its factory. Alias is the file-safe
// short name (no commas or spaces) the CLI's comma-separated -apps flag
// needs, since the paper labels themselves contain commas.
type Entry struct {
	Name    string
	Alias   string
	Class   workload.Class
	Factory driver.AppFactory
}

// Catalog returns all nine applications in the paper's order.
func Catalog() []Entry {
	return []Entry{
		{"<SSSP, GRAPH>", "sssp-graph", workload.User, SSSPGraph},
		{"<PR, GRAPH>", "pr-graph", workload.User, PRGraph},
		{"<TC, GRAPH>", "tc-graph", workload.User, TCGraph},
		{"<ABC, VISION>", "abc-vision", workload.User, ABCVision},
		{"<ALEXNET, VISION>", "alexnet-vision", workload.User, AlexNetVision},
		{"<SQZ-NET, VISION>", "sqznet-vision", workload.User, SqueezeNetVision},
		{"<AES, QUERY>", "aes-query", workload.User, AESQuery},
		{"<MEMCACHED, OS>", "memcached-os", workload.OSLevel, MemcachedOS},
		{"<LIGHTTPD, OS>", "lighttpd-os", workload.OSLevel, LighttpdOS},
	}
}

// ByName returns the catalog entry with the given paper label or alias.
func ByName(name string) (Entry, bool) {
	for _, e := range Catalog() {
		if e.Name == name || e.Alias == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Find resolves a paper label or alias (whitespace-trimmed) to its
// catalog entry, or returns an error listing the known aliases — the
// shared validation behind the CLI's -apps flag and the service API.
func Find(name string) (Entry, error) {
	entry, ok := ByName(strings.TrimSpace(name))
	if !ok {
		var known []string
		for _, e := range Catalog() {
			known = append(known, e.Alias)
		}
		return Entry{}, fmt.Errorf("unknown application %q (known: %s)", name, strings.Join(known, ", "))
	}
	return entry, nil
}
