package main

import (
	"bytes"
	"crypto/sha1"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/httpx"
	"repro/internal/meme"
	"repro/internal/netsim"
)

// The fleet workload: batches of short tenant sessions on Fleet.Run,
// booting as copy-on-write clones of a snapshot warm-up over a shared
// page-pool arena. Each session boots, stages the base image and the
// meme generator, runs one shell pipeline, starts the meme server,
// sends an open-loop burst of template listings and pipelined meme
// generations, checks every response against images composed on the
// host, and stops the server.

const (
	fleetBatchPerWorker = 4   // sessions per worker in one Fleet.Run batch
	fleetBatchesPerSec  = 2   // Fleet.Run batches per measuring second
	fleetVirtSessions   = 100 // sessions whose virtual times are reported; also the minimum timed sessions
	fleetClients        = 4
	fleetPerClient      = 5 // seq 0 lists templates, seqs 1-4 generate: 16 generations per session
	// fleetGapNs is the mean gap between a client's requests: generations
	// take about 1.86 virtual s each, so the burst queues and pipelines.
	fleetGapNs = 100_000_000
	// fleetLimitMs bounds a burst request's virtual latency for it to
	// count toward virt_slo_rps: a generation queued behind a few others.
	fleetLimitMs = 10_000.0
)

// fleetWarmCmd is the snapshot warm-up: the session pipeline's programs.
const fleetWarmCmd = "echo warm | tee /tmp/warm.txt | wc -c"

// fleetOracle composes expected meme images on the host.
type fleetOracle struct {
	assets    *meme.Assets
	names     []string
	templates string
}

func newFleetOracle() *fleetOracle {
	font, err := meme.ParseFont(meme.FontFile())
	must(err)
	o := &fleetOracle{assets: &meme.Assets{Font: font, Templates: meme.Templates()}, templates: templatesBody()}
	for n := range o.assets.Templates {
		o.names = append(o.names, n)
	}
	sort.Strings(o.names)
	return o
}

// fleetSession is one session's seeded inputs and the SHA-1 of each
// generation's expected PPM.
type fleetSession struct {
	caption string
	gen     [fleetClients][fleetPerClient]meme.GenRequest
	want    [fleetClients][fleetPerClient][sha1.Size]byte
}

func genFleetSession(seed int64, index int, o *fleetOracle) *fleetSession {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
	words := func(n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = strings.ToUpper(shellWords[rng.Intn(len(shellWords))])
		}
		return strings.Join(w, " ")
	}
	s := &fleetSession{caption: words(2 + rng.Intn(3))}
	for c := range s.gen {
		for q := 1; q < fleetPerClient; q++ {
			g := meme.GenRequest{Template: o.names[rng.Intn(len(o.names))],
				Top: words(1 + rng.Intn(3)), Bottom: words(1 + rng.Intn(3))}
			img, _ := o.assets.Compose(o.assets.Templates[g.Template], g.Top, g.Bottom)
			s.gen[c][q], s.want[c][q] = g, sha1.Sum(img.EncodePPM())
		}
	}
	return s
}

// sessionOutcome is what one session did, checked.
type sessionOutcome struct {
	bad     []string // failure descriptions; empty if the session passed
	virtNs  int64
	readyNs int64   // virtual time when the server listened: the session's start-up
	rps     float64 // burst: completed requests per virtual second
	goodRps float64 // burst: correct responses within fleetLimitMs per virtual second
	private int64   // arena slots held privately at the end
	c       counters
	spans   []span
	start   time.Time
	end     time.Time
}

// fleetSwarmSeed seeds session index's burst.
func fleetSwarmSeed(seed int64, index int) uint64 { return uint64(seed)*7919 + uint64(index) }

func stageSession(in *browsix.Instance) {
	browsix.InstallBase(in)
	browsix.InstallMeme(in, 40_000_000)
}

// runSession drives one staged instance through the session and checks
// every output. t0 stamps host time for spans.
func runSession(in *browsix.Instance, s *fleetSession, o *fleetOracle, seed uint64, id int, t0 time.Time) *sessionOutcome {
	out := &sessionOutcome{}
	step := func(name string, fn func()) {
		sp := span{name: name, parent: "session", id: id, tid: id + 1, host0: time.Since(t0), virt0: in.Now()}
		fn()
		sp.host1, sp.virt1 = time.Since(t0), in.Now()
		out.spans = append(out.spans, sp)
	}
	fail := func(format string, args ...any) {
		out.bad = append(out.bad, fmt.Sprintf("session %d: ", id)+fmt.Sprintf(format, args...))
	}

	step("pipeline", func() {
		var stdout bytes.Buffer
		cmd := "echo " + s.caption + " | tee /tmp/caption.txt | wc -c"
		p, err := in.Start(browsix.Spec{Argv: sh(cmd), Stdout: &stdout})
		if err != nil {
			fail("pipeline start: %v", err)
			return
		}
		code, err := p.Wait()
		if want := count(len(s.caption) + 1); err != nil || code != 0 || stdout.String() != want {
			fail("pipeline: exit %d err %v stdout %q, want %q", code, err, stdout.String(), want)
		}
	})
	var pid int
	step("server", func() { pid = in.StartMemeServer() })
	out.readyNs = in.Now()

	sendNs := map[[2]int]int64{}
	good := 0
	sw := &netsim.Swarm{
		Clients: fleetClients, PerClient: fleetPerClient, Seed: seed,
		OpenLoop: true, KeepAlive: true, MeanGapNs: fleetGapNs,
		Request: func(client, seq int) *httpx.Request {
			sendNs[[2]int{client, seq}] = in.Now()
			if seq == 0 {
				return &httpx.Request{Method: "GET", Path: "/api/templates"}
			}
			body, err := json.Marshal(s.gen[client][seq])
			must(err)
			return &httpx.Request{Method: "POST", Path: "/api/meme", Body: body}
		},
		OnResponse: func(client, seq int, resp *httpx.Response) {
			ok := string(resp.Body) == o.templates
			if seq > 0 {
				ok = sha1.Sum(resp.Body) == s.want[client][seq]
			}
			if resp.Status != 200 || !ok {
				fail("client %d seq %d: status %d body %q", client, seq, resp.Status, clip(string(resp.Body)))
				return
			}
			if float64(in.Now()-sendNs[[2]int{client, seq}])/1e6 <= fleetLimitMs {
				good++
			}
		},
	}
	var rep netsim.LoadReport
	step("burst", func() { rep = browsix.RunSwarm(in, sw, meme.Port) })
	if n := fleetClients * fleetPerClient; rep.Requests != n || rep.Errors != 0 {
		fail("burst: %d of %d completed, %d errors", rep.Requests, n, rep.Errors)
	}
	out.rps = float64(rep.RPSx1000) / 1000
	if rep.DurationNs > 0 {
		out.goodRps = float64(good) * 1e9 / float64(rep.DurationNs)
	}
	step("stop", func() {
		in.Kill(pid, abi.SIGKILL)
		in.Run()
	})
	cs := in.VFS.CacheStats()
	out.private = cs.CachedPages - cs.DedupPages
	out.c = snapshot(in)
	out.virtNs = in.Now()
	return out
}

func runFleet(b *bench) {
	o := newFleetOracle()
	workers := runtime.NumCPU()
	batch := fleetBatchPerWorker * workers

	// Set-up and the cold sessions: standalone instances (no snapshot
	// registry, private pool) boot every runtime anew. The first
	// two run session 0 and must agree bit for bit; the rest run the
	// next sessions. cold_virt_ms is their mean start-up: boot, staging,
	// the pipeline and the server listening, without snapshots.
	var sig int64
	var cold []float64
	for k := 0; k < setupRuns; k++ {
		in := b.setup(k, func() *browsix.Instance { return browsix.Boot(browsix.Config{}) }, stageSession)
		idx := max(k-1, 0)
		out := runSession(in, genFleetSession(b.seed, idx, o), o, fleetSwarmSeed(b.seed, idx), idx, time.Now())
		if !b.check(len(out.bad) == 0, "cold session %d: %d failed checks", idx, len(out.bad)) {
			for _, p := range out.bad {
				b.problem("%s", p)
			}
		}
		if k == 1 {
			b.gate(out.virtNs == sig, true, "cold session 0 replay: virtual %d ns, first %d ns", out.virtNs, sig)
			continue
		}
		sig = out.virtNs
		cold = append(cold, float64(out.readyNs)/1e6)
	}
	b.coldVirtMs = sum(cold) / float64(len(cold))

	var rps, goodRps []float64
	var dedup, pages, private, captures []float64
	b.tailAt = fleetVirtSessions
	var sessions []*fleetSession
	prepare := func(call int) {
		sessions = make([]*fleetSession, batch)
		for j := range sessions {
			sessions[j] = genFleetSession(b.seed, call*batch+j, o)
		}
	}
	b.window(b.calls(fleetBatchesPerSec, (fleetVirtSessions+batch-1)/batch), prepare, func(call int, traced bool) opResult {
		outs := make([]*sessionOutcome, batch)
		boots := make([]time.Time, batch)
		var last *browsix.Instance
		var lastMu sync.Mutex
		jobs := make([]browsix.Job, batch)
		for j := range jobs {
			j, idx, sess := j, call*batch+j, sessions[j]
			jobs[j] = browsix.Job{
				Name:  fmt.Sprintf("session-%d", idx),
				Setup: stageSession,
				Run: func(in *browsix.Instance) browsix.JobOutput {
					outs[j] = runSession(in, sess, o, fleetSwarmSeed(b.seed, idx), idx, b.t0())
					outs[j].start, outs[j].end = boots[j], time.Now()
					return browsix.JobOutput{}
				},
			}
		}
		fl := &browsix.Fleet{
			Workers: workers,
			OnBoot: func(j int, in *browsix.Instance) {
				boots[j] = time.Now()
				lastMu.Lock()
				last = in
				lastMu.Unlock()
			},
			SnapshotWarmup: &browsix.SnapshotWarmup{Setup: stageSession, Cmds: []string{fleetWarmCmd}},
		}
		results, st := fl.Run(jobs)

		r := opResult{ops: batch}
		for j, res := range results {
			out := outs[j]
			switch {
			case res.Err != nil:
				b.problem("session %d: %v", call*batch+j, res.Err)
				r.failed++
				continue
			case out == nil:
				b.problem("session %d: did not run", call*batch+j)
				r.failed++
				continue
			case len(out.bad) > 0:
				for _, p := range out.bad {
					b.problem("%s", p)
				}
				r.failed++
			}
			r.wallMs = append(r.wallMs, ms(out.end.Sub(out.start)))
			if idx := call*batch + j; idx < fleetVirtSessions {
				b.virtMs = append(b.virtMs, float64(res.VirtualNs)/1e6)
				rps = append(rps, out.rps)
				goodRps = append(goodRps, out.goodRps)
			}
			private = append(private, float64(out.private))
			if traced {
				b.tr.layer.add(out.c)
				for _, sp := range out.spans {
					b.tr.record(sp)
				}
			}
		}
		dedup = append(dedup, st.DedupFactor)
		pages = append(pages, st.PagesPerTenant)
		if traced {
			b.tr.layer["cow_faults"] += st.CowFaults
		}

		// Ledgers: leases, staging slots and COW pins balanced, and no
		// arena slot pinned once the registry is released.
		b.gate(st.LeaseGrants == st.LeaseReturns && st.StagedSlotsLeaked == 0 && st.SnapshotLeak == nil, false,
			"batch %d ledgers: leases %d/%d, staged %d, snapshot %v", call,
			st.LeaseGrants, st.LeaseReturns, st.StagedSlotsLeaked, st.SnapshotLeak)
		if last != nil {
			if reg := last.Snapshots(); reg != nil {
				captures = append(captures, float64(reg.Stats().Captures.Load()))
				reg.Release()
			}
			pinned := last.VFS.CacheStats().PinnedPages
			b.gate(pinned == 0, false, "batch %d: %d arena slots pinned after the fleet", call, pinned)
		}
		b.layer["rt.leases_outstanding"] += float64(st.LeaseGrants - st.LeaseReturns)
		b.layer["fs.staged_slots_leaked"] += float64(st.StagedSlotsLeaked)
		return r
	})
	b.peakRps = median(rps)
	b.sloRps = median(goodRps)
	b.layer["fs.dedup_factor"] = median(dedup)
	b.layer["fs.pages_per_tenant"] = median(pages)
	b.layer["fs.arena_slots_used"] = median(private)
	b.layer["snapshot.captures"] = median(captures)
	if b.tr != nil {
		b.layer["snapshot.cow_faults_per_op"] = ratio(float64(b.tr.layer["cow_faults"]), float64(b.tr.ops))
	}
}
