package main

import (
	"encoding/json"
	"fmt"
	"sort"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/httpx"
	"repro/internal/meme"
	"repro/internal/netsim"
)

// The meme-swarm workload: one resident meme-server under an open-loop
// keep-alive swarm of simulated browser clients, all in virtual time.
// Latency is measured at fixed rates, the highest rate meeting the
// latency limit is found by bisection, and the timed window repeats
// reference-rate bursts to measure the host cost per request.

const (
	swarmClients = 64
	// swarmProbe is requests per client in a latency probe: 6400 in
	// all, the most whose highest percentile with ten samples beyond it
	// is the p99 the load report gives. swarmBurst is requests per client
	// in a timed burst.
	swarmProbe    = 100
	swarmBurst    = 20
	swarmRefRate  = 500
	swarmPeakRate = 3000
	// swarmLimitMs is the tail latency a browser UI would notice.
	swarmLimitMs = 100.0
	// swarmMinBursts is the minimum number of timed bursts,
	// swarmBurstsPerSec the bursts per measuring second.
	swarmMinBursts    = 100
	swarmBurstsPerSec = 16
	// Bisection bounds (requests per virtual second) when no probed
	// rate brackets the objective.
	swarmLoRate, swarmHiRate = 250, 4000
)

// templatesBody is the exact body of GET /api/templates: the JSON list
// of template names, computed on the host.
func templatesBody() string {
	var names []string
	for n := range meme.Templates() {
		names = append(names, n)
	}
	sort.Strings(names)
	out, err := json.Marshal(names)
	must(err)
	return string(out)
}

// mix64 is splitmix64's finalizer: a seeded hash for request choices.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// probeResult is one swarm run: the report plus the benchmark's checks.
type probeResult struct {
	rep       netsim.LoadReport
	attempted int
	bad       int     // failed or mismatching requests
	drainMs   float64 // last response minus last request sent
	kb        float64 // response body KiB received
}

// probe drives one open-loop swarm at rate requests per virtual second
// against the server and verifies every response. Connections are
// closed afterwards so the next probe meets an idle server.
func probe(b *bench, in *browsix.Instance, rate, perClient int, salt uint64, wantTemplates string) probeResult {
	seed := mix64(uint64(b.seed)*0x100000001b3 ^ salt)
	var lastSend, lastResp int64
	ok := 0
	var conns []netsim.Conn
	dial := browsix.DialPort(in, meme.Port)
	s := &netsim.Swarm{
		Clients:   swarmClients,
		PerClient: perClient,
		Seed:      seed,
		OpenLoop:  true,
		KeepAlive: true,
		MeanGapNs: int64(swarmClients) * 1_000_000_000 / int64(rate),
		Request: func(client, seq int) *httpx.Request {
			lastSend = in.Now()
			if mix64(seed^uint64(client)<<32^uint64(seq))%20 == 0 {
				return &httpx.Request{Method: "GET", Path: "/api/templates"}
			}
			return &httpx.Request{Method: "GET", Path: "/healthz"}
		},
		OnResponse: func(client, seq int, resp *httpx.Response) {
			lastResp = in.Now()
			want := "ok"
			if mix64(seed^uint64(client)<<32^uint64(seq))%20 == 0 {
				want = wantTemplates
			}
			if resp.Status == 200 && string(resp.Body) == want {
				ok++
			} else {
				b.problem("rate %d client %d seq %d: status %d body %q, want %q", rate, client, seq, resp.Status, clip(string(resp.Body)), clip(want))
			}
		},
	}
	var rep netsim.LoadReport
	done := false
	in.Main(func() {
		// The wrapped dialer keeps every connection for teardown.
		s.Start(in.Sim, func(cb func(netsim.Conn, abi.Errno)) {
			dial(func(c netsim.Conn, err abi.Errno) {
				if err == abi.OK {
					conns = append(conns, c)
				}
				cb(c, err)
			})
		}, func(r netsim.LoadReport) { rep, done = r, true })
	})
	if !in.Sim.RunUntil(func() bool { return done }) {
		panic("swarm never completed")
	}
	in.Main(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	in.Run()
	n := swarmClients * perClient
	return probeResult{rep: rep, attempted: n, bad: n - ok, drainMs: float64(lastResp-lastSend) / 1e6,
		kb: float64(rep.Bytes) / 1024}
}

// meets reports whether a probe meets the service objective: p99 within
// the limit, failures (which count as missing the limit) within the 1%
// the percentile leaves, and a drain no longer than the limit, so no
// backlog was building up.
func (p probeResult) meets() bool {
	return float64(p.rep.P99)/1e6 <= swarmLimitMs && p.bad <= p.attempted-rank(99, p.attempted) &&
		p.drainMs <= swarmLimitMs
}

func runSwarm(b *bench) {
	want := templatesBody()
	boot := func() *browsix.Instance { return browsix.Boot(browsix.Config{}) }
	var pid int
	stage := func(in *browsix.Instance) {
		browsix.InstallBase(in)
		browsix.InstallMeme(in, 40_000_000)
		pid = in.StartMemeServer()
	}
	account := func(p probeResult) {
		b.attempted += p.attempted
		b.failed += p.bad
	}

	// Replays: the cold probe on fresh servers must report bit-identical
	// load reports.
	var sig string
	for k := 0; k < setupRuns-1; k++ {
		in := b.setup(k, boot, stage)
		p := probe(b, in, swarmRefRate, swarmProbe, swarmRefRate, want)
		account(p)
		s := fmt.Sprintf("%+v", p.rep)
		if k == 0 {
			sig = s
		} else {
			b.gate(s == sig, true, "replay %d: %s, first replay %s", k, s, sig)
		}
		// A parked server keeps its whole instance reachable; stop it so
		// the replay instance is garbage.
		in.Kill(pid, abi.SIGKILL)
		in.Run()
	}
	in := b.setup(setupRuns-1, boot, stage)

	// Probes, all in virtual time. The first, on the freshly started
	// server, is the cold one; the ladder's reference-rate probe repeats
	// its schedule on the warm server.
	cold := probe(b, in, swarmRefRate, swarmProbe, swarmRefRate, want)
	account(cold)
	b.gate(fmt.Sprintf("%+v", cold.rep) == sig, true, "cold probe %+v, replay %s", cold.rep, sig)
	b.coldVirtMs = float64(cold.rep.P50) / 1e6
	var retries int
	var kb float64
	var reqs int
	lo, hi := swarmLoRate, swarmHiRate
	for _, r := range swarmRates {
		p := probe(b, in, r, swarmProbe, uint64(r), want)
		account(p)
		retries += p.rep.Retries
		kb += p.kb
		reqs += p.rep.Requests
		pre := fmt.Sprintf("netsim.rate.%d.", r)
		b.layer[pre+"p50"] = float64(p.rep.P50) / 1e6
		b.layer[pre+"tail"] = float64(p.rep.P99) / 1e6
		b.layer[pre+"rps"] = float64(p.rep.RPSx1000) / 1000
		b.notes = append(b.notes, fmt.Sprintf("rate %d: %+v bad=%d drain=%.3fms meets=%v", r, p.rep, p.bad, p.drainMs, p.meets()))
		if p.meets() && hi == swarmHiRate {
			lo = r
		} else if hi == swarmHiRate {
			hi = r
		}
		switch r {
		case swarmRefRate:
			b.virtP50, b.virtTail = float64(p.rep.P50)/1e6, float64(p.rep.P99)/1e6
			b.virtN, b.virtTailPct = p.rep.Requests, 99
		case swarmPeakRate:
			b.peakRps = float64(p.rep.RPSx1000) / 1000
			b.layer["netsim.drain_ms"] = p.drainMs
		}
	}
	// Bisect between the highest probed rate that met the objective and
	// the first that did not.
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		p := probe(b, in, mid, swarmProbe, uint64(mid), want)
		account(p)
		if p.meets() {
			lo = mid
		} else {
			hi = mid
		}
	}
	b.sloRps = float64(lo)
	b.layer["netsim.retries"] = float64(retries)
	b.layer["netsim.kb_per_req"] = ratio(kb, float64(reqs))

	// The timed window: reference-rate bursts, each its own seeded swarm.
	b.tailAt = swarmMinBursts
	b.window(b.calls(swarmBurstsPerSec, swarmMinBursts), nil, func(i int, traced bool) opResult {
		var p probeResult
		b.timedOp("rate", in, i, traced, func() { p = probe(b, in, swarmRefRate, swarmBurst, uint64(1_000_000+i), want) })
		return opResult{ops: p.attempted, failed: p.bad}
	})
	b.teardown(in)
}
