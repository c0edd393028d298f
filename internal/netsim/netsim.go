// Package netsim models the network outside the browser: remote HTTP
// hosts with round-trip latency, bandwidth, and server-side CPU. It backs
// two pieces of the evaluation:
//
//   - the HTTP-backed file system's lazy fetches (the TeX Live tree served
//     from a web server, §2.2), and
//   - the remote meme-generation server (an EC2 instance in §5.2) that the
//     in-Browsix server is compared against.
package netsim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// Request is a simplified HTTP request delivered to a host handler.
type Request struct {
	Method string
	Path   string
	Header map[string]string
	Body   []byte
}

// Response is a host handler's reply.
type Response struct {
	Status int
	Header map[string]string
	Body   []byte
}

// Host is one remote machine.
type Host struct {
	Name string
	// RTT is the full network round trip between browser and host.
	RTT int64
	// NsPerByte models bandwidth (transfer cost per payload byte each way).
	NsPerByte float64
	// Handler services requests; it runs on the host's own context and
	// may charge server CPU via Charge.
	Handler func(h *Host, req Request) Response

	net *Net
	ctx *sched.Ctx

	// Requests counts served requests (experiment bookkeeping).
	Requests int
}

// Charge accounts server-side CPU for the current request.
func (h *Host) Charge(ns int64) { h.net.sim.Charge(ns) }

// Net is the simulated internet.
type Net struct {
	sim   *sched.Sim
	hosts map[string]*Host

	// Offline simulates losing connectivity (the meme generator's
	// dynamic-routing policy reacts to this).
	Offline bool
}

// New creates an empty network.
func New(sim *sched.Sim) *Net {
	return &Net{sim: sim, hosts: map[string]*Host{}}
}

// AddHost registers a remote host.
func (n *Net) AddHost(h *Host) *Host {
	h.net = n
	h.ctx = n.sim.NewCtx("host:" + h.Name)
	n.hosts[h.Name] = h
	return h
}

// Host looks up a registered host.
func (n *Net) Host(name string) *Host { return n.hosts[name] }

// Fetch issues a request from the current context (normally the browser
// main thread) to a host, delivering the response to cb back on the
// calling context after the modelled latency. Status 0 with no body means
// network unreachable.
func (n *Net) Fetch(host string, req Request, cb func(Response)) {
	from := n.sim.Cur()
	if from == nil {
		panic("netsim: Fetch outside event execution")
	}
	h := n.hosts[host]
	if h == nil || n.Offline {
		// Connection failure surfaces after a timeout-ish delay.
		n.sim.PostDelay(from, 2_000_000, func() {
			cb(Response{Status: 0})
		})
		return
	}
	uplink := h.RTT/2 + int64(float64(len(req.Body))*h.NsPerByte)
	n.sim.PostDelay(h.ctx, uplink, func() {
		h.Requests++
		resp := h.Handler(h, req)
		downlink := h.RTT/2 + int64(float64(len(resp.Body))*h.NsPerByte)
		n.sim.PostDelay(from, downlink, func() { cb(resp) })
	})
}

// FileHost builds a host that serves a static file tree (the TeX Live
// mirror, the meme-template CDN…).
func FileHost(name string, rtt int64, nsPerByte float64, files map[string][]byte) *Host {
	return &Host{
		Name:      name,
		RTT:       rtt,
		NsPerByte: nsPerByte,
		Handler: func(h *Host, req Request) Response {
			p := req.Path
			if !strings.HasPrefix(p, "/") {
				p = "/" + p
			}
			body, ok := files[p]
			if !ok {
				return Response{Status: 404, Body: []byte("not found: " + p)}
			}
			if rng := req.Header["Range"]; rng != "" {
				// "bytes=lo-hi" (inclusive), as real static servers
				// answer 206 Partial Content.
				lo, hi, ok := parseByteRange(rng, int64(len(body)))
				if !ok {
					return Response{Status: 416}
				}
				// Capped: the file bytes may be shared (tex.BuildTree's
				// tree is one map per config for the whole process).
				part := body[lo : hi+1 : hi+1]
				h.Charge(50_000 + int64(len(part))/16)
				return Response{Status: 206, Body: part}
			}
			h.Charge(50_000 + int64(len(body))/16) // static-file server work
			return Response{Status: 200, Body: body}
		},
	}
}

// FSFetcher adapts a host into the fs.Fetcher interface used by the
// HTTP-backed file system backend.
type FSFetcher struct {
	Net    *Net
	HostNm string
	Prefix string // path prefix on the server, e.g. "/texlive"
}

// Fetch implements fs.Fetcher.
func (f *FSFetcher) Fetch(p string, cb func([]byte, int)) {
	f.Net.Fetch(f.HostNm, Request{Method: "GET", Path: f.Prefix + p}, func(r Response) {
		cb(r.Body, r.Status)
	})
}

// FetchRange implements fs.RangeFetcher with a standard HTTP Range
// header, so httpfs reads become 206 Partial Content transfers sized to
// the page cache's window instead of whole-body downloads.
func (f *FSFetcher) FetchRange(p string, off, n int64, cb func([]byte, int)) {
	req := Request{
		Method: "GET",
		Path:   f.Prefix + p,
		Header: map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", off, off+n-1)},
	}
	f.Net.Fetch(f.HostNm, req, func(r Response) {
		cb(r.Body, r.Status)
	})
}

// parseByteRange decodes "bytes=lo-hi" (or the open-ended "bytes=lo-")
// against a body size, returning the clamped inclusive range. Both
// bounds must be clean decimal integers — Sscanf-style prefix matching
// would accept trailing garbage like "bytes=5-2x".
func parseByteRange(s string, size int64) (lo, hi int64, ok bool) {
	if !strings.HasPrefix(s, "bytes=") || size == 0 {
		return 0, 0, false
	}
	spec := s[len("bytes="):]
	los, his, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	l, lerr := strconv.ParseInt(los, 10, 64)
	if lerr != nil || l < 0 || l >= size {
		return 0, 0, false
	}
	h := size - 1
	if his != "" {
		var herr error
		h, herr = strconv.ParseInt(his, 10, 64)
		if herr != nil || h < l {
			return 0, 0, false
		}
		if h >= size {
			h = size - 1
		}
	}
	return l, h, true
}

// String diagnostics.
func (h *Host) String() string {
	return fmt.Sprintf("host(%s rtt=%dus)", h.Name, h.RTT/1000)
}
