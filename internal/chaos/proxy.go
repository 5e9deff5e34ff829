// Package chaos is a deterministic in-process network-fault harness: a
// transport-level proxy that forwards device↔server traffic while
// injecting the failure modes flaky immersive links actually exhibit —
// added latency, connections cut mid-frame, bytes flipped in flight,
// connections reset the moment they are accepted, and full blackhole
// partitions where the link stays up but nothing arrives.
//
// The proxy is transport middleware: it listens on any
// internal/transport endpoint and dials the target through any other, so
// the same fault schedule runs over TCP, WebSocket, or a mix. Because
// each transport's conn decodes its own framing (a ws listener conn
// yields the raw wire byte stream), faults always land on wire-protocol
// bytes — a cut tears a wire frame mid-message over every transport
// alike.
//
// All randomness flows from one seeded PRNG: each accepted connection
// draws two sub-seeds (one per copy direction) at accept time, so the
// fault schedule depends only on the seed and the connection order, not
// on goroutine interleaving. Tests replay the same fault schedule by
// fixing the seed.
package chaos

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aims/internal/transport"
)

// Config shapes a Proxy's fault injection. All rates are probabilities in
// [0, 1] and default to zero (a faithful proxy).
type Config struct {
	// Seed fixes the fault schedule; 0 seeds from the global source.
	Seed int64
	// CutRate is the per-forwarded-chunk probability of cutting the
	// connection mid-chunk: a random prefix of the chunk is delivered and
	// both sides are closed — the receiver sees a torn frame.
	CutRate float64
	// ResetRate is the per-connection probability of accepting and then
	// immediately resetting (RST, not FIN) the connection before any
	// bytes flow.
	ResetRate float64
	// CorruptRate is the per-forwarded-chunk probability of flipping one
	// random byte. The AIMS wire protocol carries no payload checksum, so
	// corrupted values are stored silently — tests asserting bit-identical
	// stores must keep this zero and exercise corruption separately.
	CorruptRate float64
	// LatencyMax, when positive, sleeps each forwarded chunk a uniform
	// duration in [0, LatencyMax).
	LatencyMax time.Duration
	// ChunkBytes bounds each forward read (default 1024). Smaller chunks
	// mean more fault draws per message and finer-grained cut points.
	ChunkBytes int
	// Listen is the endpoint the proxy accepts device connections on
	// (default "tcp://127.0.0.1:0"). A ws:// endpoint makes the proxy
	// terminate WebSocket framing itself, so faults still hit the raw
	// wire byte stream.
	Listen string
	// Dialer reaches the target (nil: the endpoint-scheme default); the
	// target endpoint's scheme picks the server-side transport.
	Dialer transport.Dialer
	// Logf receives fault lifecycle logs (nil discards them).
	Logf func(format string, args ...interface{})
}

// Proxy is one listening fault injector in front of a real server.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener

	mu        sync.Mutex
	rng       *rand.Rand // master: dealt out as per-direction sub-seeds
	conns     map[*link]struct{}
	blackhole bool
	closed    bool

	cuts        atomic.Uint64
	resets      atomic.Uint64
	disconnects atomic.Uint64
	wg          sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client net.Conn
	server net.Conn
	once   sync.Once
}

func (l *link) kill() {
	l.once.Do(func() {
		l.client.Close()
		l.server.Close()
	})
}

// New starts a proxy forwarding to a target endpoint. The listen side
// defaults to a loopback TCP port; set cfg.Listen to front the target
// with a different transport (and dial clients via Addr(), which carries
// the scheme).
func New(target string, cfg Config) (*Proxy, error) {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1024
	}
	if cfg.Listen == "" {
		cfg.Listen = "tcp://127.0.0.1:0"
	}
	if cfg.Dialer == nil {
		cfg.Dialer = transport.Net
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	ln, err := transport.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:    cfg,
		target: target,
		ln:     ln,
		rng:    rand.New(rand.NewSource(seed)),
		conns:  map[*link]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening endpoint — what clients dial. For a
// non-TCP listen transport the string carries the scheme (ws://…), so it
// feeds straight back into transport.Dial / wire.Dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Cuts reports connections cut mid-chunk by the fault schedule.
func (p *Proxy) Cuts() uint64 { return p.cuts.Load() }

// Resets reports connections reset immediately after accept.
func (p *Proxy) Resets() uint64 { return p.resets.Load() }

// Disconnects reports all forced connection teardowns (cuts, resets and
// CutAll sweeps).
func (p *Proxy) Disconnects() uint64 { return p.disconnects.Load() }

// Partition blackholes the proxy for d: connections stay open but every
// byte in either direction is swallowed — the TCP-visible half-open link.
// A zero d partitions until Heal.
func (p *Proxy) Partition(d time.Duration) {
	p.mu.Lock()
	p.blackhole = true
	p.mu.Unlock()
	p.cfg.Logf("chaos: partitioned for %s", d)
	if d > 0 {
		time.AfterFunc(d, p.Heal)
	}
}

// Heal ends a partition.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.blackhole = false
	p.mu.Unlock()
	p.cfg.Logf("chaos: healed")
}

// CutAll force-disconnects every live proxied connection — the
// deterministic "pull the cable now" lever for tests that need a minimum
// disconnect count regardless of what the PRNG schedules.
func (p *Proxy) CutAll() int {
	p.mu.Lock()
	links := make([]*link, 0, len(p.conns))
	for l := range p.conns {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.kill()
		p.disconnects.Add(1)
	}
	if len(links) > 0 {
		p.cfg.Logf("chaos: cut %d live connections", len(links))
	}
	return len(links)
}

// Close stops accepting, tears down every proxied connection and waits
// for the copiers to exit.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.CutAll()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		// All fault randomness for this connection is drawn here, under
		// one lock, in accept order: the copier goroutines then consume
		// their private sub-RNGs without further coordination.
		p.mu.Lock()
		reset := p.rng.Float64() < p.cfg.ResetRate
		upSeed, downSeed := p.rng.Int63(), p.rng.Int63()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			c.Close()
			return
		}
		if reset {
			// Accept-then-reset: SO_LINGER 0 turns the close into an RST,
			// the failure a crashed NAT or midbox produces. On a transport
			// without the linger capability the close degrades to a FIN —
			// still a teardown, just politer than intended.
			// Counted before the close: a peer that has seen the RST must
			// also see it in Resets().
			p.resets.Add(1)
			p.disconnects.Add(1)
			transport.SetLinger(c, 0)
			c.Close()
			p.cfg.Logf("chaos: reset connection on accept")
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s, err := p.cfg.Dialer.DialContext(ctx, p.target)
		cancel()
		if err != nil {
			c.Close()
			continue
		}
		l := &link{client: c, server: s}
		p.mu.Lock()
		p.conns[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.copy(l, c, s, upSeed)   // device → server
		go p.copy(l, s, c, downSeed) // server → device
	}
}

// copy forwards src→dst chunk by chunk, applying the fault schedule of
// its private sub-RNG, until the link dies (naturally or by fault).
func (p *Proxy) copy(l *link, src, dst net.Conn, seed int64) {
	defer p.wg.Done()
	defer func() {
		l.kill()
		p.mu.Lock()
		delete(p.conns, l)
		p.mu.Unlock()
	}()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, p.cfg.ChunkBytes)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			p.mu.Lock()
			hole := p.blackhole
			p.mu.Unlock()
			if hole {
				// Partitioned: swallow silently; the sender's TCP stack
				// keeps buffering until its deadlines fire.
				continue
			}
			if p.cfg.LatencyMax > 0 {
				time.Sleep(time.Duration(rng.Float64() * float64(p.cfg.LatencyMax)))
			}
			if p.cfg.CorruptRate > 0 && rng.Float64() < p.cfg.CorruptRate {
				chunk[rng.Intn(len(chunk))] ^= 0xA5
				p.cfg.Logf("chaos: corrupted a byte")
			}
			if p.cfg.CutRate > 0 && rng.Float64() < p.cfg.CutRate {
				// Deliver a strict prefix, then kill both sides: the
				// receiver is left holding a torn frame.
				if pre := rng.Intn(len(chunk)); pre > 0 {
					dst.Write(chunk[:pre])
				}
				p.cuts.Add(1)
				p.disconnects.Add(1)
				p.cfg.Logf("chaos: cut connection mid-chunk")
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			// Propagate a clean close as a half-close so in-flight
			// responses still drain; a conn without the capability falls
			// back to a full close instead of silently leaving the peer
			// waiting for an EOF that never comes.
			if !transport.CloseWrite(dst) {
				dst.Close()
			}
			return
		}
	}
}
