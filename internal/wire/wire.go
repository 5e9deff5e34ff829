// Package wire defines the binary protocol of the AIMS middle tier: the
// compact, length-prefixed frame/batch encoding an immersive client device
// uses to register its sensor rig, stream frame batches, and issue
// exact/approximate/progressive range-aggregate queries against a live
// session (the client ↔ middle-tier edge of the paper's Fig. 2
// three-tier architecture).
//
// Every message on the connection is
//
//	uint32 payload length | uint8 message type | payload
//
// in little-endian byte order. The first message of a connection must be
// Hello, which carries the protocol magic and version; everything after
// that is implicitly versioned by the handshake. Frame payloads reuse
// stream.Frame verbatim: a batch is a sequence of (T, values...) float64
// records of a width fixed at registration.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"aims/internal/stream"
)

// Magic opens every Hello payload ("AIMW").
const Magic uint32 = 0x41494D57

// Version is the one protocol version this package speaks and accepts: a
// Hello at any other version is refused (CodeBadVersion on the wire), so
// both ends of a link always agree on every layout below.
//
// Forward compatibility, the only rule: decoders reject trailing bytes, so
// a message may grow only by an optional suffix that is omitted when zero
// — Welcome.AckSeq and the (TraceID, TraceSampled) context of Query and
// FleetQuery are encoded that way — which leaves every payload that does
// not use the new field byte-identical and needs no version bump. Any
// other change to a layout, or to what a field means, increments Version.
const Version uint8 = 4

// MaxPayload bounds a single message (guards the length prefix against
// garbage and hostile peers).
const MaxPayload = 1 << 24

// MaxChannels bounds a device registration.
const MaxChannels = 4096

// Message types.
const (
	MsgHello    byte = 1  // client → server: register a device/session
	MsgWelcome  byte = 2  // server → client: session accepted
	MsgBatch    byte = 3  // client → server: one frame batch
	MsgBatchAck byte = 4  // server → client: batch accepted or shed
	MsgQuery    byte = 5  // client → server: range-aggregate query
	MsgResult   byte = 6  // server → client: one query answer/step
	MsgClose    byte = 7  // client → server: end session (server drains)
	MsgCloseAck byte = 8  // server → client: final session accounting
	MsgError    byte = 9  // server → client: terminal error, conn closes
	MsgFlush    byte = 10 // client → server: barrier — drain my queue
	MsgFlushAck byte = 11 // server → client: barrier reached

	// Fleet messages: one range-aggregate evaluated across
	// every session of a device class (or an explicit session-ID set) and
	// merged server-side.
	MsgFleetQuery  byte = 12 // client → server: cross-session aggregate
	MsgFleetResult byte = 13 // server → client: merged answer + per-session detail

	// Heartbeats: a client pings to prove liveness across an
	// otherwise-idle link; the server echoes the nonce. Once a session has
	// pinged, the server holds it to the heartbeat window instead of the
	// (much longer) idle timeout, so a dead link is detected in seconds.
	MsgPing byte = 14 // client → server: liveness probe
	MsgPong byte = 15 // server → client: nonce echo
)

// TypeName returns the wire-format name of a message type, for metric
// labels and trace annotations.
func TypeName(typ byte) string {
	switch typ {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgBatch:
		return "batch"
	case MsgBatchAck:
		return "batch_ack"
	case MsgQuery:
		return "query"
	case MsgResult:
		return "result"
	case MsgClose:
		return "close"
	case MsgCloseAck:
		return "close_ack"
	case MsgError:
		return "error"
	case MsgFlush:
		return "flush"
	case MsgFlushAck:
		return "flush_ack"
	case MsgFleetQuery:
		return "fleet_query"
	case MsgFleetResult:
		return "fleet_result"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	}
	return fmt.Sprintf("type_%d", typ)
}

// headerSize is the fixed framing overhead of every message: the uint32
// length prefix plus the type byte.
const headerSize = 5

// MessageSize returns the on-the-wire size of a message with the given
// payload length, framing header included.
func MessageSize(payloadLen int) int { return headerSize + payloadLen }

// Code is the shared error/ack vocabulary of the protocol.
type Code uint16

const (
	CodeOK            Code = 0
	CodeShed          Code = 1 // batch dropped under the shed backpressure policy
	CodeBadMessage    Code = 2
	CodeBadVersion    Code = 3
	CodeNotRegistered Code = 4
	CodeBadQuery      Code = 5
	CodeShuttingDown  Code = 6
	CodeInternal      Code = 7
	CodeIdleEvicted   Code = 8
	// CodeResumed is a successful Welcome that adopted a recovered session:
	// the server already holds frames this session journaled before a crash
	// or restart, and ingest continues on top of them.
	CodeResumed Code = 9
	// CodeNoSessions is a fleet result whose scope matched no live session.
	CodeNoSessions Code = 10
	// CodePartial is a fleet result merged from a strict subset of its
	// scope: some sessions failed or missed the deadline (detail rides in
	// FleetResult.Failures) and the query allowed partial answers.
	CodePartial Code = 11
	// CodeDeadline marks a per-session fleet failure: the session's scan
	// had not finished when the fleet deadline expired.
	CodeDeadline Code = 12
	// CodeDuplicate acknowledges a batch the server already holds (its
	// frames sit at or below the session's append watermark): the batch is
	// dropped without re-appending, which is what makes at-least-once
	// replay after a reconnect an exactly-once append. On a Welcome it
	// means "name held": the Hello's name belongs to a session of another
	// shape, or a takeover of the live session under it timed out; no
	// session was created, and the device may retry.
	CodeDuplicate Code = 13
)

// String names a code for logs and error text.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeShed:
		return "shed"
	case CodeBadMessage:
		return "bad-message"
	case CodeBadVersion:
		return "bad-version"
	case CodeNotRegistered:
		return "not-registered"
	case CodeBadQuery:
		return "bad-query"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeInternal:
		return "internal"
	case CodeIdleEvicted:
		return "idle-evicted"
	case CodeResumed:
		return "resumed"
	case CodeNoSessions:
		return "no-sessions"
	case CodePartial:
		return "partial"
	case CodeDeadline:
		return "deadline"
	case CodeDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// QueryKind selects the aggregate a Query evaluates.
type QueryKind uint8

const (
	QueryCount            QueryKind = 1 // exact COUNT over [T0,T1]
	QueryAverage          QueryKind = 2 // exact AVERAGE (value units)
	QueryVariance         QueryKind = 3 // exact VARIANCE (value units²)
	QueryApproxCount      QueryKind = 4 // approximate COUNT, Arg = coefficient budget
	QueryProgressiveCount QueryKind = 5 // progressive COUNT, Arg = max steps
)

// WriteMessage frames one message onto w.
func WriteMessage(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds max %d", len(payload), MaxPayload)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one framed message from r into a freshly allocated
// payload.
func ReadMessage(r io.Reader) (typ byte, payload []byte, err error) {
	return ReadMessageInto(r, func(n int) []byte { return make([]byte, n) })
}

// ReadMessageInto is ReadMessage for a reader that recycles its payload
// buffers. Once the header has announced an n-byte payload, buf(n) supplies
// the storage — any slice of capacity ≥ n, whose contents are overwritten —
// and the returned payload aliases it. Nothing is asked of buf before a
// header arrives, so a reader parked on an idle link holds no buffer.
//
// From a *bufio.Reader the header is peeked in place, so a message read
// through one with recycled buffers allocates nothing.
func ReadMessageInto(r io.Reader, buf func(n int) []byte) (typ byte, payload []byte, err error) {
	var n uint32
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(headerSize)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF // as io.ReadFull reports a torn header
			}
			return 0, nil, err
		}
		n, typ = binary.LittleEndian.Uint32(hdr), hdr[4]
		br.Discard(headerSize)
	} else {
		hdr := make([]byte, headerSize)
		if _, err := io.ReadFull(r, hdr); err != nil {
			return 0, nil, err
		}
		n, typ = binary.LittleEndian.Uint32(hdr), hdr[4]
	}
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: payload length %d exceeds max %d", n, MaxPayload)
	}
	payload = buf(int(n))[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// buf is a little-endian append-only encoder / cursor decoder.
type buf struct {
	b   []byte
	pos int
	err error
}

func (e *buf) u8(v uint8)   { e.b = append(e.b, v) }
func (e *buf) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *buf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *buf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *buf) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *buf) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

func (e *buf) fail() {
	if e.err == nil {
		e.err = fmt.Errorf("wire: truncated payload at offset %d", e.pos)
	}
}
func (e *buf) rdU8() uint8 {
	if e.err != nil || e.pos+1 > len(e.b) {
		e.fail()
		return 0
	}
	v := e.b[e.pos]
	e.pos++
	return v
}
func (e *buf) rdU16() uint16 {
	if e.err != nil || e.pos+2 > len(e.b) {
		e.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(e.b[e.pos:])
	e.pos += 2
	return v
}
func (e *buf) rdU32() uint32 {
	if e.err != nil || e.pos+4 > len(e.b) {
		e.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(e.b[e.pos:])
	e.pos += 4
	return v
}
func (e *buf) rdU64() uint64 {
	if e.err != nil || e.pos+8 > len(e.b) {
		e.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(e.b[e.pos:])
	e.pos += 8
	return v
}
func (e *buf) rdF64() float64 { return math.Float64frombits(e.rdU64()) }
func (e *buf) rdStr() string {
	n := int(e.rdU16())
	if e.err != nil || e.pos+n > len(e.b) {
		e.fail()
		return ""
	}
	s := string(e.b[e.pos : e.pos+n])
	e.pos += n
	return s
}
func (e *buf) done() error {
	if e.err != nil {
		return e.err
	}
	if e.pos != len(e.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(e.b)-e.pos)
	}
	return nil
}

// Hello registers a device/session: its clock, expected session length in
// device ticks (0 lets the server choose), and the per-channel value
// ranges the store's quantisers should span. Class tags the session with
// its device class — "cyberglove", "tracker" — so fleet queries can
// aggregate over every session of a class; it may be empty.
type Hello struct {
	Rate         float64
	HorizonTicks uint32
	Name         string
	Class        string
	Mins, Maxs   []float64 // len == channel count
}

// Channels returns the registered channel count.
func (h Hello) Channels() int { return len(h.Mins) }

// Encode serialises the Hello payload.
func (h Hello) Encode() ([]byte, error) {
	if len(h.Mins) != len(h.Maxs) {
		return nil, fmt.Errorf("wire: hello mins %d != maxs %d", len(h.Mins), len(h.Maxs))
	}
	if len(h.Mins) == 0 || len(h.Mins) > MaxChannels {
		return nil, fmt.Errorf("wire: hello channel count %d out of [1,%d]", len(h.Mins), MaxChannels)
	}
	var e buf
	e.u32(Magic)
	e.u8(Version)
	e.f64(h.Rate)
	e.u32(h.HorizonTicks)
	e.str(h.Name)
	e.u16(uint16(len(h.Mins)))
	for i := range h.Mins {
		e.f64(h.Mins[i])
		e.f64(h.Maxs[i])
	}
	e.str(h.Class)
	return e.b, nil
}

// DecodeHello parses a Hello payload, checking magic and version.
func DecodeHello(p []byte) (Hello, error) {
	d := buf{b: p}
	if m := d.rdU32(); d.err == nil && m != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic %#x", m)
	}
	v := d.rdU8()
	if d.err == nil && v != Version {
		return Hello{}, fmt.Errorf("wire: version %d, want %d", v, Version)
	}
	var h Hello
	h.Rate = d.rdF64()
	h.HorizonTicks = d.rdU32()
	h.Name = d.rdStr()
	n := int(d.rdU16())
	if d.err == nil && (n == 0 || n > MaxChannels) {
		return Hello{}, fmt.Errorf("wire: hello channel count %d out of [1,%d]", n, MaxChannels)
	}
	if d.err == nil {
		h.Mins = make([]float64, n)
		h.Maxs = make([]float64, n)
		for i := 0; i < n; i++ {
			h.Mins[i] = d.rdF64()
			h.Maxs[i] = d.rdF64()
		}
	}
	h.Class = d.rdStr()
	if h.Rate <= 0 && d.err == nil {
		return Hello{}, fmt.Errorf("wire: hello rate %v must be positive", h.Rate)
	}
	return h, d.done()
}

// Welcome acknowledges a Hello. AckSeq is the server's append
// high-watermark for the session in absolute frame offsets: everything
// below it is already held (journaled or live), so a resuming client
// replays only from AckSeq. It rides as a suffix emitted only when
// non-zero.
type Welcome struct {
	SessionID uint64
	Code      Code
	AckSeq    uint64
}

// Encode serialises the Welcome payload.
func (w Welcome) Encode() []byte {
	var e buf
	e.u64(w.SessionID)
	e.u16(uint16(w.Code))
	if w.AckSeq != 0 {
		e.u64(w.AckSeq)
	}
	return e.b
}

// DecodeWelcome parses a Welcome payload; without the suffix AckSeq is
// zero.
func DecodeWelcome(p []byte) (Welcome, error) {
	d := buf{b: p}
	w := Welcome{SessionID: d.rdU64(), Code: Code(d.rdU16())}
	if d.err == nil && d.pos < len(d.b) {
		w.AckSeq = d.rdU64()
	}
	return w, d.done()
}

// Ping is a liveness probe; the server echoes the nonce in a Pong.
type Ping struct {
	Nonce uint64
}

// Encode serialises the Ping payload.
func (p Ping) Encode() []byte {
	var e buf
	e.u64(p.Nonce)
	return e.b
}

// DecodePing parses a Ping payload.
func DecodePing(b []byte) (Ping, error) {
	d := buf{b: b}
	p := Ping{Nonce: d.rdU64()}
	return p, d.done()
}

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Nonce uint64
}

// Encode serialises the Pong payload.
func (p Pong) Encode() []byte {
	var e buf
	e.u64(p.Nonce)
	return e.b
}

// DecodePong parses a Pong payload.
func DecodePong(b []byte) (Pong, error) {
	d := buf{b: b}
	p := Pong{Nonce: d.rdU64()}
	return p, d.done()
}

// Batch carries consecutive frames of a session. Width must match the
// registered channel count.
type Batch struct {
	Seq    uint64
	Frames []stream.Frame
}

// A batch payload is
//
//	seq u64 | count u32 | width u16 | count × (T, width values) float64
//
// The frame records after the 14-byte header are the batch's encoded
// frames: the form CheckBatch hands out, AppendBatchBytes frames and the
// live store quantises directly.

// FrameSize returns the encoded size of one frame record of the given
// width: its timestamp and width values, 8 bytes each.
func FrameSize(width int) int { return (width + 1) * 8 }

// EncodeBatch serialises a batch of frames of the given width.
func EncodeBatch(seq uint64, frames []stream.Frame, width int) ([]byte, error) {
	return AppendBatch(nil, seq, frames, width)
}

// AppendBatch appends the batch encoding to dst and returns the extended
// slice, letting hot paths reuse one scratch buffer across batches instead
// of re-allocating per call.
func AppendBatch(dst []byte, seq uint64, frames []stream.Frame, width int) ([]byte, error) {
	e := buf{b: dst}
	appendBatchHeader(&e, seq, len(frames), width)
	return AppendFrames(e.b, frames, width)
}

// AppendFrames appends the encoded frame records of frames — a batch body
// without its header — to dst.
func AppendFrames(dst []byte, frames []stream.Frame, width int) ([]byte, error) {
	e := buf{b: dst}
	for i := range frames {
		if len(frames[i].Values) != width {
			return nil, fmt.Errorf("wire: frame %d width %d != %d", i, len(frames[i].Values), width)
		}
		e.f64(frames[i].T)
		for _, v := range frames[i].Values {
			e.f64(v)
		}
	}
	return e.b, nil
}

// AppendBatchBytes appends a batch payload to dst whose frame records are
// frames, already encoded at the given width (as CheckBatch returns them):
// the header is written and the records copied, no value decoded.
func AppendBatchBytes(dst []byte, seq uint64, width int, frames []byte) []byte {
	e := buf{b: dst}
	appendBatchHeader(&e, seq, len(frames)/FrameSize(width), width)
	return append(e.b, frames...)
}

func appendBatchHeader(e *buf, seq uint64, count, width int) {
	e.u64(seq)
	e.u32(uint32(count))
	e.u16(uint16(width))
}

// CheckBatch validates a batch payload without decoding it: the header
// must be whole, its width must be the registered one (width < 0 accepts
// any), and the body must hold exactly count frame records, with no bytes
// trailing. It returns the batch's Seq, its frame count and its encoded
// frames, which alias p.
func CheckBatch(p []byte, width int) (seq uint64, count int, frames []byte, err error) {
	d := buf{b: p}
	seq = d.rdU64()
	count = int(d.rdU32())
	w := int(d.rdU16())
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	if width >= 0 && w != width {
		return 0, 0, nil, fmt.Errorf("wire: batch width %d != registered %d", w, width)
	}
	if count*FrameSize(w) != len(p)-d.pos {
		return 0, 0, nil, fmt.Errorf("wire: batch size %d != %d frames × width %d", len(p)-d.pos, count, w)
	}
	return seq, count, p[d.pos:], nil
}

// DecodeBatch parses a batch payload, enforcing the expected frame width
// (pass width < 0 to accept any width).
func DecodeBatch(p []byte, width int) (Batch, error) {
	seq, count, rec, err := CheckBatch(p, width)
	if err != nil {
		return Batch{}, err
	}
	w := int(binary.LittleEndian.Uint16(p[12:]))
	b := Batch{Seq: seq, Frames: make([]stream.Frame, count)}
	// One flat allocation for all values keeps decode cheap.
	flat := make([]float64, count*w)
	for i := range b.Frames {
		b.Frames[i].T = math.Float64frombits(binary.LittleEndian.Uint64(rec))
		vals := flat[i*w : (i+1)*w : (i+1)*w]
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*j:]))
		}
		b.Frames[i].Values = vals
		rec = rec[FrameSize(w):]
	}
	return b, nil
}

// BatchAck acknowledges one batch: CodeOK with the accepted frame count,
// or CodeShed when the backpressure policy dropped it.
type BatchAck struct {
	Seq    uint64
	Code   Code
	Stored uint32
}

// Encode serialises the BatchAck payload.
func (a BatchAck) Encode() []byte {
	var e buf
	e.u64(a.Seq)
	e.u16(uint16(a.Code))
	e.u32(a.Stored)
	return e.b
}

// DecodeBatchAck parses a BatchAck payload.
func DecodeBatchAck(p []byte) (BatchAck, error) {
	d := buf{b: p}
	a := BatchAck{Seq: d.rdU64(), Code: Code(d.rdU16()), Stored: d.rdU32()}
	return a, d.done()
}

// RangeError is the typed decode error for a malformed query range —
// NaN/Inf endpoints or an inverted interval. Rejecting these at decode
// keeps garbage out of the engine (a NaN endpoint would otherwise clamp
// unpredictably deep inside the bucket arithmetic).
type RangeError struct {
	T0, T1 float64
}

// Error implements error.
func (e *RangeError) Error() string {
	return fmt.Sprintf("wire: malformed query range [%v,%v]", e.T0, e.T1)
}

// checkRange validates a query's time range: both endpoints finite, not
// NaN, and T0 ≤ T1.
func checkRange(t0, t1 float64) error {
	if math.IsNaN(t0) || math.IsNaN(t1) || math.IsInf(t0, 0) || math.IsInf(t1, 0) || t1 < t0 {
		return &RangeError{T0: t0, T1: t1}
	}
	return nil
}

// Query is one range-aggregate request over the live session: aggregate
// Kind over Channel for session time [T0, T1] seconds. Arg carries the
// coefficient budget (approximate) or max step count (progressive).
//
// TraceID/TraceSampled carry distributed trace context: a non-zero
// TraceID names the request's trace end-to-end, and TraceSampled forces
// the server to retain the trace regardless of its 1/N sampler (the
// client's -trace flag). The pair rides as a suffix emitted only when
// TraceID is non-zero.
type Query struct {
	Kind    QueryKind
	Channel uint16
	T0, T1  float64
	Arg     uint32

	TraceID      uint64
	TraceSampled bool
}

// NewTraceID returns a random non-zero trace ID for a client that wants to
// trace a request end-to-end (zero means "no trace context" on the wire).
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// appendTraceContext appends the trace-context suffix when set.
func appendTraceContext(e *buf, traceID uint64, sampled bool) {
	if traceID == 0 {
		return
	}
	e.u64(traceID)
	var flags uint8
	if sampled {
		flags |= 1
	}
	e.u8(flags)
}

// readTraceContext consumes the optional trace-context suffix: present
// when payload bytes remain past the fixed fields. A suffix carrying trace
// ID zero is malformed: zero means "no context", which appendTraceContext
// encodes by omitting the suffix, so its flags could not survive a
// re-encode.
func readTraceContext(d *buf) (traceID uint64, sampled bool) {
	if d.err != nil || d.pos >= len(d.b) {
		return 0, false
	}
	traceID = d.rdU64()
	flags := d.rdU8()
	if d.err == nil && traceID == 0 {
		d.err = fmt.Errorf("wire: trace context with zero trace ID")
	}
	return traceID, flags&1 != 0
}

// Encode serialises the Query payload.
func (q Query) Encode() []byte {
	var e buf
	e.u8(uint8(q.Kind))
	e.u16(q.Channel)
	e.f64(q.T0)
	e.f64(q.T1)
	e.u32(q.Arg)
	appendTraceContext(&e, q.TraceID, q.TraceSampled)
	return e.b
}

// DecodeQuery parses a Query payload, rejecting malformed time ranges
// (NaN/Inf endpoints, T1 < T0) with a *RangeError.
func DecodeQuery(p []byte) (Query, error) {
	d := buf{b: p}
	q := Query{
		Kind:    QueryKind(d.rdU8()),
		Channel: d.rdU16(),
		T0:      d.rdF64(),
		T1:      d.rdF64(),
		Arg:     d.rdU32(),
	}
	q.TraceID, q.TraceSampled = readTraceContext(&d)
	if err := d.done(); err != nil {
		return Query{}, err
	}
	if err := checkRange(q.T0, q.T1); err != nil {
		return Query{}, err
	}
	return q, nil
}

// Result is one query answer. Progressive queries emit a Result per
// refinement step with Final set on the last; all other kinds emit exactly
// one Final result. OK=false mirrors the engine's "empty range" signal
// (e.g. AVERAGE over zero samples). Bound is the guaranteed error bound of
// approximate/progressive estimates; Coefficients the transformed-domain
// coefficients spent.
type Result struct {
	Kind         QueryKind
	Final        bool
	OK           bool
	Code         Code
	Value        float64
	Bound        float64
	Coefficients uint32
}

// Encode serialises the Result payload.
func (r Result) Encode() []byte {
	var e buf
	e.u8(uint8(r.Kind))
	var flags uint8
	if r.Final {
		flags |= 1
	}
	if r.OK {
		flags |= 2
	}
	e.u8(flags)
	e.u16(uint16(r.Code))
	e.f64(r.Value)
	e.f64(r.Bound)
	e.u32(r.Coefficients)
	return e.b
}

// DecodeResult parses a Result payload.
func DecodeResult(p []byte) (Result, error) {
	d := buf{b: p}
	r := Result{Kind: QueryKind(d.rdU8())}
	flags := d.rdU8()
	r.Final = flags&1 != 0
	r.OK = flags&2 != 0
	r.Code = Code(d.rdU16())
	r.Value = d.rdF64()
	r.Bound = d.rdF64()
	r.Coefficients = d.rdU32()
	return r, d.done()
}

// CloseAck is the final accounting of a drained session.
type CloseAck struct {
	Stored uint64 // frames in the session's live store, across every link it resumed over
	Shed   uint64 // frames this link lost to the shed backpressure policy
}

// Encode serialises the CloseAck payload.
func (c CloseAck) Encode() []byte {
	var e buf
	e.u64(c.Stored)
	e.u64(c.Shed)
	return e.b
}

// DecodeCloseAck parses a CloseAck payload.
func DecodeCloseAck(p []byte) (CloseAck, error) {
	d := buf{b: p}
	c := CloseAck{Stored: d.rdU64(), Shed: d.rdU64()}
	return c, d.done()
}

// FlushAck answers a Flush barrier with the frames this link stored so far
// (CloseAck.Stored also counts those stored before a resume).
type FlushAck struct {
	Stored uint64
}

// EncodeFlushAck serialises the FlushAck payload.
func (f FlushAck) Encode() []byte {
	var e buf
	e.u64(f.Stored)
	return e.b
}

// DecodeFlushAck parses a FlushAck payload.
func DecodeFlushAck(p []byte) (FlushAck, error) {
	d := buf{b: p}
	f := FlushAck{Stored: d.rdU64()}
	return f, d.done()
}

// ErrMsg is a terminal server-side error; the connection closes after it.
type ErrMsg struct {
	Code Code
	Text string
}

// Error implements error.
func (e ErrMsg) Error() string { return fmt.Sprintf("wire: server error %s: %s", e.Code, e.Text) }

// Encode serialises the ErrMsg payload.
func (e ErrMsg) Encode() []byte {
	var b buf
	b.u16(uint16(e.Code))
	b.str(e.Text)
	return b.b
}

// DecodeErr parses an ErrMsg payload.
func DecodeErr(p []byte) (ErrMsg, error) {
	d := buf{b: p}
	m := ErrMsg{Code: Code(d.rdU16()), Text: d.rdStr()}
	return m, d.done()
}
