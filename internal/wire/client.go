package wire

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"aims/internal/stream"
	"aims/internal/transport"
)

// Client is the device side of the protocol: one registered session on one
// connection. It pipelines up to Window unacknowledged batches (closed-loop
// flow control) and is not safe for concurrent use — one goroutine per
// client, like one thread per physical device.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader

	// Window is the max number of in-flight (unacked) batches; <= 0 means 1.
	Window int

	// Timeout bounds every socket read and write (a deadline is re-armed
	// per operation). Zero keeps the historical behaviour — no deadlines —
	// in which case Hello or a query can block forever on a half-open
	// connection; any caller crossing a real network should set it.
	Timeout time.Duration

	session     uint64
	width       int
	nextSeq     uint64 // absolute frame offset the next SendBatch stamps
	outstanding int
	shedBatches uint64
	shedFrames  uint64
	dupBatches  uint64
	bytesOut    uint64
	bytesIn     uint64
}

// Dial connects to an AIMS server endpoint — bare host:port (TCP),
// tcp://host:port, or ws://host:port[/path] — with no connect bound.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to an AIMS server endpoint; the context bounds the
// connect and any transport handshake (the WebSocket upgrade included),
// so a blackholed address fails the attempt instead of hanging it.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	conn, err := transport.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		br:   bufio.NewReaderSize(conn, 64<<10),
	}
}

// SessionID returns the server-assigned session ID (0 before Hello).
func (c *Client) SessionID() uint64 { return c.session }

// ShedBatches returns how many of this client's batches the server shed.
func (c *Client) ShedBatches() uint64 { return c.shedBatches }

// ShedFrames returns how many frames those shed batches carried.
func (c *Client) ShedFrames() uint64 { return c.shedFrames }

// DupBatches returns how many of this client's batches the server dropped
// as already-held duplicates (replay after a resume).
func (c *Client) DupBatches() uint64 { return c.dupBatches }

// NextSeq returns the absolute frame offset the next SendBatch will stamp.
func (c *Client) NextSeq() uint64 { return c.nextSeq }

// SetNextSeq overrides the next batch's frame offset; a resuming client
// sets it to the stream position it is replaying or continuing from.
func (c *Client) SetNextSeq(seq uint64) { c.nextSeq = seq }

// Outstanding returns the number of sent-but-unacknowledged batches.
func (c *Client) Outstanding() int { return c.outstanding }

// BytesOut returns how many protocol bytes this client has sent, framing
// headers included.
func (c *Client) BytesOut() uint64 { return c.bytesOut }

// BytesIn returns how many protocol bytes this client has received,
// framing headers included.
func (c *Client) BytesIn() uint64 { return c.bytesIn }

// send frames one message and accounts its bytes. The write deadline
// covers buffered-writer overflow onto the socket mid-message.
func (c *Client) send(typ byte, payload []byte) error {
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	if err := WriteMessage(c.bw, typ, payload); err != nil {
		return err
	}
	c.bytesOut += uint64(MessageSize(len(payload)))
	return nil
}

// flush pushes buffered writes onto the socket under the write deadline.
func (c *Client) flush() error {
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	return c.bw.Flush()
}

// Hello registers the session and blocks for the server's Welcome.
func (c *Client) Hello(h Hello) (Welcome, error) {
	p, err := h.Encode()
	if err != nil {
		return Welcome{}, err
	}
	if err := c.send(MsgHello, p); err != nil {
		return Welcome{}, err
	}
	if err := c.flush(); err != nil {
		return Welcome{}, err
	}
	typ, payload, err := c.read()
	if err != nil {
		return Welcome{}, err
	}
	if typ != MsgWelcome {
		return Welcome{}, fmt.Errorf("wire: expected welcome, got type %d", typ)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		return Welcome{}, err
	}
	if w.Code != CodeOK && w.Code != CodeResumed {
		return w, fmt.Errorf("wire: registration rejected: %s", w.Code)
	}
	c.session = w.SessionID
	c.width = h.Channels()
	if w.AckSeq > c.nextSeq {
		// The server already holds frames up to AckSeq (a resumed session);
		// continue the stream from there so watermark dedup never
		// misreads fresh frames as replay.
		c.nextSeq = w.AckSeq
	}
	return w, nil
}

// read returns the next message, converting MsgError into a Go error.
func (c *Client) read() (byte, []byte, error) {
	if c.Timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}
	typ, payload, err := ReadMessage(c.br)
	if err != nil {
		return 0, nil, err
	}
	c.bytesIn += uint64(MessageSize(len(payload)))
	if typ == MsgError {
		if em, derr := DecodeErr(payload); derr == nil {
			return 0, nil, em
		}
		return 0, nil, fmt.Errorf("wire: undecodable server error")
	}
	return typ, payload, nil
}

// readAck consumes one BatchAck, updating shed accounting.
func (c *Client) readAck() error {
	typ, payload, err := c.read()
	if err != nil {
		return err
	}
	if typ != MsgBatchAck {
		return fmt.Errorf("wire: expected batch ack, got type %d", typ)
	}
	a, err := DecodeBatchAck(payload)
	if err != nil {
		return err
	}
	c.outstanding--
	c.noteAck(a)
	return nil
}

// noteAck folds one BatchAck into the client's shed/duplicate accounting.
func (c *Client) noteAck(a BatchAck) {
	switch a.Code {
	case CodeShed:
		c.shedBatches++
		c.shedFrames += uint64(a.Stored)
	case CodeDuplicate:
		c.dupBatches++
	}
}

// drainAcks blocks until at most n batches remain unacknowledged.
func (c *Client) drainAcks(n int) error {
	if c.outstanding > n {
		// Acks are behind buffered writes: push them out first.
		if err := c.flush(); err != nil {
			return err
		}
	}
	for c.outstanding > n {
		if err := c.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// SendBatch streams one batch at the client's current stream position,
// blocking on acknowledgements when the pipeline window is full.
func (c *Client) SendBatch(frames []stream.Frame) error {
	if err := c.SendBatchAt(c.nextSeq, frames); err != nil {
		return err
	}
	c.nextSeq += uint64(len(frames))
	return nil
}

// SendBatchAt streams one batch stamped with an explicit frame offset
// without advancing the stream position — the replay path of a resuming
// client, which re-sends buffered batches at their original offsets so
// the server's watermark dedup can drop whatever it already holds.
func (c *Client) SendBatchAt(seq uint64, frames []stream.Frame) error {
	if c.session == 0 {
		return fmt.Errorf("wire: SendBatch before Hello")
	}
	win := c.Window
	if win <= 0 {
		win = 1
	}
	if err := c.drainAcks(win - 1); err != nil {
		return err
	}
	p, err := EncodeBatch(seq, frames, c.width)
	if err != nil {
		return err
	}
	if err := c.send(MsgBatch, p); err != nil {
		return err
	}
	c.outstanding++
	return nil
}

// Ping round-trips a liveness probe. Batch acks arriving ahead of the pong
// are folded into the normal ack accounting, so a ping can interleave with
// a pipelined stream.
func (c *Client) Ping() error {
	if c.session == 0 {
		return fmt.Errorf("wire: Ping before Hello")
	}
	nonce := rand.Uint64()
	if err := c.send(MsgPing, Ping{Nonce: nonce}.Encode()); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	for {
		typ, payload, err := c.read()
		if err != nil {
			return err
		}
		switch typ {
		case MsgBatchAck:
			a, err := DecodeBatchAck(payload)
			if err != nil {
				return err
			}
			c.outstanding--
			c.noteAck(a)
		case MsgPong:
			p, err := DecodePong(payload)
			if err != nil {
				return err
			}
			if p.Nonce != nonce {
				return fmt.Errorf("wire: pong nonce %#x != ping %#x", p.Nonce, nonce)
			}
			return nil
		default:
			return fmt.Errorf("wire: expected pong, got type %d", typ)
		}
	}
}

// Flush is a drain barrier: it blocks until every frame this client has
// sent is either stored in the live store or (under the shed policy)
// explicitly dropped, and returns the stored total.
func (c *Client) Flush() (uint64, error) {
	if err := c.drainAcks(0); err != nil {
		return 0, err
	}
	if err := c.send(MsgFlush, nil); err != nil {
		return 0, err
	}
	if err := c.flush(); err != nil {
		return 0, err
	}
	typ, payload, err := c.read()
	if err != nil {
		return 0, err
	}
	if typ != MsgFlushAck {
		return 0, fmt.Errorf("wire: expected flush ack, got type %d", typ)
	}
	a, err := DecodeFlushAck(payload)
	return a.Stored, err
}

// Query evaluates one non-progressive aggregate and returns its single
// result. Pending batch acks are drained first so responses stay ordered.
func (c *Client) Query(q Query) (Result, error) {
	if q.Kind == QueryProgressiveCount {
		steps, err := c.QueryProgressive(q)
		if err != nil {
			return Result{}, err
		}
		return steps[len(steps)-1], nil
	}
	steps, err := c.runQuery(q)
	if err != nil {
		return Result{}, err
	}
	return steps[len(steps)-1], nil
}

// QueryProgressive evaluates a progressive aggregate and returns every
// refinement step, the exact answer last.
func (c *Client) QueryProgressive(q Query) ([]Result, error) {
	q.Kind = QueryProgressiveCount
	return c.runQuery(q)
}

func (c *Client) runQuery(q Query) ([]Result, error) {
	if c.session == 0 {
		return nil, fmt.Errorf("wire: Query before Hello")
	}
	if err := c.drainAcks(0); err != nil {
		return nil, err
	}
	if err := c.send(MsgQuery, q.Encode()); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	var steps []Result
	for {
		typ, payload, err := c.read()
		if err != nil {
			return nil, err
		}
		if typ != MsgResult {
			return nil, fmt.Errorf("wire: expected result, got type %d", typ)
		}
		r, err := DecodeResult(payload)
		if err != nil {
			return nil, err
		}
		if r.Code != CodeOK {
			return nil, fmt.Errorf("wire: query failed: %s", r.Code)
		}
		steps = append(steps, r)
		if r.Final {
			return steps, nil
		}
	}
}

// FleetQuery evaluates one cross-session aggregate and returns the merged
// result. A FleetResult with OK=false (or CodePartial, when the query
// allowed partial answers) is returned without error so the caller can
// inspect the per-session failure detail.
func (c *Client) FleetQuery(q FleetQuery) (FleetResult, error) {
	if c.session == 0 {
		return FleetResult{}, fmt.Errorf("wire: FleetQuery before Hello")
	}
	if err := c.drainAcks(0); err != nil {
		return FleetResult{}, err
	}
	p, err := q.Encode()
	if err != nil {
		return FleetResult{}, err
	}
	if err := c.send(MsgFleetQuery, p); err != nil {
		return FleetResult{}, err
	}
	if err := c.flush(); err != nil {
		return FleetResult{}, err
	}
	typ, payload, err := c.read()
	if err != nil {
		return FleetResult{}, err
	}
	if typ != MsgFleetResult {
		return FleetResult{}, fmt.Errorf("wire: expected fleet result, got type %d", typ)
	}
	return DecodeFleetResult(payload)
}

// Close drains outstanding acks, ends the session, waits for the server's
// final accounting, and closes the connection.
func (c *Client) Close() (CloseAck, error) {
	defer c.conn.Close()
	if c.session == 0 {
		return CloseAck{}, nil
	}
	if err := c.drainAcks(0); err != nil {
		return CloseAck{}, err
	}
	if err := c.send(MsgClose, nil); err != nil {
		return CloseAck{}, err
	}
	if err := c.flush(); err != nil {
		return CloseAck{}, err
	}
	typ, payload, err := c.read()
	if err != nil {
		return CloseAck{}, err
	}
	if typ != MsgCloseAck {
		return CloseAck{}, fmt.Errorf("wire: expected close ack, got type %d", typ)
	}
	return DecodeCloseAck(payload)
}

// Abort closes the connection without the drain handshake.
func (c *Client) Abort() error { return c.conn.Close() }
