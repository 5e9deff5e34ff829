package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"aims/internal/stream"
	"aims/internal/transport"
	"aims/internal/wire"
)

// device is the closed-loop ingest client: wire.AppendBatch into a reused
// buffer, wire.WriteMessage onto the socket, at most window batches
// unacknowledged. Unlike wire.Client it stamps every batch when it is
// sent and when its ack is read, so the ack latency a windowed device
// lives with is measured, not inferred. One goroutine per device.
type device struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	width   int
	window  int
	seq     uint64 // absolute frame offset of the next batch
	payload []byte

	sentAt   []time.Time // ring: send stamps of the unacknowledged batches
	head     int
	inflight int

	acks    []ack   // one per acknowledged batch
	refused int     // acks that were not CodeOK (shed, duplicate)
	tr      *tracer // nil unless the run is traced
	opBase  uint64
}

// ack is when a batch's acknowledgement was read and how long after the
// batch was sent that was.
type ack struct {
	at      time.Time
	latency time.Duration
}

// dialDevice connects and registers the session.
func dialDevice(addr string, h wire.Hello, window int) (*device, wire.Welcome, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, wire.Welcome{}, err
	}
	d := &device{
		conn:   conn,
		br:     bufio.NewReaderSize(conn, 64<<10),
		bw:     bufio.NewWriterSize(conn, 128<<10), // one whole 256×28 batch per write
		width:  h.Channels(),
		window: window,
		sentAt: make([]time.Time, window),
	}
	p, err := h.Encode()
	if err == nil {
		err = d.write(wire.MsgHello, p)
	}
	if err != nil {
		conn.Close()
		return nil, wire.Welcome{}, err
	}
	typ, payload, err := d.read()
	if err == nil && typ != wire.MsgWelcome {
		err = fmt.Errorf("bench: expected welcome, got %s", wire.TypeName(typ))
	}
	var w wire.Welcome
	if err == nil {
		w, err = wire.DecodeWelcome(payload)
	}
	if err == nil && w.Code != wire.CodeOK && w.Code != wire.CodeResumed {
		err = fmt.Errorf("bench: registration rejected: %s", w.Code)
	}
	if err != nil {
		conn.Close()
		return nil, wire.Welcome{}, err
	}
	d.seq = w.AckSeq
	return d, w, nil
}

func (d *device) write(typ byte, payload []byte) error {
	if err := wire.WriteMessage(d.bw, typ, payload); err != nil {
		return err
	}
	return d.bw.Flush()
}

func (d *device) read() (byte, []byte, error) {
	typ, payload, err := wire.ReadMessage(d.br)
	if err != nil {
		return 0, nil, err
	}
	if typ == wire.MsgError {
		if em, derr := wire.DecodeErr(payload); derr == nil {
			return 0, nil, em
		}
		return 0, nil, fmt.Errorf("bench: undecodable server error")
	}
	return typ, payload, nil
}

// readAck consumes the oldest outstanding batch's acknowledgement.
func (d *device) readAck() error {
	typ, payload, err := d.read()
	if err != nil {
		return err
	}
	now := time.Now()
	if typ != wire.MsgBatchAck {
		return fmt.Errorf("bench: expected batch ack, got %s", wire.TypeName(typ))
	}
	a, err := wire.DecodeBatchAck(payload)
	if err != nil {
		return err
	}
	if a.Code != wire.CodeOK {
		d.refused++
	}
	d.acks = append(d.acks, ack{at: now, latency: now.Sub(d.sentAt[d.head])})
	d.head = (d.head + 1) % d.window
	d.inflight--
	return nil
}

// send streams one batch, first waiting for an ack if the window is full.
func (d *device) send(frames []stream.Frame) error {
	for d.inflight >= d.window {
		if err := d.readAck(); err != nil {
			return err
		}
	}
	opID := d.opBase + d.seq
	root := d.tr.begin("client.batch", -1, opID)
	enc := d.tr.begin("wire.encode_batch", root, opID)
	p, err := wire.AppendBatch(d.payload[:0], d.seq, frames, d.width)
	d.tr.end(enc)
	if err != nil {
		return err
	}
	d.payload = p
	wr := d.tr.begin("transport.write", root, opID)
	d.sentAt[(d.head+d.inflight)%d.window] = time.Now()
	err = d.write(wire.MsgBatch, p)
	d.tr.end(wr)
	d.tr.end(root)
	if err != nil {
		return err
	}
	d.inflight++
	d.seq += uint64(len(frames))
	return nil
}

// flush is the drain barrier: every ack is read, then the server confirms
// how many frames are in the store.
func (d *device) flush() (uint64, error) {
	for d.inflight > 0 {
		if err := d.readAck(); err != nil {
			return 0, err
		}
	}
	if err := d.write(wire.MsgFlush, nil); err != nil {
		return 0, err
	}
	typ, payload, err := d.read()
	if err != nil {
		return 0, err
	}
	if typ != wire.MsgFlushAck {
		return 0, fmt.Errorf("bench: expected flush ack, got %s", wire.TypeName(typ))
	}
	a, err := wire.DecodeFlushAck(payload)
	return a.Stored, err
}

// query evaluates one aggregate; call it only behind a flush.
func (d *device) query(q wire.Query) ([]wire.Result, error) {
	if err := d.write(wire.MsgQuery, q.Encode()); err != nil {
		return nil, err
	}
	var steps []wire.Result
	for {
		typ, payload, err := d.read()
		if err != nil {
			return nil, err
		}
		if typ != wire.MsgResult {
			return nil, fmt.Errorf("bench: expected result, got %s", wire.TypeName(typ))
		}
		r, err := wire.DecodeResult(payload)
		if err != nil {
			return nil, err
		}
		if r.Code != wire.CodeOK {
			return nil, fmt.Errorf("bench: query failed: %s", r.Code)
		}
		steps = append(steps, r)
		if r.Final {
			return steps, nil
		}
	}
}

// close ends the session gracefully and returns the final accounting.
func (d *device) close() (wire.CloseAck, error) {
	defer d.conn.Close()
	for d.inflight > 0 {
		if err := d.readAck(); err != nil {
			return wire.CloseAck{}, err
		}
	}
	if err := d.write(wire.MsgClose, nil); err != nil {
		return wire.CloseAck{}, err
	}
	typ, payload, err := d.read()
	if err != nil {
		return wire.CloseAck{}, err
	}
	if typ != wire.MsgCloseAck {
		return wire.CloseAck{}, fmt.Errorf("bench: expected close ack, got %s", wire.TypeName(typ))
	}
	return wire.DecodeCloseAck(payload)
}
