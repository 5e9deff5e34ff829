package ws

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// pair stands up a real loopback listener and returns an upgraded
// client/server conn pair.
func pair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(inner, "")
	t.Cleanup(func() { l.Close() })

	done := make(chan error, 1)
	go func() {
		var err error
		server, err = l.Accept()
		done <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err = Dial(ctx, inner.Addr().String(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// wireMsg builds one AIMS-framed wire message (u32 LE payload length +
// type byte + payload) so the alignment logic sees real framing.
func wireMsg(typ byte, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, typ)
	return append(b, payload...)
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	if want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="; got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

func TestRoundTripBothDirections(t *testing.T) {
	c, s := pair(t)
	for i, conns := range [][2]net.Conn{{c, s}, {s, c}} {
		src, dst := conns[0], conns[1]
		msg := wireMsg(byte(i+1), []byte("hello immersidata"))
		if _, err := src.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(dst, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("direction %d: got % x, want % x", i, got, msg)
		}
	}
}

// TestWriteCoalescesWireMessages feeds one wire message split across many
// Writes and two wire messages in one Write: the peer must receive exactly
// one WebSocket message per wire message either way.
func TestWriteCoalescesWireMessages(t *testing.T) {
	c, s := pair(t)
	big := wireMsg(2, bytes.Repeat([]byte{0xAB}, 300))
	for i := 0; i < len(big); i += 7 {
		end := i + 7
		if end > len(big) {
			end = len(big)
		}
		if _, err := c.Write(big[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	m1 := wireMsg(3, []byte("first"))
	m2 := wireMsg(4, []byte("second"))
	if _, err := c.Write(append(append([]byte{}, m1...), m2...)); err != nil {
		t.Fatal(err)
	}

	sc := s.(*Conn)
	for i, want := range [][]byte{big, m1, m2} {
		op, payload, err := sc.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op != opBinary {
			t.Fatalf("message %d: opcode %#x, want binary", i, op)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("message %d: got %d bytes, want %d (one wire message per WS message)", i, len(payload), len(want))
		}
	}
}

// TestClientFramesAreMasked sniffs the raw bytes a client writes: the
// payload must not appear in cleartext (RFC 6455 §5.3 requires client
// masking), and the mask bit must be set.
func TestClientFramesAreMasked(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := newConn(a, nil, true)
	payload := []byte("immersidata-in-the-clear")
	msg := wireMsg(9, payload)

	raw := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 1024)
		n, _ := b.Read(buf)
		raw <- buf[:n]
	}()
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := <-raw
	if len(got) < 2 || got[1]&maskBit == 0 {
		t.Fatalf("client frame not masked: header % x", got[:2])
	}
	if bytes.Contains(got, payload) {
		t.Fatal("client payload appeared unmasked on the wire")
	}
}

// TestServerAnswersPing writes a raw Ping frame from the client side; the
// server's Read loop must answer with a Pong carrying the same payload,
// without surfacing anything to the application.
func TestServerAnswersPing(t *testing.T) {
	c, s := pair(t)
	cc := c.(*Conn)
	if err := cc.writeControl(opPing, []byte("ka")); err != nil {
		t.Fatal(err)
	}
	// Give the server's Read something to return after the ping.
	data := wireMsg(1, []byte("after-ping"))
	if _, err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(s, got)
		done <- err
	}()
	// The client should now see the pong.
	op, payload, err := cc.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if op != opPong || string(payload) != "ka" {
		t.Fatalf("got op %#x payload %q, want pong %q", op, payload, "ka")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data after ping corrupted")
	}
}

// TestCloseHandshake: Close on one side surfaces io.EOF on the other, and
// the closing side's write path refuses further writes.
func TestCloseHandshake(t *testing.T) {
	c, s := pair(t)
	if err := c.(*Conn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after close = %v, want io.EOF", err)
	}
	if _, err := c.Write(wireMsg(1, nil)); err == nil {
		t.Fatal("write after CloseWrite succeeded")
	}
}

// TestHalfCloseDrainsResponses is the transport.CloseWriter contract the
// chaos proxy leans on: after the client half-closes, the server can
// still write and the client can still read.
func TestHalfCloseDrainsResponses(t *testing.T) {
	c, s := pair(t)
	if err := c.(*Conn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server read = %v, want io.EOF", err)
	}
	reply := wireMsg(7, []byte("draining reply"))
	if _, err := s.Write(reply); err != nil {
		t.Fatalf("server write after peer half-close: %v", err)
	}
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatal("reply corrupted across half-close")
	}
}

// TestFragmentedMessageReassembles hand-crafts a fragmented data message
// (FIN clear + continuation): the byte stream must come out intact.
func TestFragmentedMessageReassembles(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sc := newConn(b, nil, false)

	frame := func(fin bool, op byte, payload []byte) []byte {
		h := byte(op)
		if fin {
			h |= finBit
		}
		return append([]byte{h, byte(len(payload))}, payload...)
	}
	go func() {
		a.Write(frame(false, opBinary, []byte("im")))
		a.Write(frame(false, opContinuation, []byte("mersi")))
		a.Write(frame(true, opContinuation, []byte("data")))
	}()
	got := make([]byte, 11)
	if _, err := io.ReadFull(sc, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "immersidata" {
		t.Fatalf("reassembled %q", got)
	}
}

// TestDegradedByteStreamStillDelivers writes bytes that are not wire
// framing: the conn must fall back to shipping them as-is.
func TestDegradedByteStreamStillDelivers(t *testing.T) {
	c, s := pair(t)
	junk := bytes.Repeat([]byte{0xFF}, 64) // 0xFFFFFFFF length prefix: implausible
	if _, err := c.Write(junk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(junk))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, junk) {
		t.Fatal("degraded stream corrupted")
	}
}

func TestListenerRejectsBadHandshakes(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(inner, "/aims")
	defer l.Close()

	send := func(req string) string {
		raw, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		raw.SetDeadline(time.Now().Add(2 * time.Second))
		io.WriteString(raw, req)
		resp, _ := io.ReadAll(raw)
		return string(resp)
	}
	base := "Host: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: AQIDBAUGBwgJCgsMDQ4PEA==\r\n"
	if got := send("GET /nope HTTP/1.1\r\n" + base + "Sec-WebSocket-Version: 13\r\n\r\n"); !strings.Contains(got, "404") {
		t.Fatalf("wrong path accepted: %q", got)
	}
	if got := send("GET /aims HTTP/1.1\r\n" + base + "Sec-WebSocket-Version: 12\r\n\r\n"); !strings.Contains(got, "400") {
		t.Fatalf("wrong version accepted: %q", got)
	}
	if got := send("POST /aims HTTP/1.1\r\n" + base + "Sec-WebSocket-Version: 13\r\n\r\n"); !strings.Contains(got, "400") {
		t.Fatalf("wrong method accepted: %q", got)
	}
	// A well-formed handshake on the right path must still work.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ok, err := Dial(ctx, inner.Addr().String(), "/aims")
	if err != nil {
		t.Fatal(err)
	}
	ok.Close()
}

// gatedListener holds back Accept until open is closed, so a test can set
// Listener fields before the first handshake goroutine reads them.
type gatedListener struct {
	net.Listener
	open chan struct{}
}

func (g gatedListener) Accept() (net.Conn, error) {
	<-g.open
	return g.Listener.Accept()
}

// TestListenerDropsStalledHandshake: a client that stops halfway through
// its upgrade request is hung up on once the handshake timeout passes and
// never reaches Accept, while a well-behaved upgrade running at the same
// time goes through.
func TestListenerDropsStalledHandshake(t *testing.T) {
	const timeout = 200 * time.Millisecond
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := gatedListener{inner, make(chan struct{})}
	l := NewListener(gate, "/aims")
	defer l.Close()
	l.timeout = timeout
	close(gate.open)

	stalled, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	begin := time.Now()
	if _, err := io.WriteString(stalled, "GET /aims HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\n"); err != nil {
		t.Fatal(err)
	}

	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ok, err := Dial(ctx, inner.Addr().String(), "/aims")
	if err != nil {
		t.Fatalf("well-behaved upgrade beside a stalled one: %v", err)
	}
	defer ok.Close()
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("well-behaved upgrade never reached Accept")
	}

	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := io.ReadAll(stalled)
	waited := time.Since(begin)
	if err != nil || len(resp) != 0 {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("stalled handshake still open after %v", waited)
		}
		t.Fatalf("stalled handshake: read %q, %v; want a bare hang-up", resp, err)
	}
	if waited < timeout*9/10 {
		t.Fatalf("stalled handshake dropped after %v, before the %v timeout", waited, timeout)
	}
	select {
	case c := <-accepted:
		c.Close()
		t.Fatal("stalled handshake was delivered to Accept")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLargeMessage pushes one max-ish wire message through (1 MiB): the
// 64-bit extended length path on both sides.
func TestLargeMessage(t *testing.T) {
	c, s := pair(t)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	msg := wireMsg(2, payload)
	go func() {
		c.Write(msg)
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("large message corrupted")
	}
}
