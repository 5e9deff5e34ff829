package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aims/internal/transport"
	"aims/internal/transport/ws"
	"aims/internal/wire"
)

// encodeHelloAt hand-builds a Hello payload at an explicit protocol
// version, in the layout that version's clients sent: a v1 payload ends
// at the channel ranges; later versions append the device class. Pinning
// the bytes here (instead of calling Hello.Encode, which always writes the
// current version) is what makes this a compatibility test.
func encodeHelloAt(v uint8, rate float64, horizon uint32, name, class string, mins, maxs []float64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, wire.Magic)
	b = append(b, v)
	b = le.AppendUint64(b, math.Float64bits(rate))
	b = le.AppendUint32(b, horizon)
	b = le.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = le.AppendUint16(b, uint16(len(mins)))
	for i := range mins {
		b = le.AppendUint64(b, math.Float64bits(mins[i]))
		b = le.AppendUint64(b, math.Float64bits(maxs[i]))
	}
	if v >= 2 {
		b = le.AppendUint16(b, uint16(len(class)))
		b = append(b, class...)
	}
	return b
}

// TestHelloCompatMatrixOverTransports speaks every protocol version over
// every transport, raw off the socket. The protocol is frozen at
// wire.Version: that version must complete the Hello → batch → flush →
// query → close round trip (a fresh session's Welcome carrying no AckSeq
// suffix), and every other version — the retired v1–v3 included — must be
// refused with a typed CodeBadVersion.
func TestHelloCompatMatrixOverTransports(t *testing.T) {
	const (
		channels = 2
		frames   = 50
	)
	forEachTransport(t, func(t *testing.T, scheme string) {
		_, addr := startServerOn(t, scheme, Config{Store: testStoreCfg()})
		mins, maxs := ranges(channels)
		v := wire.Version
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			conn, err := transport.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			bw := bufio.NewWriter(conn)
			br := bufio.NewReader(conn)
			send := func(typ byte, payload []byte) {
				t.Helper()
				if err := wire.WriteMessage(bw, typ, payload); err != nil {
					t.Fatal(err)
				}
				if err := bw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			expect := func(want byte) []byte {
				t.Helper()
				typ, payload, err := wire.ReadMessage(br)
				if err != nil {
					t.Fatal(err)
				}
				if typ == wire.MsgError {
					em, _ := wire.DecodeErr(payload)
					t.Fatalf("server error instead of msg %d: %v", want, em)
				}
				if typ != want {
					t.Fatalf("got msg type %d, want %d", typ, want)
				}
				return payload
			}

			name := fmt.Sprintf("compat-%s-v%d", scheme, v)
			send(wire.MsgHello, encodeHelloAt(v, 100, 1<<14, name, "matrix", mins, maxs))
			w, err := wire.DecodeWelcome(expect(wire.MsgWelcome))
			if err != nil {
				t.Fatal(err)
			}
			if w.Code != wire.CodeOK {
				t.Fatalf("welcome code = %v, want OK", w.Code)
			}
			if w.AckSeq != 0 {
				t.Fatalf("fresh session welcome carries AckSeq %d", w.AckSeq)
			}

			batch := clientFrames(int(v), frames, channels)
			bp, err := wire.EncodeBatch(0, batch, channels)
			if err != nil {
				t.Fatal(err)
			}
			send(wire.MsgBatch, bp)
			if ack, err := wire.DecodeBatchAck(expect(wire.MsgBatchAck)); err != nil || ack.Code != wire.CodeOK {
				t.Fatalf("batch ack: %+v err=%v", ack, err)
			}
			send(wire.MsgFlush, nil)
			if fa, err := wire.DecodeFlushAck(expect(wire.MsgFlushAck)); err != nil || fa.Stored != frames {
				t.Fatalf("flush ack stored=%d err=%v, want %d", fa.Stored, err, frames)
			}

			send(wire.MsgQuery, wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6}.Encode())
			r, err := wire.DecodeResult(expect(wire.MsgResult))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Final || r.Value != frames {
				t.Fatalf("count = %v (final=%v), want %d", r.Value, r.Final, frames)
			}

			send(wire.MsgClose, nil)
			expect(wire.MsgCloseAck)
		})

		// Every other version must be refused with a typed version error,
		// not a hang or a silent close. v1–v3 keep the row names they had
		// when the server still accepted them.
		for _, tc := range []struct {
			name string
			v    uint8
		}{{"reject-v0", 0}, {"v1", 1}, {"v2", 2}, {"v3", 3}, {"reject-v5", wire.Version + 1}} {
			t.Run(tc.name, func(t *testing.T) {
				conn, err := transport.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				bw := bufio.NewWriter(conn)
				if err := wire.WriteMessage(bw, wire.MsgHello,
					encodeHelloAt(tc.v, 100, 1<<14, "bad-version", "", mins, maxs)); err != nil {
					t.Fatal(err)
				}
				if err := bw.Flush(); err != nil {
					t.Fatal(err)
				}
				typ, payload, err := wire.ReadMessage(bufio.NewReader(conn))
				if err != nil {
					t.Fatal(err)
				}
				if typ != wire.MsgError {
					t.Fatalf("got msg type %d, want error", typ)
				}
				em, err := wire.DecodeErr(payload)
				if err != nil {
					t.Fatal(err)
				}
				if em.Code != wire.CodeBadVersion {
					t.Fatalf("error code = %v, want bad-version", em.Code)
				}
			})
		}
	})
}

// countingConn counts the raw socket bytes written beneath any transport
// framing.
type countingConn struct {
	net.Conn
	out atomic.Uint64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// TestWebSocketByteOverheadBounded runs the identical Hello → batches →
// Flush → COUNT → Close conversation over tcp:// and ws://, counting the
// raw socket bytes under the WebSocket layer. Byte counts are
// deterministic, so the bound is exact, not statistical: WebSocket framing
// (one header + mask per kilobyte-scale wire message, plus the one-time
// upgrade) must inflate client→server bytes by more than nothing and by
// less than 10%, and both transports must store exactly the frames sent.
func TestWebSocketByteOverheadBounded(t *testing.T) {
	const (
		frames   = 16384
		batch    = 128
		channels = 2
	)
	sent := clientFrames(0, frames, channels)
	mins, maxs := ranges(channels)
	bytesOut := map[string]uint64{}
	forEachTransport(t, func(t *testing.T, scheme string) {
		_, addr := startServerOn(t, scheme, Config{Store: testStoreCfg()})
		ep, err := transport.ParseEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := net.Dial("tcp", ep.Host)
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: raw}
		var conn net.Conn = cc
		if ep.Scheme == "ws" {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			conn, err = ws.Client(ctx, cc, ep.Host, ep.Path)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
		}
		c := wire.NewClient(conn)
		c.Timeout = 5 * time.Second
		if _, err := c.Hello(wire.Hello{
			Rate: 100, HorizonTicks: frames, Name: "bytes", Class: "bench",
			Mins: mins, Maxs: maxs,
		}); err != nil {
			t.Fatal(err)
		}
		for at := 0; at < frames; at += batch {
			if err := c.SendBatch(sent[at : at+batch]); err != nil {
				t.Fatal(err)
			}
		}
		if stored, err := c.Flush(); err != nil || stored != frames {
			t.Fatalf("flush stored=%d err=%v, want %d", stored, err, frames)
		}
		r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != frames {
			t.Fatalf("count = %v, want %d", r.Value, frames)
		}
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
		bytesOut[scheme] = cc.out.Load()
	})
	tcpOut, wsOut := bytesOut["tcp"], bytesOut["ws"]
	if tcpOut == 0 || wsOut == 0 {
		t.Fatalf("a transport run did not finish: tcp=%d ws=%d bytes", tcpOut, wsOut)
	}
	pct := 100 * (float64(wsOut) - float64(tcpOut)) / float64(tcpOut)
	t.Logf("client→server bytes: tcp=%d ws=%d (+%.2f%%)", tcpOut, wsOut, pct)
	if pct <= 0 || pct >= 10 {
		t.Fatalf("ws byte inflation %.2f%%, want in (0, 10)", pct)
	}
}
