package server

import (
	"math/bits"
	"sync"
)

// Payload buffers come from one pool per server, one sync.Pool per
// power-of-two size from minSpareBytes to maxSpareBytes. A session holds a
// buffer only while a message is in hand, so a session at rest holds none,
// and sessions that take turns reuse each other's buffers. A message larger
// than maxSpareBytes — rare — gets a buffer of its own, never pooled.
const (
	minSpareBytes = 512
	maxSpareBytes = 1 << 20
	spareClasses  = 12 // minSpareBytes << (spareClasses-1) == maxSpareBytes
)

// payloadPool recycles payload buffers across a server's sessions. A
// buffer travels as a *[]byte whose length is the payload it holds, so
// putting it back allocates nothing.
type payloadPool struct {
	classes [spareClasses]sync.Pool
}

// spareClass returns the index of the smallest class that holds n bytes.
func spareClass(n int) int {
	if n <= minSpareBytes {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(minSpareBytes-1)
}

// get returns a buffer of length n: pooled when n fits a class, else a
// buffer of its own.
func (p *payloadPool) get(n int) *[]byte {
	if n > maxSpareBytes {
		b := make([]byte, n)
		return &b
	}
	k := spareClass(n)
	b, _ := p.classes[k].Get().(*[]byte)
	if b == nil {
		b = new([]byte)
		*b = make([]byte, minSpareBytes<<k)
	}
	*b = (*b)[:n]
	return b
}

// put hands a buffer from get back: pooled in its class, or let go when
// it is an oversized one.
func (p *payloadPool) put(b *[]byte) {
	if c := cap(*b); c <= maxSpareBytes {
		p.classes[spareClass(c)].Put(b)
	}
}
